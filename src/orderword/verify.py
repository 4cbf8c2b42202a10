"""Exhaustive desk-scale verification of the decomposition claims.

For every nonperiodic cyclically reduced word in a length range this module
decomposes the word, re-checks each structural claim the decomposition rests
on, and records violations as anomalies instead of crashing: a single
counterexample is the most valuable possible output of a campaign, so it is
reported, never swallowed. Reports are deterministic for fixed inputs no
matter how many worker processes run the checks.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

# check_word reads peaks and lows from the sign table, not from
# prefix_profile; the name stays bound here for perfbench's self-check.
from .analysis import (  # noqa: F401
    AscentPlacementError,
    InvariantViolationError,
    LengthOneError,
    MagnusOrder,
    PeriodicWordError,
    decompose,
    prefix_profile,
)
from .series import UndecidedAtCapError
from .words import (
    Letter,
    NotCyclicallyReducedError,
    Rotation,
    Word,
    _prefix_counts,
    inverse,
    is_monotonic,
    is_periodic,
    occurrences,
    rotation_set,
)

REPORT_SCHEMA = "orderword-report-1"


@dataclass(frozen=True)
class Anomaly:
    """One labeled violation of a checked claim."""

    label: str
    detail: str

    def to_dict(self) -> dict:
        return {"label": self.label, "detail": self.detail}


@dataclass
class WordReport:
    """Everything check_word established about one word."""

    word: Word
    decomposition_summary: dict | None
    ascent_uniquely_positioned: bool | None
    descent_status: str | None  # "unique" | "internal_in_A" | "empty"
    monotonic: bool
    weinbaum_count: int
    anomalies: list[Anomaly]

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def to_dict(self) -> dict:
        return {
            "word": str(self.word),
            "length": len(self.word),
            "decomposition": self.decomposition_summary,
            "ascent_uniquely_positioned": self.ascent_uniquely_positioned,
            "descent_status": self.descent_status,
            "monotonic": self.monotonic,
            "weinbaum_count": self.weinbaum_count,
            "anomalies": [a.to_dict() for a in self.anomalies],
        }


def _letters_key(letters: tuple[Letter, ...]) -> tuple[tuple[int, int], ...]:
    # Lexicographic letter order: generator-major, positive sign first,
    # so a < A < b < B ...
    return tuple((l.generator, 0 if l.sign > 0 else 1) for l in letters)


def canonical_representative(w: Word) -> Word:
    """The lexicographically least element of the rotation set of w."""
    elements = rotation_set(w).elements
    return min(elements, key=lambda e: _letters_key(e.word.letters)).word


def enumerate_cyclically_reduced(rank: int, length: int, dedup: str = "none") -> Iterator[Word]:
    """Yield all cyclically reduced words of one length in lexicographic order.

    With ``dedup="rotation_class"`` only canonical representatives are
    yielded: the words that are the least element of their own rotation set.
    They are generated directly as necklaces, with no filtering of the other
    words (see :func:`_rotation_class_codes`).
    """
    if dedup not in ("none", "rotation_class"):
        raise ValueError(f"unknown dedup mode {dedup!r}")
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be positive")
    # Letter code c = 2 * (generator - 1) + (sign < 0) follows _letters_key,
    # and c ^ 1 is the inverse letter.
    alphabet = [Letter(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    if dedup == "rotation_class":
        for codes in _rotation_class_codes(2 * rank, length):
            yield Word(tuple(alphabet[c] for c in codes), rank)
        return
    prefix: list[Letter] = []

    def walk() -> Iterator[Word]:
        if len(prefix) == length:
            if length == 1 or prefix[0] != prefix[-1].inverse():
                yield Word(tuple(prefix), rank)
            return
        for letter in alphabet:
            if prefix and letter == prefix[-1].inverse():
                continue
            prefix.append(letter)
            yield from walk()
            prefix.pop()

    yield from walk()


def _rotation_class_codes(size: int, n: int) -> Iterator[tuple[int, ...]]:
    """Code tuples of the canonical representatives of length n, in order.

    The prenecklace recursion gen(t, p) of Fredricksen-Kessler-Maiorana and
    Cattell-Ruskey-Sawada-Serra-Miers (J. Algorithms 2000) over codes
    0..size-1, where p is the length of the longest Lyndon prefix. A letter
    that cancels the one before it is skipped; that loses nothing, since
    every prefix of a necklace is a prenecklace and every prefix of a freely
    reduced word is freely reduced. A full-length prenecklace is yielded when
    it is a necklace (n % p == 0), cyclically reduced, and no greater than
    any rotation of its inverse.
    """
    a = [0] * (n + 1)  # a[0] is the recursion's sentinel; the word is a[1:]

    def gen(t: int, p: int) -> Iterator[tuple[int, ...]]:
        if t > n:
            if n % p == 0 and a[1] != a[n] ^ 1:
                word = tuple(a[1:])
                inv = tuple(c ^ 1 for c in reversed(word))
                if all(word <= inv[i:] + inv[:i] for i in range(n)):
                    yield word
            return
        base = a[t - p]
        cancels = a[t - 1] ^ 1 if t > 1 else -1
        for j in range(base, size):
            if j != cancels:
                a[t] = j
                yield from gen(t + 1, p if j == base else t)

    return gen(1, 1)


def cyclically_reduced_count(rank: int, length: int) -> int:
    """Closed-form count of cyclically reduced words (transfer-matrix trace)."""
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be positive")
    return (2 * rank - 1) ** length + (rank - 1) * (-1) ** length + rank


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    if n > 1:
        out = -out
    return out


def nonperiodic_count(rank: int, length: int) -> int:
    """Closed-form count of nonperiodic cyclically reduced words."""
    return sum(
        _mobius(length // d) * cyclically_reduced_count(rank, d)
        for d in range(1, length + 1)
        if length % d == 0
    )


def rotation_class_count(rank: int, length: int) -> int:
    """Number of rotation classes of nonperiodic cyclically reduced words.

    Every such class has exactly 2 * length distinct elements: the rotations
    of a nonperiodic word are pairwise distinct, and none can equal a rotation
    of the inverse because no nontrivial element of a bi-orderable group is
    conjugate to its own inverse.
    """
    total = nonperiodic_count(rank, length)
    classes, remainder = divmod(total, 2 * length)
    if remainder:
        raise AssertionError(f"class size 2n violated at rank {rank}, length {length}")
    return classes


def weinbaum_factorizations(w: Word) -> tuple[tuple[Word, Word], ...]:
    """All splits rotation = U * V with both halves uniquely positioned in w.

    Scans every rotation of w itself (not of the inverse) in offset order and
    every split point in order; nonperiodic cyclically reduced input required.
    """
    if len(w) <= 1:
        raise LengthOneError("factorization needs a word of length at least 2")
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    if is_periodic(w):
        raise PeriodicWordError(f"{w!r} is a proper power")
    elements = rotation_set(w).elements
    out = []
    for r, cut in _weinbaum_cuts(elements, _prefix_counts(elements)):
        letters = elements[r].word.letters
        out.append((Word(letters[:cut], w.rank), Word(letters[cut:], w.rank)))
    return tuple(out)


def _weinbaum_cuts(
    elements: tuple[Rotation, ...], counts: dict[tuple[Letter, ...], int]
) -> list[tuple[int, int]]:
    """(r, cut) for each split of rotation r < n into uniquely positioned halves.

    ``counts`` is :func:`_prefix_counts` of ``elements``; a word is uniquely
    positioned when it prefixes exactly one element.
    """
    n = len(elements) // 2
    out = []
    for r in range(n):
        letters = elements[r].word.letters
        for cut in range(1, n):
            if counts[letters[:cut]] == 1 and counts[letters[cut:]] == 1:
                out.append((r, cut))
    return out


def _unaudited(w: Word, anomaly: Anomaly) -> WordReport:
    """Report on a word whose decomposition could not be audited."""
    return WordReport(
        word=w,
        decomposition_summary=None,
        ascent_uniquely_positioned=None,
        descent_status=None,
        monotonic=is_monotonic(w),
        weinbaum_count=len(weinbaum_factorizations(w)),
        anomalies=[anomaly],
    )


def check_word(w: Word, cmp: MagnusOrder, check_monotonic: bool = True) -> WordReport:
    """Decompose one word and audit every claim; violations become anomalies.

    Precondition violations (empty, length one, periodic, not cyclically
    reduced) raise; everything the decomposition asserts about a valid word is
    verified here and reported, never raised. Every claim is read from the
    word's one table of cyclic-subword signs, ``CyclicSigns``.
    """
    try:
        dec = decompose(w, cmp)
    except (AscentPlacementError, InvariantViolationError) as exc:
        return _unaudited(w, Anomaly("decomposition_failed", str(exc)))

    anomalies: list[Anomaly] = []
    monotonic = is_monotonic(w)
    table = cmp._cyclic_signs(w)
    elements, n = table.elements, table.n
    ascent = dec.ascent
    descent = dec.descent
    a_letters, size = ascent.letters, len(ascent)

    # The maximal ascent must be a prefix of exactly one rotation.
    prefix_hits = table.counts.get(a_letters, 0)
    ascent_unique = prefix_hits == 1
    if not ascent_unique:
        anomalies.append(
            Anomaly(
                "ascent_not_uniquely_positioned",
                f"{ascent} is a prefix of {prefix_hits} rotations of {w}",
            )
        )

    # Any extra copy of the descent inside the chosen rotation must sit
    # strictly inside the ascent span.
    if not descent:
        descent_status = "empty"
    else:
        descent_status = "unique" if dec.descent_unique else "internal_in_A"
        boundary = len(ascent)
        for occ in occurrences(descent, dec.chosen):
            if occ.start == boundary:
                continue
            if occ.start < 1 or occ.end > boundary - 1:
                anomalies.append(
                    Anomaly(
                        "descent_occurrence_outside_ascent",
                        f"{descent} recurs at offset {occ.start} of {dec.chosen}",
                    )
                )

    # Under the series order, an empty descent must coincide with monotonicity.
    if check_monotonic and dec.descent_empty != monotonic:
        anomalies.append(
            Anomaly(
                "monotonic_descent_mismatch",
                f"monotonic={monotonic} but descent={descent}",
            )
        )

    # Structure of every rotation that contains the maximal ascent.
    hits = [len(occurrences(ascent, element.word)) for element in elements]
    for r, element in enumerate(elements):
        if not hits[r]:
            continue
        host = element.word
        if table.sign(r, 0, n) <= 0:
            anomalies.append(Anomaly("host_not_positive", f"{host} contains {ascent}"))
        if hits[r] != 1:
            anomalies.append(
                Anomaly("ascent_repeated_in_host", f"{ascent} occurs {hits[r]}x in {host}")
            )
        # The inverse of rotation r is rotation (n - r) % n of the other word.
        if hits[(n - r) % n + (n if r < n else 0)]:
            anomalies.append(
                Anomaly("ascent_in_inverse_host", f"{ascent} also occurs in {inverse(host)}")
            )
        low, peak = table.low_peak[r]
        if not (low < peak and host.letters[low:peak] == a_letters):
            anomalies.append(
                Anomaly(
                    "peak_low_slice_mismatch",
                    f"host {host}: low {low}, peak {peak}, ascent {ascent}",
                )
            )
        if host.letters[:size] == a_letters and n > size:
            if not table.is_descent(r, size, n):
                anomalies.append(
                    Anomaly("host_remainder_not_descent", f"{host} after {ascent}")
                )

    # Overlap structure of ascents and descents inside every rotation. Spans
    # are sorted, so [s1, e1) and a later [s2, e2) overlap partially exactly
    # when s1 < s2 < e1 < e2, and once s2 >= e1 no later span meets [s1, e1).
    for r, element in enumerate(elements):
        ascents, descents = table.spans(r)
        ascent_set = set(ascents)
        for idx, (s1, e1) in enumerate(ascents):
            for s2, e2 in ascents[idx + 1 :]:
                if s2 >= e1:
                    break
                if s1 < s2 and e1 < e2 and (s2, e1) not in ascent_set:
                    anomalies.append(
                        Anomaly(
                            "ascent_overlap_not_ascent",
                            f"{element.word}: spans {(s1, e1)} and {(s2, e2)}",
                        )
                    )
        for s1, e1 in ascents:
            for s2, e2 in descents:
                if s2 >= e1:
                    break
                if s1 < s2 < e1 < e2 or s2 < s1 < e2 < e1:
                    anomalies.append(
                        Anomaly(
                            "ascent_descent_overlap",
                            f"{element.word}: ascent {(s1, e1)} vs descent {(s2, e2)}",
                        )
                    )

    weinbaum_count = len(_weinbaum_cuts(elements, table.counts))
    if not weinbaum_count:
        anomalies.append(Anomaly("no_weinbaum_factorization", str(w)))

    return WordReport(
        word=w,
        decomposition_summary={
            "source": str(dec.source),
            "chosen": str(dec.chosen),
            "origin": dec.origin,
            "ascent": str(dec.ascent),
            "descent": str(dec.descent) if dec.descent else "1",
            "descent_unique": dec.descent_unique,
        },
        ascent_uniquely_positioned=ascent_unique,
        descent_status=descent_status,
        monotonic=monotonic,
        weinbaum_count=weinbaum_count,
        anomalies=anomalies,
    )


@dataclass
class CampaignReport:
    """Aggregated, deterministic outcome of checking one length range."""

    schema_version: str
    rank: int
    min_length: int
    max_length: int
    order: str
    dedup: str
    checks: list[str]
    words_checked: int
    words_checked_by_length: dict[str, int]
    nonperiodic_count: int
    anomaly_count: int
    weinbaum_min: int | None
    descent_ratio_histogram: dict[str, int]
    counterexamples: list[dict]
    duration_seconds: float

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "rank": self.rank,
            "min_length": self.min_length,
            "max_length": self.max_length,
            "order": self.order,
            "dedup": self.dedup,
            "checks": list(self.checks),
            "words_checked": self.words_checked,
            "words_checked_by_length": dict(self.words_checked_by_length),
            "nonperiodic_count": self.nonperiodic_count,
            "anomaly_count": self.anomaly_count,
            "weinbaum_min": self.weinbaum_min,
            "descent_ratio_histogram": dict(self.descent_ratio_histogram),
            "counterexamples": list(self.counterexamples),
            "duration_seconds": self.duration_seconds,
        }


def write_report(report: CampaignReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _summary(report: WordReport) -> tuple:
    dec = report.decomposition_summary
    descent_len = None
    if dec is not None:
        descent_len = 0 if dec["descent"] == "1" else len(dec["descent"])
    return (
        len(report.word),
        descent_len,
        report.weinbaum_count,
        report.to_dict() if report.anomalies else None,
        len(report.anomalies),
    )


def _campaign_chunk(args: tuple) -> list[tuple]:
    letters_list, rank, precedence, cap, check_monotonic = args
    cmp = MagnusOrder(rank, precedence=precedence, cap=cap)
    out = []
    for letters in letters_list:
        w = Word(letters, rank)
        try:
            report = check_word(w, cmp, check_monotonic=check_monotonic)
        except UndecidedAtCapError as exc:
            report = _unaudited(w, Anomaly("comparison_undecided", f"{w}: {exc}"))
        except Exception as exc:
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"while checking {w}")
            raise
        out.append(_summary(report))
    return out


def run_campaign(
    rank: int,
    min_length: int,
    max_length: int,
    precedence: tuple[int, ...] | None = None,
    workers: int = 1,
    out_path: str | None = None,
    dedup: str = "rotation_class",
    cap: int | None = None,
    check_monotonic: bool | None = None,
) -> CampaignReport:
    """Check every nonperiodic cyclically reduced word in a length range.

    The monotonicity check runs only under the canonical variable precedence
    unless forced via ``check_monotonic``. Report content is independent of
    ``workers``, except the wall-clock ``duration_seconds``.
    """
    if not 1 <= min_length <= max_length:
        raise ValueError("need 1 <= min_length <= max_length")
    if workers < 1:
        raise ValueError("workers must be positive")
    order = MagnusOrder(rank, precedence=precedence, cap=cap).description
    canonical = precedence is None or tuple(precedence) == tuple(range(1, rank + 1))
    if check_monotonic is None:
        check_monotonic = canonical

    started = time.perf_counter()
    todo: list[tuple[Letter, ...]] = []
    by_length: dict[str, int] = {}
    for length in range(max(2, min_length), max_length + 1):
        count = 0
        for w in enumerate_cyclically_reduced(rank, length, dedup=dedup):
            if is_periodic(w):
                continue
            todo.append(w.letters)
            count += 1
        by_length[str(length)] = count

    if workers == 1 or len(todo) < 2 * workers:
        summaries = _campaign_chunk((todo, rank, precedence, cap, check_monotonic))
    else:
        chunk_count = workers * 4
        size = -(-len(todo) // chunk_count)
        chunks = [
            (todo[i : i + size], rank, precedence, cap, check_monotonic)
            for i in range(0, len(todo), size)
        ]
        summaries = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_campaign_chunk, chunks):
                summaries.extend(part)

    histogram: dict[str, int] = {}
    counterexamples: list[dict] = []
    weinbaum_min: int | None = None
    anomaly_count = 0
    for length, descent_len, weinbaum_count, bad_report, n_anomalies in summaries:
        if descent_len is not None:
            key = str(Fraction(descent_len, length))
            histogram[key] = histogram.get(key, 0) + 1
        if weinbaum_min is None or weinbaum_count < weinbaum_min:
            weinbaum_min = weinbaum_count
        anomaly_count += n_anomalies
        if bad_report is not None:
            counterexamples.append(bad_report)

    checks = ["unique_ascent", "descent_placement"]
    if check_monotonic:
        checks.append("monotonic_descent")
    checks += ["host_structure", "overlap_structure", "weinbaum"]
    report = CampaignReport(
        schema_version=REPORT_SCHEMA,
        rank=rank,
        min_length=min_length,
        max_length=max_length,
        order=order,
        dedup=dedup,
        checks=checks,
        words_checked=len(todo),
        words_checked_by_length=by_length,
        nonperiodic_count=len(todo),
        anomaly_count=anomaly_count,
        weinbaum_min=weinbaum_min,
        descent_ratio_histogram=dict(sorted(histogram.items())),
        counterexamples=counterexamples,
        duration_seconds=time.perf_counter() - started,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report
