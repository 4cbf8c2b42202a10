"""Exhaustive desk-scale verification of the decomposition claims.

For every nonperiodic cyclically reduced word in a length range this module
decomposes the word, re-checks each structural claim the decomposition rests
on, and records violations as anomalies instead of crashing: a single
counterexample is the most valuable possible output of a campaign, so it is
reported, never swallowed. Reports are deterministic for fixed inputs no
matter how many worker processes run the checks.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from itertools import chain, islice
from math import gcd
from types import SimpleNamespace
from typing import Iterator, NamedTuple

# check_word reads peaks and lows from the sign table, not from
# prefix_profile; the name stays bound here for perfbench's self-check.
from .analysis import (  # noqa: F401
    AscentPlacementError,
    Decomposition,
    InvariantViolationError,
    MagnusOrder,
    _require_decomposable,
    decompose,
    prefix_profile,
)
from .series import UndecidedAtCapError
from .words import (
    Letter,
    Word,
    _sorted_rotations,
    is_monotonic,
    is_periodic,
    rotation_set,
)

REPORT_SCHEMA = "orderword-report-1"
_DEDUP_MODES = ("none", "rotation_class")  # every word, or one per rotation class


class Anomaly(NamedTuple):
    """One labeled violation of a checked claim."""

    label: str
    detail: str

    def to_dict(self) -> dict:
        return {"label": self.label, "detail": self.detail}


class WordReport(SimpleNamespace):
    """Everything check_word established about one word, built by keyword."""

    word: Word
    decomposition: Decomposition | None
    ascent_uniquely_positioned: bool | None
    descent_status: str | None  # "unique" | "internal_in_A" | "empty"
    monotonic: bool
    weinbaum_count: int
    anomalies: list[Anomaly]

    @property
    def ok(self) -> bool:
        return not self.anomalies

    def to_dict(self) -> dict:
        dec = self.decomposition
        return {
            "word": str(self.word),
            "length": len(self.word),
            "decomposition": None
            if dec is None
            else {
                "source": str(dec.source),
                "chosen": str(dec.chosen),
                "origin": dec.origin,
                "ascent": str(dec.ascent),
                "descent": str(dec.descent),
                "descent_unique": dec.descent_unique,
            },
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
    return min(rotation_set(w), key=lambda e: _letters_key(e.word.letters)).word


def _require_dedup(dedup: str) -> None:
    if dedup not in _DEDUP_MODES:
        raise ValueError(f"unknown dedup mode {dedup!r}")


def enumerate_cyclically_reduced(rank: int, length: int, dedup: str = "none") -> Iterator[Word]:
    """Yield all cyclically reduced words of one length in lexicographic order.

    With ``dedup="rotation_class"`` only canonical representatives are
    yielded: the words that are the least element of their own rotation set.
    They are generated directly as necklaces, with no filtering of the other
    words (see :func:`_rotation_class_codes`).
    """
    _require_dedup(dedup)
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
    if rank < 1 or length < 1:
        raise ValueError("rank and length must be positive")
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


def _weinbaum_cuts(w: Word) -> list[tuple[int, int]]:
    """Each ``(r, cut)``, in order, where rotation r of w splits into uniquely positioned halves.

    Only rotations of w itself count; nonperiodic cyclically reduced input required.
    """
    _require_decomposable(w, "factorization")
    u, n = _sorted_rotations(w)[3], len(w)
    # The tail is a prefix of row (r + c) mod n; see ``words._sorted_rotations``.
    return [(r, c) for r in range(n) for c in range(1, n) if c >= u[r] and n - c >= u[(r + c) % n]]


def weinbaum_factorizations(w: Word) -> tuple[tuple[Word, Word], ...]:
    """All splits rotation = U * V with both halves uniquely positioned in w, in order."""
    doubled, n = w.letters * 2, len(w)
    return tuple(
        (Word(doubled[r : r + cut], w.rank), Word(doubled[r + cut : r + n], w.rank))
        for r, cut in _weinbaum_cuts(w)
    )


def _weinbaum_count(unique_from: list[int]) -> int:
    """The number of Weinbaum factorizations, from the uniqueness lengths of the rows."""
    n = len(unique_from) // 2
    head, count = unique_from[:n], 0
    free = n - max(head)  # every cut up to here leaves a uniquely positioned tail
    for r, u in enumerate(head):
        count += free - u + 1 if u <= free else 0
        for cut in range(max(u, free + 1), n):
            if n - cut >= head[(r + cut) % n]:
                count += 1
    return count


def _unaudited(w: Word, anomaly: Anomaly) -> WordReport:
    """Report on a word whose decomposition could not be audited."""
    return WordReport(
        word=w,
        decomposition=None,
        ascent_uniquely_positioned=None,
        descent_status=None,
        monotonic=is_monotonic(w),
        weinbaum_count=_weinbaum_count(_sorted_rotations(w)[3]),
        anomalies=[anomaly],
    )


def check_word(w: Word, cmp: MagnusOrder) -> WordReport:
    """Decompose one word and audit every claim; violations become anomalies.

    Precondition violations (empty, length one, periodic, not cyclically
    reduced) raise; everything the decomposition asserts about a valid word is
    verified here and reported, never raised. Every claim is read from the
    word's one sign table, ``CyclicSigns``.

    The overlap claims ("overlap_structure") hold by proof, for any sign
    function, so no span pair is tested. Let spans [s1, e1) and [s2, e2) of
    one word overlap partially, s1 < s2 < e1 < e2. Their overlap [s2, e1) is
    a proper suffix of the first and a proper prefix of the second, so each
    of its prefixes is a prefix of the second span and each of its suffixes
    a suffix of the first. If both spans are ascents, all of these are
    positive and the overlap is an ascent. If one is an ascent and the other
    a descent, the overlap's full length would be both positive and
    negative, so an ascent never partially overlaps a descent.

    Claim 2, that every other copy of D lies strictly inside A or inside
    A^-1, is audited all the way round the chosen rotation A·D. The W^-1
    half holds by proof, for any split and any sign function. Its elements
    are the rotations of D^-1·A^-1. A copy of D there that overlapped the
    D^-1 would share with it a nonempty z that is a prefix of D and a suffix
    of D^-1, or a suffix of D and a prefix of D^-1, so z = z^-1, which no
    nonempty reduced word is. A copy that only touched the D^-1 would put a
    letter next to its inverse in a cyclically reduced word. So every copy
    of D in the W^-1 half lies strictly inside A^-1.

    "host_structure" tests that every host of A, an element holding a copy
    of it, is positive with A as its low-to-peak slice. Three more host facts
    hold by proof, for any sign function. Two copies of A in one element
    start at two cyclic positions of one half, and copies in element r and
    in its inverse start in opposite halves: either way two elements start
    with A (ascent_not_uniquely_positioned). If just one does, it is the row
    decompose chose, and decompose raised InvariantViolationError (reported
    as decomposition_failed) unless its remainder is empty or a descent.
    """
    try:
        dec = decompose(w, cmp)
    except (AscentPlacementError, InvariantViolationError) as exc:
        return _unaudited(w, Anomaly("decomposition_failed", str(exc)))

    anomalies: list[Anomaly] = []
    monotonic = is_monotonic(w)
    table = cmp._cyclic_signs(w)
    n = table.n
    ascent, descent = dec.ascent, dec.descent
    a_letters, size = ascent.letters, len(ascent)

    # The maximal ascent must be an ascent, and a prefix of exactly one rotation. decompose
    # chose the first row that starts with it, as a nonperiodic word's 2n rows are distinct.
    a_starts = table.starts(a_letters)
    chosen_row = a_starts[0]
    if not table.is_ascent(chosen_row, size):
        anomalies.append(
            Anomaly("maximal_ascent_not_ascent", f"{ascent} is not an ascent of {dec.chosen}")
        )
    ascent_unique = len(a_starts) == 1
    if not ascent_unique:
        anomalies.append(
            Anomaly(
                "ascent_not_uniquely_positioned",
                f"{ascent} is a prefix of {len(a_starts)} rotations of {w}",
            )
        )

    # Any extra copy of the descent in the chosen rotation, read cyclically,
    # must sit strictly inside the ascent span.
    if not descent:
        descent_status = "empty"
    else:
        descent_status = "unique" if dec.descent_unique else "internal_in_A"
        # A copy at offset q of the chosen rotation starts its row rotated by q.
        d_starts = table.starts(descent.letters)
        half = chosen_row - chosen_row % n
        for q in sorted((s - chosen_row) % n for s in d_starts if s - s % n == half):
            if q != size and not 1 <= q <= size - len(descent) - 1:
                anomalies.append(
                    Anomaly(
                        "descent_occurrence_outside_ascent",
                        f"{descent} recurs at offset {q} of {dec.chosen}",
                    )
                )

    # Where the order audits claim 3, an empty descent must coincide with monotonicity.
    if cmp.checks_monotonic and dec.descent_empty != monotonic:
        anomalies.append(
            Anomaly(
                "monotonic_descent_mismatch",
                f"monotonic={monotonic} but descent={descent}",
            )
        )

    # Structure of every rotation that contains the maximal ascent.
    for r in table.hosts(a_starts, size):
        if table.sign(r, n) <= 0:
            anomalies.append(
                Anomaly("host_not_positive", f"{table.element(r).word} contains {ascent}")
            )
        # Its low-to-peak slice is A when it has A's length and starts a row that A starts.
        low, peak = table.low_peak[r]
        if not (peak - low == size and table.shift(r, low) in a_starts):
            anomalies.append(
                Anomaly(
                    "peak_low_slice_mismatch",
                    f"host {table.element(r).word}: low {low}, peak {peak}, ascent {ascent}",
                )
            )

    weinbaum_count = _weinbaum_count(table.unique_from)
    if not weinbaum_count:
        anomalies.append(Anomaly("no_weinbaum_factorization", str(w)))

    return WordReport(
        word=w,
        decomposition=dec,
        ascent_uniquely_positioned=ascent_unique,
        descent_status=descent_status,
        monotonic=monotonic,
        weinbaum_count=weinbaum_count,
        anomalies=anomalies,
    )


class CampaignReport(NamedTuple):
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
    # [closed-form count, words enumerated] for each length where the two differ.
    count_mismatch: dict[str, list[int]] | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None or k != "count_mismatch"}


def write_report(report: CampaignReport, path: str) -> None:
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _campaign_part(args: tuple[int, range, str, MagnusOrder, int, int]) -> tuple:
    """Check every word at enumeration index k = part (mod parts), and fold the tallies.

    Returns words per length, the descent-ratio histogram, the least Weinbaum count (None
    if no word was checked) and the counterexamples as (k, report dict).
    """
    rank, lengths, dedup, cmp, part, parts = args
    by_length: Counter[str] = Counter()
    histogram: Counter[str] = Counter()
    weinbaum_min: int | None = None
    counterexamples: list[tuple[int, dict]] = []
    # The enumerator and check_word are read from the module globals, which perfbench patches.
    words = chain.from_iterable(enumerate_cyclically_reduced(rank, n, dedup) for n in lengths)
    for k, w in islice(enumerate(words), part, None, parts):
        if is_periodic(w):
            continue
        try:
            report = check_word(w, cmp)
        except UndecidedAtCapError as exc:
            report = _unaudited(w, Anomaly("comparison_undecided", f"{w}: {exc}"))
        except Exception as exc:
            if hasattr(exc, "add_note"):  # Python 3.11+
                exc.add_note(f"while checking {w}")
            raise
        length = len(w)
        by_length[str(length)] += 1
        if report.decomposition is not None:
            descent_len = len(report.decomposition.descent)
            g = gcd(descent_len, length)  # the ratio in lowest terms, as str(Fraction) writes it
            histogram[f"{descent_len // g}/{length // g}".removesuffix("/1")] += 1
        if weinbaum_min is None or report.weinbaum_count < weinbaum_min:
            weinbaum_min = report.weinbaum_count
        if report.anomalies:
            counterexamples.append((k, report.to_dict()))
    return by_length, histogram, weinbaum_min, counterexamples


def run_campaign(
    rank: int,
    min_length: int,
    max_length: int,
    precedence: tuple[int, ...] | None = None,
    workers: int = 1,
    out_path: str | None = None,
    dedup: str = "rotation_class",
    cap: int | None = None,
) -> CampaignReport:
    """Check every nonperiodic cyclically reduced word in a length range.

    The monotonicity check runs only under the canonical variable precedence.
    Report content is independent of ``workers``, except the wall-clock
    ``duration_seconds``.
    """
    _require_dedup(dedup)
    if not 1 <= min_length <= max_length:
        raise ValueError("need 1 <= min_length <= max_length")
    if workers < 1:
        raise ValueError("workers must be positive")
    # An unwritable report path fails now, not after the whole campaign.
    if out_path == "":
        raise FileNotFoundError("the report path is empty")
    if out_path is not None and os.path.isdir(out_path):
        raise IsADirectoryError(f"report path {out_path!r} is a directory")
    if out_path is not None and not os.path.isdir(os.path.dirname(out_path) or "."):
        raise FileNotFoundError(f"no directory for the report path {out_path!r}")
    cmp = MagnusOrder(rank, precedence=precedence, cap=cap)

    started = time.perf_counter()
    count_of = rotation_class_count if dedup == "rotation_class" else nonperiodic_count
    lengths = range(max(2, min_length), max_length + 1)
    closed_form = {str(length): count_of(rank, length) for length in lengths}
    # A serial campaign is part 0 of 1. cmp is still cold here, so each pool part gets a
    # copy with empty caches.
    if workers == 1 or sum(closed_form.values()) < 2 * workers:
        parts = [_campaign_part((rank, lengths, dedup, cmp, 0, 1))]
    else:
        # Imported here: the pool's module tree is a third of the package's import time.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            args = [(rank, lengths, dedup, cmp, part, workers) for part in range(workers)]
            parts = list(pool.map(_campaign_part, args))

    counts, ratios, least, found = zip(*parts)
    by_length = {n: sum(part[n] for part in counts) for n in closed_form}
    histogram = sum(ratios, Counter())
    counterexamples = [bad for _, bad in sorted(chain.from_iterable(found), key=lambda kb: kb[0])]
    mismatch = {n: [c, by_length[n]] for n, c in closed_form.items() if c != by_length[n]}
    checks = ["unique_ascent", "descent_placement"]
    if cmp.checks_monotonic:
        checks.append("monotonic_descent")
    checks += ["host_structure", "overlap_structure", "weinbaum"]
    report = CampaignReport(
        schema_version=REPORT_SCHEMA,
        rank=rank,
        min_length=min_length,
        max_length=max_length,
        order=cmp.description,
        dedup=dedup,
        checks=checks,
        words_checked=sum(by_length.values()),
        words_checked_by_length=by_length,
        nonperiodic_count=sum(closed_form.values()),
        anomaly_count=sum(len(example["anomalies"]) for example in counterexamples),
        weinbaum_min=min((m for m in least if m is not None), default=None),
        descent_ratio_histogram=dict(sorted(histogram.items())),
        counterexamples=counterexamples,
        duration_seconds=time.perf_counter() - started,
        count_mismatch=mismatch or None,
    )
    if out_path is not None:
        write_report(report, out_path)
    return report
