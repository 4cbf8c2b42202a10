"""The per-word audit as it was before it read one table of signs: a test oracle.

``check_word``, ``_unaudited``, ``weinbaum_factorizations``, ``decompose``,
``maximal_ascent`` and ``_locate`` are copied from the library as it was
before :class:`orderword.series.CyclicSigns`, with the decomposition
records as the library has them now. ``maximal_ascent`` keeps
both of its algorithms: the library has only ``"peaklow"`` now, and
``"bruteforce"``, which classifies every subword of every rotation, is the
oracle the library's result is tested against. It also keeps its record,
``MaximalAscent``, with the first rotation-set element that contains the
ascent; the library's returns the ascent alone. They rebuild every
rotation's spans, prefix profiles and prefix counts from the primitives in
``orderword.words`` and ``orderword.analysis``; the prefix count,
``_prefix_count``, lives here, since the library reads unique positioning
from the rows that start with a pattern and from sorted rotation rows.
Claim 2 is read round the chosen rotation, as the library reads it.
Its host loop still tests three facts that the library's ``check_word``
proves from others: ``ascent_repeated_in_host`` and
``ascent_in_inverse_host`` fire only with ``ascent_not_uniquely_positioned``,
and ``host_remainder_not_descent`` fires only with it too, or on a remainder
that ``decompose`` refuses. ``tests/test_check_word_parity.py`` asserts
those implications, and that the library's ``check_word`` reports exactly
what this one does without the three labels.

``ReferenceSigns`` is the library's sign table as it was before it read
exponent-sum keys: one sign per cell, each prefix of a row of w signed on
its own, the rows of w^-1 by negation, and the greedy low and peak run on
all 2n rows. Its uniqueness lengths come from ``_unique_from``, which
sorts the materialised rows. It assumes only an antisymmetric sign, so the
orders of the parity sweeps that are not bi-invariant audit through it, and
the library's table is tested against it. It takes the library's letter text
and sorted rows only for the positional lookups it inherits: ``starts``,
``letters`` and ``element``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from orderword.analysis import (
    AscentPlacementError,
    Decomposition,
    InvariantViolationError,
    LengthOneError,
    MagnusOrder,
    PeriodicWordError,
    ascent_descent_spans,
    is_ascent,
    is_descent,
    prefix_profile,
)
from orderword.series import CyclicSigns, Ordering
from orderword.verify import Anomaly, WordReport
from orderword.words import (
    Letter,
    NotCyclicallyReducedError,
    Rotation,
    Word,
    _rotation_rows,
    _sorted_rotations,
    concat,
    inverse,
    is_monotonic,
    is_periodic,
    occurrences,
    rotation_set,
)


@dataclass(frozen=True)
class MaximalAscent:
    """The order-largest ascent among subwords of a rotation set, with its host.

    The host is the first rotation-set element that contains the ascent.
    """

    ascent: Word
    host: Word
    origin: str


class ReferenceSigns(CyclicSigns):
    """The per-cell sign table: ``sg[r][l]`` is the sign of the length-l prefix of row r.

    ``sign`` signs each prefix of a row of w, as a word; the length-l prefix of
    row n + s is the inverse of the one of row (-s - l) mod n, and takes its
    negated sign. ``key`` and ``key2`` are always 0, so every comparison of
    two spans goes to the order.
    """

    def __init__(self, w: Word, sign) -> None:
        self.word = w
        self.rows = _rotation_rows(w)
        n = self.n = len(w)
        self._text, self._sorted, self._lcp, _ = _sorted_rotations(w)
        ahead = [
            [0] + [sign(Word(row[:l], w.rank)) for l in range(1, n + 1)] for row in self.rows[:n]
        ]
        back = [[0] + [-ahead[(-s - l) % n][l] for l in range(1, n + 1)] for s in range(n)]
        self.sg = ahead + back
        self.low_peak = [self._greedy(r) for r in range(2 * n)]
        self.unique_from = _unique_from(self.rows)

    def key(self, r: int, i: int, j: int) -> int:
        return 0

    def key2(self, r: int, i: int, j: int) -> int:
        return 0

    def sign(self, r: int, l: int) -> int:
        return self.sg[r][l]

    def _greedy(self, r: int) -> tuple[int, int]:
        # prefix_profile of row r: prefix i against prefix j < i is the sign
        # of span [j, i), the length-(i - j) prefix of row r rotated by j.
        peak = low = 0
        for i in range(1, self.n + 1):
            if self.sign(self.shift(r, peak), i - peak) > 0:
                peak = i
            if self.sign(self.shift(r, low), i - low) < 0:
                low = i
        return low, peak


def _unique_from(rows: list[tuple[Letter, ...]]) -> list[int]:
    """``u[r]``: a length-l prefix of rows[r] is uniquely positioned iff l >= u[r].

    u[r] is 1 + the longest common prefix of row r with any other row, which
    is reached at a sorted neighbour: rows sorted between two rows share
    their common prefix. A row equal to another (periodic words) gets n + 1.
    """
    order = sorted(range(len(rows)), key=rows.__getitem__)
    u = [1] * len(rows)
    for r, s in zip(order, order[1:]):
        a, b = rows[r], rows[s]
        k = 0
        while k < len(a) and a[k] == b[k]:
            k += 1
        u[r] = max(u[r], k + 1)
        u[s] = max(u[s], k + 1)
    return u


def _prefix_count(u_letters: tuple[Letter, ...], elements: tuple[Rotation, ...]) -> int:
    # How many rotation-set elements start with u; u is uniquely positioned at 1.
    n = len(u_letters)
    return sum(1 for e in elements if e.word.letters[:n] == u_letters)


def _intervals_overlap(s1: int, e1: int, s2: int, e2: int) -> bool:
    # Partial overlap only: nonempty intersection, neither interval inside the other.
    if max(s1, s2) >= min(e1, e2):
        return False
    if s1 <= s2 and e2 <= e1:
        return False
    if s2 <= s1 and e1 <= e2:
        return False
    return True


def _locate(ascent_letters: tuple[Letter, ...], elements: tuple[Rotation, ...], rank: int):
    target = Word(ascent_letters, rank)
    for element in elements:
        if occurrences(target, element.word):
            return MaximalAscent(target, element.word, element.origin)
    raise AscentPlacementError("maximal ascent vanished from its own rotation set")


@cache
def _ascent_letters(cmp: MagnusOrder, words: frozenset[Word]) -> frozenset[tuple[Letter, ...]]:
    # The letters of every ascent subword of the rotation class made of words. Every
    # word of a class has the same subwords, so each class is classified once.
    found = set()
    for u in words:
        spans, _ = ascent_descent_spans(u, cmp)
        found.update(u.letters[i:j] for i, j in spans)
    return frozenset(found)


def maximal_ascent(w: Word, cmp: MagnusOrder, algorithm: str = "peaklow") -> MaximalAscent:
    """The unique order-largest ascent over all subwords of the rotation set of w.

    ``algorithm="bruteforce"`` classifies every subword of every rotation,
    once per rotation class and order;
    ``"peaklow"`` takes, per rotation, the slice from the low prefix to the
    peak prefix. Both must return the same word; among rotations containing
    it, the first in rotation-set order is reported as host.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no ascent")
    elements = rotation_set(w)
    candidates: set[tuple[Letter, ...]] = set()
    if algorithm == "bruteforce":
        candidates.update(_ascent_letters(cmp, frozenset(e.word for e in elements)))
    elif algorithm == "peaklow":
        for element in elements:
            low, peak = prefix_profile(element.word, cmp)
            if low < peak:
                candidates.add(element.word.letters[low:peak])
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not candidates:
        raise AscentPlacementError(f"no ascent found among subwords of {w!r}")
    best = None
    for candidate in (Word(letters, w.rank) for letters in candidates):
        if best is None or cmp.compare(candidate, best) is Ordering.GREATER:
            best = candidate
    return _locate(best.letters, elements, w.rank)


def decompose(w: Word, cmp: MagnusOrder) -> Decomposition:
    """Split a rotation of w (or of w^-1) as maximal ascent times descent.

    Requires a cyclically reduced, nonperiodic word of length > 1. The chosen
    rotation is the unique one starting with the maximal ascent; the remainder
    is verified to be empty or a descent before returning.
    """
    if len(w) <= 1:
        raise LengthOneError("decomposition needs a word of length at least 2")
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    if is_periodic(w):
        raise PeriodicWordError(f"{w!r} is a proper power")
    found = maximal_ascent(w, cmp)
    elements = rotation_set(w)
    ascent_letters = found.ascent.letters
    chosen = origin = None
    for element in elements:
        if element.word.letters[: len(ascent_letters)] == ascent_letters:
            chosen, origin = element.word, element.origin
            break
    if chosen is None:
        raise AscentPlacementError(f"no rotation of {w!r} starts with the maximal ascent")
    descent = chosen[len(ascent_letters) :]
    if len(descent) and not is_descent(descent, cmp):
        raise InvariantViolationError(
            f"remainder {descent!r} after the maximal ascent is not a descent"
        )
    return Decomposition(
        source=w,
        chosen=chosen,
        origin=origin,
        ascent=found.ascent,
        descent=descent,
        ascent_unique=_prefix_count(ascent_letters, elements) == 1,
        descent_unique=_prefix_count(descent.letters, elements) == 1 if len(descent) else None,
    )


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
    elements = rotation_set(w)
    n = len(w)
    unique_memo: dict[tuple[Letter, ...], bool] = {}

    def unique(letters: tuple[Letter, ...]) -> bool:
        hit = unique_memo.get(letters)
        if hit is None:
            hit = unique_memo[letters] = _prefix_count(letters, elements) == 1
        return hit

    out = []
    for element in elements[:n]:
        letters = element.word.letters
        for cut in range(1, n):
            head, tail = letters[:cut], letters[cut:]
            if unique(head) and unique(tail):
                out.append((Word(head, w.rank), Word(tail, w.rank)))
    return tuple(out)


def _unaudited(w: Word, anomaly: Anomaly) -> WordReport:
    """Report on a word whose decomposition could not be audited."""
    return WordReport(
        word=w,
        decomposition=None,
        ascent_uniquely_positioned=None,
        descent_status=None,
        monotonic=is_monotonic(w),
        weinbaum_count=len(weinbaum_factorizations(w)),
        anomalies=[anomaly],
    )


def check_word(w: Word, cmp: MagnusOrder) -> WordReport:
    """Decompose one word and audit every claim; violations become anomalies.

    Precondition violations (empty, length one, periodic, not cyclically
    reduced) raise; everything the decomposition asserts about a valid word is
    verified here and reported, never raised. Claim 3 is checked only where
    the order's ``checks_monotonic`` says so.
    """
    try:
        dec = decompose(w, cmp)
    except (AscentPlacementError, InvariantViolationError) as exc:
        return _unaudited(w, Anomaly("decomposition_failed", str(exc)))

    anomalies: list[Anomaly] = []
    monotonic = is_monotonic(w)
    elements = rotation_set(w)
    ascent = dec.ascent
    descent = dec.descent

    # The maximal ascent must be an ascent, and a prefix of exactly one rotation.
    if not is_ascent(ascent, cmp):
        anomalies.append(
            Anomaly("maximal_ascent_not_ascent", f"{ascent} is not an ascent of {dec.chosen}")
        )
    prefix_hits = _prefix_count(ascent.letters, elements)
    ascent_unique = prefix_hits == 1
    if not ascent_unique:
        anomalies.append(
            Anomaly(
                "ascent_not_uniquely_positioned",
                f"{ascent} is a prefix of {prefix_hits} rotations of {w}",
            )
        )

    # Any extra copy of the descent in the chosen rotation, read cyclically,
    # must sit strictly inside the ascent span.
    if not descent:
        descent_status = "empty"
    else:
        descent_status = "unique" if dec.descent_unique else "internal_in_A"
        boundary = len(ascent)
        wrapped = concat(dec.chosen, dec.chosen[: len(descent) - 1])
        for start in occurrences(descent, wrapped):
            if start == boundary:
                continue
            if start < 1 or start + len(descent) > boundary - 1:
                anomalies.append(
                    Anomaly(
                        "descent_occurrence_outside_ascent",
                        f"{descent} recurs at offset {start} of {dec.chosen}",
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
    for element in elements:
        host = element.word
        found = occurrences(ascent, host)
        if not found:
            continue
        if cmp.sign(host) <= 0:
            anomalies.append(Anomaly("host_not_positive", f"{host} contains {ascent}"))
        if len(found) != 1:
            anomalies.append(
                Anomaly("ascent_repeated_in_host", f"{ascent} occurs {len(found)}x in {host}")
            )
        if occurrences(ascent, inverse(host)):
            anomalies.append(
                Anomaly("ascent_in_inverse_host", f"{ascent} also occurs in {inverse(host)}")
            )
        low, peak = prefix_profile(host, cmp)
        if not (low < peak and host.letters[low:peak] == ascent.letters):
            anomalies.append(
                Anomaly(
                    "peak_low_slice_mismatch",
                    f"host {host}: low {low}, peak {peak}, ascent {ascent}",
                )
            )
        if host.letters[: len(ascent)] == ascent.letters and len(host) > len(ascent):
            if not is_descent(host[len(ascent) :], cmp):
                anomalies.append(
                    Anomaly("host_remainder_not_descent", f"{host} after {ascent}")
                )

    # Overlap structure of ascents and descents inside every rotation.
    for element in elements:
        ascents, descents = ascent_descent_spans(element.word, cmp)
        asc_sorted = sorted(ascents)
        desc_sorted = sorted(descents)
        for idx, (s1, e1) in enumerate(asc_sorted):
            for s2, e2 in asc_sorted[idx + 1 :]:
                if s2 >= e1:
                    break
                if _intervals_overlap(s1, e1, s2, e2):
                    piece = (max(s1, s2), min(e1, e2))
                    if piece not in ascents:
                        anomalies.append(
                            Anomaly(
                                "ascent_overlap_not_ascent",
                                f"{element.word}: spans {(s1, e1)} and {(s2, e2)}",
                            )
                        )
        for s1, e1 in asc_sorted:
            for s2, e2 in desc_sorted:
                if _intervals_overlap(s1, e1, s2, e2):
                    anomalies.append(
                        Anomaly(
                            "ascent_descent_overlap",
                            f"{element.word}: ascent {(s1, e1)} vs descent {(s2, e2)}",
                        )
                    )

    weinbaum = weinbaum_factorizations(w)
    if not weinbaum:
        anomalies.append(Anomaly("no_weinbaum_factorization", str(w)))

    return WordReport(
        word=w,
        decomposition=dec,
        ascent_uniquely_positioned=ascent_unique,
        descent_status=descent_status,
        monotonic=monotonic,
        weinbaum_count=len(weinbaum),
        anomalies=anomalies,
    )
