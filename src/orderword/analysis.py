"""Ascent/descent structure of words under a bi-invariant total order.

An ascent is a nonempty word all of whose nonempty prefixes and suffixes sit
above the identity; a descent sits below. Every cyclically reduced word has a
unique largest ascent among the subwords of its rotation set, and rotating
that ascent to the front splits the word into ascent * descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import takewhile
from typing import Callable

from .series import (
    _ORDERINGS,
    MuCache,
    Ordering,
    _check_cap,
    _check_precedence,
    _compare_letters,
)
from .words import (
    Letter,
    NotCyclicallyReducedError,
    Occurrence,
    Rotation,
    Word,
    _prefix_counts,
    is_periodic,
    occurrences,
    rotation_set,
)

class PeriodicWordError(ValueError):
    """The word is a proper power, so the decomposition is not defined."""


class LengthOneError(ValueError):
    """The word is too short to decompose."""


class AscentPlacementError(RuntimeError):
    """No rotation starts with the maximal ascent; this should never happen."""


class InvariantViolationError(RuntimeError):
    """A structural fact the decomposition relies on failed to hold."""


class MagnusOrder:
    """The series-induced bi-order, with per-instance caching.

    ``precedence`` permutes which variable dominates the monomial enumeration;
    the default (1, 2, ..., rank) puts X1 first, so generator 1 is the
    largest single letter. Distinct precedences are distinct bi-orders.
    ``cap`` limits the deciding degree; by default it is the proved syllable
    bound, so no comparison of distinct words can run out of degrees.
    """

    def __init__(
        self,
        rank: int = 2,
        precedence: tuple[int, ...] | None = None,
        cap: int | None = None,
    ) -> None:
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        self.precedence = None if precedence is None else _check_precedence(precedence, rank)
        _check_cap(cap)
        self.cap = cap
        self._cache = MuCache()
        self._signs: dict[tuple[Letter, ...], int] = {}
        self._table: CyclicSigns | None = None

    @property
    def description(self) -> str:
        order = self.precedence or tuple(range(1, self.rank + 1))
        return "magnus(" + ">".join(f"x{g}" for g in order) + ")"

    def compare(self, v: Word, w: Word) -> Ordering:
        if v.rank != w.rank:
            raise ValueError("cannot compare words of different ranks")
        return _ORDERINGS[self._compare_letters(v.letters, w.letters)]

    def greater(self, v: Word, w: Word) -> bool:
        return self.compare(v, w) is Ordering.GREATER

    def less(self, v: Word, w: Word) -> bool:
        return self.compare(v, w) is Ordering.LESS

    def sign(self, w: Word) -> int:
        """+1, 0 or -1 as w compares to the identity."""
        return self._sign_letters(w.letters)

    def _compare_letters(self, lv: tuple[Letter, ...], lw: tuple[Letter, ...]) -> int:
        return _compare_letters(
            lv, lw, self.rank, self.cap, self.precedence, self._cache, self._signs
        )

    def _sign_letters(self, letters: tuple[Letter, ...]) -> int:
        sign = self._signs.get(letters)
        return self._compare_letters(letters, ()) if sign is None else sign

    def _cyclic_signs(self, w: Word) -> CyclicSigns:
        """The sign table of w, kept until a table of another word is asked for."""
        table = self._table
        if table is None or table.word != w:
            table = self._table = CyclicSigns(w, self._sign_letters)
        return table


def is_ascent(u: Word, cmp: MagnusOrder) -> bool:
    """True iff u is nonempty and every nonempty prefix and suffix exceeds 1."""
    letters = u.letters
    n = len(letters)
    if n == 0:
        return False
    return all(cmp._sign_letters(letters[:i]) > 0 for i in range(1, n + 1)) and all(
        cmp._sign_letters(letters[i:]) > 0 for i in range(1, n)
    )


def is_descent(u: Word, cmp: MagnusOrder) -> bool:
    """True iff u is nonempty and every nonempty prefix and suffix is below 1."""
    letters = u.letters
    n = len(letters)
    if n == 0:
        return False
    return all(cmp._sign_letters(letters[:i]) < 0 for i in range(1, n + 1)) and all(
        cmp._sign_letters(letters[i:]) < 0 for i in range(1, n)
    )


@dataclass(frozen=True)
class PrefixProfile:
    """Positions of the order-largest and order-smallest prefix of a word.

    The n+1 prefixes of a reduced word are pairwise distinct group elements,
    so peak and low are unique; they coincide only for the empty host.
    """

    host: Word
    peak_index: int
    low_index: int

    @property
    def peak(self) -> Word:
        return self.host[: self.peak_index]

    @property
    def low(self) -> Word:
        return self.host[: self.low_index]

    @property
    def degenerate(self) -> bool:
        return len(self.host) == 0


def prefix_profile(w: Word, cmp: MagnusOrder) -> PrefixProfile:
    """Scan all prefixes of w and record where the order peak and low fall."""
    letters = w.letters
    sign = cmp._sign_letters
    peak_index = low_index = 0
    for i in range(1, len(letters) + 1):
        # Prefix i against an earlier prefix j is the sign of letters[j:i].
        if sign(letters[peak_index:i]) > 0:
            peak_index = i
        if sign(letters[low_index:i]) < 0:
            low_index = i
    return PrefixProfile(host=w, peak_index=peak_index, low_index=low_index)


def ascent_descent_spans(
    w: Word, cmp: MagnusOrder
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Index spans [i, j) of all ascent and all descent subwords of w."""
    letters = w.letters
    n = len(letters)
    sign = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            sign[i, j] = cmp._sign_letters(letters[i:j])
    # A span is an ascent iff every prefix span and suffix span is positive;
    # both conditions extend one letter at a time.
    pref_pos, pref_neg = {}, {}
    for i in range(n):
        all_pos = all_neg = True
        for j in range(i + 1, n + 1):
            s = sign[i, j]
            all_pos = all_pos and s > 0
            all_neg = all_neg and s < 0
            pref_pos[i, j] = all_pos
            pref_neg[i, j] = all_neg
    ascents, descents = set(), set()
    for j in range(1, n + 1):
        all_pos = all_neg = True
        for i in range(j - 1, -1, -1):
            s = sign[i, j]
            all_pos = all_pos and s > 0
            all_neg = all_neg and s < 0
            if all_pos and pref_pos[i, j]:
                ascents.add((i, j))
            if all_neg and pref_neg[i, j]:
                descents.add((i, j))
    return ascents, descents


def _leading(flags) -> int:
    """How many of the flags, from the first on, are true."""
    return sum(1 for _ in takewhile(bool, flags))


class CyclicSigns:
    """The signs of all cyclic subwords of one word, which every audit reads.

    ``sg[s][l]`` is the sign of the cyclic subword of w that starts at s and
    has length l, for 0 <= s < n and 1 <= l <= n (``sg[s][0]`` is the empty
    word's 0). Rotation r of ``elements`` is w rotated by r for r < n and w^-1
    rotated by r - n after that. Span [i, j) of a rotation of w^-1 is the
    inverse of the cyclic subword of w at ((-r - j) mod n, j - i), so its
    sign is the negative of that subword's, and it is an ascent exactly when
    that subword is a descent.

    A cyclic subword is an ascent when its prefixes and its suffixes are all
    positive. The prefixes run from its start and the suffixes end at its
    end, so two run lengths per position decide every subword.
    """

    def __init__(self, w: Word, sign: Callable[[tuple[Letter, ...]], int]) -> None:
        self.word = w
        self.elements = rotation_set(w).elements
        letters = w.letters
        n = self.n = len(letters)
        doubled = letters + letters
        self.sg = [[0] + [sign(doubled[s : s + l]) for l in range(1, n + 1)] for s in range(n)]
        # (low_index, peak_index) of each rotation's prefix_profile.
        self.low_peak = [self._low_peak(r) for r in range(2 * n)]

    @cached_property
    def counts(self) -> dict[tuple[Letter, ...], int]:
        """How many rotation-set elements each prefix of an element prefixes."""
        return _prefix_counts(self.elements)

    @cached_property
    def _runs(self) -> dict[int, tuple[list[int], list[int]]]:
        # _runs[want][0][s]: how many of the subwords that start at s, by
        # length, have sign want before one does not; _runs[want][1][e]: the
        # same for the subwords that end just before e.
        n, sg = self.n, self.sg
        lengths = range(1, n + 1)
        return {
            want: (
                [_leading(want * sg[s][l] > 0 for l in lengths) for s in range(n)],
                [_leading(want * sg[(e - l) % n][l] > 0 for l in lengths) for e in range(n)],
            )
            for want in (1, -1)
        }

    def _monotone(self, s: int, l: int, want: int) -> bool:
        # Every prefix and every suffix of the cyclic subword (s, l) has sign want.
        from_start, to_end = self._runs[want]
        return l <= from_start[s] and l <= to_end[(s + l) % self.n]

    def _cell(self, r: int, i: int, j: int) -> tuple[int, int, int]:
        # (s, l, +1) when span [i, j) of rotation r is the cyclic subword
        # (s, l) of w, (s, l, -1) when it is that subword's inverse.
        n = self.n
        if r < n:
            return (r + i) % n, j - i, 1
        return (-r - j) % n, j - i, -1

    def sign(self, r: int, i: int, j: int) -> int:
        """Sign of span [i, j) of rotation r."""
        s, l, flip = self._cell(r, i, j)
        return flip * self.sg[s][l]

    def is_descent(self, r: int, i: int, j: int) -> bool:
        """True iff the nonempty span [i, j) of rotation r is a descent."""
        s, l, flip = self._cell(r, i, j)
        return self._monotone(s, l, -flip)

    def spans(self, r: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """Sorted spans of the ascents and of the descents of rotation r.

        As sets they are :func:`ascent_descent_spans` of that rotation.
        """
        n = self.n
        out = []
        for want in (1, -1):
            if r < n:
                # Span [i, i + l) is (s, l) with s = r + i: its prefix run
                # bounds l, its suffix run is checked.
                from_start, to_end = self._runs[want]
                out.append([
                    (i, i + l)
                    for i in range(n)
                    for l in range(1, min(from_start[(r + i) % n], n - i) + 1)
                    if l <= to_end[(r + i + l) % n]
                ])
            else:
                # Span [i, j) inverts (s, j - i) with s = -r - j, which ends
                # at -r - i: the suffix run of that end bounds j.
                from_start, to_end = self._runs[-want]
                out.append([
                    (i, j)
                    for i in range(n)
                    for j in range(i + 1, i + min(to_end[(-r - i) % n], n - i) + 1)
                    if j - i <= from_start[(-r - j) % n]
                ])
        return out[0], out[1]

    def _low_peak(self, r: int) -> tuple[int, int]:
        # prefix_profile of rotation r: prefix i against prefix j < i is the
        # sign of span [j, i), read as in _cell.
        n, sg = self.n, self.sg
        peak = low = 0
        for i in range(1, n + 1):
            if r < n:
                above = sg[(r + peak) % n][i - peak] > 0
                below = sg[(r + low) % n][i - low] < 0
            else:
                row = sg[(-r - i) % n]
                above, below = row[i - peak] < 0, row[i - low] > 0
            if above:
                peak = i
            if below:
                low = i
        return low, peak


@dataclass(frozen=True)
class MaximalAscent:
    """The order-largest ascent among subwords of a rotation set."""

    ascent: Word
    host: Word
    origin: str
    occurrences: tuple[Occurrence, ...]


def _locate(ascent_letters: tuple[Letter, ...], elements: tuple[Rotation, ...], rank: int):
    target = Word(ascent_letters, rank)
    for element in elements:
        found = occurrences(target, element.word)
        if found:
            return MaximalAscent(target, element.word, element.origin, found)
    raise AscentPlacementError("maximal ascent vanished from its own rotation set")


def maximal_ascent(w: Word, cmp: MagnusOrder, algorithm: str = "peaklow") -> MaximalAscent:
    """The unique order-largest ascent over all subwords of the rotation set of w.

    ``algorithm="bruteforce"`` classifies every subword of every rotation;
    ``"peaklow"`` takes, per rotation, the slice from the low prefix to the
    peak prefix. Both must return the same word; among rotations containing
    it, the first in rotation-set order is reported as host.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no ascent")
    candidates: set[tuple[Letter, ...]] = set()
    if algorithm == "bruteforce":
        elements = rotation_set(w).elements
        for element in elements:
            letters = element.word.letters
            spans, _ = ascent_descent_spans(element.word, cmp)
            candidates.update(letters[i:j] for i, j in spans)
    elif algorithm == "peaklow":
        table = cmp._cyclic_signs(w)
        elements = table.elements
        for element, (low, peak) in zip(elements, table.low_peak):
            if low < peak:
                candidates.add(element.word.letters[low:peak])
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if not candidates:
        raise AscentPlacementError(f"no ascent found among subwords of {w!r}")
    best = None
    for candidate in candidates:
        if best is None or cmp._compare_letters(candidate, best) > 0:
            best = candidate
    return _locate(best, elements, w.rank)


@dataclass(frozen=True)
class Decomposition:
    """A word rotated so its maximal ascent is the prefix: chosen = ascent * descent."""

    source: Word
    chosen: Word
    origin: str
    ascent: Word
    descent: Word
    ascent_occurrences: tuple[Occurrence, ...]
    descent_unique: bool | None

    @property
    def descent_empty(self) -> bool:
        return len(self.descent) == 0


def decompose(w: Word, cmp: MagnusOrder, algorithm: str = "peaklow") -> Decomposition:
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
    found = maximal_ascent(w, cmp, algorithm=algorithm)
    table = cmp._cyclic_signs(w)
    ascent_letters = found.ascent.letters
    cut = len(ascent_letters)
    for r, (chosen, origin) in enumerate(table.elements):
        if chosen.letters[:cut] == ascent_letters:
            break
    else:
        raise AscentPlacementError(f"no rotation of {w!r} starts with the maximal ascent")
    descent = chosen[cut:]
    if len(descent) and not table.is_descent(r, cut, len(w)):
        raise InvariantViolationError(
            f"remainder {descent!r} after the maximal ascent is not a descent"
        )
    return Decomposition(
        source=w,
        chosen=chosen,
        origin=origin,
        ascent=found.ascent,
        descent=descent,
        ascent_occurrences=occurrences(found.ascent, chosen),
        # Uniquely positioned: a prefix of exactly one rotation-set element.
        descent_unique=table.counts[descent.letters] == 1 if len(descent) else None,
    )
