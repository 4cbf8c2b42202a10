"""Ascent/descent structure of words under a bi-invariant total order.

An ascent is a nonempty word all of whose nonempty prefixes and suffixes sit
above the identity; a descent sits below. Every cyclically reduced word has a
unique largest ascent among the subwords of its rotation set, and rotating
that ascent to the front splits the word into ascent * descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .series import (
    _ORDERINGS,
    Components,
    Ordering,
    _check_cap,
    _compare_letters,
    _places,
)
from .words import (
    FROM_INVERSE,
    FROM_WORD,
    Letter,
    NotCyclicallyReducedError,
    Rotation,
    Word,
    _rotation_rows,
    is_periodic,
)

class PeriodicWordError(ValueError):
    """The word is a proper power, so the decomposition is not defined."""


class LengthOneError(ValueError):
    """The word is too short to decompose."""


class AscentPlacementError(RuntimeError):
    """No rotation's lowest prefix comes before its highest; this should never happen."""


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
        self._place = _places(precedence, rank)
        self.precedence = None if precedence is None else tuple(precedence)
        _check_cap(cap)
        self.cap = cap
        self._store: dict[tuple[Letter, ...], Components] = {}
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
        return _compare_letters(lv, lw, self.cap, self._place, self._store, self._signs)

    def _sign_letters(self, letters: tuple[Letter, ...]) -> int:
        sign = self._signs.get(letters)
        return self._compare_letters(letters, ()) if sign is None else sign

    def _prefix_signs(self, letters: tuple[Letter, ...]) -> list[int]:
        """``[0]`` and then the sign of every nonempty prefix of letters.

        Degree 1 of a word's image is its exponent-sum vector (Magnus 1935),
        so a prefix takes the sign of its first nonzero sum in precedence
        order. Only balanced prefixes reach the series kernel, in prefix
        order, so an explicit cap raises where signing each prefix would.
        """
        place, sums, out = self._place, [0] * self.rank, [0]
        for l, (generator, sign) in enumerate(letters, 1):
            if generator >= len(place):
                raise ValueError(f"generator {generator} outside rank {self.rank}")
            sums[place[generator]] += sign
            for total in sums:
                if total:
                    out.append(1 if total > 0 else -1)
                    break
            else:
                out.append(self._sign_letters(letters[:l]))
        return out

    def _cyclic_signs(self, w: Word) -> CyclicSigns:
        """The sign table of w, kept until a table of another word is asked for."""
        table = self._table
        if table is None or table.word != w:
            table = self._table = CyclicSigns(w, self._prefix_signs)
        return table


def _monotone_word(u: Word, cmp: MagnusOrder, want: int) -> bool:
    # u is nonempty and every nonempty prefix and suffix has sign want.
    letters, sign = u.letters, cmp._sign_letters
    n = len(letters)
    return n > 0 and all(want * sign(letters[:i]) > 0 for i in range(1, n + 1)) and all(
        want * sign(letters[i:]) > 0 for i in range(1, n)
    )


def is_ascent(u: Word, cmp: MagnusOrder) -> bool:
    """True iff u is nonempty and every nonempty prefix and suffix exceeds 1."""
    return _monotone_word(u, cmp, 1)


def is_descent(u: Word, cmp: MagnusOrder) -> bool:
    """True iff u is nonempty and every nonempty prefix and suffix is below 1."""
    return _monotone_word(u, cmp, -1)


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


class CyclicSigns:
    """The signs of all cyclic subwords of one word, which every audit reads.

    ``sg[s][l]`` is the sign of the cyclic subword of w that starts at s and
    has length l, for 0 <= s < n and 1 <= l <= n (``sg[s][0]`` is the empty
    word's 0), as ``prefix_signs`` gives it for ``rows[s]``. Row r holds the
    letters of rotation-set element r: w rotated by r for r < n and w^-1
    rotated by r - n after that. Span [i, j) of a rotation of w^-1 is the
    inverse of the cyclic subword of w at ((-r - j) mod n, j - i), so its
    sign is the negative of that subword's, and it is an ascent exactly when
    that subword is a descent.
    """

    def __init__(self, w: Word, prefix_signs: Callable[[tuple[Letter, ...]], list[int]]) -> None:
        self.word = w
        self.rows = _rotation_rows(w.letters)
        n = self.n = len(w)
        self.sg = [prefix_signs(self.rows[s]) for s in range(n)]
        # (low_index, peak_index) of each rotation's prefix_profile.
        self.low_peak = [self._low_peak(r) for r in range(2 * n)]

    def element(self, r: int) -> Rotation:
        """Rotation-set element r as a word with its origin."""
        origin = FROM_WORD if r < self.n else FROM_INVERSE
        return Rotation(Word(self.rows[r], self.word.rank), origin)

    def starts(self, pattern: tuple[Letter, ...]) -> list[int]:
        """The rotation-set elements that start with the nonempty pattern, in order.

        Span [i, j) of element r is a prefix of element r rotated by i within
        its half, so this also places every copy of the pattern: the pattern
        is uniquely positioned exactly when one element starts with it.
        """
        m = len(pattern)
        return [r for r, row in enumerate(self.rows) if row[:m] == pattern]

    def _monotone(self, s: int, l: int, want: int) -> bool:
        # Every prefix and every suffix of the cyclic subword (s, l) has sign want.
        n, sg = self.n, self.sg
        row = sg[s]
        return all(want * row[k] > 0 for k in range(1, l + 1)) and all(
            want * sg[(s + l - k) % n][k] > 0 for k in range(1, l)
        )

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

    def is_ascent(self, r: int, i: int, j: int) -> bool:
        """True iff the nonempty span [i, j) of rotation r is an ascent."""
        s, l, flip = self._cell(r, i, j)
        return self._monotone(s, l, flip)

    def is_descent(self, r: int, i: int, j: int) -> bool:
        """True iff the nonempty span [i, j) of rotation r is a descent."""
        s, l, flip = self._cell(r, i, j)
        return self._monotone(s, l, -flip)

    def hits(self, starts: list[int], m: int) -> list[int]:
        """How many times a pattern of length m occurs in each rotation-set element.

        ``starts`` is ``self.starts(pattern)``: element p < n starts with the
        pattern exactly when the pattern starts at cyclic position p of w.
        Element r < n is w·w read from r for n letters, so that copy lies
        inside it exactly when ``(p - r) % n <= n - m``; the elements from n
        on read w^-1 the same way.
        """
        n = self.n
        counts = [0] * (2 * n)
        for s in starts:
            base = s - s % n
            for i in range(n - m + 1):
                counts[base + (s - i) % n] += 1
        return counts

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


def maximal_ascent(w: Word, cmp: MagnusOrder) -> Word:
    """The unique order-largest ascent over all subwords of the rotation set of w.

    Per rotation, the candidate is the slice from the low prefix to the peak
    prefix.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no ascent")
    table = cmp._cyclic_signs(w)
    candidates = {
        row[low:peak] for row, (low, peak) in zip(table.rows, table.low_peak) if low < peak
    }
    if not candidates:
        raise AscentPlacementError(f"no ascent found among subwords of {w!r}")
    best = None
    for candidate in candidates:
        if best is None or cmp._compare_letters(candidate, best) > 0:
            best = candidate
    return Word(best, w.rank)


@dataclass(frozen=True)
class Decomposition:
    """A word rotated so its maximal ascent is the prefix: chosen = ascent * descent."""

    source: Word
    chosen: Word
    origin: str
    ascent: Word
    descent: Word
    descent_unique: bool | None

    @property
    def descent_empty(self) -> bool:
        return len(self.descent) == 0


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
    ascent = maximal_ascent(w, cmp)
    table = cmp._cyclic_signs(w)
    cut = len(ascent)
    # A is a slice of a row, so a prefix of that row rotated: some row starts with it.
    r = table.starts(ascent.letters)[0]
    chosen, origin = table.element(r)
    descent = chosen[cut:]
    if len(descent) and not table.is_descent(r, cut, len(w)):
        raise InvariantViolationError(
            f"remainder {descent!r} after the maximal ascent is not a descent"
        )
    return Decomposition(
        source=w,
        chosen=chosen,
        origin=origin,
        ascent=ascent,
        descent=descent,
        # Uniquely positioned: a prefix of exactly one rotation-set element.
        descent_unique=len(table.starts(descent.letters)) == 1 if len(descent) else None,
    )
