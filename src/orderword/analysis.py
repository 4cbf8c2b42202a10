"""Ascent/descent structure of words under a bi-invariant total order.

An ascent is a nonempty word all of whose nonempty prefixes and suffixes sit
above the identity; a descent sits below. Every cyclically reduced word has a
unique largest ascent among the subwords of its rotation set, and rotating
that ascent to the front splits the word into ascent * descent.
"""

from __future__ import annotations

from typing import NamedTuple

from .series import MagnusOrder, Ordering
from .words import NotCyclicallyReducedError, Word, is_periodic


class PeriodicWordError(ValueError):
    """The word is a proper power, so the decomposition is not defined."""


class LengthOneError(ValueError):
    """The word is too short to decompose."""


class AscentPlacementError(RuntimeError):
    """No rotation's lowest prefix comes before its highest; this should never happen."""


class InvariantViolationError(RuntimeError):
    """A structural fact the decomposition relies on failed to hold."""


def _require_decomposable(w: Word, what: str) -> None:
    """Raise unless w is cyclically reduced, nonperiodic and of length > 1."""
    if len(w) <= 1:
        raise LengthOneError(f"{what} needs a word of length at least 2")
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    if is_periodic(w):
        raise PeriodicWordError(f"{w!r} is a proper power")


def _monotone_word(u: Word, cmp: MagnusOrder, want: int) -> bool:
    # u is nonempty and every nonempty prefix and suffix has sign want.
    n, sign = len(u), cmp.sign
    return n > 0 and all(want * sign(u[:i]) > 0 for i in range(1, n + 1)) and all(
        want * sign(u[i:]) > 0 for i in range(1, n)
    )


def is_ascent(u: Word, cmp: MagnusOrder) -> bool:
    """True iff u is nonempty and every nonempty prefix and suffix exceeds 1."""
    return _monotone_word(u, cmp, 1)


def is_descent(u: Word, cmp: MagnusOrder) -> bool:
    """True iff u is nonempty and every nonempty prefix and suffix is below 1."""
    return _monotone_word(u, cmp, -1)


def prefix_profile(w: Word, cmp: MagnusOrder) -> tuple[int, int]:
    """(low, peak): the lengths of the order-smallest and order-largest prefix of w.

    The n+1 prefixes of a reduced word are pairwise distinct group elements,
    so both are unique; they coincide only for the empty word.
    """
    sign = cmp.sign
    peak = low = 0
    for i in range(1, len(w) + 1):
        # Prefix i against an earlier prefix j is the sign of w[j:i].
        if sign(w[peak:i]) > 0:
            peak = i
        if sign(w[low:i]) < 0:
            low = i
    return low, peak


def ascent_descent_spans(
    w: Word, cmp: MagnusOrder
) -> tuple[set[tuple[int, int]], set[tuple[int, int]]]:
    """Index spans [i, j) of all ascent and all descent subwords of w."""
    n = len(w)
    sign = {}
    for i in range(n):
        for j in range(i + 1, n + 1):
            sign[i, j] = cmp.sign(w[i:j])

    def spans(want: int) -> set[tuple[int, int]]:
        # [i, j) qualifies iff every prefix span [i, k) and suffix span [k, j)
        # has sign want; a run of either stops at the first span that has not.
        heads, tails = set(), set()
        for i in range(n):
            for j in range(i + 1, n + 1):
                if sign[i, j] != want:
                    break
                heads.add((i, j))
        for j in range(1, n + 1):
            for i in range(j - 1, -1, -1):
                if sign[i, j] != want:
                    break
                tails.add((i, j))
        return heads & tails

    return spans(1), spans(-1)


def maximal_ascent(w: Word, cmp: MagnusOrder) -> Word:
    """The unique order-largest ascent over all subwords of the rotation set of w.

    Per rotation, the candidate is the slice from the low prefix to the peak
    prefix. Candidates are ordered by their exponent-sum keys, at degree 1,
    then by their degree-2 keys; only candidates equal in both reach ``compare``.
    """
    if len(w) == 0:
        raise ValueError("the empty word has no ascent")
    table = cmp._cyclic_signs(w)
    # Rows whose spans sit at one cyclic place, (half, start, length), share the letters.
    low_peak, n = enumerate(table.low_peak), table.n
    places = {(r < n, (r + lo) % n, hi - lo): (r, lo, hi) for r, (lo, hi) in low_peak if lo < hi}
    spans = {table.letters(*span): span for span in places.values()}
    if not spans:
        raise AscentPlacementError(f"no ascent found among subwords of {w!r}")
    best = best_key = None
    # The set iterates in its hash-table order, not row order; tuples of Letters hash
    # unsalted, so a cap stops the same comparison each run. The capped word lists pin it.
    for candidate in {span for span in spans}:
        span = spans[candidate]
        key = table.key(*span)
        if best is None or (
            key - best_key
            or table.key2(*span) - table.key2(*spans[best])
            or cmp.compare(Word(candidate, w.rank), Word(best, w.rank)) is Ordering.GREATER
        ) > 0:
            best, best_key = candidate, key
    return Word(best, w.rank)


class Decomposition(NamedTuple):
    """A word rotated so its maximal ascent is the prefix: chosen = ascent * descent."""

    source: Word
    chosen: Word
    origin: str
    ascent: Word
    descent: Word
    ascent_unique: bool
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
    _require_decomposable(w, "decomposition")
    ascent = maximal_ascent(w, cmp)
    table = cmp._cyclic_signs(w)
    cut = len(ascent)
    # A is a slice of a row, so a prefix of that row rotated: some row starts with it.
    starts = table.starts(ascent.letters)
    r = starts[0]
    chosen, origin = table.element(r)
    descent = chosen[cut:]
    ascent_unique = len(starts) == 1
    descent_unique = None
    if len(descent):
        # D starts row r rotated by |A| within its half, and is uniquely
        # positioned when it is a prefix of no other rotation-set element.
        d_row = table.shift(r, cut)
        if not table.is_descent(d_row, len(descent)):
            raise InvariantViolationError(
                f"remainder {descent!r} after the maximal ascent is not a descent"
            )
        descent_unique = len(descent) >= table.unique_from[d_row]
    return Decomposition(
        source=w,
        chosen=chosen,
        origin=origin,
        ascent=ascent,
        descent=descent,
        ascent_unique=ascent_unique,
        descent_unique=descent_unique,
    )
