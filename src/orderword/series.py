"""Truncated integer power series in noncommuting variables, and the word order.

A series is a finite dict from monomials to exact ints, truncated at a total
degree bound. Generator i maps to 1 + X_i, its inverse to the alternating
geometric series 1 - X_i + X_i^2 - ..., so inverse pairs telescope to 1
exactly at every bound. Comparing two series coefficient-by-coefficient along
a fixed monomial enumeration gives a total order on words.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .words import Letter, Word

# A monomial is the tuple of variable indices read left to right:
# () is the constant term, (1, 2) is X1*X2, (2, 2) is X2^2.
Monomial = tuple[int, ...]


class SeriesOrderOutcome(Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL_UP_TO_BOUND = "equal_up_to_bound"


class Ordering(Enum):
    """Outcome of comparing two words under a total order."""

    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"


class UndecidedAtCapError(RuntimeError):
    """Two distinct words still compared equal at the truncation cap."""


@dataclass(frozen=True)
class TruncatedSeries:
    """An exact-integer series over noncommuting X_1..X_rank, cut at degree_bound.

    ``coefficients`` maps monomials to nonzero ints; omitted monomials are zero.
    For example 1 + X1 - X2 at rank 2, bound 1 is::

        TruncatedSeries(2, 1, {(): 1, (1,): 1, (2,): -1})
    """

    rank: int
    degree_bound: int
    coefficients: dict[Monomial, int]

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        for monomial, coeff in self.coefficients.items():
            if len(monomial) > self.degree_bound:
                raise ValueError(f"monomial {monomial} exceeds degree bound {self.degree_bound}")
            if any(not 1 <= i <= self.rank for i in monomial):
                raise ValueError(f"monomial {monomial} has an index outside rank {self.rank}")
            if coeff == 0:
                raise ValueError("zero coefficients must be omitted")

    def coefficient(self, monomial: Monomial) -> int:
        return self.coefficients.get(monomial, 0)


def one(rank: int, degree_bound: int) -> TruncatedSeries:
    """The multiplicative identity series."""
    return TruncatedSeries(rank, degree_bound, {(): 1})


def atom_series(generator: int, sign: int, rank: int, degree_bound: int) -> TruncatedSeries:
    """Series image of a single letter: 1 + X_g, or its inverse 1 - X_g + X_g^2 - ..."""
    if not 1 <= generator <= rank:
        raise ValueError(f"generator {generator} outside rank {rank}")
    if sign == 1:
        coeffs = {(): 1}
        if degree_bound >= 1:
            coeffs[(generator,)] = 1
    elif sign == -1:
        coeffs = {(generator,) * d: (-1) ** d for d in range(degree_bound + 1)}
    else:
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return TruncatedSeries(rank, degree_bound, coeffs)


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Noncommutative product, truncated at min of the two bounds."""
    if a.rank != b.rank:
        raise ValueError("cannot multiply series of different ranks")
    bound = min(a.degree_bound, b.degree_bound)
    by_degree: dict[int, list[tuple[Monomial, int]]] = {}
    for mb, cb in b.coefficients.items():
        by_degree.setdefault(len(mb), []).append((mb, cb))
    coeffs: dict[Monomial, int] = {}
    for ma, ca in a.coefficients.items():
        room = bound - len(ma)
        if room < 0:
            continue
        for degree in range(room + 1):
            for mb, cb in by_degree.get(degree, ()):
                key = ma + mb
                value = coeffs.get(key, 0) + ca * cb
                if value:
                    coeffs[key] = value
                elif key in coeffs:
                    del coeffs[key]
    return TruncatedSeries(a.rank, bound, coeffs)


def truncate(s: TruncatedSeries, degree_bound: int) -> TruncatedSeries:
    """Drop all terms above a (smaller or equal) degree bound."""
    if degree_bound > s.degree_bound:
        raise ValueError("cannot extend a truncated series")
    return TruncatedSeries(
        s.rank,
        degree_bound,
        {m: c for m, c in s.coefficients.items() if len(m) <= degree_bound},
    )


def mu(w: Word, degree_bound: int) -> TruncatedSeries:
    """Series image of a word: the product of its letters' atom series."""
    acc = one(w.rank, degree_bound)
    for letter in w.letters:
        acc = mul(acc, atom_series(letter.generator, letter.sign, w.rank, degree_bound))
    return acc


def _check_precedence(precedence: tuple[int, ...] | None, rank: int) -> tuple[int, ...]:
    if precedence is None:
        return tuple(range(1, rank + 1))
    if sorted(precedence) != list(range(1, rank + 1)):
        raise ValueError(f"precedence {precedence} is not a permutation of 1..{rank}")
    return tuple(precedence)


def _monomial_key(precedence: tuple[int, ...]):
    # Enumeration order: ascending total degree, then lexicographic with the
    # highest-precedence variable first within each degree.
    position = {g: i for i, g in enumerate(precedence)}

    def key(monomial: Monomial):
        return len(monomial), tuple(position[i] for i in monomial)

    return key


def compare_series(
    a: TruncatedSeries,
    b: TruncatedSeries,
    precedence: tuple[int, ...] | None = None,
) -> SeriesOrderOutcome:
    """Compare at the first monomial, in enumeration order, whose coefficients differ."""
    if a.rank != b.rank:
        raise ValueError("cannot compare series of different ranks")
    if a.degree_bound != b.degree_bound:
        raise ValueError("cannot compare series truncated at different bounds")
    key = _monomial_key(_check_precedence(precedence, a.rank))
    differing = [
        m
        for m in set(a.coefficients) | set(b.coefficients)
        if a.coefficients.get(m, 0) != b.coefficients.get(m, 0)
    ]
    if not differing:
        return SeriesOrderOutcome.EQUAL_UP_TO_BOUND
    first = min(differing, key=key)
    if a.coefficients.get(first, 0) > b.coefficients.get(first, 0):
        return SeriesOrderOutcome.GREATER
    return SeriesOrderOutcome.LESS


def _monomial_text(monomial: Monomial) -> str:
    parts = []
    i = 0
    while i < len(monomial):
        j = i
        while j < len(monomial) and monomial[j] == monomial[i]:
            j += 1
        run = j - i
        parts.append(f"X{monomial[i]}" + (f"^{run}" if run > 1 else ""))
        i = j
    return "".join(parts)


def series_text(s: TruncatedSeries, precedence: tuple[int, ...] | None = None) -> str:
    """Human-readable rendering in enumeration order, e.g. ``1 + X1 - X2 + O(2)``."""
    key = _monomial_key(_check_precedence(precedence, s.rank))
    terms = sorted(s.coefficients.items(), key=lambda item: key(item[0]))
    if not terms:
        rendered = "0"
    else:
        chunks = []
        for monomial, coeff in terms:
            magnitude = abs(coeff)
            if monomial == ():
                body = str(magnitude)
            else:
                body = ("" if magnitude == 1 else str(magnitude)) + _monomial_text(monomial)
            if not chunks:
                chunks.append(("-" if coeff < 0 else "") + body)
            else:
                chunks.append(("- " if coeff < 0 else "+ ") + body)
        rendered = " ".join(chunks)
    return f"{rendered} + O({s.degree_bound + 1})"


class MuCache:
    """Per-order memo of word images, grown one letter at a time.

    Looking up a word at a bound reuses the longest cached prefix, so scanning
    the prefixes of a word costs one series multiplication per letter.
    """

    def __init__(self, max_entries: int = 500_000) -> None:
        self._store: dict[tuple[int, tuple[Letter, ...]], TruncatedSeries] = {}
        self._max_entries = max_entries
        self._rank: int | None = None

    def mu_of(self, letters: tuple[Letter, ...], rank: int, bound: int) -> TruncatedSeries:
        if self._rank is None:
            self._rank = rank
        elif self._rank != rank:
            raise ValueError("one MuCache cannot serve two ranks")
        store = self._store
        cached = store.get((bound, letters))
        if cached is not None:
            return cached
        if len(store) > self._max_entries:
            store.clear()
        start = len(letters) - 1
        series = None
        while start > 0:
            series = store.get((bound, letters[:start]))
            if series is not None:
                break
            start -= 1
        if series is None:
            start = 0
            series = one(rank, bound)
            store[(bound, ())] = series
        for i in range(start, len(letters)):
            letter = letters[i]
            series = mul(series, atom_series(letter.generator, letter.sign, rank, bound))
            store[(bound, letters[: i + 1])] = series
        return series


def _check_cap(cap: int | None) -> None:
    if cap is not None and cap < 1:
        raise ValueError("cap must be positive")


def _syllable_count(letters: tuple[Letter, ...]) -> int:
    """Number of maximal runs of one generator in a letter sequence."""
    generators = [letter.generator for letter in letters]
    return sum(1 for a, b in zip([None] + generators, generators) if a != b)


def _ladder(
    lv: tuple[Letter, ...],
    lw: tuple[Letter, ...],
    rank: int,
    cap: int | None,
    precedence: tuple[int, ...] | None,
    cache: MuCache,
) -> int:
    """+1 or -1 as the image of lv is above or below that of lw.

    The two letter sequences must differ and must not start with the same
    letter, so that lw^-1 * lv is reduced as written.

    The cached images are compared at bounds 2, 4, 8, ... up to the cap. The
    default cap is the syllable count of lw^-1 * lv: if that reduced word is
    x_i1^e1 ... x_ik^ek with adjacent generators distinct, its image has the
    coefficient e1*...*ek != 0 at X_i1...X_ik (Magnus 1935), so the images of
    lv and lw differ at degree k or below and only an explicit cap can run out.
    """
    bound = 2 if cap is None else min(2, cap)
    while True:
        outcome = compare_series(
            cache.mu_of(lv, rank, bound), cache.mu_of(lw, rank, bound), precedence
        )
        if outcome is not SeriesOrderOutcome.EQUAL_UP_TO_BOUND:
            return 1 if outcome is SeriesOrderOutcome.GREATER else -1
        if cap is None:
            # Reversing lw keeps its generator sequence aligned with lw^-1, and
            # the junction with lv cannot cancel since the first letters differ.
            cap = _syllable_count(lw[::-1] + lv)
        if bound >= cap:
            raise UndecidedAtCapError(
                f"distinct words compared equal up to the cap of degree {cap} "
                f"(lengths {len(lv)} and {len(lw)} without common ends); raise the cap"
            )
        bound = min(2 * bound, cap)


def _compare_letters(
    lv: tuple[Letter, ...],
    lw: tuple[Letter, ...],
    rank: int,
    cap: int | None,
    precedence: tuple[int, ...] | None,
    cache: MuCache,
    signs: dict[tuple[Letter, ...], int],
) -> int:
    """The one comparison path: +1, 0 or -1 as lv is above, equal to or below lw.

    The order is invariant under multiplication on both sides, so the common
    prefix and suffix cancel first. A lone remaining side is a subword whose
    sign against the identity is memoised in ``signs``; two remaining sides go
    up the bound ladder.
    """
    n = min(len(lv), len(lw))
    head = 0
    while head < n and lv[head] == lw[head]:
        head += 1
    tail = 0
    while tail < n - head and lv[-1 - tail] == lw[-1 - tail]:
        tail += 1
    lv, lw = lv[head : len(lv) - tail], lw[head : len(lw) - tail]
    if lv and lw:
        return _ladder(lv, lw, rank, cap, precedence, cache)
    u = lv or lw
    if not u:
        return 0
    sign = signs.get(u)
    if sign is None:
        sign = signs[u] = _ladder(u, (), rank, cap, precedence, cache)
    return sign if lv else -sign


# Indexed by a sign: [1] is GREATER, [0] EQUAL and [-1] LESS.
_ORDERINGS = (Ordering.EQUAL, Ordering.GREATER, Ordering.LESS)


def magnus_compare_words(
    v: Word,
    w: Word,
    cap: int | None = None,
    precedence: tuple[int, ...] | None = None,
    cache: MuCache | None = None,
) -> Ordering:
    """Order two words by the first differing coefficient of their series images.

    Returns EQUAL only for identical reduced words. An explicit ``cap`` below
    the degree that separates two distinct words raises
    :class:`UndecidedAtCapError`; the default cap never does. Without a
    ``cache`` the images are built in a fresh :class:`MuCache`.
    """
    if v.rank != w.rank:
        raise ValueError("cannot compare words of different ranks")
    _check_precedence(precedence, v.rank)
    _check_cap(cap)
    if cache is None:
        cache = MuCache()
    return _ORDERINGS[_compare_letters(v.letters, w.letters, v.rank, cap, precedence, cache, {})]
