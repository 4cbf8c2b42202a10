"""Truncated integer power series in noncommuting variables, and the word order.

A series is a finite dict from monomials to exact ints, truncated at a total
degree bound. Generator i maps to 1 + X_i, its inverse to the alternating
geometric series 1 - X_i + X_i^2 - ..., so inverse pairs telescope to 1
exactly at every bound. Comparing two series coefficient-by-coefficient along
a fixed monomial enumeration gives a total order on words, the
:class:`MagnusOrder`. Word images are grown one homogeneous component at a
time by one kernel, :func:`_degrees`, which streams them and stores none: the
order of v and w stops at the first degree where the image of w^-1 v leaves 1,
and :func:`mu` reads an image through its bound. The order reads degrees 1 and
2 from one memoised int per word first, then degree 3 from a memoised tuple of
its Lyndon coefficients, and memoises the kernel's verdicts. It also keeps the
prefix signs of one word's rotation set, :class:`CyclicSigns`, which every
audit reads.
"""

from __future__ import annotations

from bisect import bisect_left
from enum import Enum
from functools import cache
from itertools import islice
from typing import Iterator
from weakref import ref

from .words import FROM_INVERSE, FROM_WORD, Letter, Rotation, Word, _Record, _sorted_rotations
from .words import identity

_BITS = 64  # keys of degrees 1 and 2 hold one signed field per coefficient, in radix 2**_BITS

# A monomial is the tuple of variable indices read left to right:
# () is the constant term, (1, 2) is X1*X2, (2, 2) is X2^2.
Monomial = tuple[int, ...]


class Ordering(Enum):
    """Outcome of comparing two words under a total order."""

    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"


class UndecidedAtCapError(RuntimeError):
    """Two distinct words still compared equal at the truncation cap."""


class TruncatedSeries(_Record):
    """An exact-integer series over noncommuting X_1..X_rank, cut at degree_bound.

    ``coefficients`` maps monomials to nonzero ints; omitted monomials are zero.
    For example 1 + X1 - X2 at rank 2, bound 1 is::

        TruncatedSeries(2, 1, {(): 1, (1,): 1, (2,): -1})
    """

    __slots__ = ("rank", "degree_bound", "coefficients")

    def __init__(self, rank: int, degree_bound: int, coefficients: dict[Monomial, int]) -> None:
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "coefficients", coefficients)
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


def mul(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Noncommutative product, truncated at min of the two bounds."""
    if a.rank != b.rank:
        raise ValueError("cannot multiply series of different ranks")
    bound = min(a.degree_bound, b.degree_bound)
    coeffs: dict[Monomial, int] = {}
    for ma, ca in a.coefficients.items():
        for mb, cb in b.coefficients.items():
            if len(ma) + len(mb) <= bound:
                coeffs[ma + mb] = coeffs.get(ma + mb, 0) + ca * cb
    return TruncatedSeries(a.rank, bound, {m: c for m, c in coeffs.items() if c})


def _places(precedence: tuple[int, ...] | None, rank: int) -> tuple[int, ...]:
    """``place[g]`` is generator g's position in the enumeration order (0 first).

    Monomials are enumerated by ascending total degree, then lexicographically
    by their variables' places, so the highest-precedence variable comes first.
    """
    if precedence is None:
        precedence = range(1, rank + 1)
    elif sorted(precedence) != list(range(1, rank + 1)):
        raise ValueError(f"precedence {precedence} is not a permutation of 1..{rank}")
    place = [0] * (rank + 1)
    for position, generator in enumerate(precedence):
        place[generator] = position
    return tuple(place)


def compare_series(
    a: TruncatedSeries,
    b: TruncatedSeries,
    precedence: tuple[int, ...] | None = None,
) -> Ordering:
    """Compare at the first monomial, in enumeration order, whose coefficients differ.

    EQUAL means equal through the degree bound.
    """
    if a.rank != b.rank:
        raise ValueError("cannot compare series of different ranks")
    if a.degree_bound != b.degree_bound:
        raise ValueError("cannot compare series truncated at different bounds")
    place = _places(precedence, a.rank)
    differing = [
        m
        for m in set(a.coefficients) | set(b.coefficients)
        if a.coefficients.get(m, 0) != b.coefficients.get(m, 0)
    ]
    if not differing:
        return Ordering.EQUAL
    first = min(differing, key=lambda m: (len(m), [place[i] for i in m]))
    if a.coefficients.get(first, 0) > b.coefficients.get(first, 0):
        return Ordering.GREATER
    return Ordering.LESS


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
    place = _places(precedence, s.rank)
    terms = sorted(s.coefficients.items(), key=lambda t: (len(t[0]), [place[i] for i in t[0]]))
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


def _syllable_count(letters: tuple[Letter, ...]) -> int:
    """Number of maximal runs of one generator in a letter sequence."""
    generators = [letter.generator for letter in letters]
    return sum(1 for a, b in zip([None] + generators, generators) if a != b)


# A homogeneous component maps each monomial of one degree with a nonzero
# coefficient to that coefficient. Here a monomial is the tuple of its
# variables' enumeration positions, so plain tuple order is the enumeration
# order within one degree.
Component = dict[tuple[int, ...], int]

_DEGREE_ZERO = {(): 1}


def _degrees(letters: tuple[Letter, ...], place: tuple[int, ...]) -> Iterator[list[Component]]:
    """Yield component 0, 1, 2, ... of the image of every prefix of letters, () first.

    So the last entry of yield d is component d of the word. Component d of
    u*x_g is component d of u plus component d - 1 of u times X_g. The image of
    u*x_g^-1 times 1 + X_g is that of u, so its component d is component d of u
    minus its own component d - 1 times X_g. Each degree is thus one pass over
    the letters that reads only the previous degree, and a component that a
    letter leaves unchanged is shared: no yielded component is ever changed.
    """
    top = len(place) - 1
    steps = []
    for generator, sign in letters:
        if generator > top:
            raise ValueError(f"generator {generator} outside rank {top}")
        steps.append(((place[generator],), sign))
    below = [_DEGREE_ZERO] * (len(steps) + 1)
    while True:
        yield below
        parts: list[Component] = [{}]
        for i, (x, sign) in enumerate(steps):
            carry = below[i] if sign > 0 else below[i + 1]
            if not carry:
                parts.append(parts[i])
                continue
            component = dict(parts[i])
            for monomial, coeff in carry.items():
                monomial += x
                coeff = component.get(monomial, 0) + sign * coeff
                if coeff:
                    component[monomial] = coeff
                else:
                    del component[monomial]
            parts.append(component)
        below = parts


class MuCache:
    """Word images of any rank, each read from :func:`_degrees` through its bound; none kept."""

    def mu_of(self, letters: tuple[Letter, ...], rank: int, bound: int) -> TruncatedSeries:
        parts = islice(_degrees(letters, _places(None, rank)), bound + 1)
        # Under the canonical precedence, variable X_g sits at position g - 1.
        image = {tuple(p + 1 for p in m): c for part in parts for m, c in part[-1].items()}
        return TruncatedSeries(rank, bound, image)


def mu(w: Word, degree_bound: int) -> TruncatedSeries:
    """Series image of a word, truncated at degree_bound, read from a fresh MuCache."""
    return MuCache().mu_of(w.letters, w.rank, degree_bound)


# Indexed by a sign: [1] is GREATER, [0] EQUAL and [-1] LESS; _SIGNS maps each back.
_ORDERINGS = (Ordering.EQUAL, Ordering.GREATER, Ordering.LESS)
_SIGNS = dict(zip(_ORDERINGS, (0, 1, -1)))


@cache
def _lyndon_trie(r: int) -> tuple[list[Monomial], list[list[tuple[int, int]]], int]:
    """The trie of the prefixes of the Lyndon words of length <= 3 over r places.

    Its nodes, by length, then lexicographically, are (), (a), (a, b) for a <= b and
    a < r - 1, and from index ``top`` on the Lyndon words (a, b, c) with a <= b and
    a < c, (r^3 - r) / 3 of them (Witt). ``steps[x]`` pairs each node m·x with node m,
    deepest first.
    """
    nodes = [()] + [(a,) for a in range(r)] + [(a, b) for a in range(r - 1) for b in range(a, r)]
    top = len(nodes)
    nodes += [m + (c,) for m in nodes[r + 1 :] for c in range(m[0] + 1, r)]
    index = {m: i for i, m in enumerate(nodes)}
    steps: list[list[tuple[int, int]]] = [[] for _ in range(r)]
    for i in range(len(nodes) - 1, 0, -1):
        steps[nodes[i][-1]].append((i, index[nodes[i][:-1]]))
    return nodes, steps, top


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
        # Claim 3, D = 1 iff W is monotonic, is proved under the canonical precedence only.
        self.checks_monotonic = precedence is None or self.precedence == tuple(range(1, rank + 1))
        if cap is not None and cap < 1:
            raise ValueError("cap must be positive")
        self.cap = cap
        # For generator g at place p: the shift of the key weight R^(r - 1 - p), and the
        # lift R^(r(r - 1 - p)), 0 under a cap of 1.
        self._shift = tuple(_BITS * (rank - 1 - p) for p in self._place)
        self._lift = tuple(1 << rank * s if cap != 1 else 0 for s in self._shift)
        self._verdicts: dict[tuple[tuple[Letter, ...], tuple[Letter, ...]], int] = {}
        self._low: dict[Word, int] = {}
        self._lyndon: dict[Word, tuple[int, ...]] = {}
        self._table: CyclicSigns | None = None

    @property
    def description(self) -> str:
        order = self.precedence or tuple(range(1, self.rank + 1))
        return "magnus(" + ">".join(f"x{g}" for g in order) + ")"

    def compare(self, v: Word, w: Word) -> Ordering:
        """GREATER, EQUAL or LESS as v is above, equal to or below w.

        Each word's low degrees decide first, from the memo keyed by the words, whose
        hash each caches: one int, K * R^(r^2) + Q of the word (see _prefix_keys), whose
        order is the order through degree 2 (degree 1 under a cap of 1); equal words
        are EQUAL there. Where the cap admits degree 3, a tie of distinct words is
        decided by a second memo, the words' Lyndon coefficients of degree 3 (see
        _lyndon_key). The order is invariant under multiplication on both sides, so
        words tied through the memos tie on their stripped sides too: common ends
        cancel, and the kernel's verdict on the stripped pair is memoised, a lone side
        put first.
        """
        if v.rank != w.rank:
            raise ValueError("cannot compare words of different ranks")
        low = self._low
        a, b = low.get(v), low.get(w)
        if a is None or b is None:
            for u in (v, w):
                if u not in low:
                    keys, _, pairs = self._prefix_keys(u.letters)
                    low[u] = (keys[-1] << _BITS * self.rank * self.rank) + pairs[-1]
            a, b = low[v], low[w]
        if a != b:
            return _ORDERINGS[1 if a > b else -1]
        if v.letters == w.letters:
            return Ordering.EQUAL
        if self.cap is None or self.cap > 2:
            lyndon = self._lyndon
            a, b = lyndon.get(v), lyndon.get(w)
            if a is None:
                a = lyndon[v] = self._lyndon_key(v.letters)
            if b is None:
                b = lyndon[w] = self._lyndon_key(w.letters)
            if a != b:
                return _ORDERINGS[1 if a > b else -1]
        lv, lw = v.letters, w.letters
        n = min(len(lv), len(lw))
        head = 0
        while head < n and lv[head] == lw[head]:
            head += 1
        tail = 0
        while tail < n - head and lv[-1 - tail] == lw[-1 - tail]:
            tail += 1
        lv, lw = lv[head : len(lv) - tail], lw[head : len(lw) - tail]
        pair = (lv, lw) if lv else (lw, lv)
        if not pair[0]:
            return Ordering.EQUAL
        verdict = self._verdicts.get(pair)
        if verdict is None:
            verdict = self._verdicts[pair] = self._first_difference(*pair)
        return _ORDERINGS[verdict if lv else -verdict]

    def sign(self, w: Word) -> int:
        """+1, 0 or -1 as w is above, equal to or below the identity of its rank."""
        return _SIGNS[self.compare(w, identity(w.rank))]

    def _first_difference(self, lv: tuple[Letter, ...], lw: tuple[Letter, ...]) -> int:
        """+1 or -1 as the image of lv is above or below that of lw.

        The two letter sequences must differ and must not start with the same letter,
        so that u = lw^-1 * lv is reduced as written. As mu(lv) - mu(lw) is mu(lw) *
        (mu(u) - 1) and mu(lw) is 1 plus higher terms, the images first differ where
        mu(u) - 1 first is nonzero: at its least degree and least monomial, with its
        sign. The default cap is the syllable count k of u: the image of x_i1^e1 ...
        x_ik^ek, adjacent generators distinct, has the coefficient e1*...*ek != 0 at
        X_i1...X_ik (Magnus 1935), so only an explicit cap can run out.
        """
        u = tuple(letter.inverse() for letter in reversed(lw)) + lv
        cap = self.cap or _syllable_count(u)
        for parts in islice(_degrees(u, self._place), 1, cap + 1):
            if parts[-1]:
                return 1 if parts[-1][min(parts[-1])] > 0 else -1
        raise UndecidedAtCapError(
            f"distinct words compared equal up to the cap of degree {cap} "
            f"(lengths {len(lv)} and {len(lw)} without common ends); raise the cap"
        )

    def _lyndon_key(self, letters: tuple[Letter, ...]) -> tuple[int, ...]:
        """The coefficients of the Lyndon words of length 3 in the image of letters, in order.

        Where two images tie through degree 2, their degree-3 difference is a Lie
        polynomial, whose least monomial is a Lyndon word (Chen-Fox-Lyndon 1958), so these
        tuples order them through degree 3. Over the trie, x_g adds the coefficient of m to
        that of m·X_g, deepest node first; x_g^-1 subtracts the new one, shallowest first.
        """
        nodes, steps, top = _lyndon_trie(self.rank)
        c, place = [1] + [0] * (len(nodes) - 1), self._place
        for generator, sign in letters:
            pairs = steps[place[generator]]
            for i, j in pairs if sign > 0 else reversed(pairs):
                c[i] += sign * c[j]
        return tuple(c[top:])

    def _prefix_keys(self, letters: tuple[Letter, ...]) -> tuple[list[int], list[int], list[int]]:
        """``(K, A, Q)``: the keys of degrees 1 and 2 of ``()`` and of each prefix of letters.

        Degree 1 of a word's image is its exponent-sum vector (Magnus 1935). K holds
        it in radix R = 2^64, places in precedence order: the sign of K[j] - K[i] is
        the degree-1 sign of letters[i:j], so its sign unless that span is balanced.
        A holds e_p at R^(r(r - 1 - p)) and Q the coefficient of X_p X_q at
        R^(r^2 - 1 - rp - q): x_q adds e X_q, x_q^-1 subtracts it and adds X_q^2, and
        a cap of 1 keeps both 0. Below 2^32 letters no coefficient, L(L + 1) / 2 at
        most, reaches 2^63: a key, or a difference of keys, has its first nonzero field's sign.
        """
        if len(letters) >> 32:
            raise ValueError(f"{len(letters)} letters exceed the key bound of 2**32 - 1")
        shift, lift = self._shift, self._lift
        k, a, q, keys, sums, pairs = 0, 0, 0, [0], [0], [0]
        for generator, sign in letters:
            if generator > self.rank:
                raise ValueError(f"generator {generator} outside rank {self.rank}")
            q += (a if sign > 0 else lift[generator] - a) << shift[generator]
            a += sign * lift[generator]
            k += sign << shift[generator]
            keys.append(k)
            sums.append(a)
            pairs.append(q)
        return keys, sums, pairs

    def _cyclic_signs(self, w: Word) -> CyclicSigns:
        """The sign table of w, kept until a table of another word is asked for."""
        table = self._table
        if table is None or table.word is not w and table.word != w:
            table = self._table = CyclicSigns(w, self)
        return table


def magnus_compare_words(
    v: Word,
    w: Word,
    cap: int | None = None,
    precedence: tuple[int, ...] | None = None,
) -> Ordering:
    """Order two words by the first differing coefficient of their series images.

    Returns EQUAL only for identical reduced words. An explicit ``cap`` below
    the degree that separates two distinct words raises
    :class:`UndecidedAtCapError`; the default cap never does. The comparison
    runs on a fresh :class:`MagnusOrder`, so nothing is cached across calls.
    """
    return MagnusOrder(v.rank, precedence, cap).compare(v, w)


class CyclicSigns:
    """The prefix signs, lows, peaks and sorted order of one word's rotation set.

    Row r is element r: w rotated by r for r < n, then w^-1 rotated by r - n.
    Span [i, j) of row r is the length-(j - i) prefix of row ``shift(r, i)``; its
    degree-1 and degree-2 signs are those of ``key(r, i, j)`` and ``key2(r, i, j)``.
    The order must be bi-invariant: row n + s is (row t)^-1 for t = (n - s) mod n,
    so it takes negated signs, and n - low, n - peak of t's. The table holds its
    order weakly, so that neither keeps the other alive.
    """

    def __init__(self, w: Word, order: MagnusOrder) -> None:
        self.word, self.n, self._order = w, len(w), ref(order)
        self._text, self._sorted, self._lcp, self.unique_from = _sorted_rotations(w)
        n = self.n
        self._keys, self._sums, self._q = order._prefix_keys(self._text[: 2 * n])
        keys = self._keys
        if order.cap is not None:
            # A cap raises where signing each prefix of the rows of w would, in that order.
            for s, j in ((s, j) for s in range(n) for j in range(s + 1, s + n + 1)):
                if keys[j] == keys[s]:
                    self._span(s, j)
        # Prefix i of row s < n is P(s)^-1 P(s + i) for the prefixes P of W·W, so its
        # low and peak are the argmin and argmax of P over [s, s + n], less s. Each such
        # window holds n: its extremes over [s, n] come from one pass down, over [n, s + n]
        # from one pass up. P(x) < P(y) for x < y when span [x, y) is positive.
        span, low, peak = self._span, [n] * (n + 1), [n] * (n + 1)
        for s in range(n - 1, -1, -1):
            x, y = low[s + 1], peak[s + 1]
            low[s] = s if (keys[x] - keys[s] or span(s, x)) > 0 else x
            peak[s] = s if (keys[y] - keys[s] or span(s, y)) < 0 else y
        x = y = n
        for s in range(n):
            if s and (keys[n + s] - keys[x] or span(x, n + s)) < 0:
                x = n + s
            if s and (keys[n + s] - keys[y] or span(y, n + s)) > 0:
                y = n + s
            a, b = low[s], peak[s]
            a = x if a < x and (keys[x] - keys[a] or span(a, x)) < 0 else a
            b = y if b < y and (keys[y] - keys[b] or span(b, y)) > 0 else b
            low[s], peak[s] = a - s, b - s
        # The (low, peak) prefix lengths of every row.
        mirror = [(n - low[-s % n], n - peak[-s % n]) for s in range(n)]
        self.low_peak = list(zip(low[:n], peak[:n])) + mirror

    def _span(self, i: int, j: int) -> int:
        """The sign of span [i, j) of W·W: its key's, else its key2's, else the order's.

        Both keys 0 tie it with the identity through degree 2, so the order signs it;
        once the order is gone, that raises ReferenceError.
        """
        key = self._keys[j] - self._keys[i] or self.key2(0, i, j)
        if key:
            return (key > 0) - (key < 0)
        order = self._order()
        if order is None:
            raise ReferenceError("the order of this sign table no longer exists")
        return order.sign(Word(self._text[i:j], self.word.rank))

    def key(self, r: int, i: int, j: int) -> int:
        """The key of span [i, j) of row r: its sign is the span's degree-1 sign."""
        keys, n, t = self._keys, self.n, -r % self.n + self.n
        # Span [i, j) of row n + s is the inverse of span [t - j, t - i) of W·W.
        return keys[r + j] - keys[r + i] if r < n else keys[t - j] - keys[t - i]

    def key2(self, r: int, i: int, j: int) -> int:
        """The degree-2 key of span [i, j) of row r, or 0 under a cap of 1.

        Its sign is the span's degree-2 sign. By Chen's identity degree 2 of span
        u = [x, y) of W·W is Q[y] - Q[x] - e(x)e(u), and that of u^-1 is e(u)e(u)
        minus u's. Each field is a coefficient of the span, below 2^63 by _prefix_keys.
        """
        sums, q, keys, n = self._sums, self._q, self._keys, self.n
        if r < n:
            return q[r + j] - q[r + i] - sums[r + i] * (keys[r + j] - keys[r + i])
        t = -r % n + n
        return q[t - j] - q[t - i] + sums[t - i] * (keys[t - i] - keys[t - j])

    def sign(self, r: int, l: int) -> int:
        """The sign of the length-l prefix of row r: span [i, j) of W·W, or its inverse."""
        n = self.n
        i, j, want = (r, r + l, 1) if r < n else (-r % n + n - l, -r % n + n, -1)
        return want * self._span(i, j)

    def letters(self, r: int, i: int, j: int) -> tuple[Letter, ...]:
        """The letters of span [i, j) of row r."""
        start = r + r // self.n * self.n
        return self._text[start + i : start + j]

    def element(self, r: int) -> Rotation:
        """Rotation-set element r as a word with its origin."""
        origin = FROM_WORD if r < self.n else FROM_INVERSE
        return Rotation(Word(self.letters(r, 0, self.n), self.word.rank), origin)

    def shift(self, r: int, i: int) -> int:
        """The row of element r rotated by i within its half."""
        n = self.n
        return r - r % n + (r + i) % n

    def starts(self, pattern: tuple[Letter, ...]) -> list[int]:
        """The rotation-set elements that start with the nonempty pattern, in order.

        They are one run of the sorted rows. Span [i, j) of element r is a prefix of
        element ``shift(r, i)``, so this also places every copy of the pattern.
        """
        m, n, text, order, lcp = len(pattern), self.n, self._text, self._sorted, self._lcp
        i = bisect_left(order, pattern, key=lambda r: text[r + r // n * n : r + r // n * n + m])
        if m > n or i == len(order) or self.letters(order[i], 0, m) != pattern:
            return []
        j = i + 1
        while lcp[j] >= m:
            j += 1
        return sorted(order[i:j])

    def _monotone(self, r: int, l: int, want: int) -> bool:
        # Every prefix and every suffix of the length-l prefix of row r has sign want.
        return all(want * self.sign(r, k) > 0 for k in range(1, l + 1)) and all(
            want * self.sign(self.shift(r, l - k), k) > 0 for k in range(1, l)
        )

    def is_ascent(self, r: int, l: int) -> bool:
        """True iff the nonempty length-l prefix of row r is an ascent."""
        return self._monotone(r, l, 1)

    def is_descent(self, r: int, l: int) -> bool:
        """True iff the nonempty length-l prefix of row r is a descent."""
        return self._monotone(r, l, -1)

    def hosts(self, starts: list[int], m: int) -> list[int]:
        """The rotation-set elements that hold a copy of a pattern of length m, in order.

        ``starts`` is ``self.starts(pattern)``: element r holds the copy that
        starts element s exactly when s is r rotated by at most n - m.
        """
        return sorted({self.shift(s, -i) for s in starts for i in range(self.n - m + 1)})
