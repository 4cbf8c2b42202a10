"""The series image as a product of atom series: the reference for the graded kernel.

The library reads word images from one kernel that streams their homogeneous
components, ``orderword.series._degrees``. This module keeps the arithmetic that the
kernel replaced: each letter's atom series, multiplied out with
``orderword.series.mul``. The sympy expansion in ``tests/test_series.py``
checks this product, and the product checks the kernel, the order and
``MuCache``.
"""

from __future__ import annotations

from orderword.series import TruncatedSeries, mul
from orderword.words import Word


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
