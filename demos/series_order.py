"""
Series images and the word order
================================

Every word maps to an integer power series in noncommuting variables:
generator i goes to 1 + X_i, its inverse to the alternating geometric
series. Comparing images coefficient-by-coefficient orders the words.
"""

from orderword import (
    MagnusOrder,
    Ordering,
    concat,
    identity,
    inverse,
    mu,
    parse_word,
    series_text,
)

rank = 2
P = lambda text: parse_word(text, rank)  # noqa: E731

# The image of a word is the product of its letters' atom series.
for text in ("a", "B", "aB", "abAB"):
    w = P(text)
    print(f"mu({text:<5}) =", series_text(mu(w, 2)))

# Inverse pairs telescope exactly — no rounding anywhere, ever. The image is
# multiplicative, so w * w^-1, which reduces to 1, maps to exactly 1.
w = P("abAB")
print("mu(w * w^-1) =", series_text(mu(concat(w, inverse(w)), 4)))

# Words compare at the first monomial whose coefficients differ, taking
# monomials by total degree and then lexicographically (X1 before X2).
order = MagnusOrder(rank)
print("a vs b:", order.compare(P("a"), P("b")).value)
print("abAB vs 1:", order.compare(P("abAB"), identity(rank)).value)

# The four single letters, largest first. Note B > A: at the X1
# coefficient, A already lost.
letters = [P(t) for t in ("a", "b", "A", "B")]
ranked = sorted(
    letters, key=lambda v: sum(order.compare(v, u) is Ordering.LESS for u in letters)
)
print("letters ranked:", " > ".join(str(v) for v in ranked))

# sign() compares against the identity: +1 above, -1 below, 0 only for 1.
for text in ("a", "B", "abAB", "baBA"):
    print(f"sign({text}) = {order.sign(P(text)):+d}")

# Comparisons that tie at one degree go on to the next automatically; the
# commutator needs degree 2 to separate from 1.
print("mu(abAB) at degree 1:", series_text(mu(P("abAB"), 1)))
print("mu(abAB) at degree 2:", series_text(mu(P("abAB"), 2)))

# A different variable precedence is a different (equally valid) bi-order.
swapped = MagnusOrder(rank, precedence=(2, 1))
print("under", swapped.description, ": a vs b:", swapped.compare(P("a"), P("b")).value)
