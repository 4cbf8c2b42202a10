"""
Maximal ascents and the AD decomposition
========================================

An ascent is a word whose every nonempty prefix and suffix lies above the
identity; a descent is the mirror image. Among all subwords of all 2n
rotations there is a unique largest ascent A, and some rotation W' splits
as W' = A D with D empty or a descent. This script watches that happen.
"""

from orderword import (
    MagnusOrder,
    check_word,
    decompose,
    is_ascent,
    is_descent,
    parse_word,
    weinbaum_factorizations,
)

order = MagnusOrder(2)
P = lambda text: parse_word(text, 2)  # noqa: E731

# Classify a few small words by hand first.
for text in ("a", "ab", "aB", "AB"):
    w = P(text)
    print(f"{text:<3} ascent={is_ascent(w, order)!s:<5} descent={is_descent(w, order)}")

# Each rotation's smallest and largest prefix bound an ascent candidate. In
# the rotation W' that decompose() chooses, the smallest prefix is the empty
# one and the largest is the maximal ascent A (check_word audits this), so
# the peak/low slice of W' is A.
w = P("abAB")
dec = decompose(w, order)
print(f"\nprefixes of {dec.chosen}: low at 0, peak at {len(dec.ascent)}, "
      f"slice = {dec.chosen[:len(dec.ascent)]}")

# decompose() finds the maximal ascent over the whole rotation set, then
# rotates so it becomes a prefix.
for text in ("abAB", "bA", "baaba", "abaB"):
    dec = decompose(P(text), order)
    d_text = str(dec.descent) if dec.descent else "1"
    unique = {True: "unique", False: "repeated", None: "-"}[dec.descent_unique]
    print(f"{text:<6} -> W' = {dec.chosen} ({dec.origin}), "
          f"A = {dec.ascent}, D = {d_text} ({unique})")

# Monotonic words are the degenerate case: the whole word is the ascent.
dec = decompose(P("baaba"), order)
print("\nbaaba is monotonic, so D is empty and A is a full rotation:", dec.ascent)

# check_word replays every claim about one word and reports anomalies
# (there are none; seeing the checked fields is the point).
report = check_word(P("abaB"), order)
print("\nreport for abaB:")
for key, value in report.to_dict().items():
    print(f"  {key}: {value}")

# Weinbaum factorizations: rotations that split into two uniquely
# positioned halves. Every word here has at least one.
for text in ("ab", "baaba", "abAB"):
    pairs = weinbaum_factorizations(P(text))
    rendered = ", ".join(f"{u}|{v}" for u, v in pairs)
    print(f"weinbaum({text}): {rendered}")
