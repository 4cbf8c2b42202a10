"""
Words, rotations, and positioned subwords
=========================================

A walk through the word layer: building reduced words from text, taking
inverses, listing cyclic rotations, and asking where a subword sits.
"""

from orderword import (
    inverse,
    occurrences,
    parse_word,
    primitive_root,
    rotation_set,
    uniquely_positioned,
)

# Lowercase letters are generators, uppercase their inverses. Parsing
# freely reduces, so inverse pairs vanish on the way in.
w = parse_word("baaba", 2)
print("word:", w, " length:", len(w))
print("parse('abBA') =", parse_word("abBA", 2), " (everything cancelled)")

# The inverse reverses the letters and flips every sign.
print("inverse:", inverse(w))

# A cyclically reduced word has 2n rotations: n of the word itself and n
# of its inverse, each tagged with where it came from.
for word, origin in rotation_set(w):
    print(f"  {origin:<12} {word}")

# "baaba" is not a proper power, so all five fromW rotations are distinct.
root, exponent = primitive_root(w)
print("primitive root:", root, " exponent:", exponent)

square = parse_word("abab", 2)
print("primitive root of abab:", *primitive_root(square))

# Occurrences are start offsets: the same spelling can appear several times.
host, pattern = parse_word("ababa", 2), parse_word("aba", 2)
for start in occurrences(pattern, host):
    end = start + len(pattern)
    kind = "prefix" if start == 0 else "suffix" if end == len(host) else "internal"
    print(f"aba occurs in {host} at offset {start} ({kind})")

# A word is uniquely positioned when it prefixes exactly one of the 2n
# rotations. "aa" does; "aba" prefixes both ababa and abaab.
print("aa  uniquely positioned in baaba:", uniquely_positioned(parse_word("aa", 2), w))
print("aba uniquely positioned in baaba:", uniquely_positioned(parse_word("aba", 2), w))
