"""Reduced words in a free group: parsing, cyclic structure, occurrences.

Words are immutable tuples of signed letters over a fixed alphabet rank.
Lowercase text letters are generators (a is generator 1), uppercase their
inverses, and the empty word is the group identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

FROM_WORD = "fromW"
FROM_INVERSE = "fromInverse"

_MAX_TEXT_GENERATORS = 26


class NotCyclicallyReducedError(ValueError):
    """An operation that needs a cyclically reduced word got one that is not."""


class Letter(NamedTuple):
    """A signed generator: 1-based generator index and sign +1 or -1."""

    generator: int
    sign: int

    def inverse(self) -> Letter:
        return Letter(self.generator, -self.sign)


@dataclass(frozen=True)
class Word:
    """A freely reduced word of a given alphabet rank.

    Instances are only ever reduced; build unreduced letter sequences with
    :func:`reduce`. Slicing yields sub-Words of the same rank.
    """

    letters: tuple[Letter, ...]
    rank: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.rank < 1:
            raise ValueError(f"rank must be positive, got {self.rank}")
        prev: Letter | None = None
        for letter in self.letters:
            if not 1 <= letter.generator <= self.rank:
                raise ValueError(
                    f"letter generator {letter.generator} outside rank {self.rank}"
                )
            if letter.sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {letter.sign}")
            if prev is not None and prev == letter.inverse():
                raise ValueError("word is not freely reduced; use reduce()")
            prev = letter

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.letters[item], self.rank)
        return self.letters[item]

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        try:
            return word_to_text(self)
        except ValueError:
            return "<" + " ".join(str(l.generator * l.sign) for l in self.letters) + ">"

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, rank={self.rank})"

    @property
    def is_cyclically_reduced(self) -> bool:
        if len(self.letters) < 2:
            return True
        return self.letters[0] != self.letters[-1].inverse()


class Rotation(NamedTuple):
    """One element of a rotation set: the rotated word plus its origin tag."""

    word: Word
    origin: str


@dataclass(frozen=True)
class RotationSet:
    """All cyclic permutations of a word and of its inverse, in offset order.

    ``elements`` lists the n rotations of the host first (origin "fromW",
    offsets 0..n-1) and then the n rotations of its inverse ("fromInverse").
    The list is positional: for a periodic host it contains repeats.
    """

    host: Word
    elements: tuple[Rotation, ...]


@dataclass(frozen=True)
class Occurrence:
    """A positioned match of a pattern inside a host word."""

    host: Word
    start: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("occurrence length must be positive")
        if not 0 <= self.start <= len(self.host) - self.length:
            raise ValueError("occurrence does not fit inside its host")

    @property
    def end(self) -> int:
        return self.start + self.length

    @property
    def is_prefix(self) -> bool:
        return self.start == 0

    @property
    def is_suffix(self) -> bool:
        return self.end == len(self.host)

    @property
    def is_internal(self) -> bool:
        return not self.is_prefix and not self.is_suffix

    def word(self) -> Word:
        return self.host[self.start : self.end]


def identity(rank: int) -> Word:
    """The empty word of the given rank."""
    return Word((), rank)


def parse_word(text: str, rank: int) -> Word:
    """Parse ASCII letter text into a freely reduced word.

    Lowercase maps to positive letters, uppercase to inverses:

    >>> parse_word("aB", 2).letters
    (Letter(generator=1, sign=1), Letter(generator=2, sign=-1))
    >>> parse_word("aA", 2)
    Word('1', rank=2)
    """
    letters = []
    for ch in text:
        if "a" <= ch <= "z":
            generator, sign = ord(ch) - ord("a") + 1, 1
        elif "A" <= ch <= "Z":
            generator, sign = ord(ch) - ord("A") + 1, -1
        else:
            raise ValueError(f"invalid character {ch!r} in word text")
        if generator > rank:
            raise ValueError(f"letter {ch!r} needs generator {generator} but rank is {rank}")
        letters.append(Letter(generator, sign))
    return reduce(letters, rank)


def word_to_text(w: Word) -> str:
    """Render a word as letter text; inverse of :func:`parse_word` on reduced words."""
    parts = []
    for letter in w.letters:
        if letter.generator > _MAX_TEXT_GENERATORS:
            raise ValueError(f"generator {letter.generator} has no single-letter name")
        base = ord("a") if letter.sign > 0 else ord("A")
        parts.append(chr(base + letter.generator - 1))
    return "".join(parts)


def reduce(letters: Iterable[Letter], rank: int) -> Word:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs.

    >>> str(reduce(parse_word("ab", 2).letters + parse_word("BA", 2).letters, 2))
    '1'
    """
    out: list[Letter] = []
    for letter in letters:
        if out and out[-1] == Letter(letter.generator, -letter.sign):
            out.pop()
        else:
            out.append(letter)
    return Word(tuple(out), rank)


def concat(*words: Word) -> Word:
    """Reduced product of words; all arguments must share one rank."""
    if not words:
        raise ValueError("concat needs at least one word")
    rank = words[0].rank
    letters: list[Letter] = []
    for w in words:
        if w.rank != rank:
            raise ValueError("cannot concatenate words of different ranks")
        letters.extend(w.letters)
    return reduce(letters, rank)


def inverse(w: Word) -> Word:
    """The group inverse: letters reversed with signs flipped."""
    return Word(tuple(l.inverse() for l in reversed(w.letters)), w.rank)


def cyclically_reduce(w: Word) -> tuple[Word, Word]:
    """Strip cancelling end pairs; returns (core, conjugator) with w = c * core * c^-1."""
    letters = w.letters
    lo, hi = 0, len(letters)
    while hi - lo >= 2 and letters[lo] == letters[hi - 1].inverse():
        lo += 1
        hi -= 1
    core = Word(letters[lo:hi], w.rank)
    conjugator = Word(letters[:lo], w.rank)
    return core, conjugator


def rotation_set(w: Word) -> RotationSet:
    """All cyclic permutations of w and of w^-1, tagged with their origin.

    Requires a cyclically reduced host, so every element is again reduced and
    cyclically reduced, and equals U^-1 w U (or U^-1 w^-1 U) for the split prefix U.
    """
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    elements = []
    for source, origin in ((w, FROM_WORD), (inverse(w), FROM_INVERSE)):
        letters = source.letters
        for i in range(len(letters)):
            elements.append(Rotation(Word(letters[i:] + letters[:i], w.rank), origin))
    return RotationSet(host=w, elements=tuple(elements))


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def primitive_root(w: Word) -> tuple[Word, int]:
    """Shortest word u with w = u^k; returns (u, k). k > 1 means w is periodic."""
    n = len(w)
    if n == 0:
        raise ValueError("the empty word has no primitive root")
    letters = w.letters
    for d in _divisors(n):
        if letters == letters[:d] * (n // d):
            return w[:d], n // d
    raise AssertionError("unreachable: every word is its own power")


def is_periodic(w: Word) -> bool:
    return primitive_root(w)[1] > 1


def _kmp_table(pattern: tuple[Letter, ...]) -> list[int]:
    table = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k > 0 and pattern[i] != pattern[k]:
            k = table[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        table[i] = k
    return table


def occurrences(pattern: Word, host: Word) -> tuple[Occurrence, ...]:
    """All (possibly overlapping) positioned matches of pattern inside host.

    >>> [o.start for o in occurrences(parse_word("aba", 2), parse_word("ababa", 2))]
    [0, 2]
    """
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if pattern.rank != host.rank:
        raise ValueError("pattern and host ranks differ")
    pat, txt = pattern.letters, host.letters
    if len(pat) > len(txt):
        return ()
    table = _kmp_table(pat)
    found = []
    k = 0
    for i, letter in enumerate(txt):
        while k > 0 and letter != pat[k]:
            k = table[k - 1]
        if letter == pat[k]:
            k += 1
        if k == len(pat):
            found.append(Occurrence(host, i - k + 1, len(pat)))
            k = table[k - 1]
    return tuple(found)


def _intervals_overlap(s1: int, e1: int, s2: int, e2: int) -> bool:
    # Partial overlap only: nonempty intersection, neither interval inside the other.
    if max(s1, s2) >= min(e1, e2):
        return False
    if s1 <= s2 and e2 <= e1:
        return False
    if s2 <= s1 and e1 <= e2:
        return False
    return True


def overlap_between(first: Occurrence, second: Occurrence) -> bool:
    """True iff the two occurrences partially overlap (neither contains the other)."""
    if first.host != second.host:
        raise ValueError("occurrences live in different hosts")
    return _intervals_overlap(first.start, first.end, second.start, second.end)


def _prefix_count(u_letters: tuple[Letter, ...], elements: Iterable[Rotation]) -> int:
    n = len(u_letters)
    return sum(1 for e in elements if e.word.letters[:n] == u_letters)


def _prefix_counts(elements: Iterable[Rotation]) -> dict[tuple[Letter, ...], int]:
    """For every nonempty prefix of an element, the :func:`_prefix_count` of it."""
    counts: dict[tuple[Letter, ...], int] = {}
    for e in elements:
        letters = e.word.letters
        for end in range(1, len(letters) + 1):
            key = letters[:end]
            counts[key] = counts.get(key, 0) + 1
    return counts


def uniquely_positioned(u: Word, w: Word) -> bool:
    """True iff u is a prefix of exactly one element of the rotation set of w.

    >>> uniquely_positioned(parse_word("aa", 2), parse_word("baaba", 2))
    True
    >>> uniquely_positioned(parse_word("aba", 2), parse_word("baaba", 2))
    False
    """
    if len(u) == 0:
        raise ValueError("positioned word must be nonempty")
    if len(w) == 0:
        raise ValueError("host word must be nonempty")
    if u.rank != w.rank:
        raise ValueError("word ranks differ")
    return _prefix_count(u.letters, rotation_set(w).elements) == 1


def is_monotonic(w: Word) -> bool:
    """True iff all letters share one sign (vacuously true for the empty word)."""
    return all(l.sign > 0 for l in w.letters) or all(l.sign < 0 for l in w.letters)
