"""Reduced words in a free group: parsing, cyclic structure, occurrences.

Words are immutable tuples of signed letters over a fixed alphabet rank.
Lowercase text letters are generators (a is generator 1), uppercase their
inverses, and the empty word is the group identity.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
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


class _Record:
    """Value semantics for a slotted class whose ``__init__`` sets each slot once.

    The fields are the slots whose names do not start with ``_``; a private slot
    holds something derived from them, such as ``Word``'s hash. A record equals
    only a record of its own class with equal fields, refuses assignment to any
    slot, and pickles and copies by rebuilding through ``__init__`` from its
    fields, which recomputes the private slots.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = property(attrgetter(*cls._fields))  # the fields, in slot order

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return self.__class__, self._values

    def __repr__(self) -> str:
        fields = (f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{self.__class__.__name__}({', '.join(fields)})"


class Word(_Record):
    """A freely reduced word of a given alphabet rank.

    Instances are only ever reduced; build unreduced letter sequences with
    :func:`reduce`. Slicing yields sub-Words of the same rank.
    """

    __slots__ = ("letters", "rank", "_hash")

    def __init__(self, letters: Iterable[Letter], rank: int) -> None:
        object.__setattr__(self, "letters", tuple(letters))
        object.__setattr__(self, "rank", rank)
        self.__post_init__()
        object.__setattr__(self, "_hash", hash((self.letters, rank)))

    def __post_init__(self) -> None:
        """Refuse a bad rank, letter or inverse pair; ``__init__`` calls this once."""
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
            if prev is not None and prev.generator == letter.generator and prev.sign != letter.sign:
                raise ValueError("word is not freely reduced; use reduce()")
            prev = letter

    def __hash__(self) -> int:
        """``hash((letters, rank))``, computed once by ``__init__``.

        A tuple re-hashes its letters on every call; the order's low-degree memo
        is keyed by words, so ``compare`` and ``sign`` would pay that per lookup.
        """
        return self._hash

    def __len__(self) -> int:
        return len(self.letters)

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


_TEXT_LETTERS = {  # each text letter's Letter and its inverse; A..Z are the inverses of a..z
    chr(base + g): (Letter(g + 1, sign), Letter(g + 1, -sign))
    for base, sign in ((ord("a"), 1), (ord("A"), -1)) for g in range(_MAX_TEXT_GENERATORS)
}
_LETTER_TEXT = {letter: ch for ch, (letter, _) in _TEXT_LETTERS.items()}
_INVERSE = dict(_TEXT_LETTERS.values())  # a letter's inverse, for generators with text names


class Rotation(NamedTuple):
    """One element of a rotation set: the rotated word plus its origin tag."""

    word: Word
    origin: str


@cache
def identity(rank: int) -> Word:
    """The empty word of the given rank, one shared per rank."""
    return Word((), rank)


def parse_word(text: str, rank: int) -> Word:
    """Parse ASCII letter text into a freely reduced word.

    Lowercase maps to positive letters, uppercase to inverses:

    >>> parse_word("aB", 2).letters
    (Letter(generator=1, sign=1), Letter(generator=2, sign=-1))
    >>> parse_word("aA", 2)
    Word('1', rank=2)
    """
    letters: list[Letter] = []
    for c in text:
        letter, inverse = _TEXT_LETTERS.get(c, (None, None))
        if letter is None:
            raise ValueError(f"invalid character {c!r} in word text")
        if letter.generator > rank:
            raise ValueError(f"letter {c!r} needs generator {letter.generator} but rank is {rank}")
        if letters and letters[-1] == inverse:
            letters.pop()
        else:
            letters.append(letter)
    return Word(tuple(letters), rank)


def word_to_text(w: Word) -> str:
    """Render a word as letter text; inverse of :func:`parse_word` on reduced words."""
    try:
        return "".join(_LETTER_TEXT[letter] for letter in w.letters)
    except KeyError as exc:
        raise ValueError(f"generator {exc.args[0].generator} has no single-letter name") from None


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


def rotation_set(w: Word) -> tuple[Rotation, ...]:
    """All cyclic permutations of w and of w^-1, tagged with their origin, in offset order.

    The n rotations of w come first (origin "fromW", offsets 0..n-1), then the
    n rotations of w^-1 ("fromInverse"); for a periodic host there are repeats.
    Requires a cyclically reduced host, so every element is again reduced and
    cyclically reduced, and equals U^-1 w U (or U^-1 w^-1 U) for the split prefix U.
    """
    origins = [FROM_WORD] * len(w) + [FROM_INVERSE] * len(w)
    return tuple(Rotation(Word(row, w.rank), o) for row, o in zip(_rotation_rows(w), origins))


def _rotation_rows(w: Word) -> list[tuple[Letter, ...]]:
    """The rotation set's elements as letters: w rotated by r, then w^-1 rotated by r."""
    text, n = _rotation_text(w), len(w)
    return [text[a : a + n] for a in (*range(n), *range(2 * n, 3 * n))]


def _rotation_text(w: Word) -> tuple[Letter, ...]:
    """W·W·W^-1·W^-1: row r of the rotation set is its n letters from r + r // n * n."""
    if not w.is_cyclically_reduced:
        raise NotCyclicallyReducedError(f"{w!r} is not cyclically reduced")
    inv = tuple([_INVERSE.get(l) or l.inverse() for l in reversed(w.letters)])
    return w.letters * 2 + inv * 2


def _period(letters: tuple[Letter, ...]) -> int:
    """The least d with letters == letters[:d] * (n // d); n itself when there is no root."""
    n = len(letters)
    if n == 0:
        raise ValueError("the empty word has no primitive root")
    return next(d for d in range(1, n + 1) if n % d == 0 and letters == letters[:d] * (n // d))


def primitive_root(w: Word) -> tuple[Word, int]:
    """Shortest word u with w = u^k; returns (u, k). k > 1 means w is periodic."""
    d = _period(w.letters)
    return w[:d], len(w) // d


def is_periodic(w: Word) -> bool:
    return _period(w.letters) < len(w)


def occurrences(pattern: Word, host: Word) -> tuple[int, ...]:
    """Start offsets of all (possibly overlapping) matches of pattern inside host.

    >>> occurrences(parse_word("aba", 2), parse_word("ababa", 2))
    (0, 2)
    """
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if pattern.rank != host.rank:
        raise ValueError("pattern and host ranks differ")
    pat, txt, m = pattern.letters, host.letters, len(pattern)
    return tuple(i for i in range(len(txt) - m + 1) if txt[i : i + m] == pat)


def _sorted_rotations(w: Word) -> tuple[tuple[Letter, ...], list[int], list[int], list[int]]:
    """``(text, order, lcp, unique_from)``: the rows of w's rotation set, sorted.

    Rows lie in ``text`` (see :func:`_rotation_text`); ``order`` lists them sorted,
    and ``lcp[i]`` is the common prefix length of rows ``order[i - 1]`` and
    ``order[i]``, 0 at both ends. A length-l prefix of row r is uniquely
    positioned iff l >= ``unique_from[r]``. See the README for the algorithm.
    """
    text, n = _rotation_text(w), len(w)
    size, h = 2 * n, min(16, n)
    at = [*range(n), *range(2 * n, 3 * n)]  # where each row starts
    key = [text[a : a + h] for a in at]
    order = sorted(range(size), key=key.__getitem__)
    # Runs tied through h letters sort by the group, the first place in order of
    # its ties, of each row rotated by h (Manber-Myers); then they tie through 2h.
    group, runs = [0] * size, [(0, size)]
    while runs and h < n:
        ties = []
        for lo, hi in runs:
            first = lo
            for i in range(lo, hi + 1):
                if i == hi or key[order[i]] != key[order[first]]:
                    ties += [(first, i)] if i - first > 1 else []
                    first = i
                if i < hi:
                    group[order[i]] = first
        key = [group[r - r % n + (r + h) % n] for r in range(size)]
        for lo, hi in ties:
            order[lo:hi] = sorted(order[lo:hi], key=key.__getitem__)
        runs, h = ties, 2 * h
    rank, lcp, k = [0] * size, [0] * (size + 1), 0
    for i, r in enumerate(order):
        rank[r] = i
    # Kasai: a row's successor in its half shares one letter less, at least, with its neighbour.
    for r, i in enumerate(rank):
        k = 0 if r % n == 0 or not i else k
        if i:
            a, b = at[order[i - 1]], at[r]
            while k < n and text[a + k] == text[b + k]:
                k += 1
            lcp[i], k = k, k - (k > 0)
    return text, order, lcp, [1 + (lcp[i] if lcp[i] > lcp[i + 1] else lcp[i + 1]) for i in rank]


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
    m = len(u)
    return sum(row[:m] == u.letters for row in _rotation_rows(w)) == 1


def is_monotonic(w: Word) -> bool:
    """True iff all letters share one sign (vacuously true for the empty word)."""
    return all(l.sign > 0 for l in w.letters) or all(l.sign < 0 for l in w.letters)
