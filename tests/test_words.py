"""Word core: parsing, reduction, cyclic structure, occurrences, positioning."""

from __future__ import annotations

import random

import pytest

from orderword import (
    FROM_INVERSE,
    FROM_WORD,
    Letter,
    NotCyclicallyReducedError,
    Word,
    concat,
    identity,
    inverse,
    is_monotonic,
    is_periodic,
    occurrences,
    parse_word,
    primitive_root,
    reduce,
    rotation_set,
    uniquely_positioned,
    word_to_text,
)
from check_word_oracle import _intervals_overlap
from wordgen import all_reduced, random_reduced

P = lambda text, rank=2: parse_word(text, rank)  # noqa: E731


# ---------------------------------------------------------------- parsing

def test_parse_letters_and_signs():
    w = P("aB")
    assert w.letters == (Letter(1, 1), Letter(2, -1))
    assert len(w) == 2 and w.rank == 2


def test_parse_cancels_to_identity():
    assert P("aA") == identity(2)
    assert not P("aA")


def test_parse_positive_word():
    w = P("baaba")
    assert len(w) == 5
    assert all(l.sign == 1 for l in w)


def test_parse_rejects_invalid_character():
    with pytest.raises(ValueError, match="'!'"):
        parse_word("a!b", 2)


def test_parse_rejects_generator_beyond_rank():
    with pytest.raises(ValueError, match="rank"):
        parse_word("abc", 2)


def _parse_then_reduce(text, rank):
    # parse_word as it was: map every character, then reduce the sequence.
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


def _outcome(parse, text, rank):
    try:
        return parse(text, rank)
    except ValueError as exc:
        return str(exc)


def test_parse_matches_parse_then_reduce():
    # The same word, or the same error text for the same first offending
    # character, on random texts that cancel often and hold every kind of
    # bad character, at ranks 0 to 27.
    rng = random.Random(2301)
    alphabet = "aAbBcCzZ" + "!1 \u00e9`{@[" + "ab" * 4
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        rank = rng.choice((0, 1, 2, 3, 25, 26, 27))
        assert _outcome(parse_word, text, rank) == _outcome(_parse_then_reduce, text, rank), text
    for rank in (1, 2, 3):
        for n in range(0, 5):
            for w in all_reduced(rank, n):
                text = str(w) if n else ""
                doubled = text + text.swapcase()[::-1] + text
                assert parse_word(doubled, rank) == _parse_then_reduce(doubled, rank) == w


def test_text_round_trip_exhaustive_small():
    for n in range(0, 5):
        for w in all_reduced(2, n):
            assert parse_word(str(w) if n else "", 2) == w


def test_word_to_text_rejects_unnamable_generator():
    w = Word((Letter(27, 1),), rank=27)
    with pytest.raises(ValueError):
        word_to_text(w)
    assert str(w) == "<27>"  # bracket fallback keeps repr usable


def test_str_of_empty_word():
    assert str(identity(2)) == "1"


# ---------------------------------------------------------------- Word type

def test_word_rejects_unreduced_letters():
    a, b = Letter(1, 1), Letter(2, 1)
    for letters in ((a, a.inverse()), (b, a.inverse(), a), (b.inverse(), b)):
        with pytest.raises(ValueError, match=r"^word is not freely reduced; use reduce\(\)$"):
            Word(letters, 2)
    # Equal letters and different generators are reduced.
    assert len(Word((a, a, b, a.inverse(), b.inverse()), 2)) == 5


def test_word_rejects_bad_rank_sign_generator():
    with pytest.raises(ValueError):
        Word((), 0)
    with pytest.raises(ValueError):
        Word((Letter(1, 2),), 2)
    with pytest.raises(ValueError):
        Word((Letter(3, 1),), 2)


def test_word_slice_is_word():
    w = P("abAB")
    piece = w[1:3]
    assert isinstance(piece, Word)
    assert str(piece) == "bA"
    assert w[0] == Letter(1, 1)


def test_is_cyclically_reduced():
    assert P("baaba").is_cyclically_reduced
    assert P("aa").is_cyclically_reduced
    assert not P("abA").is_cyclically_reduced
    assert identity(2).is_cyclically_reduced


# ---------------------------------------------------------------- reduce / concat / inverse

def test_reduce_single_cancellation():
    letters = (Letter(1, 1), Letter(2, 1), Letter(2, -1), Letter(1, 1))
    assert reduce(letters, 2) == P("aa")


def test_reduce_full_cancellation():
    assert reduce((Letter(1, 1), Letter(1, -1)), 2) == identity(2)


def test_reduce_idempotent_and_length_nonincreasing():
    rng = random.Random(101)
    for _ in range(100):
        raw = [Letter(rng.randint(1, 2), rng.choice((1, -1))) for _ in range(rng.randint(0, 12))]
        w = reduce(raw, 2)
        assert len(w) <= len(raw)
        assert reduce(w.letters, 2) == w


def test_word_times_inverse_reduces_to_identity():
    rng = random.Random(102)
    for _ in range(100):
        w = random_reduced(rng, rng.randint(0, 10))
        assert concat(w, inverse(w)) == identity(2)


def test_concat_requires_matching_ranks():
    with pytest.raises(ValueError):
        concat(P("a"), parse_word("a", 3))
    with pytest.raises(ValueError):
        concat()


def test_inverse_goldens():
    assert str(inverse(P("aB"))) == "bA"
    assert inverse(identity(2)) == identity(2)
    assert str(inverse(P("baaba"))) == "ABAAB"


def test_inverse_is_involution():
    rng = random.Random(103)
    for _ in range(50):
        w = random_reduced(rng, rng.randint(0, 10))
        assert inverse(inverse(w)) == w


# ---------------------------------------------------------------- rotation sets

def test_rotation_set_of_single_letter():
    rset = rotation_set(P("a"))
    assert [(str(e.word), e.origin) for e in rset] == [
        ("a", FROM_WORD),
        ("A", FROM_INVERSE),
    ]


def test_rotation_set_of_ab_in_offset_order():
    rset = rotation_set(P("ab"))
    assert [(str(e.word), e.origin) for e in rset] == [
        ("ab", FROM_WORD),
        ("ba", FROM_WORD),
        ("BA", FROM_INVERSE),
        ("AB", FROM_INVERSE),
    ]


def test_rotation_set_of_baaba_word_side():
    rset = rotation_set(P("baaba"))
    from_word = [str(e.word) for e in rset if e.origin == FROM_WORD]
    assert from_word == ["baaba", "aabab", "ababa", "babaa", "abaab"]
    assert len(rset) == 10


def test_rotation_set_requires_cyclically_reduced():
    with pytest.raises(NotCyclicallyReducedError):
        rotation_set(P("abA"))


def test_rotation_elements_are_conjugates():
    rng = random.Random(105)
    for _ in range(40):
        w = random_reduced(rng, rng.randint(1, 8))
        if not w.is_cyclically_reduced:
            continue
        rset = rotation_set(w)
        n = len(w)
        for offset in range(n):
            element = rset[offset].word
            u = w[:offset]
            assert element.is_cyclically_reduced
            assert concat(inverse(u), w, u) == element
        for offset in range(n):
            element = rset[n + offset].word
            u = inverse(w)[:offset]
            assert concat(inverse(u), inverse(w), u) == element


# ---------------------------------------------------------------- periodicity

def test_primitive_root_goldens():
    root, exponent = primitive_root(P("abab"))
    assert (str(root), exponent) == ("ab", 2)
    root, exponent = primitive_root(P("baaba"))
    assert (str(root), exponent) == ("baaba", 1)
    root, exponent = primitive_root(P("aaa"))
    assert (str(root), exponent) == ("a", 3)


def test_primitive_root_rejects_empty():
    with pytest.raises(ValueError):
        primitive_root(identity(2))
    with pytest.raises(ValueError):
        is_periodic(identity(2))


def test_primitive_root_power_reconstructs_word():
    for n in range(1, 7):
        for w in all_reduced(2, n):
            if not w.is_cyclically_reduced:
                continue
            root, exponent = primitive_root(w)
            assert exponent * len(root) == len(w)
            assert concat(*([root] * exponent)) == w
            assert is_periodic(w) == (exponent > 1)
            # No period shorter than the root.
            for d in range(1, len(root)):
                assert w.letters != w.letters[:d] * (len(w) // d) or len(w) % d


def test_nonperiodic_iff_rotations_distinct():
    for n in range(1, 7):
        for w in all_reduced(2, n):
            if not w.is_cyclically_reduced:
                continue
            from_word = [
                e.word.letters for e in rotation_set(w) if e.origin == FROM_WORD
            ]
            distinct = len(set(from_word)) == len(from_word)
            assert distinct == (not is_periodic(w))


# ---------------------------------------------------------------- occurrences

def test_occurrences_goldens():
    assert occurrences(P("aa"), P("baaba")) == (1,)
    assert occurrences(P("aba"), P("ababa")) == (0, 2)
    assert occurrences(P("b"), P("aa")) == ()


def test_occurrences_rejects_empty_pattern_and_rank_mismatch():
    with pytest.raises(ValueError):
        occurrences(identity(2), P("a"))
    with pytest.raises(ValueError):
        occurrences(parse_word("a", 3), P("ab"))


# ---------------------------------------------------------------- overlaps

def test_overlap_goldens():
    assert _intervals_overlap(1, 4, 3, 6) is True
    assert _intervals_overlap(1, 4, 2, 3) is False  # containment
    assert _intervals_overlap(0, 2, 2, 4) is False  # disjoint


def test_overlap_is_symmetric():
    spans = [(s, s + l) for s in range(8) for l in range(1, 9 - s)]
    for s1, e1 in spans:
        for s2, e2 in spans:
            assert _intervals_overlap(s1, e1, s2, e2) == _intervals_overlap(s2, e2, s1, e1)


# ---------------------------------------------------------------- unique positioning

def test_uniquely_positioned_goldens():
    assert uniquely_positioned(P("aa"), P("baaba")) is True
    assert uniquely_positioned(P("aba"), P("baaba")) is False
    assert uniquely_positioned(P("a"), P("a")) is True


def test_uniquely_positioned_validation():
    with pytest.raises(ValueError):
        uniquely_positioned(identity(2), P("ab"))
    with pytest.raises(ValueError):
        uniquely_positioned(P("a"), identity(2))
    with pytest.raises(ValueError):
        uniquely_positioned(parse_word("a", 3), P("ab"))


def test_uniquely_positioned_invariant_across_rotation_class():
    rng = random.Random(107)
    for _ in range(40):
        w = random_reduced(rng, rng.randint(2, 7))
        if not w.is_cyclically_reduced:
            continue
        u = random_reduced(rng, rng.randint(1, 3))
        expected = uniquely_positioned(u, w)
        for element in rotation_set(w):
            assert uniquely_positioned(u, element.word) == expected


# ---------------------------------------------------------------- monotonicity

def test_is_monotonic():
    assert is_monotonic(P("baaba")) is True
    assert is_monotonic(P("aB")) is False
    assert is_monotonic(P("AAB")) is True
    assert is_monotonic(identity(2)) is True
