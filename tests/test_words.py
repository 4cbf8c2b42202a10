"""Word core: parsing, reduction, cyclic structure, occurrences, positioning."""

from __future__ import annotations

import copy
import pickle
import random
import re
import sys
import threading
import time
import tracemalloc

import pytest

import orderword.words
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
from orderword.series import CyclicSigns, MagnusOrder
from orderword.verify import enumerate_cyclically_reduced
from orderword.words import _LETTERS
from check_word_oracle import _intervals_overlap
from wordgen import all_reduced, random_cyclically_reduced, random_reduced

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


# ---------------------------------------------------------------- one letter per value

def _shared(w):
    # Every letter of w is the one Letter of its value.
    return all(letter is Letter(letter.generator, letter.sign) for letter in w.letters)


@pytest.mark.parametrize("rank", [2, 26, 27])
def test_every_construction_path_holds_the_shared_letters(rank):
    # At rank 27 the top generator has no text letter, so only Letter names it.
    x, y = Letter(rank, 1), Letter(rank, -1)
    made = [
        Letter(rank, -1),
        Letter(generator=rank, sign=-1),
        Letter._make((rank, -1)),
        Letter._make(iter([rank, -1])),
        x._replace(sign=-1),
        x.inverse(),
        y.inverse().inverse(),
        copy.copy(y),
        copy.deepcopy(y),
        *(pickle.loads(pickle.dumps(y, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ]
    assert all(letter is y for letter in made)
    assert repr(y) == f"Letter(generator={rank}, sign=-1)" and y == (rank, -1) and hash(y) == hash((rank, -1))
    a, b = Letter(1, 1), Letter(2, 1)
    fresh = (a, x, Letter(rank, 1), b, Letter(1, 1), y)
    w = Word(fresh, rank)
    assert w.letters is fresh and w == Word(list(fresh), rank) and hash(w) == hash((fresh, rank))
    text = "aBAb" + ("zZz" if rank >= 26 else "")
    order = MagnusOrder(rank)
    words = [
        w,
        parse_word(text, rank),
        *(u for dedup in ("none", "rotation_class") for u in enumerate_cyclically_reduced(rank, 2, dedup)),
        w[1:4],
        w[::-1],
        inverse(w),
        reduce((*fresh, *inverse(w).letters[:3], b.inverse()), rank),
        concat(w, Word((b, x), rank), inverse(w)),
        *(e.word for e in rotation_set(w)),
        *(CyclicSigns(w, order).element(r).word for r in range(2 * len(w))),
        pickle.loads(pickle.dumps(w)),
        copy.deepcopy(w),
        random_reduced(random.Random(rank), 40, rank),
        random_cyclically_reduced(random.Random(rank), 40, rank),
        *all_reduced(rank, 2),
    ]
    assert all(_shared(u) for u in words)
    assert pickle.loads(pickle.dumps(w)) == w and str(pickle.loads(pickle.dumps(w))) == str(w)


def test_word_keeps_a_look_alike_letter_by_value():
    # A letter-shaped tuple that bypasses Letter is refused or accepted by value alone.
    rogue = tuple.__new__(Letter, (1, -1))
    assert rogue == Letter(1, -1) and rogue is not Letter(1, -1)
    with pytest.raises(ValueError, match=r"^word is not freely reduced; use reduce\(\)$"):
        Word((Letter(1, 1), rogue), 2)
    assert str(Word((Letter(2, 1), rogue), 2)) == "bA"


@pytest.mark.parametrize(
    "letters, rank, error, message",
    [
        ((), 0, ValueError, "rank must be positive, got 0"),
        ((Letter(0, 1),), 2, ValueError, "letter generator 0 outside rank 2"),
        ((Letter(1, 1), Letter(3, 1)), 2, ValueError, "letter generator 3 outside rank 2"),
        ((Letter(1, 2),), 2, ValueError, "letter sign must be +1 or -1, got 2"),
        (((1, 1),), 2, AttributeError, "'tuple' object has no attribute 'generator'"),
        ((Letter(2, 1), Letter(1, 1), Letter(1, -1)), 2, ValueError, "word is not freely reduced; use reduce()"),
        ((Letter(1, 1), Letter(1, -1), Letter(3, 1)), 2, ValueError, "word is not freely reduced; use reduce()"),
        ((Letter(3, 1), Letter(1, 1), Letter(1, -1)), 2, ValueError, "letter generator 3 outside rank 2"),
        ((Letter(27, -1), Letter(27, 1)), 27, ValueError, "word is not freely reduced; use reduce()"),
        ((Letter(10**9, 2),), 10**9, ValueError, "letter sign must be +1 or -1, got 2"),
    ],
    ids=["rank-0", "generator-0", "generator-3", "sign-2", "plain-tuple", "unreduced-2",
         "unreduced-before-generator", "generator-before-unreduced", "unreduced-27", "unseen-sign-2"],
)
def test_word_refusals_are_unchanged(letters, rank, error, message):
    # The first bad letter is refused, with the same type and message.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Word(letters, rank)


def test_a_huge_rank_word_enters_one_pair():
    # Letters are entered per value seen, never per rank.
    g = 10**9 + 7
    before = len(_LETTERS)
    w = Word((Letter(g, 1),), g)
    assert len(_LETTERS) == before + 1 and _shared(w)
    assert len(_LETTERS) == before + 1 and inverse(w).letters[0] is Letter(g, -1) and _shared(inverse(w))
    assert len(_LETTERS) == before + 2 and str(w) == f"<{g}>"


class _YieldingTable(dict):
    # Gives up the interpreter lock before every read and write, so that threads
    # interleave inside Letter.__new__.
    def _yielding(name):
        def method(self, *args):
            time.sleep(0)
            return getattr(dict, name)(self, *args)
        return method

    get, setdefault = _yielding("get"), _yielding("setdefault")
    __getitem__, __setitem__ = _yielding("__getitem__"), _yielding("__setitem__")


def test_a_generator_entered_twice_keeps_its_first_pair(monkeypatch):
    # A thread that read no letter for a value, and lost the race to enter it,
    # takes the winner's letter.
    class LateTable(_YieldingTable):
        def get(self, key, default=None):
            return default

    g = 3 * 10**9
    table = LateTable()
    monkeypatch.setattr(orderword.words, "_LETTERS", table)
    first = Letter(g, 1), Letter(g, -1)
    assert [Letter(g, 1), Letter(generator=g, sign=-1)] == list(first)
    assert Letter(g, 1) is first[0] and Letter(g, 1)._replace(sign=-1) is first[1]
    assert dict(table) == {(g, 1): first[0], (g, -1): first[1]}


def test_threads_that_see_a_generator_at_once_share_one_pair(monkeypatch):
    # The threads meet at a barrier before each unseen generator and each make
    # x_g and x_g^-1, half of them in the other order, through a table that yields
    # between every read and write. Each value must come out as one object.
    table = _YieldingTable(_LETTERS)
    monkeypatch.setattr(orderword.words, "_LETTERS", table)
    generators = range(2 * 10**9, 2 * 10**9 + 200)
    made, errors, interval = [[] for _ in range(4)], [], sys.getswitchinterval()
    barrier = threading.Barrier(4, timeout=30)

    def enter(k):
        try:
            for g in generators:
                s = 1 if k % 2 else -1
                barrier.wait()
                made[k].append({s: Letter(g, s), -s: Letter(g, -s)})
        except Exception as exc:  # noqa: BLE001 - reported by the main thread
            errors.append(exc)

    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=enter, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    for i, g in enumerate(generators):
        for s in (1, -1):
            assert all(made[k][i][s] is table[g, s] for k in range(4)), (g, s)


def test_a_long_word_holds_a_pointer_per_letter():
    # Once the sampler's own letters are gone, the word holds its tuple of pointers
    # to shared letters: about 0.8 MB, where a Letter per position held 7.2 MB.
    tracemalloc.start()
    try:
        w = random_cyclically_reduced(random.Random(5), 100_000, 2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(w) == 100_000 and _shared(w)
    assert held < 1.5e6


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
