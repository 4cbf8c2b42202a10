"""Ascent/descent classification and the maximal-ascent decomposition."""

from __future__ import annotations

import random

import pytest

from orderword import (
    FROM_INVERSE,
    FROM_WORD,
    LengthOneError,
    MagnusOrder,
    NotCyclicallyReducedError,
    Ordering,
    PeriodicWordError,
    ascent_descent_spans,
    concat,
    decompose,
    identity,
    inverse,
    is_ascent,
    is_descent,
    is_monotonic,
    is_periodic,
    maximal_ascent,
    parse_word,
    prefix_profile,
    rotation_set,
    uniquely_positioned,
)
from orderword.analysis import CyclicSigns
from orderword.verify import enumerate_cyclically_reduced
from orderword.words import _prefix_count
from wordgen import all_reduced, random_reduced

P = lambda text, rank=2: parse_word(text, rank)  # noqa: E731


@pytest.fixture(scope="module")
def order() -> MagnusOrder:
    return MagnusOrder(2)


@pytest.fixture(scope="module")
def swapped() -> MagnusOrder:
    return MagnusOrder(2, precedence=(2, 1))


# ---------------------------------------------------------------- the order object

def test_order_descriptions(order, swapped):
    assert order.description == "magnus(x1>x2)"
    assert swapped.description == "magnus(x2>x1)"


def test_order_validation():
    with pytest.raises(ValueError):
        MagnusOrder(0)
    with pytest.raises(ValueError):
        MagnusOrder(2, precedence=(1, 3))


def test_sign_of_letters(order):
    assert order.sign(P("a")) == 1
    assert order.sign(P("B")) == -1
    assert order.sign(identity(2)) == 0
    assert order.sign(P("abAB")) == 1  # first difference at X1X2, coefficient +1


def test_single_letters_are_totally_ordered(order):
    ranked = sorted(["a", "b", "A", "B"], key=lambda t: sum(
        order.less(P(t), P(u)) for u in ("a", "b", "A", "B")
    ))
    assert ranked == ["a", "b", "B", "A"]  # a > b > B > A


def test_order_transitivity_sampled(order):
    rng = random.Random(301)
    for _ in range(150):
        x, y, z = (random_reduced(rng, rng.randint(0, 5)) for _ in range(3))
        if order.greater(x, y) and order.greater(y, z):
            assert order.greater(x, z)


# ---------------------------------------------------------------- ascents and descents

def test_is_ascent_goldens(order):
    assert is_ascent(P("a"), order) is True
    assert is_ascent(P("ab"), order) is True
    assert is_ascent(P("aB"), order) is False  # suffix B sits below 1
    assert is_ascent(identity(2), order) is False


def test_is_descent_goldens(order):
    assert is_descent(P("B"), order) is True
    assert is_descent(P("AB"), order) is True
    assert is_descent(P("a"), order) is False
    assert is_descent(identity(2), order) is False


def test_descent_iff_inverse_is_ascent(order):
    for n in range(1, 5):
        for w in all_reduced(2, n):
            assert is_descent(w, order) == is_ascent(inverse(w), order)


def test_positive_words_are_ascents(order):
    # Every monotonic positive word has all partial products above 1.
    for text in ("a", "bb", "baaba", "abab"):
        assert is_ascent(P(text), order)
        assert is_descent(inverse(P(text)), order)


# ---------------------------------------------------------------- prefix profiles

def test_prefix_profile_goldens(order):
    profile = prefix_profile(P("abAB"), order)
    assert (profile.peak_index, profile.low_index) == (2, 0)
    assert str(profile.peak) == "ab"
    assert profile.low == identity(2)
    assert not profile.degenerate

    profile = prefix_profile(P("aB"), order)
    assert (profile.peak_index, profile.low_index) == (1, 0)


def test_prefix_profile_of_empty_word_is_degenerate(order):
    profile = prefix_profile(identity(2), order)
    assert (profile.peak_index, profile.low_index) == (0, 0)
    assert profile.degenerate


def test_prefix_profile_extremes_are_argmax_argmin(order):
    rng = random.Random(302)
    for _ in range(30):
        w = random_reduced(rng, rng.randint(1, 6))
        profile = prefix_profile(w, order)
        prefixes = [w[:i] for i in range(len(w) + 1)]
        for i, prefix in enumerate(prefixes):
            if i != profile.peak_index:
                assert order.greater(prefixes[profile.peak_index], prefix)
            if i != profile.low_index:
                assert order.less(prefixes[profile.low_index], prefix)


def test_monotonic_positive_word_peaks_at_full_length(order):
    profile = prefix_profile(P("baaba"), order)
    assert profile.peak_index == 5
    assert profile.low_index == 0


# ---------------------------------------------------------------- span classification

def test_ascent_descent_spans_golden(order):
    ascents, descents = ascent_descent_spans(P("abAB"), order)
    assert sorted(ascents) == [(0, 1), (0, 2), (1, 2)]
    assert sorted(descents) == [(2, 3), (2, 4), (3, 4)]


def test_spans_agree_with_pointwise_classification(order):
    rng = random.Random(303)
    for _ in range(25):
        w = random_reduced(rng, rng.randint(1, 6))
        ascents, descents = ascent_descent_spans(w, order)
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                piece = w[i:j]
                assert ((i, j) in ascents) == is_ascent(piece, order)
                assert ((i, j) in descents) == is_descent(piece, order)


def test_cyclic_signs_match_every_rotation(order, swapped):
    # Periodic words and length one included: maximal_ascent reads the table too.
    for cmp in (order, swapped):
        for n in range(1, 7):
            for w in enumerate_cyclically_reduced(2, n):
                table = CyclicSigns(w, cmp._sign_letters)
                assert table.elements == rotation_set(w).elements
                for r, element in enumerate(table.elements):
                    host = element.word
                    ascents, descents = table.spans(r)
                    assert (set(ascents), set(descents)) == ascent_descent_spans(host, cmp)
                    assert ascents == sorted(ascents) and descents == sorted(descents)
                    profile = prefix_profile(host, cmp)
                    assert table.low_peak[r] == (profile.low_index, profile.peak_index)
                    for i in range(n):
                        assert table.counts[host.letters[: i + 1]] == _prefix_count(
                            host.letters[: i + 1], table.elements
                        )
                        for j in range(i + 1, n + 1):
                            piece = host[i:j]
                            assert table.sign(r, i, j) == cmp.sign(piece)
                            assert table.is_descent(r, i, j) == ((i, j) in descents)


def test_order_keeps_the_last_table(order):
    w, v = P("abAB"), P("aab")
    first = order._cyclic_signs(w)
    assert order._cyclic_signs(P("abAB")) is first
    assert order._cyclic_signs(v).word == v
    assert order._cyclic_signs(w) is not first


# ---------------------------------------------------------------- maximal ascent

def test_maximal_ascent_goldens(order):
    found = maximal_ascent(P("abAB"), order)
    assert (str(found.ascent), str(found.host), found.origin) == ("ab", "abAB", FROM_WORD)

    found = maximal_ascent(P("bA"), order)
    assert (str(found.ascent), str(found.host), found.origin) == ("a", "aB", FROM_INVERSE)

    found = maximal_ascent(P("baaba"), order)
    assert (str(found.ascent), found.origin) == ("aabab", FROM_WORD)


def test_maximal_ascent_occurrences_are_positioned(order):
    found = maximal_ascent(P("abAB"), order)
    assert len(found.occurrences) == 1
    assert found.occurrences[0].is_prefix
    assert found.occurrences[0].word() == found.ascent


def test_maximal_ascent_validation(order):
    with pytest.raises(ValueError):
        maximal_ascent(identity(2), order)
    with pytest.raises(ValueError):
        maximal_ascent(P("ab"), order, algorithm="guess")


def test_bruteforce_and_peaklow_agree_small(order, swapped):
    for cmp in (order, swapped):
        for n in range(1, 6):
            for w in enumerate_cyclically_reduced(2, n):
                via_brute = maximal_ascent(w, cmp, algorithm="bruteforce")
                via_profile = maximal_ascent(w, cmp, algorithm="peaklow")
                assert via_brute.ascent == via_profile.ascent, str(w)
                assert via_brute.host == via_profile.host
                assert via_brute.origin == via_profile.origin


def test_maximal_ascent_is_actually_maximal(order):
    # Against the definition: no ascent subword of any rotation beats it.
    rng = random.Random(304)
    for _ in range(20):
        w = random_reduced(rng, rng.randint(2, 6))
        if not w.is_cyclically_reduced:
            continue
        best = maximal_ascent(w, order).ascent
        for element in rotation_set(w).elements:
            host = element.word
            for i in range(len(host)):
                for j in range(i + 1, len(host) + 1):
                    piece = host[i:j]
                    if is_ascent(piece, order) and piece != best:
                        assert order.greater(best, piece)


# ---------------------------------------------------------------- decomposition

def test_decompose_goldens(order):
    dec = decompose(P("abAB"), order)
    assert (str(dec.chosen), dec.origin) == ("abAB", FROM_WORD)
    assert (str(dec.ascent), str(dec.descent)) == ("ab", "AB")
    assert dec.descent_unique is True
    assert not dec.descent_empty

    dec = decompose(P("bA"), order)
    assert (str(dec.chosen), dec.origin) == ("aB", FROM_INVERSE)
    assert (str(dec.ascent), str(dec.descent)) == ("a", "B")
    assert dec.descent_unique is True

    dec = decompose(P("baaba"), order)
    assert (str(dec.chosen), dec.origin) == ("aabab", FROM_WORD)
    assert dec.ascent == dec.chosen
    assert dec.descent_empty
    assert dec.descent_unique is None


def test_decompose_swapped_precedence_goldens(swapped):
    dec = decompose(P("abAB"), swapped)
    assert (str(dec.chosen), dec.origin) == ("baBA", FROM_INVERSE)
    assert (str(dec.ascent), str(dec.descent)) == ("ba", "BA")

    dec = decompose(P("bA"), swapped)
    assert (str(dec.chosen), dec.origin) == ("bA", FROM_WORD)
    assert (str(dec.ascent), str(dec.descent)) == ("b", "A")

    dec = decompose(P("baaba"), swapped)
    assert str(dec.chosen) == "babaa"
    assert dec.descent_empty


def test_decompose_preconditions(order):
    with pytest.raises(LengthOneError):
        decompose(P("a"), order)
    with pytest.raises(LengthOneError):
        decompose(identity(2), order)
    with pytest.raises(PeriodicWordError):
        decompose(P("abab"), order)
    with pytest.raises(NotCyclicallyReducedError):
        decompose(P("abA"), order)


def test_decompose_invariants_exhaustive(order):
    for n in range(2, 7):
        for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
            if is_periodic(w):
                continue
            dec = decompose(w, order)
            assert dec.source == w
            assert is_ascent(dec.ascent, order)
            assert dec.descent_empty or is_descent(dec.descent, order)
            # chosen is the plain concatenation, with no cancellation.
            assert dec.chosen.letters == dec.ascent.letters + dec.descent.letters
            # chosen really is an element of the rotation set, with its tag.
            members = [
                (e.word, e.origin) for e in rotation_set(w).elements
            ]
            assert (dec.chosen, dec.origin) in members
            assert dec.ascent_occurrences[0].is_prefix
            if dec.descent_empty:
                assert dec.descent_unique is None
            else:
                assert dec.descent_unique == uniquely_positioned(dec.descent, w)


def test_empty_descent_iff_monotonic_exhaustive(order):
    for n in range(2, 7):
        for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
            if is_periodic(w):
                continue
            dec = decompose(w, order)
            assert dec.descent_empty == is_monotonic(w), str(w)


def test_decompose_deterministic_across_instances():
    first = decompose(P("abAB"), MagnusOrder(2))
    second = decompose(P("abAB"), MagnusOrder(2))
    assert first == second


def test_decompose_respects_policy_cap(order):
    # A generous explicit cap must not change any answer.
    capped = MagnusOrder(2, cap=12)
    for text in ("abAB", "bA", "baaba", "aaB"):
        assert decompose(P(text), capped) == decompose(P(text), order)


# ---------------------------------------------------------------- bi-invariance of the comparator contract

def test_comparator_bi_invariance_spot_checks(order):
    rng = random.Random(305)
    for _ in range(100):
        v = random_reduced(rng, rng.randint(0, 5))
        w = random_reduced(rng, rng.randint(0, 5))
        if v == w:
            continue
        verdict = order.compare(v, w)
        u = random_reduced(rng, rng.randint(0, 3))
        z = random_reduced(rng, rng.randint(0, 3))
        assert order.compare(concat(u, v, z), concat(u, w, z)) is verdict
        assert order.compare(w, v) is (
            Ordering.LESS if verdict is Ordering.GREATER else Ordering.GREATER
        )
