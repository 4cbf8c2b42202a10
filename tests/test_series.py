"""Truncated noncommutative series arithmetic and the induced word order."""

from __future__ import annotations

import ast
import random
from itertools import combinations, groupby, islice, permutations, product
from pathlib import Path

import pytest
import sympy

import series_oracle as oracle
from orderword import (
    Letter,
    MagnusOrder,
    MuCache,
    Ordering,
    TruncatedSeries,
    UndecidedAtCapError,
    Word,
    compare_series,
    concat,
    identity,
    inverse,
    magnus_compare_words,
    mu,
    mul,
    parse_word,
    series_text,
)
from orderword.series import _degrees, _lyndon_trie, _places
from wordgen import all_reduced, random_reduced

P = lambda text, rank=2: parse_word(text, rank)  # noqa: E731
SRC = Path(__file__).resolve().parent.parent / "src" / "orderword"


# ---------------------------------------------------------------- independent oracle

def sympy_mu(w: Word, bound: int) -> dict[tuple[int, ...], int]:
    """Expand the series image of a word with sympy's noncommutative symbols."""
    symbols = {
        g: sympy.Symbol(f"X{g}", commutative=False) for g in range(1, w.rank + 1)
    }
    product = sympy.Integer(1)
    for letter in w.letters:
        x = symbols[letter.generator]
        if letter.sign > 0:
            atom = 1 + x
        else:
            atom = sum((-x) ** d for d in range(bound + 1))
        product = sympy.expand(product * atom)
    coefficients: dict[tuple[int, ...], int] = {}
    for term in sympy.Add.make_args(product):
        coeff = 1
        indices: list[int] = []
        for factor in sympy.Mul.make_args(term):
            if factor.is_Integer:
                coeff *= int(factor)
            elif factor.is_Pow:
                base, exponent = factor.args
                indices.extend([int(str(base)[1:])] * int(exponent))
            else:
                indices.append(int(str(factor)[1:]))
        if len(indices) > bound:
            continue
        key = tuple(indices)
        total = coefficients.get(key, 0) + coeff
        if total:
            coefficients[key] = total
        elif key in coefficients:
            del coefficients[key]
    return coefficients


def test_mu_matches_sympy_oracle_goldens():
    assert sympy_mu(P("aB"), 1) == {(): 1, (1,): 1, (2,): -1}
    assert sympy_mu(P("abAB"), 2) == {(): 1, (1, 2): 1, (2, 1): -1}


def test_mu_matches_sympy_oracle_random():
    # Both the library's kernel reading and the atom product of the oracle.
    rng = random.Random(201)
    for _ in range(40):
        w = random_reduced(rng, rng.randint(0, 6))
        bound = rng.randint(1, 4)
        expected = sympy_mu(w, bound)
        assert mu(w, bound).coefficients == expected
        assert oracle.mu(w, bound).coefficients == expected


# ---------------------------------------------------------------- atoms and products

def test_atom_series_goldens():
    assert oracle.atom_series(1, 1, 2, 3).coefficients == {(): 1, (1,): 1}
    assert oracle.atom_series(2, -1, 2, 2).coefficients == {(): 1, (2,): -1, (2, 2): 1}
    assert oracle.atom_series(1, -1, 2, 0).coefficients == {(): 1}


def test_atom_series_validation():
    with pytest.raises(ValueError):
        oracle.atom_series(3, 1, 2, 2)
    with pytest.raises(ValueError):
        oracle.atom_series(1, 0, 2, 2)


def test_mul_goldens():
    a = oracle.atom_series(1, 1, 2, 1)
    b = oracle.atom_series(2, -1, 2, 1)
    assert mul(a, b).coefficients == {(): 1, (1,): 1, (2,): -1}
    telescoped = mul(oracle.atom_series(1, 1, 2, 2), oracle.atom_series(1, -1, 2, 2))
    assert telescoped.coefficients == {(): 1}
    distributed = mul(oracle.atom_series(1, 1, 2, 2), oracle.atom_series(2, 1, 2, 2))
    assert distributed.coefficients == {(): 1, (1,): 1, (2,): 1, (1, 2): 1}


def test_mul_uses_min_bound_and_checks_rank():
    product = mul(oracle.one(2, 5), oracle.one(2, 3))
    assert product.degree_bound == 3
    with pytest.raises(ValueError):
        mul(oracle.one(2, 2), oracle.one(3, 2))


def test_mul_drops_terms_above_the_smaller_bound():
    # a holds a monomial of degree 3, above b's bound of 2, so no product with
    # it survives; nor does any pair whose degrees sum past 2.
    a = TruncatedSeries(2, 4, {(): 1, (1,): 1, (1, 2, 1): 3})
    b = TruncatedSeries(2, 2, {(): 2, (2,): -1, (1, 1): 5})
    assert mul(a, b) == TruncatedSeries(
        2, 2, {(): 2, (1,): 2, (2,): -1, (1, 2): -1, (1, 1): 5}
    )
    assert mul(b, a) == TruncatedSeries(
        2, 2, {(): 2, (1,): 2, (2,): -1, (2, 1): -1, (1, 1): 5}
    )
    assert mul(TruncatedSeries(2, 5, {(1, 1, 1): 1}), oracle.one(2, 1)).coefficients == {}


def test_mu_goldens():
    for image in (mu, oracle.mu):
        assert image(P("aB"), 1).coefficients == {(): 1, (1,): 1, (2,): -1}
        assert image(identity(2), 5).coefficients == {(): 1}
        assert image(P("abAB"), 2).coefficients == {(): 1, (1, 2): 1, (2, 1): -1}
        with pytest.raises(ValueError):
            image(P("ab"), -1)


def test_inverse_pairs_telescope_exactly():
    # Exhaustive at small size, then seeded longer samples.
    for n in range(0, 5):
        for w in all_reduced(2, n):
            for bound in (1, 3):
                assert mul(mu(w, bound), mu(inverse(w), bound)).coefficients == {(): 1}
    rng = random.Random(202)
    for _ in range(60):
        w = random_reduced(rng, rng.randint(5, 10))
        bound = rng.randint(1, 6)
        assert mul(mu(w, bound), mu(inverse(w), bound)).coefficients == {(): 1}


def test_homomorphism_on_random_pairs():
    rng = random.Random(203)
    for _ in range(80):
        v = random_reduced(rng, rng.randint(0, 8))
        w = random_reduced(rng, rng.randint(0, 8))
        bound = rng.randint(1, 4)
        assert mul(mu(v, bound), mu(w, bound)).coefficients == mu(
            concat(v, w), bound
        ).coefficients


def test_degree_one_coefficients_are_exponent_sums():
    rng = random.Random(204)
    for _ in range(60):
        w = random_reduced(rng, rng.randint(0, 10))
        image = mu(w, 1)
        for g in (1, 2):
            total = sum(l.sign for l in w.letters if l.generator == g)
            assert image.coefficient((g,)) == total


# ---------------------------------------------------------------- series values

def test_truncated_series_validation():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 1, {(1, 1): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, 2, {(3,): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(2, 2, {(1,): 0})
    with pytest.raises(ValueError):
        TruncatedSeries(0, 2, {})
    with pytest.raises(ValueError):
        TruncatedSeries(2, -1, {})


def test_truncate_drops_high_terms_and_refuses_extension():
    s = mu(P("aa"), 3)
    cut = oracle.truncate(s, 1)
    assert cut.coefficients == {(): 1, (1,): 2}
    with pytest.raises(ValueError):
        oracle.truncate(cut, 2)


# ---------------------------------------------------------------- comparison

def test_compare_series_golden():
    bigger = TruncatedSeries(2, 1, {(): 1, (1,): 1, (2,): 3})
    smaller = TruncatedSeries(2, 1, {(): 1, (1,): 1, (2,): 1})
    assert compare_series(bigger, smaller) is Ordering.GREATER
    assert compare_series(smaller, bigger) is Ordering.LESS


def test_compare_series_equal_and_x1_before_x2():
    s = mu(P("a"), 2)
    assert compare_series(s, s) is Ordering.EQUAL
    with_x1 = TruncatedSeries(2, 1, {(): 1, (1,): 1})
    with_x2 = TruncatedSeries(2, 1, {(): 1, (2,): 1})
    assert compare_series(with_x1, with_x2) is Ordering.GREATER


def test_compare_series_orders_degree_before_lex():
    # A degree-1 difference must dominate any degree-2 difference.
    a = TruncatedSeries(2, 2, {(): 1, (2,): 1})
    b = TruncatedSeries(2, 2, {(): 1, (1, 1): 50})
    assert compare_series(a, b) is Ordering.GREATER


def test_compare_series_lex_within_degree_two():
    # Enumeration within degree 2: X1X1, X1X2, X2X1, X2X2.
    x1x2 = TruncatedSeries(2, 2, {(1, 2): 1})
    x2x1 = TruncatedSeries(2, 2, {(2, 1): 1})
    assert compare_series(x1x2, x2x1) is Ordering.GREATER
    assert compare_series(x1x2, x2x1, precedence=(2, 1)) is Ordering.LESS


def test_compare_series_validation():
    with pytest.raises(ValueError):
        compare_series(oracle.one(2, 1), oracle.one(2, 2))
    with pytest.raises(ValueError):
        compare_series(oracle.one(2, 1), oracle.one(3, 1))
    # The order, compare_series and series_text check a precedence in one place.
    bad = r"^precedence \(1, 1\) is not a permutation of 1\.\.2$"
    with pytest.raises(ValueError, match=bad):
        compare_series(oracle.one(2, 1), oracle.one(2, 1), precedence=(1, 1))
    with pytest.raises(ValueError, match=bad):
        series_text(oracle.one(2, 1), precedence=(1, 1))
    with pytest.raises(ValueError, match=bad):
        MagnusOrder(2, precedence=(1, 1))



# ---------------------------------------------------------------- rendering

def test_series_text_goldens():
    assert series_text(mu(P("aB"), 1)) == "1 + X1 - X2 + O(2)"
    assert series_text(mu(P("aa"), 2)) == "1 + 2X1 + X1^2 + O(3)"
    assert series_text(mu(identity(2), 0)) == "1 + O(1)"
    assert series_text(TruncatedSeries(2, 1, {})) == "0 + O(2)"
    assert series_text(TruncatedSeries(2, 1, {(1,): -2})) == "-2X1 + O(2)"
    assert series_text(mu(P("abAB"), 2)) == "1 + X1X2 - X2X1 + O(3)"


def test_series_text_respects_precedence():
    assert series_text(mu(P("aB"), 1), precedence=(2, 1)) == "1 - X2 + X1 + O(2)"


# ---------------------------------------------------------------- truncation cap

def test_policy_validation():
    with pytest.raises(ValueError):
        MagnusOrder(2, cap=0)
    with pytest.raises(ValueError):
        magnus_compare_words(P("a"), P("b"), cap=0)


def test_syllable_count_caps_the_deciding_degree():
    # x_i1^e1 ... x_ik^ek has coefficient e1*...*ek at X_i1...X_ik, so the image
    # of a nontrivial reduced word differs from 1 at degree <= its syllable count.
    for rank, max_length in ((2, 7), (3, 5)):
        for n in range(1, max_length + 1):
            for w in all_reduced(rank, n):
                syllables = len(list(groupby(l.generator for l in w.letters)))
                assert any(len(m) > 0 for m in oracle.mu(w, syllables).coefficients), str(w)


# ---------------------------------------------------------------- word comparison

def test_magnus_compare_goldens():
    assert magnus_compare_words(P("a"), P("b")) is Ordering.GREATER
    assert magnus_compare_words(P("aB"), identity(2)) is Ordering.GREATER
    assert magnus_compare_words(P("abAB"), identity(2)) is Ordering.GREATER


def test_magnus_compare_equal_only_for_identical_words():
    assert magnus_compare_words(P("ab"), P("ab")) is Ordering.EQUAL
    for v, w in combinations(all_reduced(2, 2), 2):
        assert magnus_compare_words(v, w) is not Ordering.EQUAL


def test_magnus_compare_antisymmetry_exhaustive_small():
    words = [w for n in range(0, 4) for w in all_reduced(2, n)]
    flipped = {Ordering.GREATER: Ordering.LESS, Ordering.LESS: Ordering.GREATER}
    for v, w in combinations(words, 2):
        forward = magnus_compare_words(v, w)
        assert magnus_compare_words(w, v) is flipped[forward]


def test_magnus_compare_bi_invariance():
    rng = random.Random(205)
    for _ in range(150):
        v = random_reduced(rng, rng.randint(0, 6))
        w = random_reduced(rng, rng.randint(0, 6))
        if v == w:
            continue
        verdict = magnus_compare_words(v, w)
        u = random_reduced(rng, rng.randint(0, 4))
        z = random_reduced(rng, rng.randint(0, 4))
        translated = magnus_compare_words(concat(u, v, z), concat(u, w, z))
        assert translated is verdict


def test_magnus_compare_swapped_precedence():
    assert magnus_compare_words(P("a"), P("b"), precedence=(2, 1)) is Ordering.LESS


def test_magnus_compare_validation():
    with pytest.raises(ValueError):
        magnus_compare_words(P("a"), parse_word("a", 3))
    with pytest.raises(ValueError):
        magnus_compare_words(P("a"), P("b"), precedence=(1, 1))
    # An order of rank 2 takes words of a higher rank only inside rank 2.
    order = MagnusOrder(2)
    assert order.compare(parse_word("ab", 3), parse_word("ba", 3)) is Ordering.GREATER
    a, c = parse_word("a", 3), parse_word("c", 3)
    for v, w in ((c, a), (a, c)):
        with pytest.raises(ValueError, match="^generator 3 outside rank 2$"):
            order.compare(v, w)
    with pytest.raises(ValueError, match="^generator 3 outside rank 2$"):
        order.sign(c)


@pytest.mark.parametrize("rank, top", [(2, 6), (3, 4)])
def test_low_degrees_are_components_one_and_two_of_mu(rank, top):
    # The memo key packs one field of 2^64 per cell, most significant first:
    # the coefficient of the variable at place p, then that of the degree-2
    # monomial at places (p, q). A cap of 1 keeps only the degree-1 fields.
    words = [w for n in range(0, top + 1) for w in all_reduced(rank, n)]
    cells = [(p,) for p in range(rank)] + list(product(range(rank), repeat=2))
    weights = [2 ** (64 * k) for k in range(len(cells) - 1, -1, -1)]
    for precedence in permutations(range(1, rank + 1)):
        order, capped = MagnusOrder(rank, precedence), MagnusOrder(rank, precedence, cap=1)
        for w in words:
            parts = _homogeneous_parts(oracle.mu(w, 2), order._place, 2)
            packed = [parts[len(cell)].get(cell, 0) * x for cell, x in zip(cells, weights)]
            for cmp, want in ((order, sum(packed)), (capped, sum(packed[:rank]))):
                assert cmp.compare(w, w) is Ordering.EQUAL
                assert cmp._low[w] == want, (str(w), precedence, cmp.cap)


def _lyndon_words(rank):
    # The words of length 3 over the places strictly below their proper rotations.
    return [m for m in product(range(rank), repeat=3) if m < m[1:] + m[:1] and m < m[2:] + m[:2]]


@pytest.mark.parametrize("rank, top", [(2, 6), (3, 4)])
def test_lyndon_key_holds_the_lyndon_coefficients_of_degree_3(rank, top):
    # In lexicographic order over the places, under every precedence.
    words = [w for n in range(0, top + 1) for w in all_reduced(rank, n)]
    images = {w: oracle.mu(w, 3) for w in words}
    for precedence in permutations(range(1, rank + 1)):
        order = MagnusOrder(rank, precedence)
        monomials = [tuple(precedence[p] for p in m) for m in _lyndon_words(rank)]
        for w in words:
            want = tuple(images[w].coefficient(m) for m in monomials)
            assert order._lyndon_key(w.letters) == want, (str(w), precedence)


def test_lyndon_trie_is_prefix_closed_and_counts_lyndon_words_by_witt():
    for r in range(1, 6):
        nodes, steps, top = _lyndon_trie(r)
        assert len(set(nodes)) == len(nodes) and set(m[:-1] for m in nodes if m) <= set(nodes)
        assert nodes[top:] == _lyndon_words(r) and all(len(m) < 3 for m in nodes[:top])
        assert len(nodes[top:]) == (r**3 - r) // 3
        # Each node but the root is one letter's step from its parent, deepest first.
        pairs = [(nodes[i], nodes[j] + (x,)) for x, row in enumerate(steps) for i, j in row]
        assert all(child == grown for child, grown in pairs)
        assert sorted(child for child, _ in pairs) == sorted(nodes[1:])
        for row in steps:
            depths = [len(nodes[i]) for i, _ in row]
            assert depths == sorted(depths, reverse=True)


def test_undecided_at_cap_is_loud():
    # The commutator's image is 1 + O(2), so a cap of 1 cannot separate it from 1.
    with pytest.raises(UndecidedAtCapError):
        magnus_compare_words(P("abAB"), identity(2), cap=1)
    # Common ends cancel first, so B*abAB*A against B*A is the same question.
    with pytest.raises(UndecidedAtCapError):
        MagnusOrder(2, cap=1).compare(P("BabABA"), P("BA"))
    # ab and ba share their exponent sums and differ first at X1X2, degree 2.
    with pytest.raises(UndecidedAtCapError, match="cap of degree 1"):
        MagnusOrder(2, cap=1).compare(P("ab"), P("ba"))
    # An undecided call keeps no verdict, so a later call raises again, with the same text.
    order = MagnusOrder(2, cap=1)
    for call in (lambda: order.compare(P("ab"), P("ba")), lambda: order.sign(P("abAB"))):
        texts = set()
        for _ in range(2):
            with pytest.raises(UndecidedAtCapError) as caught:
                call()
            texts.add(str(caught.value))
            assert order._verdicts == {}
        assert len(texts) == 1
    for cap in (2, None):
        assert MagnusOrder(2, cap=cap).compare(P("ab"), P("ba")) is Ordering.GREATER


@pytest.mark.parametrize("precedence", [None, (2, 1)], ids=["canonical", "swapped"])
def test_commutators_decide_at_their_weight(precedence, monkeypatch):
    # The left-normed commutator c_k = [c_(k-1), b], c_1 = a, lies in the k-th
    # term of the lower central series and not in the next, so its image is
    # 1 + (a nonzero degree-k part) + higher terms (Magnus 1935).
    streamed = []

    def logged(letters, place):
        for parts in _degrees(letters, place):
            streamed.append((letters, parts[-1]))
            yield parts

    monkeypatch.setattr("orderword.series._degrees", logged)
    c = P("a")
    for k in range(1, 8):
        if k > 1:
            c = concat(c, P("b"), inverse(c), P("B"))
        streamed.clear()
        assert MagnusOrder(2, precedence)._first_difference(c.letters, ()) in (1, -1)
        components = [part for letters, part in streamed if letters == c.letters]
        assert len(components) == k + 1, k  # streamed through degree k, no further
        assert not any(components[1:k]) and components[k], k
        if k > 1:
            with pytest.raises(UndecidedAtCapError):
                MagnusOrder(2, precedence, cap=k - 1)._first_difference(c.letters, ())
    assert len(c) == 128


def test_a_verdict_streams_the_one_word_lw_inverse_lv(monkeypatch):
    # mu(v) - mu(w) = mu(w)(mu(w^-1 v) - 1), so one image decides: that of the
    # stripped sides' lw^-1 * lv, reduced as written. Pairs tied through degree 3
    # reach the kernel: AABBAba and abABBAA, and c_4 = [[[a, b], b], b] against 1.
    v, w = P("AABBAba"), P("abABBAA")
    c3 = concat(P("abAB"), P("b"), P("baBA"), P("B"))  # [[a, b], b]
    assert str(c3) == "abAbaBAB"
    c4 = concat(c3, P("b"), inverse(c3), P("B"))
    assert str(c4) == "abAbaBAbabABaBAB"
    expected = compare_series(oracle.mu(v, 14), oracle.mu(w, 14))
    expected_sign = compare_series(oracle.mu(c4, 4), oracle.mu(identity(2), 4))
    streamed = []

    def logged(letters, place):
        streamed.append(letters)
        return _degrees(letters, place)

    monkeypatch.setattr("orderword.series._degrees", logged)
    order = MagnusOrder(2)
    assert order.compare(v, w) is expected
    assert streamed == [P("aabbaBAAABBAba").letters]
    streamed.clear()
    assert order.sign(c4) == (1 if expected_sign is Ordering.GREATER else -1)
    assert streamed == [c4.letters]


def test_order_matches_reference_series():
    # Two words of length <= top always separate by degree 2 * top, their
    # combined length. Rank 3 is the path that rank-3 verification runs.
    for rank, top in ((2, 4), (3, 3)):
        words = [w for n in range(0, top + 1) for w in all_reduced(rank, n)]
        images = {w: oracle.mu(w, 2 * top) for w in words}
        for precedence in (tuple(range(1, rank + 1)), tuple(range(rank, 0, -1))):
            order = MagnusOrder(rank, precedence=precedence)
            for v, w in product(words, repeat=2):
                expected = compare_series(images[v], images[w], precedence)
                assert order.compare(v, w) is expected, (str(v), str(w), precedence)


def test_explicit_cap_matches_reference_series():
    # Below the deciding degree the order must give up exactly where the
    # images truncated at the cap agree, and decide as they do elsewhere.
    words = [w for n in range(0, 5) for w in all_reduced(2, n)]
    assert len(words) == 161
    undecided = 0
    for precedence in ((1, 2), (2, 1)):
        for cap in range(1, 6):
            order = MagnusOrder(2, precedence=precedence, cap=cap)
            images = {w: oracle.mu(w, cap) for w in words}
            for v, w in product(words, repeat=2):
                expected = compare_series(images[v], images[w], precedence)
                if v == w:
                    assert order.compare(v, w) is Ordering.EQUAL
                elif expected is Ordering.EQUAL:
                    with pytest.raises(UndecidedAtCapError, match=f"cap of degree {cap} "):
                        order.compare(v, w)
                    undecided += 1
                else:
                    assert order.compare(v, w) is expected, (str(v), str(w), cap)
    assert undecided == 1424


def _homogeneous_parts(image: TruncatedSeries, place: tuple[int, ...], degree: int):
    parts = [{} for _ in range(degree + 1)]
    for monomial, coeff in image.coefficients.items():
        if len(monomial) <= degree:
            parts[len(monomial)][tuple(place[g] for g in monomial)] = coeff
    return parts


@pytest.mark.parametrize("rank, top", [(2, 6), (3, 4)])
def test_streamed_components_are_homogeneous_parts_of_mu(rank, top):
    # Each word's components through degree top, once all are streamed, are
    # the matching degrees of the reference image, with variables written as
    # positions; the prefixes' components are those streamed for the prefix.
    words = [w for n in range(0, top + 1) for w in all_reduced(rank, n)]
    images = {w: oracle.mu(w, top) for w in words}
    for precedence in permutations(range(1, rank + 1)):
        place = _places(precedence, rank)
        streamed = {}
        for w in words:
            parts = streamed[w.letters] = list(islice(_degrees(w.letters, place), top + 1))
            assert all(len(part) == len(w) + 1 for part in parts), str(w)
            assert [part[-1] for part in parts] == _homogeneous_parts(images[w], place, top)
            if w.letters:
                assert [part[:-1] for part in parts] == streamed[w.letters[:-1]], str(w)
    # Letters are checked before any degree is streamed.
    with pytest.raises(ValueError, match=f"^generator {rank + 1} outside rank {rank}$"):
        next(_degrees((Letter(1, 1), Letter(rank + 1, -1)), place))


# ---------------------------------------------------------------- caching

def test_mu_cache_matches_direct_mu():
    rng = random.Random(206)
    cache = MuCache()
    for _ in range(60):
        w = random_reduced(rng, rng.randint(0, 9))
        bound = rng.randint(1, 5)
        assert cache.mu_of(w.letters, 2, bound).coefficients == oracle.mu(w, bound).coefficients
    # Repeat lookups, and lower bounds of a word already read, give the same images.
    w = P("abAB")
    for bound in (4, 4, 2, 0):
        assert cache.mu_of(w.letters, 2, bound) == oracle.mu(w, bound)


def test_mu_cache_serves_any_rank():
    # A MuCache keeps nothing: it serves two ranks, and refuses a letter outside one.
    cache, w = MuCache(), parse_word("abC", 3)
    assert cache.mu_of(P("ab").letters, 2, 2) == oracle.mu(P("ab"), 2)
    assert cache.mu_of(w.letters, 3, 3) == oracle.mu(w, 3)
    with pytest.raises(ValueError, match="^generator 3 outside rank 2$"):
        cache.mu_of(w.letters, 2, 2)


# ---------------------------------------------------------------- one product

@pytest.mark.parametrize(
    "rank, top, degrees", [(2, 4, 8), (3, 3, 5), (1, 6, 11)], ids=["rank2", "rank3", "rank1"]
)
def test_series_text_matches_reference_product(rank, top, degrees):
    # What the series subcommand prints, under every precedence, and what
    # one long-lived MuCache returns, against the atom product.
    words = [w for n in range(0, top + 1) for w in all_reduced(rank, n)]
    cache = MuCache()
    for w in words:
        for degree in range(degrees + 1):
            image, expected = mu(w, degree), oracle.mu(w, degree)
            assert image == expected, (str(w), degree)
            assert cache.mu_of(w.letters, rank, degree) == expected, (str(w), degree)
            for precedence in permutations(range(1, rank + 1)):
                assert series_text(image, precedence) == series_text(expected, precedence)


@pytest.mark.parametrize("reverse", [False, True], ids=["canonical", "reversed"])
def test_prefix_keys_equal_one_power_per_place(reverse):
    # The weights are shifts computed once per precedence; the keys must be the
    # integers of one power of R = 2^64 per place, at every text rank, for a
    # word that uses every generator, under both extremes of precedence.
    rng = random.Random(2626)
    for rank in range(1, 27):
        cmp = MagnusOrder(rank, tuple(range(rank, 0, -1)) if reverse else None)
        letters = random_reduced(rng, 2 * rank, rank).letters
        letters += tuple(Letter(g, (-1) ** g) for g in range(1, rank + 1))
        radix, place = 2**64, cmp._place
        weight = [radix ** (rank - 1 - p) for p in place]
        lift = [radix ** (rank * (rank - 1 - p)) for p in place]
        keys, a, q, sums, pairs = [0], 0, 0, [0], [0]
        for g, sign in letters:
            keys.append(keys[-1] + sign * weight[g])
            q += (a if sign > 0 else lift[g] - a) * weight[g]
            a += sign * lift[g]
            sums.append(a)
            pairs.append(q)
        assert cmp._prefix_keys(letters) == (keys, sums, pairs), rank


def test_prefix_keys_refuse_two_to_the_32_letters():
    # Below 2^32 letters no key field reaches 2^63. A range holds no letters, so
    # one just below the bound gets past the check and fails on its first item.
    cmp = MagnusOrder(2)
    with pytest.raises(ValueError, match="^4294967296 letters exceed the key bound"):
        cmp._prefix_keys(range(1 << 32))
    with pytest.raises(TypeError):
        cmp._prefix_keys(range((1 << 32) - 1))


@pytest.mark.parametrize(
    "name",
    [
        "mul",
        "compare_series",
        "prefix_profile",
        "ascent_descent_spans",
        "occurrences",
        "uniquely_positioned",
        "magnus_compare_words",
        "canonical_representative",
    ],
)
def test_library_never_calls(name):
    # These stay exported for tests, demos and perfbench; the library reads
    # the kernel and the sign table instead.
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_no_module_imports_private_series_names():
    # The order's kernel is MagnusOrder's own state and methods; other modules
    # reach it through the class, not through private names of series.
    imported = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("series", "orderword.series"):
                imported += [
                    f"{path.name}:{node.lineno}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert imported == []


@pytest.mark.parametrize(
    "module, scope, receivers, members",
    [
        (
            "series.py",
            "CyclicSigns",
            ("order", "self._order()"),
            {"_prefix_keys", "cap", "sign"},
        ),
        ("analysis.py", None, ("cmp",), {"_cyclic_signs", "compare", "sign"}),
        ("verify.py", None, ("cmp",), {"_cyclic_signs", "checks_monotonic", "description"}),
    ],
    ids=["sign-table", "analysis", "verify"],
)
def test_each_module_reads_named_members_of_its_order(module, scope, receivers, members):
    # The surface through which the sign table, the analysis and the audits
    # reach their order: a member joins it here on purpose, not by accident.
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    if scope:
        tree = next(n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == scope)
    reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and ast.unparse(node.value) in receivers
    }
    assert reads == members
