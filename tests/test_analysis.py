"""Ascent/descent classification and the maximal-ascent decomposition."""

from __future__ import annotations

import functools
import gc
import itertools
import random
import re

import pytest

import check_word_oracle as oracle
from orderword import (
    FROM_INVERSE,
    FROM_WORD,
    LengthOneError,
    Letter,
    MagnusOrder,
    NotCyclicallyReducedError,
    Ordering,
    PeriodicWordError,
    Word,
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
    occurrences,
    parse_word,
    prefix_profile,
    rotation_set,
    uniquely_positioned,
)
from orderword.series import CyclicSigns, UndecidedAtCapError, _degrees
from orderword.verify import check_word, enumerate_cyclically_reduced, weinbaum_factorizations
from orderword.words import _rotation_rows, _sorted_rotations
from wordgen import all_reduced, random_cyclically_reduced, random_reduced

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
        order.compare(P(t), P(u)) is Ordering.LESS for u in ("a", "b", "A", "B")
    ))
    assert ranked == ["a", "b", "B", "A"]  # a > b > B > A


def test_order_transitivity_sampled(order):
    rng = random.Random(301)
    for _ in range(150):
        x, y, z = (random_reduced(rng, rng.randint(0, 5)) for _ in range(3))
        if order.compare(x, y) is order.compare(y, z) is Ordering.GREATER:
            assert order.compare(x, z) is Ordering.GREATER


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
    # (low, peak): the peak prefix of abAB is ab, the low one the identity.
    assert prefix_profile(P("abAB"), order) == (0, 2)
    assert prefix_profile(P("aB"), order) == (0, 1)


def test_prefix_profile_of_empty_word_is_degenerate(order):
    # The only word whose low and peak prefixes coincide.
    assert prefix_profile(identity(2), order) == (0, 0)


def test_prefix_profile_extremes_are_argmax_argmin(order):
    rng = random.Random(302)
    for _ in range(30):
        w = random_reduced(rng, rng.randint(1, 6))
        low, peak = prefix_profile(w, order)
        prefixes = [w[:i] for i in range(len(w) + 1)]
        for i, prefix in enumerate(prefixes):
            if i != peak:
                assert order.compare(prefixes[peak], prefix) is Ordering.GREATER
            if i != low:
                assert order.compare(prefixes[low], prefix) is Ordering.LESS


def test_monotonic_positive_word_peaks_at_full_length(order):
    assert prefix_profile(P("baaba"), order) == (0, 5)


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
                table = CyclicSigns(w, cmp)
                elements = rotation_set(w)
                rows = _rotation_rows(w)
                assert tuple(table.element(r) for r in range(2 * n)) == elements
                assert rows == [e.word.letters for e in elements]
                for r, element in enumerate(elements):
                    host = element.word
                    ascents, descents = ascent_descent_spans(host, cmp)
                    assert table.low_peak[r] == prefix_profile(host, cmp)
                    for l in range(1, n + 1):
                        unique = oracle._prefix_count(host.letters[:l], elements) == 1
                        assert (l >= table.unique_from[r]) == unique, (str(w), r, l)
                    for i in range(n):
                        shifted = table.shift(r, i)
                        assert rows[shifted] == rows[r][i:] + rows[r][:i]
                        for j in range(i + 1, n + 1):
                            piece = host[i:j]
                            assert table.sign(shifted, j - i) == cmp.sign(piece)
                            # A nonzero key is the span's exponent sums, and signs it.
                            key = table.key(r, i, j)
                            assert (key == 0) == _balanced(piece.letters, 2)
                            assert not key or (key > 0) - (key < 0) == cmp.sign(piece)
                            assert table.is_ascent(shifted, j - i) == ((i, j) in ascents)
                            assert table.is_descent(shifted, j - i) == ((i, j) in descents)
                            assert len(table.starts(piece.letters)) == (
                                oracle._prefix_count(piece.letters, elements)
                            )


def _exponent_sums(letters, rank):
    return [sum(l.sign for l in letters if l.generator == g) for g in range(1, rank + 1)]


def _balanced(letters, rank):
    return not any(_exponent_sums(letters, rank))


def _same_table(w, fast, slow):
    # The library's table and the reference table of the same order agree
    # cell by cell, or raise the same UndecidedAtCapError; 1 if they raise.
    try:
        want = oracle.ReferenceSigns(w, slow.sign)
    except UndecidedAtCapError as exc:
        with pytest.raises(UndecidedAtCapError) as got:
            CyclicSigns(w, fast)
        assert str(got.value) == str(exc), str(w)
        return 1
    table = CyclicSigns(w, fast)
    n = len(w)
    assert [[table.sign(r, l) for l in range(n + 1)] for r in range(2 * n)] == want.sg, str(w)
    assert table.low_peak == want.low_peak, str(w)
    assert table.unique_from == want.unique_from, str(w)
    return 0


@pytest.mark.parametrize(
    "rank, top, dedup",
    [(2, 7, "none"), (2, 8, "rotation_class"), (3, 4, "none"), (3, 5, "rotation_class")],
)
def test_key_table_matches_reference_table(rank, top, dedup):
    # Every precedence, the default cap and caps 1-3, periodic words and
    # length one included: the same cells, lows, peaks and uniqueness
    # lengths, or the same UndecidedAtCapError text. The W^-1 rows' lows and
    # peaks are mirrored in one table and found by the greedy in the other.
    undecided = 0
    for precedence in itertools.permutations(range(1, rank + 1)):
        for cap in (None, 1, 2, 3):
            fast = MagnusOrder(rank, precedence=precedence, cap=cap)
            slow = MagnusOrder(rank, precedence=precedence, cap=cap)
            for n in range(1, top + 1):
                for w in enumerate_cyclically_reduced(rank, n, dedup=dedup):
                    undecided += _same_table(w, fast, slow)
            # Only balanced prefixes, each a lone side, reached the verdict memo.
            assert all(_balanced(lv, rank) and not lw for lv, lw in fast._verdicts)
    assert undecided


def _sign(x):
    return (x > 0) - (x < 0)


def _component(place, letters, degree):
    # Component `degree` of the image of () and of every prefix of letters.
    return next(itertools.islice(_degrees(letters, place), degree, None))


def _degree2_memo(place):
    # Component 2 of the image of a span, memoised over one sweep.
    return functools.cache(lambda letters: _component(place, letters, 2)[-1])


def _first_sign(a, b):
    # The sign at the first monomial where two components differ, 0 where they agree.
    if a == b:
        return 0
    first, _ = min(a.items() ^ b.items())
    return 1 if a.get(first, 0) > b.get(first, 0) else -1


@pytest.mark.parametrize("rank, top", [(2, 6), (3, 4)])
def test_key2_is_the_degree_2_sign_of_every_span(rank, top):
    # Every span of every row, the rows of w^-1 included, under every
    # precedence, periodic words and length one included: key2 has the sign
    # of the span's degree-2 component at its first nonzero monomial, and is
    # 0 exactly where that component is zero.
    for precedence in itertools.permutations(range(1, rank + 1)):
        cmp = MagnusOrder(rank, precedence=precedence)
        degree2 = _degree2_memo(cmp._place)
        for n in range(1, top + 1):
            for w in enumerate_cyclically_reduced(rank, n):
                table = CyclicSigns(w, cmp)
                for r, row in enumerate(_rotation_rows(w)):
                    for i in range(n):
                        for j in range(i + 1, n + 1):
                            want = _first_sign(degree2(row[i:j]), {})
                            assert _sign(table.key2(r, i, j)) == want, (str(w), r, i, j)


@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_key2_decides_balanced_spans_and_key_ties(swap):
    # The two places the library reads key2, on every rank-2 class of
    # lengths 2..9: the balanced spans of every row, and every pair of
    # candidate ascents with equal exponent-sum keys.
    cmp = MagnusOrder(2, (2, 1) if swap else None)
    degree2 = _degree2_memo(cmp._place)
    balanced = ties = 0
    for n in range(2, 10):
        for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
            table = CyclicSigns(w, cmp)
            rows = _rotation_rows(w)
            for r, row in enumerate(rows):
                for i in range(n):
                    for j in range(i + 1, n + 1):
                        if not table.key(r, i, j):
                            balanced += 1
                            want = _first_sign(degree2(row[i:j]), {})
                            assert _sign(table.key2(r, i, j)) == want, (str(w), r, i, j)
            spans = [(r, lo, hi) for r, (lo, hi) in enumerate(table.low_peak) if lo < hi]
            for a, b in itertools.combinations(spans, 2):
                if table.key(*a) == table.key(*b):
                    ties += 1
                    (ra, ia, ja), (rb, ib, jb) = a, b
                    want = _first_sign(degree2(rows[ra][ia:ja]), degree2(rows[rb][ib:jb]))
                    assert _sign(table.key2(*a) - table.key2(*b)) == want, (str(w), a, b)
    assert balanced and ties


def test_key2_holds_large_coefficients():
    # a^k b^k A^k B^k c has degree-2 coefficients up to k^2 = 900, far above
    # twice its length at k = 30: every prefix of every rotation and of every
    # rotation of its inverse, against the kernel.
    cmp = MagnusOrder(3)
    for k in range(1, 31):
        w = P("a" * k + "b" * k + "A" * k + "B" * k + "c", 3)
        table = CyclicSigns(w, cmp)
        for r, row in enumerate(_rotation_rows(w)):
            parts = _component(cmp._place, row, 2)
            for l in range(1, len(w) + 1):
                want = _first_sign(parts[l], {})
                assert _sign(table.key2(r, 0, l)) == want, (k, r, l)


def test_key2_is_off_under_a_cap_of_one():
    # A cap of 1 stops the kernel at degree 1: no key2 decides, nor ab against ba.
    w = P("aab")
    capped, order = MagnusOrder(2, cap=1), MagnusOrder(2, cap=2)
    spans = [(r, i, j) for r in range(6) for i in range(3) for j in range(i + 1, 4)]
    assert CyclicSigns(w, order).key2(0, 0, 3) > 0
    assert not any(CyclicSigns(w, capped).key2(*span) for span in spans)
    assert order.compare(P("ab"), P("ba")) is Ordering.GREATER
    with pytest.raises(UndecidedAtCapError, match=r"cap of degree 1 \(lengths 2 and 2"):
        capped.compare(P("ab"), P("ba"))


@pytest.mark.parametrize("rank, top", [(2, 7), (3, 5)])
def test_the_sign_table_and_the_memo_share_one_encoding(rank, top):
    # Every span of every row of every class, the rows of w^-1 included, under
    # both extremes of precedence, each with and without a cap of 1: the span's
    # key and key2, packed as compare packs them, are the memo key of its word.
    # A cap of 1 refuses the table of a class with a balanced span.
    shift = 64 * rank * rank
    for precedence, cap in itertools.product((None, tuple(range(rank, 0, -1))), (None, 1)):
        cmp, tables = MagnusOrder(rank, precedence, cap), 0
        for n in range(2, top + 1):
            for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
                if is_periodic(w):
                    continue
                try:
                    table = CyclicSigns(w, cmp)
                except UndecidedAtCapError:
                    assert cap == 1, str(w)
                    continue
                tables += 1
                for r in range(2 * n):
                    for i in range(n):
                        for j in range(i + 1, n + 1):
                            u = Word(table.letters(r, i, j), rank)
                            assert cmp.compare(u, u) is Ordering.EQUAL
                            want = (table.key(r, i, j) << shift) + table.key2(r, i, j)
                            assert cmp._low[u] == want, (str(w), precedence, cap, r, i, j)
        assert tables > 100, (precedence, cap)


@pytest.mark.parametrize("rank, top", [(2, 7), (3, 5)])
def test_unique_from_matches_prefix_counts(rank, top):
    # Periodic words and length one included; every row and every length.
    cmp = MagnusOrder(rank)
    for n in range(1, top + 1):
        for w in enumerate_cyclically_reduced(rank, n):
            elements = rotation_set(w)
            rows = _rotation_rows(w)
            u = _sorted_rotations(w)[3]
            assert u == oracle._unique_from(rows), str(w)
            for r, row in enumerate(rows):
                for l in range(1, n + 1):
                    unique = oracle._prefix_count(row[:l], elements) == 1
                    assert (l >= u[r]) == unique, (str(w), r, l)
                    assert uniquely_positioned(Word(row[:l], rank), w) == unique, (str(w), r, l)
            if n > 1 and not is_periodic(w):
                assert len(weinbaum_factorizations(w)) == check_word(w, cmp).weinbaum_count


def _long_words():
    # Past the 16-letter windows the sort refines its ties: seeded words, and
    # powers and near-powers whose rows tie far beyond 16 letters.
    rng = random.Random(1717)
    for rank in (1, 2, 3):
        for n in (17, 33, 64, 101):
            yield random_cyclically_reduced(rng, n, rank)
    for text in ("ab" * 20, "a" * 40 + "b", "aab" * 13, "aabaab" * 6 + "b", "abAB" * 9, "aaB" * 11):
        yield P(text)


def test_sorted_rotations_sort_every_row():
    # Short words of every shape and the long ones: the order sorts the rows,
    # lcp is each sorted neighbour pair's common prefix, unique_from is the
    # oracle's, and starts finds exactly the rows a pattern begins.
    words = [w for n in range(1, 7) for w in enumerate_cyclically_reduced(2, n)]
    for w in words + list(_long_words()):
        n, rows = len(w), _rotation_rows(w)
        text, order, lcp, unique_from = _sorted_rotations(w)
        assert sorted(order) == list(range(2 * n)), str(w)
        assert [rows[r] for r in order] == sorted(rows), str(w)
        assert lcp[0] == lcp[2 * n] == 0, str(w)
        for i in range(1, 2 * n):
            a, b = rows[order[i - 1]], rows[order[i]]
            common = next((k for k in range(n) if a[k] != b[k]), n)
            assert lcp[i] == common, (str(w), i)
        assert unique_from == oracle._unique_from(rows), str(w)
        table = CyclicSigns(w, MagnusOrder(w.rank))
        some_rows = rows[:: max(1, n // 3)]
        patterns = {row[s:][:m] for row in some_rows for s in (0, 1) for m in (1, 2, 16, 17, n)}
        patterns.add((Letter(w.rank, -1),) * 2)
        for pattern in filter(None, patterns):
            want = [r for r, row in enumerate(rows) if row[: len(pattern)] == pattern]
            assert table.starts(pattern) == want, (str(w), pattern)


@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_long_word_tables_match_reference_table(swap):
    # Lows, peaks, signs and uniqueness lengths on words past the 16-letter
    # windows, with the default cap and a cap of 2.
    for cap in (None, 2):
        fast = MagnusOrder(2, (2, 1) if swap else None, cap)
        slow = MagnusOrder(2, (2, 1) if swap else None, cap)
        for w in _long_words():
            if w.rank == 2 and len(w) <= 41:
                _same_table(w, fast, slow)


def test_maximal_ascent_slices_each_place_once(monkeypatch):
    # Rows whose low-to-peak spans sit at one place of one half share their
    # letters; the search slices each such place once.
    calls = []
    letters = CyclicSigns.letters

    def counted(table, r, i, j):
        calls.append((r, i, j))
        return letters(table, r, i, j)

    monkeypatch.setattr(CyclicSigns, "letters", counted)
    cmp = MagnusOrder(2)
    for w in list(enumerate_cyclically_reduced(2, 7, dedup="rotation_class")) + list(_long_words()):
        if is_periodic(w) or w.rank != 2:
            continue
        table = cmp._cyclic_signs(w)
        calls.clear()
        maximal_ascent(w, cmp)
        low_peak = enumerate(table.low_peak)
        places = {(table.shift(r, lo), hi - lo) for r, (lo, hi) in low_peak if lo < hi}
        assert len(calls) == len(places), str(w)
        # A monotonic word's ascent is each whole row; elsewhere most rows share a place.
        assert len(w) < 17 or is_monotonic(w) or len(places) < len(w), str(w)


@pytest.mark.parametrize("rank, top", [(2, 7), (3, 5)])
def test_cyclic_hosts_match_occurrences(rank, top):
    # Every cyclic subword of w and of w^-1, self-overlapping ones and the
    # full-length rotations included, is a pattern; signs play no part.
    for n in range(1, top + 1):
        for w in enumerate_cyclically_reduced(rank, n):
            if is_periodic(w):
                continue
            table = oracle.ReferenceSigns(w, lambda u: 0)
            elements = rotation_set(w)
            patterns = {
                (e.word.letters * 2)[s : s + l]
                for e in elements[::n]
                for s in range(n)
                for l in range(1, n + 1)
            }
            for pattern in patterns:
                target = Word(pattern, rank)
                assert table.hosts(table.starts(pattern), len(pattern)) == [
                    r for r, e in enumerate(elements) if occurrences(target, e.word)
                ], (str(w), str(target))


def test_order_keeps_the_last_table(order):
    w, v = P("abAB"), P("aab")
    first = order._cyclic_signs(w)
    assert order._cyclic_signs(P("abAB")) is first
    assert order._cyclic_signs(v).word == v
    assert order._cyclic_signs(w) is not first


# ---------------------------------------------------------------- maximal ascent

def test_maximal_ascent_goldens(order):
    assert str(maximal_ascent(P("abAB"), order)) == "ab"
    assert str(maximal_ascent(P("bA"), order)) == "a"
    assert str(maximal_ascent(P("baaba"), order)) == "aabab"


def test_maximal_ascent_validation(order):
    with pytest.raises(ValueError):
        maximal_ascent(identity(2), order)
    # Not cyclically reduced: the table would sign unreduced rows such as Aa.
    for text in ("abA", "aabA"):
        with pytest.raises(NotCyclicallyReducedError):
            maximal_ascent(P(text), order)


@pytest.mark.parametrize(
    "audit", [maximal_ascent, decompose, check_word], ids=lambda f: f.__name__
)
def test_generator_outside_the_order_rank_is_refused(audit):
    with pytest.raises(ValueError, match="^generator 3 outside rank 2$"):
        audit(P("abc", 3), MagnusOrder(2))


def _low_parts(place, letters):
    # Components 1, 2 and 3 of the image of letters.
    return [parts[-1] for parts in itertools.islice(_degrees(letters, place), 1, 4)]


def _left_normed(k):
    # c_1 = a and c_k = [c_(k-1), b], which ties with the identity through degree k - 1.
    c = P("a")
    for _ in range(k - 1):
        c = concat(c, P("b"), inverse(c), P("B"))
    return c


class KernelLog(MagnusOrder):
    """A Magnus order that records every pair its series kernel compares."""

    def __init__(self, rank, precedence=None, cap=None):
        super().__init__(rank, precedence, cap)
        self.calls = []

    def _first_difference(self, lv, lw):
        self.calls.append((lv, lw))
        return super()._first_difference(lv, lw)


@pytest.mark.parametrize("rank, top", [(2, 9), (3, 6)])
@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_maximal_ascent_sends_only_ties_to_the_kernel(rank, top, swap):
    # The table signs through the order only the balanced prefixes whose
    # degree 2 is zero, and the search compares two candidates there only
    # when their exponent-sum and degree-2 keys both tie. The order decides
    # those by their Lyndon coefficients of degree 3 first: every kernel call
    # has the same components through degree 3 on its two stripped sides, so
    # a lone side in the verdict memo has degrees 1 to 3 zero.
    cmp = KernelLog(rank, tuple(range(rank, 0, -1)) if swap else None)
    for n in range(2, top + 1):
        for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
            if not is_periodic(w):
                maximal_ascent(w, cmp)
    assert cmp._lyndon
    # Each pair reached the kernel once, and keys its memoised verdict.
    assert len(cmp.calls) == len(set(cmp.calls)) and set(cmp.calls) == set(cmp._verdicts)
    for lv, lw in cmp.calls:
        assert _low_parts(cmp._place, lv) == _low_parts(cmp._place, lw)
    # A rank-2 2..9 campaign makes 6 kernel calls (8 swapped), and a rank-3
    # 2..6 one makes none. With degrees 1 and 2 memoised alone they made 76,
    # 85, 22 and 26; without the verdict memo 94, 104, 24 and 29, with degree 1
    # alone 1,931, 2,031 and 1,410 (canonical rank 3), and with every candidate
    # comparison in the kernel 5,055 at rank 2.
    assert len(cmp.calls) == {(2, False): 6, (2, True): 8, (3, False): 0, (3, True): 0}[rank, swap]


@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_compare_sends_only_degree_two_ties_to_the_kernel(swap):
    # Every pair that the low degrees separate is decided without stripping,
    # and a pair tied there by its Lyndon coefficients of degree 3, so the
    # kernel sees only stripped sides that agree through degree 3. No pair of
    # words of length <= 4 gets that far (64 did, under either precedence,
    # with degrees 1 and 2 memoised alone); c_4 = [c_3, b] against the
    # identity, and AABBAba against abABBAA, which share no end, do.
    precedence = (2, 1) if swap else None
    cmp = KernelLog(2, precedence)
    words = [w for n in range(0, 5) for w in all_reduced(2, n)]
    for v, w in itertools.product(words, repeat=2):
        cmp.compare(v, w)
    assert cmp.calls == []
    for v, w in ((_left_normed(4), identity(2)), (P("AABBAba"), P("abABBAA"))):
        assert cmp.compare(v, w) is not Ordering.EQUAL
    assert len(cmp.calls) == 2 and len(cmp.calls) == len(set(cmp.calls))
    for lv, lw in cmp.calls:
        assert _low_parts(cmp._place, lv) == _low_parts(cmp._place, lw)
    # Pairs that differ through degree 3 never reach the verdict memo.
    for v, w in (
        (P("a"), P("b")),
        (P("ab"), P("ba")),
        (_left_normed(3), identity(2)),
        (P("aBAb"), P("AbaB")),
    ):
        order = MagnusOrder(2, precedence)
        assert order.compare(v, w) is not Ordering.EQUAL
        assert order._verdicts == {}


def test_a_tied_pair_reaches_the_kernel_once():
    # AABBAba and abABBAA agree through degree 3 and share no end.
    cmp = KernelLog(2)
    v, w = P("AABBAba"), P("abABBAA")
    assert [cmp.compare(v, w) for _ in range(2)] == [Ordering.LESS, Ordering.LESS]
    assert cmp._low[v] == cmp._low[w] and cmp._lyndon[v] == cmp._lyndon[w]
    assert cmp.calls == [(v.letters, w.letters)]


def test_a_sign_and_its_comparison_with_the_identity_share_one_verdict():
    # c_4 = [[[a, b], b], b] is tied with the identity through degree 3.
    cmp = KernelLog(2)
    u = _left_normed(4)
    sign = cmp.sign(u)
    assert sign in (1, -1)
    assert cmp.compare(identity(2), u) is (Ordering.LESS if sign > 0 else Ordering.GREATER)
    assert cmp.calls == [(u.letters, ())]


def _strip(lv, lw):
    # The two sides of a pair of letter rows without their common ends.
    n = min(len(lv), len(lw))
    head = next((i for i in range(n) if lv[i] != lw[i]), n)
    tail = next((i for i in range(n - head) if lv[-1 - i] != lw[-1 - i]), n - head)
    return lv[head : len(lv) - tail], lw[head : len(lw) - tail]


@pytest.mark.parametrize("rank, top, pairs, calls", [(2, 7, 59_984, 336), (3, 4, 1_152, 0)])
def test_degree_two_ties_decide_as_the_kernel_does(rank, top, pairs, calls):
    # Every ordered pair of distinct reduced words whose components through
    # degree 2 agree, under every precedence: compare gives the kernel's verdict
    # on the stripped pair, and only pairs that also agree at degree 3 reach it:
    # 336 per rank-2 precedence and none at rank 3, where with degrees 1 and 2
    # memoised alone 12,712 and 192 stripped pairs did.
    words = [w for n in range(top + 1) for w in all_reduced(rank, n)]
    tied = 0
    for precedence in itertools.permutations(range(1, rank + 1)):
        cmp, kernel = KernelLog(rank, precedence), MagnusOrder(rank, precedence)
        groups = {}
        for w in words:
            low = _low_parts(cmp._place, w.letters)[:2]
            groups.setdefault(tuple(tuple(sorted(part.items())) for part in low), []).append(w)
        for group in groups.values():
            for v, w in itertools.permutations(group, 2):
                lv, lw = _strip(v.letters, w.letters)
                want = kernel._first_difference(lv, lw) if lv else -kernel._first_difference(lw, lv)
                assert cmp.compare(v, w) is (Ordering.GREATER if want > 0 else Ordering.LESS)
                tied += 1
        for lv, lw in cmp.calls:
            assert _low_parts(cmp._place, lv) == _low_parts(cmp._place, lw)
        assert len(cmp.calls) == calls
    assert tied == pairs


def test_the_degree_three_key_waits_for_a_cap_of_three():
    # c_3 = [[a, b], b] ties with the identity through degree 2 and differs at
    # degree 3: caps of 1 and 2 leave it to the kernel, which raises as before,
    # and a cap of 3 lets its Lyndon coefficients decide it.
    c3 = _left_normed(3)
    for cap in (1, 2):
        cmp = KernelLog(2, cap=cap)
        text = (
            f"distinct words compared equal up to the cap of degree {cap} "
            "(lengths 8 and 0 without common ends); raise the cap"
        )
        with pytest.raises(UndecidedAtCapError, match=f"^{re.escape(text)}$"):
            cmp.compare(c3, identity(2))
        assert cmp._lyndon == {} and cmp.calls == [(c3.letters, ())]
    cmp = KernelLog(2, cap=3)
    assert cmp.compare(c3, identity(2)) is MagnusOrder(2).compare(c3, identity(2))
    assert cmp.calls == [] and list(cmp._lyndon) == [c3, identity(2)]


class LowLog(MagnusOrder):
    """A Magnus order that records every letter row whose prefix keys it computes."""

    def __init__(self, rank):
        super().__init__(rank)
        self.lows = []

    def _prefix_keys(self, letters):
        self.lows.append(letters)
        return super()._prefix_keys(letters)


def test_equal_words_share_one_low_degree_entry():
    cmp = MagnusOrder(2)
    v = P("abAAB")
    w = Word(list(v.letters), 2)
    assert v is not w
    assert cmp.compare(v, w) is Ordering.EQUAL and cmp.compare(w, v) is Ordering.EQUAL
    assert list(cmp._low) == [v] and cmp._verdicts == {}


def test_compare_and_sign_compute_each_words_low_degrees_once():
    # Each sweep runs again on equal words built anew, so a hit needs an equal
    # key, not the same object, and a miss must be stored under its key. Compare,
    # sign and the analysis oracles, which sign subwords, all key the memo by words.
    words = [w for n in range(4) for w in all_reduced(2, n)]
    by_compare, by_sign, by_analysis = LowLog(2), LowLog(2), LowLog(2)
    for sweep in (words, [Word(w.letters, w.rank) for w in words]):
        for v, w in itertools.product(sweep, repeat=2):
            by_compare.compare(v, w)
        for w in sweep:
            by_sign.sign(w)
            ascent_descent_spans(w, by_analysis)
            prefix_profile(w, by_analysis)
            is_ascent(w, by_analysis)
    for cmp in (by_compare, by_sign, by_analysis):
        assert sorted(cmp.lows) == sorted(w.letters for w in words)
        assert all(isinstance(k, Word) for k in cmp._low)


def test_the_low_degree_memo_is_keyed_by_words_only_through_compare():
    # The sign table signs a span that its keys tie with the identity through
    # sign, and the search sends a key tie to compare: an audit keys it by words.
    audit = MagnusOrder(2)
    for n in range(2, 8):
        for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
            if not is_periodic(w):
                check_word(w, audit)
    assert audit._low and all(isinstance(k, Word) for k in audit._low)


def test_a_sign_table_that_outlives_its_order_refuses_kernel_signs():
    # c_3 = [[a, b], b] is balanced with degree 2 zero, so only the order signs it.
    c3 = concat(P("abAB"), P("b"), inverse(P("abAB")), P("B"))
    w = concat(c3, P("aa"))
    cells = [(r, l) for r in range(2 * len(w)) for l in range(1, len(w) + 1)]
    alive = MagnusOrder(2)
    assert all(alive._cyclic_signs(w).sign(r, l) in (1, -1) for r, l in cells)
    table = MagnusOrder(2)._cyclic_signs(w)
    gc.collect()
    with pytest.raises(ReferenceError, match="^the order of this sign table no longer exists$"):
        for r, l in cells:
            table.sign(r, l)


def test_bruteforce_and_peaklow_agree_small(order, swapped):
    for cmp in (order, swapped):
        for n in range(1, 6):
            for w in enumerate_cyclically_reduced(2, n):
                via_brute = oracle.maximal_ascent(w, cmp, algorithm="bruteforce")
                assert via_brute.ascent == maximal_ascent(w, cmp), str(w)


def test_maximal_ascent_is_actually_maximal(order):
    # Against the definition: no ascent subword of any rotation beats it.
    rng = random.Random(304)
    for _ in range(20):
        w = random_reduced(rng, rng.randint(2, 6))
        if not w.is_cyclically_reduced:
            continue
        best = maximal_ascent(w, order)
        for element in rotation_set(w):
            host = element.word
            for i in range(len(host)):
                for j in range(i + 1, len(host) + 1):
                    piece = host[i:j]
                    if is_ascent(piece, order) and piece != best:
                        assert order.compare(best, piece) is Ordering.GREATER


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
    with pytest.raises(LengthOneError, match="^decomposition needs"):
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
            assert (dec.chosen, dec.origin) in rotation_set(w)
            assert dec.ascent_unique == uniquely_positioned(dec.ascent, w)
            if dec.descent_empty:
                assert dec.descent_unique is None
            else:
                assert dec.descent_unique == uniquely_positioned(dec.descent, w)


def _descent_starts(dec):
    """Cyclic offsets where D starts in A·D, and in its inverse D^-1·A^-1."""
    d = dec.descent.letters
    starts = []
    for host in (dec.chosen, inverse(dec.chosen)):
        doubled = host.letters * 2
        starts.append([k for k in range(len(host)) if doubled[k : k + len(d)] == d])
    return starts


def test_descent_copies_golden(order):
    # D = B recurs only inside A^-1 = ABA, which the linear scan of A·D misses.
    dec = decompose(P("abaB"), order)
    assert (str(dec.ascent), str(dec.descent)) == ("aba", "B")
    assert _descent_starts(dec) == [[3], [2]]


@pytest.mark.parametrize("rank, top", [(2, 8), (3, 5)])
@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_descent_copies_are_internal_in_ascent_or_its_inverse(rank, top, swap):
    # Claim 2 read over the whole rotation set: apart from D's own element,
    # A·D rotated by |A|, every element that starts with D is a rotation of
    # A·D whose D lies strictly inside A, or a rotation of D^-1·A^-1 whose D
    # lies strictly inside A^-1.
    cmp = MagnusOrder(rank, precedence=tuple(range(rank, 0, -1)) if swap else None)
    only_in_inverse = 0
    for n in range(2, top + 1):
        for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
            if is_periodic(w):
                continue
            dec = decompose(w, cmp)
            a, d = len(dec.ascent), len(dec.descent)
            if not d:
                continue
            same, other = _descent_starts(dec)
            same.remove(a)
            assert all(0 < k and k + d < a for k in same), (str(w), same)
            assert all(d < k and k + d < n for k in other), (str(w), other)
            assert dec.descent_unique == (not same and not other), str(w)
            only_in_inverse += bool(other) and not same
    # Copies of D that only the W^-1 half holds.
    assert only_in_inverse == {2: 213, 3: 80}[rank]


def test_descent_copies_in_the_inverse_lie_inside_its_ascent():
    # The lemma behind check_word's claim 2 audit, with no order at all: for
    # every split row = A·D, every copy of D in the cyclic word D^-1·A^-1
    # lies strictly inside A^-1.
    splits = copies = 0
    for rank, top in ((2, 8), (3, 6)):
        for n in range(2, top + 1):
            for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
                if is_periodic(w):
                    continue
                for row in _rotation_rows(w):
                    doubled = inverse(Word(row, rank)).letters * 2
                    for cut in range(1, n):
                        d = row[cut:]
                        splits += 1
                        for k in range(n):
                            if doubled[k : k + len(d)] == d:
                                copies += 1
                                assert len(d) < k and k + len(d) < n, (str(w), row, cut, k)
    assert (splits, copies) == (155_120, 20_656)


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
