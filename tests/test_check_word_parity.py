"""check_word and decompose against the audit that rebuilt every rotation's spans."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest

import check_word_oracle as oracle
import series_oracle
from orderword import (
    Decomposition,
    MagnusOrder,
    Word,
    ascent_descent_spans,
    check_word,
    compare_series,
    decompose,
    enumerate_cyclically_reduced,
    identity,
    is_descent,
    is_periodic,
    parse_word,
    reduce,
)
from orderword import verify
from orderword.series import _ORDERINGS, _SIGNS, _syllable_count
from orderword.words import _rotation_rows
from test_analysis import KernelLog, LowLog
from wordgen import all_reduced


def _classes(rank: int, top: int):
    for n in range(2, top + 1):
        for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
            if not is_periodic(w):
                yield w


def _codes(letters):
    return tuple(2 * (l.generator - 1) + (l.sign < 0) for l in letters)


def _inverse(letters):
    return tuple(l.inverse() for l in reversed(letters))


class LexOrder:
    """An antisymmetric sign that is not bi-invariant: u > 1 iff u >lex u^-1.

    It is no MagnusOrder, so the audits reach it only through compare, sign,
    _cyclic_signs and checks_monotonic; reading any other member would raise.
    """

    checks_monotonic = True
    sign = MagnusOrder.sign

    def __init__(self, rank):
        self.rank = rank
        self._table = None

    def _key(self, letters):
        return _codes(letters)

    def _letters_sign(self, letters):
        mine, theirs = self._key(letters), self._key(_inverse(letters))
        return (mine > theirs) - (mine < theirs)

    def compare(self, v, w):
        u = reduce(_inverse(w.letters) + v.letters, self.rank)
        return _ORDERINGS[self._letters_sign(u.letters)]

    def _cyclic_signs(self, w):
        # The per-cell table: the exponent-sum keys are the Magnus order's,
        # not this one's, and its low and peak need no invariance.
        table = self._table
        if table is None or table.word != w:
            table = self._table = oracle.ReferenceSigns(w, self.sign)
        return table


class CountThenReversedOrder(LexOrder):
    """Another one: count the letters a and A, then compare reversed codes."""

    def _key(self, letters):
        return sum(1 for l in letters if l.generator == 1), _codes(letters[::-1])


class RandomSignOrder(LexOrder):
    """A seeded random sign per letter tuple, negated on its inverse.

    It is antisymmetric, and not bi-invariant.
    """

    def __init__(self, rank, seed):
        super().__init__(rank)
        self.seed = seed
        self._memo = {}

    def _letters_sign(self, letters):
        sign = self._memo.get(letters)
        if sign is None:
            mine, theirs = _codes(letters), _codes(_inverse(letters))
            if mine == theirs:  # only the empty word is its own inverse
                sign = 0
            else:
                sign = random.Random(f"{self.seed}:{min(mine, theirs)}").choice((1, -1))
                sign = sign if mine < theirs else -sign
            self._memo[letters] = sign
        return sign


class CompareOnly(MagnusOrder):
    """The Magnus order reversed, a bi-order too, by an override of compare alone."""

    def compare(self, v, w):
        return super().compare(w, v)


@pytest.mark.parametrize(
    "order_type, args",
    [
        (MagnusOrder, (2,)),
        (MagnusOrder, (2, (2, 1))),
        (KernelLog, (2,)),
        (LowLog, (2,)),
        (CompareOnly, (2,)),
        (LexOrder, (2,)),
        (CountThenReversedOrder, (2,)),
        (RandomSignOrder, (2, 1)),
        (RandomSignOrder, (2, 2)),
        (RandomSignOrder, (2, 3)),
    ],
    ids=(
        "magnus magnus-swapped kernel-log low-log compare-only lex count random-1 random-2 random-3"
    ).split(),
)
def test_every_order_compares_and_signs_by_its_own_sign(order_type, args):
    # sign(w) is the sign of compare(w, 1), so that no order signs by a compare
    # it does not have. The Magnus orders compare as the atom products of their
    # images do at the syllable count of w^-1 v, where distinct words differ;
    # the others compare as their own sign of w^-1 v.
    cmp = order_type(*args)
    words = [w for n in range(4) for w in all_reduced(2, n)]
    assert len(words) == 53
    for w in words:
        assert cmp.sign(w) == _SIGNS[cmp.compare(w, identity(2))], str(w)
    for v, w in itertools.product(words, repeat=2):
        u = reduce(_inverse(w.letters) + v.letters, 2).letters
        if isinstance(cmp, LexOrder):
            want = _ORDERINGS[cmp._letters_sign(u)]
        else:
            a, b = (w, v) if isinstance(cmp, CompareOnly) else (v, w)
            bound = _syllable_count(u)
            a, b = series_oracle.mu(a, bound), series_oracle.mu(b, bound)
            want = compare_series(a, b, cmp.precedence)
        assert cmp.compare(v, w) is want, (str(v), str(w))


# The oracle's host labels that check_word proves away (see its docstring).
IMPLIED = {"ascent_repeated_in_host", "ascent_in_inverse_host", "host_remainder_not_descent"}


def _assert_same(w, cmp):
    got = check_word(w, cmp).to_dict()
    want = oracle.check_word(w, cmp)
    labels = {a.label for a in want.anomalies}
    if labels & IMPLIED and "ascent_not_uniquely_positioned" not in labels:
        # With A uniquely positioned only the chosen remainder is left, and a
        # real decompose refuses one that is no descent; the patched cases
        # below hand check_word such a decomposition.
        assert labels & IMPLIED == {"host_remainder_not_descent"}, str(w)
        assert not is_descent(want.decomposition.descent, cmp), str(w)
    want.anomalies = [a for a in want.anomalies if a.label not in IMPLIED]
    assert got == want.to_dict(), str(w)
    return got


def _assert_own_signs(w, cmp):
    # Every cell of the table the audit read is the order's own sign, in the
    # rows of w^-1 too, which the table fills by negation.
    table = cmp._cyclic_signs(w)
    assert isinstance(table, oracle.ReferenceSigns)
    for r, row in enumerate(_rotation_rows(w)):
        for l in range(1, len(w) + 1):
            assert table.sign(r, l) == cmp.sign(Word(row[:l], w.rank)), (str(w), r, l)


# c_3·a·a, with c_3 = [[a, b], b], and a class of length 8: under both precedences
# their sign tables send a span that both keys tie with the identity to the order.
# At rank 3, [[a, b], c] and [[c, b], a] do so under both, and a wrong sign of such
# a span changes both reports.
TABLE_TIES = {2: ("abAbaBABaa", "aabABBAb"), 3: ("abABcbaBAC", "cbCBabcBCA")}


@pytest.mark.parametrize("rank, top", [(2, 7), (3, 5)])
@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_check_word_matches_oracle(rank, top, swap):
    precedence = tuple(range(rank, 0, -1)) if swap else None
    cmp = MagnusOrder(rank, precedence=precedence)
    pinned = [parse_word(text, rank) for text in TABLE_TIES[rank]]
    for w in [*_classes(rank, top), *pinned]:
        _assert_same(w, cmp)
        assert decompose(w, cmp) == oracle.decompose(w, cmp)


@pytest.mark.parametrize("order_type", [LexOrder, CountThenReversedOrder])
def test_check_word_matches_oracle_without_bi_invariance(order_type):
    labels = Counter()
    for rank, top in ((2, 7), (3, 5)):
        cmp = order_type(rank)
        for w in _classes(rank, top):
            report = _assert_same(w, cmp)
            _assert_own_signs(w, cmp)
            labels.update(a["label"] for a in report["anomalies"])
    # The parity covers the claims such an order breaks.
    assert {
        "decomposition_failed",
        "host_not_positive",
        "peak_low_slice_mismatch",
        "monotonic_descent_mismatch",
        "descent_occurrence_outside_ascent",
        "maximal_ascent_not_ascent",
    } <= set(labels)


class UnauditedLexOrder(LexOrder):
    """LexOrder, except that it does not audit claim 3."""

    checks_monotonic = False


def test_claim_three_is_audited_where_the_order_says():
    # Claim 3 is proved for the Magnus order only. LexOrder audits it anyway, and
    # it fails for 27 of the 97 rank-2 classes up to length 6, abaB among them.
    mismatched = {}
    for order in (LexOrder(2), UnauditedLexOrder(2)):
        mismatched[order.checks_monotonic] = [
            str(w)
            for w in _classes(2, 6)
            if "monotonic_descent_mismatch"
            in {a["label"] for a in _assert_same(w, order)["anomalies"]}
        ]
    assert len(mismatched[True]) == 27 and "abaB" in mismatched[True]
    assert mismatched[False] == []


@pytest.mark.parametrize(
    "text, ascent, descent, label",
    [
        ("aab", "a", "ab", "ascent_not_uniquely_positioned"),
        ("aab", "a", "ab", "ascent_repeated_in_host"),
        ("abAB", "a", "bAB", "ascent_in_inverse_host"),
        ("abAB", "a", "bAB", "host_remainder_not_descent"),
        # D = aa recurs at offset 3 of abaa, wrapping past the end of A·D.
        ("abaa", "ab", "aa", "descent_occurrence_outside_ascent"),
        # D = a recurs at offset 0 of aaba, a prefix of A; offset 1 is inside A.
        ("aaba", "aab", "a", "descent_occurrence_outside_ascent"),
    ],
)
def test_check_word_matches_oracle_on_wrong_decompositions(
    monkeypatch, text, ascent, descent, label
):
    w, a, d = parse_word(text, 2), parse_word(ascent, 2), parse_word(descent, 2)
    chosen = parse_word(ascent + descent, 2)
    fake = Decomposition(
        source=w,
        chosen=chosen,
        origin="fromW",
        ascent=a,
        descent=d,
        ascent_unique=True,
        descent_unique=True,
    )
    for module in (verify, oracle):
        monkeypatch.setattr(module, "decompose", lambda word, cmp: fake)
    labels = [anomaly["label"] for anomaly in _assert_same(w, MagnusOrder(2))["anomalies"]]
    if label in IMPLIED:
        # Only the oracle tests it; both report the A that implies it.
        assert label in [a.label for a in oracle.check_word(w, MagnusOrder(2)).anomalies]
        assert label not in labels and "ascent_not_uniquely_positioned" in labels
    else:
        assert label in labels


@pytest.mark.parametrize(
    "text, seed, implied",
    [
        ("ababbAB", 1, IMPLIED),
        ("aaabaab", 2, {"ascent_repeated_in_host", "host_remainder_not_descent"}),
    ],
    ids=["ababbAB-1", "aaabaab-2"],
)
def test_implied_host_labels_come_with_a_repeated_ascent(text, seed, implied):
    # Real decompositions under a sign that is not bi-invariant: the oracle
    # reports the implied labels, the library only the A that implies them.
    w, cmp = parse_word(text, 2), RandomSignOrder(2, seed)
    want = {a.label for a in oracle.check_word(w, cmp).anomalies}
    assert want & IMPLIED == implied and "ascent_not_uniquely_positioned" in want
    got = {a["label"] for a in _assert_same(w, cmp)["anomalies"]}
    assert "ascent_not_uniquely_positioned" in got and not got & IMPLIED
    # decompose counts the rows that start with A, as the oracle does.
    assert decompose(w, cmp) == oracle.decompose(w, cmp)
    assert not decompose(w, cmp).ascent_unique


@pytest.mark.parametrize(
    "text, seed, ascent",
    [("aabb", 2, "BAAB"), ("aaBab", 3, "AbAA"), ("aaabb", 5, "aabba"), ("aabAB", 5, "aab")],
)
def test_maximal_ascent_that_is_no_ascent_is_an_anomaly(text, seed, ascent):
    # Under a sign that is not bi-invariant the largest peak-to-low slice
    # need not be an ascent. The audit reads that from the table, the oracle
    # from is_ascent, and both report it.
    report = _assert_same(parse_word(text, 2), RandomSignOrder(2, seed))
    assert report["decomposition"]["ascent"] == ascent
    assert [a["label"] for a in report["anomalies"]] == ["maximal_ascent_not_ascent"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_overlap_lemma_under_random_signs(seed):
    # Partially overlapping ascents overlap in an ascent, and no ascent
    # partially overlaps a descent, for any sign function.
    cmp = RandomSignOrder(2, seed)
    partial = 0
    for n in range(1, 9):
        for w in all_reduced(2, n):
            ascents, descents = ascent_descent_spans(w, cmp)
            for s1, e1 in ascents:
                for s2, e2 in ascents:
                    if s1 < s2 < e1 < e2:
                        partial += 1
                        assert (s2, e1) in ascents, (str(w), (s1, e1), (s2, e2))
                for s2, e2 in descents:
                    assert not (s1 < s2 < e1 < e2 or s2 < s1 < e2 < e1), (str(w), s1, e1)
    assert partial
    labels = Counter()
    audited = 0
    for w in _classes(2, 7):
        report = _assert_same(w, cmp)
        _assert_own_signs(w, cmp)
        audited += report["decomposition"] is not None
        labels.update(a["label"] for a in report["anomalies"])
    assert audited
    assert not {"ascent_overlap_not_ascent", "ascent_descent_overlap"} & set(labels)
