"""check_word and decompose against the audit that rebuilt every rotation's spans."""

from __future__ import annotations

from collections import Counter

import pytest

import check_word_oracle as oracle
from orderword import (
    Decomposition,
    MagnusOrder,
    check_word,
    decompose,
    enumerate_cyclically_reduced,
    is_periodic,
    occurrences,
    parse_word,
    reduce,
)
from orderword import verify


def _classes(rank: int, top: int):
    for n in range(2, top + 1):
        for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
            if not is_periodic(w):
                yield w


def _codes(letters):
    return tuple(2 * (l.generator - 1) + (l.sign < 0) for l in letters)


def _inverse(letters):
    return tuple(l.inverse() for l in reversed(letters))


class LexOrder(MagnusOrder):
    """An antisymmetric sign that is not bi-invariant: u > 1 iff u >lex u^-1."""

    def _key(self, letters):
        return _codes(letters)

    def _sign_letters(self, letters):
        mine, theirs = self._key(letters), self._key(_inverse(letters))
        return (mine > theirs) - (mine < theirs)

    def _compare_letters(self, lv, lw):
        return self._sign_letters(reduce(_inverse(lw) + lv, self.rank).letters)


class CountThenReversedOrder(LexOrder):
    """Another one: count the letters a and A, then compare reversed codes."""

    def _key(self, letters):
        return sum(1 for l in letters if l.generator == 1), _codes(letters[::-1])


def _assert_same(w, cmp):
    got = check_word(w, cmp).to_dict()
    assert got == oracle.check_word(w, cmp).to_dict(), str(w)
    return got


@pytest.mark.parametrize("rank, top", [(2, 7), (3, 5)])
@pytest.mark.parametrize("swap", [False, True], ids=["canonical", "swapped"])
def test_check_word_matches_oracle(rank, top, swap):
    precedence = tuple(range(rank, 0, -1)) if swap else None
    cmp = MagnusOrder(rank, precedence=precedence)
    for w in _classes(rank, top):
        _assert_same(w, cmp)
        assert decompose(w, cmp) == oracle.decompose(w, cmp)


@pytest.mark.parametrize("order_type", [LexOrder, CountThenReversedOrder])
def test_check_word_matches_oracle_without_bi_invariance(order_type):
    labels = Counter()
    for rank, top in ((2, 7), (3, 5)):
        cmp = order_type(rank)
        for w in _classes(rank, top):
            report = _assert_same(w, cmp)
            labels.update(a["label"] for a in report["anomalies"])
    # The parity covers the claims such an order breaks.
    assert {
        "decomposition_failed",
        "host_not_positive",
        "peak_low_slice_mismatch",
        "monotonic_descent_mismatch",
        "descent_occurrence_outside_ascent",
    } <= set(labels)


@pytest.mark.parametrize(
    "text, ascent, descent, label",
    [
        ("aab", "a", "ab", "ascent_not_uniquely_positioned"),
        ("aab", "a", "ab", "ascent_repeated_in_host"),
        ("abAB", "a", "bAB", "ascent_in_inverse_host"),
        ("abAB", "a", "bAB", "host_remainder_not_descent"),
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
        ascent_occurrences=occurrences(a, chosen),
        descent_unique=True,
    )
    for module in (verify, oracle):
        monkeypatch.setattr(module, "decompose", lambda word, cmp: fake)
    report = _assert_same(w, MagnusOrder(2))
    assert label in [anomaly["label"] for anomaly in report["anomalies"]]
