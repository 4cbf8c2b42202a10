"""Value semantics of the library's records: equality, hashing, immutability, copies."""

from __future__ import annotations

import copy
import pickle

import pytest

from orderword import Anomaly, Letter, MagnusOrder, TruncatedSeries, Word, check_word, parse_word
from orderword.analysis import Decomposition, decompose


class _Forged:
    # Pickles as a Word built from an unreduced letter pair.
    def __reduce__(self):
        return Word, ((Letter(1, 1), Letter(1, -1)), 2)


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_word_copies_and_pickles_by_value(clone):
    w = parse_word("abAAB", 2)
    twin = clone(w)
    assert twin == w and hash(twin) == hash(w) and twin.letters == w.letters
    assert type(twin.letters) is tuple and twin.rank == 2


@pytest.mark.parametrize(
    "clone",
    [lambda w: w, copy.copy, copy.deepcopy, lambda w: pickle.loads(pickle.dumps(w))],
    ids=["built", "copy", "deepcopy", "pickle"],
)
def test_a_words_cached_hash_is_that_of_its_fields(clone):
    for w in (parse_word("abAAB", 2), parse_word("", 3), Word((Letter(3, -1),), 3)):
        twin = clone(w)
        assert hash(twin) == hash((twin.letters, twin.rank)) == hash((w.letters, w.rank))


def test_a_words_hash_slot_is_not_a_field():
    w = parse_word("abA", 2)
    assert repr(w) == "Word('abA', rank=2)"
    assert w.__reduce__() == (Word, (w.letters, 2))
    assert w._values == (w.letters, 2) and w == Word(w.letters, 2)
    with pytest.raises(AttributeError, match="cannot change field '_hash'"):
        w._hash = 0
    with pytest.raises(AttributeError, match="cannot change field '_hash'"):
        del w._hash


def test_unpickling_a_word_validates_it():
    with pytest.raises(ValueError, match="not freely reduced"):
        pickle.loads(pickle.dumps(_Forged()))


def test_word_is_frozen_and_equal_only_to_words():
    w = parse_word("abA", 2)
    with pytest.raises(AttributeError):
        w.rank = 3
    with pytest.raises(AttributeError):
        del w.letters
    assert (w.rank, str(w)) == (2, "abA")
    assert hash(w) == hash((w.letters, w.rank))
    assert w != (w.letters, w.rank) and (w.letters, w.rank) != w
    assert w == Word(list(w.letters), 2) and w != Word(w.letters, 3)


def test_truncated_series_is_frozen_and_unhashable():
    coefficients = {(): 1, (1,): 1, (2,): -1}
    s = TruncatedSeries(2, 1, coefficients)
    assert s == TruncatedSeries(2, 1, dict(coefficients))
    assert s != TruncatedSeries(2, 2, coefficients) and s != (2, 1, coefficients)
    assert copy.deepcopy(s) == s and pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.degree_bound = 2
    with pytest.raises(TypeError):
        hash(s)
    assert repr(s) == (
        "TruncatedSeries(rank=2, degree_bound=1, coefficients={(): 1, (1,): 1, (2,): -1})"
    )


def test_decomposition_and_anomaly_are_immutable_keyword_records():
    w = parse_word("abAAB", 2)
    dec = decompose(w, MagnusOrder(2))
    assert Decomposition(**dec._asdict()) == dec
    with pytest.raises(AttributeError):
        dec.descent = dec.ascent
    anomaly = Anomaly(label="first", detail="one")
    assert anomaly == Anomaly("first", "one")
    assert anomaly.to_dict() == {"label": "first", "detail": "one"}
    with pytest.raises(AttributeError):
        anomaly.label = "second"


def test_word_report_anomalies_can_be_reassigned():
    report = check_word(parse_word("abAAB", 2), MagnusOrder(2))
    assert report.ok
    report.anomalies = [Anomaly("first", "one")]
    assert not report.ok and report.to_dict()["anomalies"] == [{"label": "first", "detail": "one"}]
