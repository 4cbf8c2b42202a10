"""Enumeration, closed-form counts, per-word checks, and campaign reports."""

from __future__ import annotations

import hashlib
import json

import pytest

from orderword import (
    Anomaly,
    LengthOneError,
    MagnusOrder,
    NotCyclicallyReducedError,
    PeriodicWordError,
    WordReport,
    canonical_representative,
    check_word,
    concat,
    cyclically_reduced_count,
    enumerate_cyclically_reduced,
    identity,
    is_periodic,
    nonperiodic_count,
    parse_word,
    rotation_class_count,
    rotation_set,
    run_campaign,
    uniquely_positioned,
    weinbaum_factorizations,
    write_report,
)
from orderword import verify
from orderword.verify import REPORT_SCHEMA

P = lambda text, rank=2: parse_word(text, rank)  # noqa: E731


@pytest.fixture(scope="module")
def order() -> MagnusOrder:
    return MagnusOrder(2)


# ---------------------------------------------------------------- enumeration

def test_enumeration_counts_match_closed_form():
    for rank in (2, 3):
        for n in range(1, 6):
            direct = sum(1 for _ in enumerate_cyclically_reduced(rank, n))
            assert direct == cyclically_reduced_count(rank, n)


def test_enumeration_known_counts_rank_two():
    assert [cyclically_reduced_count(2, n) for n in range(1, 7)] == [
        4, 12, 28, 84, 244, 732,
    ]


def test_enumeration_order_and_length_two_words():
    assert [str(w) for w in enumerate_cyclically_reduced(2, 1)] == ["a", "A", "b", "B"]
    twos = [str(w) for w in enumerate_cyclically_reduced(2, 2)]
    assert twos[:6] == ["aa", "ab", "aB", "AA", "Ab", "AB"]
    assert len(twos) == 12


def test_enumeration_dedup_yields_canonical_reps():
    reps = [str(w) for w in enumerate_cyclically_reduced(2, 2, dedup="rotation_class")]
    assert reps == ["aa", "ab", "aB", "bb"]
    for rep in reps:
        assert canonical_representative(P(rep)) == P(rep)


def test_enumeration_validation():
    with pytest.raises(ValueError):
        list(enumerate_cyclically_reduced(2, 2, dedup="classes"))
    with pytest.raises(ValueError):
        list(enumerate_cyclically_reduced(0, 2))
    with pytest.raises(ValueError):
        list(enumerate_cyclically_reduced(2, 0))


def test_nonperiodic_counts():
    assert nonperiodic_count(2, 2) == 8
    for rank in (2, 3):
        for n in range(1, 7):
            direct = sum(
                1 for w in enumerate_cyclically_reduced(rank, n) if not is_periodic(w)
            )
            assert direct == nonperiodic_count(rank, n)


def test_rotation_class_counts():
    assert [rotation_class_count(2, n) for n in range(2, 7)] == [2, 4, 9, 24, 58]
    for n in range(2, 8):
        reps = [
            w
            for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class")
            if not is_periodic(w)
        ]
        assert len(reps) == rotation_class_count(2, n)


@pytest.mark.parametrize("rank, top", [(2, 8), (3, 6)])
def test_rotation_class_generator_matches_filter_oracle(rank, top):
    for n in range(1, top + 1):
        generated = list(enumerate_cyclically_reduced(rank, n, dedup="rotation_class"))
        filtered = [
            w for w in enumerate_cyclically_reduced(rank, n) if canonical_representative(w) == w
        ]
        assert generated == filtered


@pytest.mark.parametrize("rank, top", [(2, 12), (3, 8)])
def test_rotation_class_generator_counts_classes(rank, top):
    for n in range(2, top + 1):
        reps = enumerate_cyclically_reduced(rank, n, dedup="rotation_class")
        assert sum(1 for w in reps if not is_periodic(w)) == rotation_class_count(rank, n)


def test_canonical_representative_properties():
    for text in ("abAB", "baaba", "bA"):
        w = P(text)
        rep = canonical_representative(w)
        members = [e.word for e in rotation_set(w).elements]
        assert rep in members
        assert canonical_representative(rep) == rep
        for member in members:
            assert canonical_representative(member) == rep


# ---------------------------------------------------------------- Weinbaum factorizations

def test_weinbaum_goldens():
    assert [(str(u), str(v)) for u, v in weinbaum_factorizations(P("ab"))] == [
        ("a", "b"),
        ("b", "a"),
    ]
    pairs = [(str(u), str(v)) for u, v in weinbaum_factorizations(P("baaba"))]
    assert pairs == [("aa", "bab"), ("bab", "aa")]
    assert ("aa", "bab") in pairs  # the split of rotation aabab


def test_weinbaum_pairs_really_factor_a_rotation():
    for text in ("ab", "baaba", "abAB", "aaB"):
        w = P(text)
        rotations = {
            e.word.letters for e in rotation_set(w).elements if e.origin == "fromW"
        }
        for u, v in weinbaum_factorizations(w):
            assert len(u) and len(v)
            assert concat(u, v).letters in rotations
            assert uniquely_positioned(u, w) and uniquely_positioned(v, w)


def test_weinbaum_preconditions():
    with pytest.raises(PeriodicWordError):
        weinbaum_factorizations(P("aa"))
    with pytest.raises(LengthOneError):
        weinbaum_factorizations(P("a"))
    with pytest.raises(NotCyclicallyReducedError):
        weinbaum_factorizations(P("abA"))


# ---------------------------------------------------------------- per-word checks

def test_check_word_golden_commutator(order):
    report = check_word(P("abAB"), order)
    assert report.ok
    assert report.ascent_uniquely_positioned is True
    assert report.descent_status == "unique"
    assert report.monotonic is False
    assert report.weinbaum_count == 4
    assert report.decomposition_summary == {
        "source": "abAB",
        "chosen": "abAB",
        "origin": "fromW",
        "ascent": "ab",
        "descent": "AB",
        "descent_unique": True,
    }


def test_check_word_golden_monotonic(order):
    report = check_word(P("baaba"), order)
    assert report.ok
    assert report.descent_status == "empty"
    assert report.monotonic is True
    assert report.decomposition_summary["descent"] == "1"
    assert report.weinbaum_count == 2


def test_check_word_precondition_errors(order):
    with pytest.raises(PeriodicWordError):
        check_word(P("aa"), order)
    with pytest.raises(LengthOneError):
        check_word(P("a"), order)


def test_check_word_to_dict_round_trips_through_json(order):
    report = check_word(P("abAB"), order)
    loaded = json.loads(json.dumps(report.to_dict()))
    assert loaded["word"] == "abAB"
    assert loaded["length"] == 4
    assert loaded["anomalies"] == []
    assert loaded["descent_status"] == "unique"


def test_check_word_descent_status_values(order):
    # All three wire values appear among short words.
    seen = set()
    for n in range(2, 7):
        for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
            if is_periodic(w):
                continue
            seen.add(check_word(w, order).descent_status)
    assert seen == {"unique", "internal_in_A", "empty"}


def test_check_word_clean_through_length_five(order):
    for n in range(2, 6):
        for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
            if is_periodic(w):
                continue
            report = check_word(w, order)
            assert report.ok, (str(w), [a.label for a in report.anomalies])
            assert report.weinbaum_count >= 1
            assert (report.descent_status == "empty") == report.monotonic


def test_anomaly_and_report_shapes():
    anomaly = Anomaly("example_label", "details here")
    assert anomaly.to_dict() == {"label": "example_label", "detail": "details here"}
    report = WordReport(
        word=P("ab"),
        decomposition_summary=None,
        ascent_uniquely_positioned=None,
        descent_status=None,
        monotonic=True,
        weinbaum_count=0,
        anomalies=[anomaly],
    )
    assert not report.ok
    assert report.to_dict()["anomalies"] == [anomaly.to_dict()]


# ---------------------------------------------------------------- campaigns

def test_campaign_length_two_golden():
    report = run_campaign(2, 2, 2)
    assert report.schema_version == REPORT_SCHEMA == "orderword-report-1"
    assert report.words_checked == 2
    assert report.nonperiodic_count == 2
    assert report.anomaly_count == 0
    assert report.counterexamples == []
    assert report.words_checked_by_length == {"2": 2}
    assert report.descent_ratio_histogram == {"0": 1, "1/2": 1}
    assert report.weinbaum_min == 2
    assert report.order == "magnus(x1>x2)"
    assert report.dedup == "rotation_class"
    assert report.checks == [
        "unique_ascent",
        "descent_placement",
        "monotonic_descent",
        "host_structure",
        "overlap_structure",
        "weinbaum",
    ]


def test_campaign_rank_one_checks_nothing():
    report = run_campaign(1, 2, 4)
    assert report.words_checked == 0
    assert report.anomaly_count == 0
    assert report.weinbaum_min is None
    assert report.descent_ratio_histogram == {}


def test_campaign_swapped_precedence_drops_monotonic_check():
    report = run_campaign(2, 2, 3, precedence=(2, 1))
    assert report.anomaly_count == 0
    assert "monotonic_descent" not in report.checks
    assert report.order == "magnus(x2>x1)"


def test_campaign_dedup_none_scales_by_class_size():
    by_class = run_campaign(2, 3, 3)
    paranoid = run_campaign(2, 3, 3, dedup="none")
    assert by_class.words_checked == 4
    assert paranoid.words_checked == 24  # 28 cyclically reduced minus the 4 cubes
    assert paranoid.anomaly_count == 0


def test_campaign_deterministic_across_worker_counts():
    serial = run_campaign(2, 2, 4, workers=1).to_dict()
    parallel = run_campaign(2, 2, 4, workers=2).to_dict()
    serial.pop("duration_seconds")
    parallel.pop("duration_seconds")
    assert serial == parallel


def test_campaign_error_names_the_word(monkeypatch):
    real = verify.check_word

    def broken(w, cmp, check_monotonic=True):
        if str(w) == "aab":
            raise ZeroDivisionError("injected")
        return real(w, cmp, check_monotonic=check_monotonic)

    monkeypatch.setattr(verify, "check_word", broken)
    with pytest.raises(ZeroDivisionError) as excinfo:
        run_campaign(2, 2, 4)
    if hasattr(excinfo.value, "add_note"):  # Python 3.11+
        assert any("aab" in note for note in excinfo.value.__notes__)


def test_campaign_validation():
    with pytest.raises(ValueError):
        run_campaign(2, 3, 2)
    with pytest.raises(ValueError):
        run_campaign(2, 0, 2)
    with pytest.raises(ValueError):
        run_campaign(2, 2, 3, workers=0)
    with pytest.raises(ValueError):
        run_campaign(2, 2, 3, dedup="classes")
    with pytest.raises(ValueError):
        run_campaign(2, 2, 3, cap=0)


def test_campaign_report_file_round_trip(tmp_path):
    out = tmp_path / "report.json"
    report = run_campaign(2, 2, 3, out_path=str(out))
    loaded = json.loads(out.read_text(encoding="utf-8"))
    assert loaded == report.to_dict()
    assert out.read_text(encoding="utf-8").endswith("\n")


def test_write_report_is_sorted_and_stable(tmp_path):
    report = run_campaign(2, 2, 2)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    write_report(report, str(first))
    write_report(report, str(second))
    assert first.read_text() == second.read_text()
    keys = list(json.loads(first.read_text()))
    assert keys == sorted(keys)


def test_campaign_histogram_totals_match_words_checked():
    report = run_campaign(2, 2, 5)
    assert sum(report.descent_ratio_histogram.values()) == report.words_checked
    assert report.words_checked == sum(
        rotation_class_count(2, n) for n in range(2, 6)
    )


def test_capped_campaign_records_undecided_words():
    report = run_campaign(2, 2, 4, cap=1)
    assert report.words_checked_by_length == {
        str(n): rotation_class_count(2, n) for n in range(2, 5)
    }
    assert report.anomaly_count == len(report.counterexamples) > 0
    for bad in report.counterexamples:
        [anomaly] = bad["anomalies"]
        assert anomaly["label"] == "comparison_undecided"
        assert anomaly["detail"].startswith(bad["word"] + ": ")


@pytest.mark.parametrize(
    "precedence, digest",
    [
        (None, "1957419b2dff043d58ab1b9c0489eb624a105f7eb4f03627f58666665fc147c6"),
        ((2, 1), "af9a14d9ba2859137988d3599636a87b2dda49b3336c80a29f4a86f899b2533c"),
    ],
    ids=["canonical", "swapped"],
)
def test_default_cap_report_is_unchanged(precedence, digest):
    # SHA-256 of the lengths 2..6 report without its wall clock, as first recorded.
    report = run_campaign(2, 2, 6, precedence=precedence).to_dict()
    report.pop("duration_seconds")
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "cap, precedence, count, words_sha256",
    [
        (1, None, 162, "5b5d758ccdca976be13387b78d316f1d7e76b0ded3894313a59db68e7eb29156"),
        (1, (2, 1), 164, "85b83675b342cf951582b366293ce53e46832f84798671344bf91b600ddb4ebf"),
        (2, None, 5, "e73a5ae5a9d624562376c08dbae602ddb7c62bd6e9aec99bdbf9ee6fe7b62afe"),
        (2, (2, 1), 6, "cae4d95c328d50fc610b2f7ef010a9b6be90c08bdc40ad034ff220fd8a3a37af"),
    ],
    ids=["cap1-canonical", "cap1-swapped", "cap2-canonical", "cap2-swapped"],
)
def test_capped_campaign_names_the_same_words(cap, precedence, count, words_sha256):
    # Counts and the SHA-256 of the newline-joined counterexample words, as
    # first recorded. Which undecided comparison a detail names may change
    # with the order in which signs are computed; which words fail may not.
    report = run_campaign(2, 2, 7, cap=cap, precedence=precedence)
    assert report.anomaly_count == count
    words = "\n".join(bad["word"] for bad in report.counterexamples)
    assert hashlib.sha256(words.encode("utf-8")).hexdigest() == words_sha256
