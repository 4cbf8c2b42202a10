"""Enumeration, closed-form counts, per-word checks, and campaign reports."""

from __future__ import annotations

import ast
import hashlib
import itertools
import json
import random
import re
from pathlib import Path

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
from orderword import cli, verify
from orderword.series import CyclicSigns
from orderword.verify import REPORT_SCHEMA
from wordgen import random_cyclically_reduced

P = lambda text, rank=2: parse_word(text, rank)  # noqa: E731
ROOT = Path(__file__).resolve().parent.parent


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


@pytest.mark.parametrize(
    "count, rank, length",
    [
        (cyclically_reduced_count, 0, 2),
        (cyclically_reduced_count, 2, 0),
        (nonperiodic_count, 2, 0),
        (rotation_class_count, 2, -1),
        (rotation_class_count, 2, 0),
    ],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_closed_form_counts_need_positive_rank_and_length(count, rank, length):
    with pytest.raises(ValueError, match="^rank and length must be positive$"):
        count(rank, length)


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
        members = [e.word for e in rotation_set(w)]
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
            e.word.letters for e in rotation_set(w) if e.origin == "fromW"
        }
        for u, v in weinbaum_factorizations(w):
            assert len(u) and len(v)
            assert concat(u, v).letters in rotations
            assert uniquely_positioned(u, w) and uniquely_positioned(v, w)


def test_weinbaum_preconditions():
    with pytest.raises(PeriodicWordError):
        weinbaum_factorizations(P("aa"))
    with pytest.raises(LengthOneError, match="^factorization needs"):
        weinbaum_factorizations(P("a"))
    with pytest.raises(NotCyclicallyReducedError):
        weinbaum_factorizations(P("abA"))


@pytest.mark.parametrize("rank, top", [(2, 9), (3, 6)])
def test_weinbaum_count_is_the_number_of_factorizations(rank, top):
    # check_word counts the splits without listing them.
    cmp = MagnusOrder(rank)
    for n in range(2, top + 1):
        for w in enumerate_cyclically_reduced(rank, n, dedup="rotation_class"):
            if not is_periodic(w):
                assert check_word(w, cmp).weinbaum_count == len(weinbaum_factorizations(w)), str(w)


# Seeded long words of wordgen.random_cyclically_reduced, and the SHA-256 of
# check_word's report on each: lengths 200 and 400 recorded before the
# degree-2 keys, lengths 1,600 and 3,200 before the linear-space sign table.
LONG_WORDS = [
    (200, 2, 200, "9e7c1a4df557abc2eaacc53b980a887f743b7fa76b01724a2c3b952b366f52cf"),
    (400, 2, 400, "502f1b530dd5851e270cada0020c442dc3cc5b354167ae5d1aef9f42c1521ffe"),
    (3200, 3, 200, "f5495d9755ea7b1dee47f9bb7835d467fa596aad47452e27fdc6fbf2f4d80de6"),
    (1600, 2, 1600, "b6495bf4d82791192334bd3e57b1bf49b0ac864d00e7f782b5d3241412ea6a80"),
    (3200, 2, 3200, "8b740e05c033e7af8a31d4b0ced9ebc7ba9f2a9bdaedd709a2146752f6109940"),
    (4800, 3, 1600, "826680fe226f85c30eedbc94069ca37fceca045e03bc069698d470f4e8f94a00"),
]


@pytest.mark.parametrize(
    "seed, rank, length, digest",
    LONG_WORDS,
    ids=["rank2-200", "rank2-400", "rank3-200", "rank2-1600", "rank2-3200", "rank3-1600"],
)
def test_long_word_report_is_unchanged(monkeypatch, seed, rank, length, digest):
    w = random_cyclically_reduced(random.Random(seed), length, rank)
    report = check_word(w, MagnusOrder(rank)).to_dict()
    text = json.dumps(report, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    if length > 400:
        return  # millions of factorizations; the digest pins their count
    # The count is the length of the list of factorizations; only that length
    # is read, so the list holds placeholders in place of its Words.
    monkeypatch.setattr(verify, "Word", lambda letters, rank: None)
    assert report["weinbaum_count"] == len(weinbaum_factorizations(w))


# ---------------------------------------------------------------- per-word checks

def test_check_word_golden_commutator(order):
    report = check_word(P("abAB"), order)
    assert report.ok
    assert report.ascent_uniquely_positioned is True
    assert report.descent_status == "unique"
    assert report.monotonic is False
    assert report.weinbaum_count == 4
    assert report.to_dict()["decomposition"] == {
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
    assert len(report.decomposition.descent) == 0
    assert report.to_dict()["decomposition"]["descent"] == "1"
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


def test_check_word_scans_each_pattern_once(monkeypatch):
    # decompose places A; check_word places A's copies, the first of which
    # starts the chosen rotation, and D's. unique_from answers the rest.
    calls = []
    starts = CyclicSigns.starts

    def counted(table, pattern):
        calls.append(pattern)
        return starts(table, pattern)

    monkeypatch.setattr(CyclicSigns, "starts", counted)
    for cmp in (MagnusOrder(2), MagnusOrder(2, precedence=(2, 1))):
        for n in range(2, 8):
            for w in enumerate_cyclically_reduced(2, n, dedup="rotation_class"):
                if is_periodic(w):
                    continue
                calls.clear()
                report = check_word(w, cmp)
                assert len(calls) == (2 if report.descent_status == "empty" else 3), str(w)


def test_anomaly_and_report_shapes():
    anomaly = Anomaly("example_label", "details here")
    assert anomaly.to_dict() == {"label": "example_label", "detail": "details here"}
    report = WordReport(
        word=P("ab"),
        decomposition=None,
        ascent_uniquely_positioned=None,
        descent_status=None,
        monotonic=True,
        weinbaum_count=0,
        anomalies=[anomaly],
    )
    assert not report.ok
    assert report.to_dict()["anomalies"] == [anomaly.to_dict()]


def test_readme_label_table_names_every_label():
    emitted = set()
    for path in (ROOT / "src" / "orderword").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Anomaly":
                label = node.args[0]
                assert isinstance(label, ast.Constant), f"{path.name}:{node.lineno}"
                emitted.add(label.value)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Anomaly labels", 1)[1].split("\n#", 1)[0]
    documented = set(re.findall(r"^\| `([a-z_]+)` \|", table, re.MULTILINE))
    assert emitted == documented


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


def test_campaign_histogram_counts_letters_past_z():
    # A generator past z renders as <27>, so a descent's length must be read
    # from its letters, not from its text: every ratio here is 0 or 1/2.
    report = run_campaign(27, 2, 2)
    assert report.descent_ratio_histogram == {"0": 351, "1/2": 351}


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


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize(
    "lengths, options",
    [
        ((2, 4), {}),
        # 253 classes, 162 of them counterexamples: uneven parts whose
        # counterexamples must merge back into enumeration order.
        ((2, 7), {"cap": 1}),
        ((1, 6), {"dedup": "none"}),
    ],
    ids=["classes", "cap1", "dedup-none"],
)
def test_campaign_deterministic_across_worker_counts(lengths, options, workers):
    serial = run_campaign(2, *lengths, workers=1, **options).to_dict()
    parallel = run_campaign(2, *lengths, workers=workers, **options).to_dict()
    serial.pop("duration_seconds")
    parallel.pop("duration_seconds")
    assert serial == parallel


def test_campaign_error_names_the_word(monkeypatch):
    real = verify.check_word

    def broken(w, cmp):
        if str(w) == "aab":
            raise ZeroDivisionError("injected")
        return real(w, cmp)

    monkeypatch.setattr(verify, "check_word", broken)
    with pytest.raises(ZeroDivisionError) as excinfo:
        run_campaign(2, 2, 4)
    if hasattr(excinfo.value, "add_note"):  # Python 3.11+
        assert any("aab" in note for note in excinfo.value.__notes__)


def test_serial_campaign_calls_check_word_through_the_module(monkeypatch):
    # A benchmark times each campaign word by patching verify.check_word, so
    # every checked word must go through that module global.
    real = verify.check_word
    calls = []

    def counted(w, cmp):
        calls.append(w)
        return real(w, cmp)

    monkeypatch.setattr(verify, "check_word", counted)
    report = run_campaign(2, 2, 6, workers=1)
    assert report.words_checked > 0
    assert len(calls) == report.words_checked


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


@pytest.mark.parametrize("lengths", [(1, 1), (2, 3)], ids=["nothing-enumerated", "enumerated"])
def test_campaign_refuses_an_unknown_dedup_mode_first(monkeypatch, lengths):
    # Below length 2 nothing is enumerated, so the enumerator's own check
    # never runs: the campaign checks the mode before anything else.
    def unreachable(*args, **kwargs):
        raise AssertionError("enumerated before refusing the dedup mode")

    monkeypatch.setattr(verify, "enumerate_cyclically_reduced", unreachable)
    with pytest.raises(ValueError, match="^unknown dedup mode 'bogus'$"):
        run_campaign(2, *lengths, dedup="bogus")


@pytest.mark.parametrize(
    "where, error",
    [("missing/r.json", FileNotFoundError), (".", IsADirectoryError), ("", FileNotFoundError)],
    ids=["missing-directory", "directory", "empty"],
)
def test_campaign_refuses_unwritable_report_path_before_checking(
    monkeypatch, tmp_path, where, error
):
    def unreachable(w, cmp):
        raise AssertionError(f"checked {w} before refusing the report path")

    monkeypatch.setattr(verify, "check_word", unreachable)
    with pytest.raises(error):
        run_campaign(2, 2, 4, out_path=str(tmp_path / where) if where else "")
    # A writable path is not created or truncated before the campaign ends.
    out = tmp_path / "r.json"
    with pytest.raises(AssertionError):
        run_campaign(2, 2, 4, out_path=str(out))
    assert not out.exists()


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


def _moebius(n):
    sign, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return -sign if n > 1 else sign


def _lyndon_count(rank, n):
    # Primitive necklaces of length n: (1/n) * sum over d | n of mu(d) rank^(n/d).
    return sum(_moebius(d) * rank ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@pytest.mark.parametrize("rank, top, total", [(2, 9, 125), (3, 5, 77)])
def test_campaign_counts_primitive_necklaces_with_empty_descent(rank, top, total):
    # Claim 3 in aggregate: a class has D = 1 iff it is monotonic, and the
    # monotonic classes of length n are the L_r(n) primitive necklaces. The
    # per-word audit checks claim 3 only under the canonical precedence.
    assert sum(_lyndon_count(rank, n) for n in range(2, top + 1)) == total
    for precedence in itertools.permutations(range(1, rank + 1)):
        report = run_campaign(rank, 2, top, precedence=precedence)
        assert report.descent_ratio_histogram.get("0", 0) == total, precedence


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
    "rank, top, precedence, digest",
    [
        (2, 6, None, "1957419b2dff043d58ab1b9c0489eb624a105f7eb4f03627f58666665fc147c6"),
        (2, 6, (2, 1), "af9a14d9ba2859137988d3599636a87b2dda49b3336c80a29f4a86f899b2533c"),
        (3, 5, None, "2628d60ac6fa7b4af7ebac016e7b05b51801971d46021eca73bc5dfffde407c3"),
        (3, 5, (2, 3, 1), "7c7056931d348a66fd09a9a6844a513bc85fea97889ed4f8edaafcd8ba8abd76"),
    ],
    ids=["canonical", "swapped", "rank3-canonical", "rank3-231"],
)
def test_default_cap_report_is_unchanged(rank, top, precedence, digest):
    # SHA-256 of the lengths 2..top report without its wall clock, as first recorded.
    report = run_campaign(rank, 2, top, precedence=precedence).to_dict()
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


@pytest.mark.parametrize(
    "rank, top, cap, precedence, count, digest",
    [
        (2, 7, 1, None, 162, "873c14a1db4f207fa8fa87260585d39f56cefe2074ea821cf5206db832c44d14"),
        (2, 7, 1, (2, 1), 164, "15eb96fc48689cfde57a5e8c9f487d6a90f4d99f02c749a272ad9f7cb07a7ad6"),
        (2, 7, 2, None, 5, "037bdbd465a3b4d2c550f2944abdcd98bb341a3f1dd729b3b43bc9712bf1a9d9"),
        (2, 7, 2, (2, 1), 6, "ba37c0937959a448d335cafbd4c9ce3412f838f1ef7c155473557817abe757ea"),
        (2, 7, 3, None, 0, "ed1947335dce69263521f9b925d78b508fc8dfb8555d34b8205cb64e68f85d52"),
        (3, 5, 1, None, 182, "168ee45ebe912bbdc557bcb20c1555edd678dd02c08668d0c50bbb4ddc0f0600"),
        (3, 5, 2, (2, 3, 1), 3, "7724e89e66dc445d7bfc6864e463ea2ff00ee7939de053332cf6b5006b1a0373"),
    ],
    ids=[
        "cap1-canonical",
        "cap1-swapped",
        "cap2-canonical",
        "cap2-swapped",
        "cap3-canonical",
        "rank3-cap1",
        "rank3-231-cap2",
    ],
)
def test_capped_report_is_unchanged(rank, top, cap, precedence, count, digest):
    # SHA-256 of the whole lengths 2..top report without its wall clock, as
    # first recorded. Each detail names the comparison that ran out of
    # degrees, so this pins the order in which signs and candidates go to
    # the kernel, not just which words fail.
    report = run_campaign(rank, 2, top, precedence=precedence, cap=cap).to_dict()
    report.pop("duration_seconds")
    assert report["anomaly_count"] == count
    text = json.dumps(report, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "dedup, count_of", [("rotation_class", rotation_class_count), ("none", nonperiodic_count)]
)
def test_campaign_class_count_is_the_closed_form(dedup, count_of):
    # The enumerator yields exactly the closed-form count at every length,
    # so the report records no mismatch.
    report = run_campaign(2, 1, 7, dedup=dedup)
    assert report.nonperiodic_count == sum(count_of(2, n) for n in range(2, 8))
    assert report.words_checked == report.nonperiodic_count
    assert report.count_mismatch is None and "count_mismatch" not in report.to_dict()
    report = run_campaign(3, 2, 5, dedup=dedup)
    assert report.nonperiodic_count == report.words_checked == sum(
        count_of(3, n) for n in range(2, 6)
    )
    assert "count_mismatch" not in report.to_dict()


def test_campaign_records_a_class_count_mismatch(monkeypatch, capsys):
    # An enumerator that loses a class: the closed form still counts it, the
    # mismatch gets its own report key, and the exit code stays anomaly-based.
    real = verify._rotation_class_codes
    lost = (0, 0, 0, 0, 2)  # aaaab

    def lossy(size, n):
        return (codes for codes in real(size, n) if codes != lost)

    monkeypatch.setattr(verify, "_rotation_class_codes", lossy)
    report = run_campaign(2, 2, 6)
    assert report.nonperiodic_count == sum(rotation_class_count(2, n) for n in range(2, 7))
    assert report.words_checked == report.nonperiodic_count - 1
    classes = rotation_class_count(2, 5)
    assert report.count_mismatch == {"5": [classes, classes - 1]}
    assert report.to_dict()["count_mismatch"] == report.count_mismatch
    assert report.anomaly_count == 0
    assert cli.main(["campaign", "--min-len", "2", "--max-len", "6"]) == 0
    assert capsys.readouterr().out.startswith(f"checked={report.words_checked} anomalies=0 ")
