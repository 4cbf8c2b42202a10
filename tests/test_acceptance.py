"""Acceptance gate: one test per primary criterion, timed where a budget is stated.

Each test finishes by printing a single PASS line naming its criterion (visible
with ``pytest -s``); pytest -v adds the usual per-test verdict. Budgets are
wall-clock upper bounds asserted inside the tests themselves.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import pytest

import check_word_oracle as oracle
from orderword import (
    MagnusOrder,
    Ordering,
    TruncatedSeries,
    compare_series,
    concat,
    identity,
    maximal_ascent,
    mu,
    mul,
    parse_word,
    rotation_class_count,
    run_campaign,
    uniquely_positioned,
)
from orderword.verify import enumerate_cyclically_reduced
from series_oracle import truncate
from wordgen import all_reduced, random_reduced

P = lambda text, rank=2: parse_word(text, rank)  # noqa: E731


def _passed(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="module")
def full_campaign():
    """The full rank-2 lengths-2..10 run, shared by the campaign criteria."""
    return run_campaign(rank=2, min_length=2, max_length=10, workers=1)


def test_golden_series():
    word = P("aB")
    mu(word, 1)  # warm import/caches before timing
    started = time.perf_counter()
    image = mu(word, 1)
    elapsed = time.perf_counter() - started
    assert image.coefficients == {(): 1, (1,): 1, (2,): -1}
    assert elapsed < 0.001
    _passed("golden series", f"mu(aB, 1) = 1 + X1 - X2 in {elapsed * 1e6:.0f} us")


def test_golden_ordering():
    bigger = TruncatedSeries(2, 1, {(): 1, (1,): 1, (2,): 3})
    smaller = TruncatedSeries(2, 1, {(): 1, (1,): 1, (2,): 1})
    assert compare_series(bigger, smaller) is Ordering.GREATER
    _passed("golden ordering", "1 + X1 + 3X2 > 1 + X1 + X2 at the X2 coefficient")


def test_golden_unique_positioning():
    assert uniquely_positioned(P("aa"), P("baaba")) is True
    assert uniquely_positioned(P("aba"), P("baaba")) is False
    _passed("golden unique positioning", "aa unique in baaba; aba not unique")


def test_homomorphism_suite():
    rng = random.Random(20260819)
    started = time.perf_counter()
    for _ in range(1000):
        v = random_reduced(rng, rng.randint(0, 12))
        w = random_reduced(rng, rng.randint(0, 12))
        product = mul(mu(v, 6), mu(w, 6))
        direct = mu(concat(v, w), 6)
        assert product.coefficients == direct.coefficients
        for degree in range(1, 6):
            assert (
                truncate(product, degree).coefficients
                == truncate(direct, degree).coefficients
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _passed(
        "homomorphism suite",
        f"mu(vw) = mu(v)mu(w) on 1000 pairs at degrees 1..6 in {elapsed:.1f} s",
    )


def test_oracle_equivalence_maximal_ascent():
    started = time.perf_counter()
    checked = 0
    for precedence in (None, (2, 1)):
        order = MagnusOrder(2, precedence=precedence)
        for length in range(1, 9):
            for w in enumerate_cyclically_reduced(2, length):
                brute = oracle.maximal_ascent(w, order, algorithm="bruteforce")
                assert brute.ascent == maximal_ascent(w, order), str(w)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _passed(
        "oracle equivalence",
        f"bruteforce == peaklow on {checked} words (both precedences) in {elapsed:.0f} s",
    )


def test_full_campaign_zero_anomalies(full_campaign):
    report = full_campaign
    assert report.anomaly_count == 0
    assert report.counterexamples == []
    assert report.duration_seconds < 900.0
    # Coverage cross-check: each length saw every nonperiodic rotation class.
    for length in range(2, 11):
        assert report.words_checked_by_length[str(length)] == rotation_class_count(
            2, length
        )
    assert report.words_checked == sum(
        rotation_class_count(2, n) for n in range(2, 11)
    )
    # All claim families were on.
    assert report.checks == [
        "unique_ascent",
        "descent_placement",
        "monotonic_descent",
        "host_structure",
        "overlap_structure",
        "weinbaum",
    ]
    _passed(
        "full campaign",
        f"{report.words_checked} classes at lengths 2..10, zero anomalies "
        f"in {report.duration_seconds:.0f} s",
    )


def test_order_independence():
    report = run_campaign(rank=2, min_length=2, max_length=8, precedence=(2, 1))
    assert report.anomaly_count == 0
    assert report.counterexamples == []
    assert "monotonic_descent" not in report.checks
    _passed(
        "order independence",
        f"swapped precedence, lengths 2..8: {report.words_checked} classes, zero anomalies",
    )


def test_weinbaum_cross_validation(full_campaign):
    assert full_campaign.weinbaum_min is not None
    assert full_campaign.weinbaum_min >= 1
    _passed(
        "weinbaum cross-validation",
        f"every checked word admits a factorization (minimum count "
        f"{full_campaign.weinbaum_min})",
    )


def test_trichotomy_no_cap():
    words = [w for n in range(0, 7) for w in all_reduced(2, n)]
    assert len(words) == 1457
    order = MagnusOrder(2)
    pairs = 0
    for v, w in combinations(words, 2):
        verdict = order.compare(v, w)  # UndecidedAtCapError would propagate
        assert verdict in (Ordering.GREATER, Ordering.LESS)
        pairs += 1
    assert pairs == 1457 * 1456 // 2
    assert order.compare(identity(2), identity(2)) is Ordering.EQUAL
    _passed("trichotomy", f"{pairs} distinct pairs decided, none hit the cap")
