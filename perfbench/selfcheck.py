"""Self-check of the benchmark: run with ``python3 perfbench/run.py --selfcheck``.

1. Self time on a synthetic nested trace with a scripted clock.
2. After a traced call, every wrapped orderword binding is the original again.
3. The serial and the 2-worker campaign give the recorded report digest.
4. BENCHMARK.json, contract.json and workloads.py name the same per-layer
   metrics and workloads.

Untraced runs check for themselves that no binding is wrapped
(``bindings_intact`` in workloads.py), and every traced run is made twice
so that its counts must repeat exactly.
"""

from __future__ import annotations

import json
import sys

from tracer import Tracer, summarize, target_bindings
from workloads import CAMPAIGN, CONTRACT, ROOT, WORKLOADS, campaign_report_digest


def _check_self_time(fail) -> None:
    # Spans: outer [0, 12] > a [1, 10] > b [2, 4], and a [5, 9] > b [6, 7.5]
    # nested inside the first a, so "a" recurses and "b" does not.
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.5, 9.0, 10.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.open("outer")
    a = tracer.open("a")
    tracer.close(tracer.open("b"))
    nested = tracer.open("a")
    tracer.close(tracer.open("b"))
    tracer.close(nested)
    tracer.close(a)
    tracer.close(outer)
    got = summarize(tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent)
    want = {
        "outer": {"calls": 1, "busy_s": 12.0, "self_s": 12.0 - 9.0},
        "a": {"calls": 2, "busy_s": 9.0, "self_s": (9.0 - 2.0 - 4.0) + (4.0 - 1.5)},
        "b": {"calls": 2, "busy_s": 3.5, "self_s": 3.5},
    }
    if got != want:
        fail(f"synthetic trace summarized as {got}, expected {want}")


def _check_restored(fail) -> None:
    import orderword
    from orderword import analysis, verify, words

    before = [(owner, attr, original) for _n, owner, attr, original in target_bindings()]
    tracer = Tracer()
    tracer.install()
    try:
        if verify.prefix_profile is analysis.prefix_profile.__wrapped__:
            fail("prefix_profile was wrapped in analysis but not in verify")
        w = orderword.parse_word("aabAB", 2)
        verify.check_word(w, orderword.MagnusOrder(2))
    finally:
        tracer.uninstall()
    for owner, attr, original in before:
        if getattr(owner, attr) is not original:
            fail(f"{getattr(owner, '__name__', owner)}.{attr} was not restored")
    if verify.prefix_profile is not analysis.prefix_profile or hasattr(
        verify.prefix_profile, "__wrapped__"
    ):
        fail("orderword.verify.prefix_profile is not the undecorated function")
    if hasattr(words.Word.__post_init__, "__wrapped__"):
        fail("Word.__post_init__ is still wrapped")
    if not tracer.counts or "verify.check_word" not in tracer.names:
        fail("the traced call recorded nothing")


def _check_campaign_digest(fail) -> None:
    from orderword import verify

    want = CONTRACT["campaign_report_sha256"]
    for workers in (1, 2):
        params = dict(CAMPAIGN, workers=workers)
        digest = campaign_report_digest(verify.run_campaign(**params).to_dict())
        if digest != want:
            fail(f"campaign report with workers={workers} has digest {digest}, recorded {want}")


def _check_metric_names(fail) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in spec["per_layer"]]
    if sorted(per_layer) != sorted(CONTRACT["per_layer_targets"]):
        fail("per_layer metrics of BENCHMARK.json and contract.json differ")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        fail("workloads of BENCHMARK.json and workloads.py differ")


def selfcheck() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    problems: list[str] = []
    for check in (_check_self_time, _check_restored, _check_metric_names,
                  _check_campaign_digest):
        check(problems.append)
        print(f"{check.__name__.lstrip('_')}: {'ok' if not problems else 'FAILED'}")
        if problems:
            break
    for problem in problems:
        print("  " + problem, file=sys.stderr)
    return 1 if problems else 0
