"""The benchmark's workloads, each run in a fresh interpreter by run.py.

    python3 perfbench/workloads.py MODE WORKLOAD SEED SECONDS

MODE is one of
  setup   import orderword and build the inputs, then stop;
  timed   set up, run the timed body, check its outputs (end-to-end metrics);
  fixed   the same, on the smaller fixed work of a traced run, untraced;
  traced  the fixed work with every layer wrapped by the span tracer.

The last line of standard output is one JSON object for run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from probe import SpeedProbe
from tracer import Tracer, summarize, target_bindings

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
CONTRACT = json.loads((HERE / "contract.json").read_text(encoding="utf-8"))

CAMPAIGN = {"rank": 2, "min_length": 2, "max_length": 9, "workers": 1}
# Report keys compared with the recorded seed report. The schema tag and the
# wall clock are left out, so a report that only gains fields still matches.
CAMPAIGN_KEYS = ("rank", "min_length", "max_length", "order", "dedup", "checks",
                 "words_checked", "words_checked_by_length", "nonperiodic_count",
                 "anomaly_count", "weinbaum_min", "descent_ratio_histogram",
                 "counterexamples")

ORDER_MAX_LENGTH = 8
ORDER_POOL = 1 << 16        # seeded pairs, cycled; one pass is the traced work
ORDER_PAIRS_PER_SECOND = 50_000
ORDER_ANTISYMMETRY_SAMPLE = 4_000

CLI_RANK = 3
CLI_LENGTHS = (10, 11, 12, 13, 14)
CLI_MIN_OPS = 1_000         # p99 needs ten samples beyond it
CLI_WORDS_PER_SECOND = 24
CLI_TRACED_OPS = 150


def campaign_report_digest(report_dict: dict) -> str:
    """SHA-256 of the campaign report restricted to CAMPAIGN_KEYS."""
    kept = {k: report_dict[k] for k in CAMPAIGN_KEYS}
    text = json.dumps(kept, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- campaign-r2-serial ----------------------------------------------------


def campaign_setup(seed: int, seconds: int, mode: str) -> dict:
    # The input is exhaustive, so the seed plays no part.
    return {"params": dict(CAMPAIGN), "clocked": mode == "timed"}


def campaign_body(state: dict, probe: SpeedProbe) -> dict:
    from orderword import verify

    latencies = array("d")
    original = verify.check_word
    if state["clocked"]:
        # The campaign's operation boundary is inside run_campaign, so the
        # per-class clock sits on the name its serial loop calls.
        now = probe.scaled_now

        def op_clock(*args, **kwargs):
            t0 = now()
            try:
                return original(*args, **kwargs)
            finally:
                latencies.append(now() - t0)

        op_clock.perfbench_op_clock = True
        verify.check_word = op_clock
    started = probe.scaled_now()
    try:
        report, error = verify.run_campaign(**state["params"]).to_dict(), None
    except Exception as exc:  # a crashed campaign fails every class
        report, error = None, repr(exc)
    finally:
        verify.check_word = original
    return {"wall_s": probe.scaled_now() - started, "report": report, "error": error,
            "latencies": latencies}


def campaign_check(state: dict, result: dict) -> tuple[int, int, dict]:
    from orderword import rotation_class_count

    params = state["params"]
    lengths = range(max(2, params["min_length"]), params["max_length"] + 1)
    expected = {str(n): rotation_class_count(params["rank"], n) for n in lengths}
    attempted = sum(expected.values())
    report = result["report"]
    if report is None:
        return attempted, attempted, {"error": result["error"]}
    failed = max(len(report["counterexamples"]), 1 if report["anomaly_count"] else 0)
    got = report["words_checked_by_length"]
    failed += sum(abs(got.get(n, 0) - count) for n, count in expected.items())
    digest = campaign_report_digest(report)
    if digest != CONTRACT["campaign_report_sha256"] and failed == 0:
        failed = 1
    notes = {"report_sha256": digest, "anomaly_count": report["anomaly_count"],
             "words_checked_by_length": got}
    return attempted, min(failed, attempted), notes


# -- order-mixed -----------------------------------------------------------


def _reduced_words(rank: int, max_length: int) -> list[tuple[tuple[int, int], ...]]:
    """Every freely reduced word of length <= max_length, as (generator, sign) tuples."""
    alphabet = [(g, s) for g in range(1, rank + 1) for s in (1, -1)]
    words, frontier = [()], [()]
    for _ in range(max_length):
        frontier = [w + (x,) for w in frontier for x in alphabet
                    if not w or w[-1] != (x[0], -x[1])]
        words += frontier
    return words


def order_setup(seed: int, seconds: int, mode: str) -> dict:
    from orderword import Letter, MagnusOrder, Word

    raw = _reduced_words(2, ORDER_MAX_LENGTH)
    words = [Word(tuple(Letter(g, s) for g, s in w), 2) for w in raw]
    by_exponents: dict[tuple[int, int], list[int]] = {}
    for i, w in enumerate(raw):
        sums = [0, 0]
        for g, s in w:
            sums[g - 1] += s
        by_exponents.setdefault(tuple(sums), []).append(i)
    group_of = {i: g for g in by_exponents.values() if len(g) > 1 for i in g}
    shared = sorted(group_of)
    rng = random.Random(seed)
    pairs = []
    for k in range(ORDER_POOL):
        if k % 2 == 0:
            i, j = rng.sample(range(len(words)), 2)
        else:
            i = rng.choice(shared)
            j = i
            while j == i:
                j = rng.choice(group_of[i])
        pairs.append((words[i], words[j]))
    ops = ORDER_POOL if mode != "timed" else ORDER_PAIRS_PER_SECOND * seconds
    params = {"rank": 2, "max_length": ORDER_MAX_LENGTH, "working_set": len(words),
              "pair_pool": ORDER_POOL, "ops": ops}
    return {"pairs": pairs, "ops": ops, "order": MagnusOrder(2), "seed": seed,
            "params": params}


def order_body(state: dict, probe: SpeedProbe) -> dict:
    compare = state["order"].compare
    pairs = state["pairs"]
    pool = len(pairs)
    latencies = array("d")
    first_verdicts = [None] * pool
    errors: list[str] = []
    equal = 0
    now = probe.scaled_now
    started = now()
    for k in range(state["ops"]):
        a, b = pairs[k % pool]
        t0 = now()
        try:
            verdict = compare(a, b)
        except Exception as exc:  # counted as a failed operation
            verdict = None
            errors.append(f"{a} vs {b}: {exc!r}")
        latencies.append(now() - t0)
        if k < pool:
            first_verdicts[k] = verdict
        if verdict is not None and verdict.name == "EQUAL":
            equal += 1
    return {"wall_s": now() - started, "latencies": latencies,
            "verdicts": first_verdicts, "errors": errors, "equal": equal}


_OPPOSITE = {"GREATER": "LESS", "LESS": "GREATER"}


def order_check(state: dict, result: dict) -> tuple[int, int, dict]:
    from orderword import MagnusOrder

    second = MagnusOrder(2)
    verdicts = result["verdicts"]
    done = [k for k in range(len(verdicts)) if verdicts[k] is not None]
    rng = random.Random(state["seed"] + 1)
    sample = rng.sample(done, min(ORDER_ANTISYMMETRY_SAMPLE, len(done)))
    mismatched = 0
    for k in sample:
        a, b = state["pairs"][k]
        if second.compare(b, a).name != _OPPOSITE.get(verdicts[k].name):
            mismatched += 1
    failed = len(result["errors"]) + result["equal"] + mismatched
    notes = {"antisymmetry_checked": len(sample), "antisymmetry_failed": mismatched,
             "equal_verdicts": result["equal"], "errors": result["errors"][:5]}
    return state["ops"], min(failed, state["ops"]), notes


# -- cli-verify-r3 ---------------------------------------------------------


def _inverse_text(text: str) -> str:
    return text[::-1].swapcase()


def _random_cyclic_word(rng: random.Random, rank: int, length: int) -> str:
    """A seeded nonperiodic cyclically reduced word, as letter text."""
    letters = [chr(ord("a") + g) for g in range(rank)]
    letters += [c.upper() for c in letters]
    while True:
        out = []
        while len(out) < length:
            c = rng.choice(letters)
            if not out or out[-1] != c.swapcase():
                out.append(c)
        text = "".join(out)
        if text[0] == text[-1].swapcase():
            continue
        if (text + text).find(text, 1) < length:  # a proper power
            continue
        return text


def cli_setup(seed: int, seconds: int, mode: str) -> dict:
    import orderword.cli  # noqa: F401  (imported as part of set-up)

    if mode == "timed":
        ops = max(CLI_MIN_OPS, CLI_WORDS_PER_SECOND * seconds)
    else:
        ops = CLI_TRACED_OPS
    rng = random.Random(seed)
    words = [_random_cyclic_word(rng, CLI_RANK, CLI_LENGTHS[k % len(CLI_LENGTHS)])
             for k in range(ops)]
    params = {"rank": CLI_RANK, "lengths": list(CLI_LENGTHS), "ops": ops}
    return {"words": words, "ops": ops, "params": params}


def cli_body(state: dict, probe: SpeedProbe) -> dict:
    from orderword import cli

    latencies = array("d")
    outputs = []
    now = probe.scaled_now
    rank = str(CLI_RANK)
    started = now()
    for word in state["words"]:
        buffer = io.StringIO()
        t0 = now()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(["verify", word, "--rank", rank])
        except Exception as exc:  # counted as a failed operation
            code = repr(exc)
        latencies.append(now() - t0)
        outputs.append((code, buffer.getvalue()))
    return {"wall_s": now() - started, "latencies": latencies, "outputs": outputs}


def _verify_output_ok(word: str, code, text: str) -> bool:
    if code != 0:
        return False
    lines = text.splitlines()
    if f"word: {word}" not in lines or "anomalies: none" not in lines:
        return False
    split = [line for line in lines if line.startswith("W' = ")]
    if len(split) != 1:
        return False
    # W' = <chosen> (<origin>), A = <ascent>, D = <descent>
    head, _, rest = split[0][len("W' = "):].partition(" (")
    fields = dict(part.split(" = ") for part in rest.partition("), ")[2].split(", "))
    ascent, descent = fields.get("A", ""), fields.get("D", "")
    if head != ascent + ("" if descent == "1" else descent):
        return False
    n = len(word)
    rotations = {s[i:] + s[:i] for s in (word, _inverse_text(word)) for i in range(n)}
    return head in rotations


def cli_check(state: dict, result: dict) -> tuple[int, int, dict]:
    bad = [word for word, (code, text) in zip(state["words"], result["outputs"])
           if not _verify_output_ok(word, code, text)]
    return state["ops"], len(bad), {"failed_words": bad[:5]}


WORKLOADS = {
    "campaign-r2-serial": (campaign_setup, campaign_body, campaign_check),
    "order-mixed": (order_setup, order_body, order_check),
    "cli-verify-r3": (cli_setup, cli_body, cli_check),
}


# -- one run ---------------------------------------------------------------


def _bindings_untouched() -> bool:
    """True when no orderword binding holds a tracer wrapper or the op clock."""
    for _name, owner, attr, _original in target_bindings():
        value = getattr(owner, attr)
        if hasattr(value, "__wrapped__") or hasattr(value, "perfbench_op_clock"):
            return False
    return True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _latency_ms(samples) -> tuple[float, float]:
    """Median and 99th percentile in milliseconds; zeros when there are too few."""
    if len(samples) < 2:
        return 0.0, 0.0
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return statistics.median(samples) * 1e3, cuts[98] * 1e3


def run(mode: str, name: str, seed: int, seconds: int) -> dict:
    # Timed work and set-up are measured in seconds at reference speed; the
    # fixed and traced runs compare raw seconds with each other.
    probe = SpeedProbe()
    if mode in ("setup", "timed"):
        probe.start()
    started = probe.scaled_now()
    sys.path.insert(0, str(ROOT / "src"))
    import orderword  # noqa: F401  (import time is part of set-up)

    setup, body, check = WORKLOADS[name]
    state = setup(seed, seconds, mode)
    setup_s = probe.scaled_now() - started
    if mode == "setup":
        probe.stop()
        return {"setup_s": setup_s}

    tracer = Tracer() if mode == "traced" else None
    # Untraced runs must find every binding in its original state.
    intact_before = _bindings_untouched()
    if tracer is not None:
        tracer.install()
    wall_clock = time.perf_counter()
    try:
        result = body(state, probe)
    finally:
        wall_clock = time.perf_counter() - wall_clock
        if tracer is not None:
            tracer.uninstall()
        probe.stop()
    intact_after = _bindings_untouched()
    attempted, failed, notes = check(state, result)
    out = {"params": state["params"], "setup_s": setup_s, "wall_s": result["wall_s"],
           "body_clock_s": wall_clock, "probe_s": probe.spent,
           "attempted": attempted, "failed": failed, "notes": notes,
           "peak_rss_mb": _peak_rss_mb(), "bindings_intact": intact_before and intact_after}
    latencies = result["latencies"]
    if mode == "timed":
        out["op_p50_ms"], out["op_p99_ms"] = _latency_ms(latencies)
        out["op_samples"] = len(latencies)
    if tracer is not None:
        columns = (tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent)
        out["layers"] = summarize(*columns)
        out["counts"] = dict(sorted(tracer.counts.items()))
        out["campaign_phases"] = _campaign_phases(*columns)
        _write_spans(name, *columns)
    return out


def _campaign_phases(names, name_id, start, end, parent) -> dict | None:
    """Length of run_campaign and of its serial enumeration before the first check."""
    if "verify.run_campaign" not in names:
        return None
    campaign = names.index("verify.run_campaign")
    check = names.index("verify.check_word") if "verify.check_word" in names else -1
    first = name_id.index(campaign)
    total = end[first] - start[first]
    checks = (i for i in range(first, len(start)) if name_id[i] == check)
    first_check = next(checks, None)
    enum_s = total if first_check is None else start[first_check] - start[first]
    return {"enum_s": enum_s, "campaign_s": total}


def _write_spans(workload: str, names, name_id, start, end, parent) -> None:
    """Spans of the last traced run: a JSON header line, then the raw columns."""
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{workload}.bin", "wb") as handle:
        header = {"names": names, "count": len(start),
                  "columns": ["name_id:i32", "start:f64", "end:f64", "parent:i32"]}
        handle.write(json.dumps(header).encode("utf-8") + b"\n")
        for column in (name_id, start, end, parent):
            column.tofile(handle)


if __name__ == "__main__":
    mode_arg, name_arg, seed_arg, seconds_arg = sys.argv[1:5]
    print(json.dumps(run(mode_arg, name_arg, int(seed_arg), int(seconds_arg))))
