"""Run one orderword benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N        # every workload, one after another
    python3 perfbench/run.py --selfcheck

Every phase runs in a fresh interpreter (workloads.py), so set-up time and
peak memory belong to one workload. ``--trace 0`` reports the end-to-end
metrics of BENCHMARK.json from untraced runs; their times are seconds at
reference speed (probe.py), which removes most of a shared host's slow
spells. ``--trace 1`` reports the per-layer metrics from a separate traced
run of fixed work, made twice to check that its counts repeat exactly.

The last line of standard output is one JSON object; the exit code is 0 only
when every output check passed. A full record, with an environment
fingerprint and the unscaled body time, goes to
.bench_out/result-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 8           # set-up-only interpreters, plus the timed one
DEADLINE_S = 170.0          # a run must finish within 180 s


class BenchError(Exception):
    """A phase crashed, timed out or printed no result."""


def _child(mode: str, args, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {mode} phase")
    cmd = [sys.executable, str(HERE / "workloads.py"), mode, args.workload,
           str(args.seed), str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} phase exceeded the run's time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} phase exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fingerprint(args) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": sha, "git_dirty": dirty, "seed": args.seed,
            "seconds": args.seconds, "workload": args.workload}


def _metric_specs(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
    timed = _child("timed", args, deadline)
    setups.append(timed["setup_s"])
    attempted, failed = timed["attempted"], timed["failed"]
    if not timed["bindings_intact"]:
        failed = attempted  # an untraced run found wrapped functions
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": timed["wall_s"],
        "throughput_ops_per_s": attempted / timed["wall_s"],
        "op_p50_ms": timed["op_p50_ms"],
        "op_p99_ms": timed["op_p99_ms"],
        "ok_op_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    record = {"params": timed["params"], "setup_samples_s": setups,
              "op_samples": timed["op_samples"], "unscaled_body_s": timed["body_clock_s"],
              "probe_s": timed["probe_s"], "notes": timed["notes"],
              "attempted": attempted, "failed": failed}
    return values, record


def count_metrics(run: dict) -> dict[str, int]:
    """Every count a traced run makes: calls per span name plus the hook counts."""
    counts = {f"{name}.calls": entry["calls"] for name, entry in run["layers"].items()}
    counts.update(run["counts"])
    return dict(sorted(counts.items()))


def layer_values(names, run: dict, untraced_wall_s: float) -> dict[str, float]:
    layers, counts = run["layers"], run["counts"]
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}

    def layer(name):
        return layers.get(name, empty)

    candidates = layer("verify.canonical_representative")["calls"]
    kept = layer("verify.check_word")["calls"] if candidates else 0
    compares = layer("series.compare_series")["calls"]
    decided = sum(v for k, v in counts.items() if k.startswith("series.decided_at_bound."))
    phases = run["campaign_phases"] or {"enum_s": 0.0, "campaign_s": 0.0}
    enum_s, campaign_s = phases["enum_s"], phases["campaign_s"]
    special = {
        "verify.enumerate.candidates": candidates,
        "verify.enumerate.yield_ratio": kept / candidates if candidates else 0.0,
        "verify.campaign.parent_enum_s": enum_s,
        "verify.campaign.serial_share": enum_s / campaign_s if campaign_s else 0.0,
        "series.attempts_per_decision": compares / decided if decided else 0.0,
        "words.Word.constructions": layer("words.Word.post_init")["calls"],
        "words.Word.validate_s": layer("words.Word.post_init")["busy_s"],
        "trace.overhead_ratio": run["wall_s"] / untraced_wall_s,
    }
    values = {}
    for name in names:
        prefix, _, field = name.rpartition(".")
        if name in special:
            values[name] = special[name]
        elif field in ("calls", "busy_s", "self_s"):
            values[name] = layer(prefix)[field]
        else:  # a count made by a tracer hook
            values[name] = counts.get(name, 0)
    return values


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    untraced = _child("fixed", args, deadline)
    first = _child("traced", args, deadline)
    second = _child("traced", args, deadline)
    runs = (untraced, first, second)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    counts_repeat = count_metrics(first) == count_metrics(second)
    if not counts_repeat or not all(r["bindings_intact"] for r in runs):
        failed = max(failed, 1)
    values = layer_values(_metric_specs("per_layer"), first, untraced["wall_s"])
    record = {"params": first["params"], "counts_repeat": counts_repeat,
              "counts": count_metrics(first), "layers": first["layers"],
              "untraced_wall_s": untraced["wall_s"],
              "traced_wall_s": [first["wall_s"], second["wall_s"]],
              "notes": [r["notes"] for r in runs], "attempted": attempted, "failed": failed}
    return values, record


def run_workload(args) -> int:
    """Run one workload, print its env line and result line, return the exit code."""
    deadline = time.monotonic() + DEADLINE_S
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        values, record = (per_layer if args.trace else end_to_end)(args, deadline)
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    units = _metric_specs(kind)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    env = dict(_fingerprint(args), params=record["params"])
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"env": env, "result": result, "record": record}, indent=2) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="check the tracer and the serial/parallel campaign report")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "orderword" / "__init__.py").is_file():
        print(f"error: no orderword sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.selfcheck:
        from selfcheck import selfcheck
        return selfcheck()
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    if args.workload is not None and args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    names = workloads if args.workload is None else [args.workload]
    codes = [run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
             for name in names]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
