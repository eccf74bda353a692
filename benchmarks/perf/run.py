"""The repo's benchmark: five host-time workloads, end to end and per layer.

    python benchmarks/perf/run.py                       # all workloads, untraced
    python benchmarks/perf/run.py --trace both          # plus the per-layer pass
    python benchmarks/perf/run.py --repeat 2 --check    # do two sets agree?
    python benchmarks/perf/run.py --repeat 10 --vary-seed   # spread over ten seeds
    python benchmarks/perf/run.py --workload serve_ooc --seed 3 --seconds 10 --trace 0

The last form is what a driver calls: one workload, one pass, in this
process; its last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every other form runs each
workload and pass in a child process of that form and tabulates the
results.  Exit status is non-zero when any answer was wrong, any operation
failed, a workload ran on the wrong code path, or ``--check`` found two
sets disagreeing by more than a metric's bound.
"""

from __future__ import annotations

import _env  # noqa: F401  (first: refuses to run without the source tree)

import argparse
import json
import statistics
import subprocess
import sys
from typing import Dict, List

import stats

BENCHMARK = json.loads((_env.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]

#: The simulated totals repeat exactly, except where flush widths depend on
#: how two client threads interleave.
SIM_METRICS = ("sim.s_per_query", "sim.bytes_per_query")
SIM_EXACT = [name for name in WORKLOAD_NAMES if name != "serve_light"]


def declared(trace: int) -> Dict[str, dict]:
    """Metric name -> its ``BENCHMARK.json`` entry, for one pass."""
    return {m["name"]: m for m in BENCHMARK["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> int:
    """One workload, one pass, here; prints the metrics, then the JSON line."""
    import measure
    from workloads import PathGuardError

    try:
        result = measure.run(workload, seed, seconds, bool(trace), smoke)
    except PathGuardError as exc:
        print(f"{workload}: wrong code path: {exc}", file=sys.stderr)
        return 2
    metrics = declared(trace)
    if result.values and set(result.values) != set(metrics):
        odd = sorted(set(result.values) ^ set(metrics))
        print(f"{workload}: measured and declared metrics differ: {odd}", file=sys.stderr)
        return 3
    for name, value in result.values.items():
        note = f"  (n={result.samples})" if name == "latency_p50_ms" else ""
        print(f"{workload:14s} {name:46s} {value:16.6f} {metrics[name]['unit']}{note}")
    print(f"{workload:14s} attempted={result.attempted} "
          f"succeeded={result.attempted - result.failed} failed={result.failed}")
    if not result.values:
        print(f"{workload}: no operation completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": float(value), "unit": metrics[name]["unit"]}
            for name, value in result.values.items()
        },
    }))
    return 0 if result.correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool):
    """Run one pass in its own process; returns its parsed JSON line or None."""
    argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        return None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def summarize(sets: List[Dict[tuple, float]], check: bool) -> bool:
    """Print median, min, max, gap and quartile spread over the sets.

    ``gap`` is (max - min) / median, what ``check`` holds against a metric's
    bound; ``iqr`` is the quartile spread an acceptance run would compute.
    """
    agree = True
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    for key in sorted(sets[0]):
        workload, metric = key
        values = [s[key] for s in sets if key in s]
        if len(values) < len(sets):
            continue
        low, high, mid = min(values), max(values), statistics.median(values)
        gap = (high - low) / mid if mid else 0.0
        verdict = ""
        if check and metric in bounds:
            ok = gap <= bounds[metric]
            verdict = "ok" if ok else f"DISAGREE (bound {bounds[metric]:g})"
            agree &= ok
        elif check and metric in SIM_METRICS and workload in SIM_EXACT:
            ok = low == high
            verdict = "exact" if ok else "DISAGREE (must repeat exactly)"
            agree &= ok
        elif metric not in bounds:
            continue
        iqr = stats.quartile_spread(values) if mid else 0.0
        print(f"{workload:14s} {metric:24s} median={mid:<12.6g} min={low:<12.6g} "
              f"max={high:<12.6g} gap={gap:7.2%} iqr={iqr:7.2%} {verdict}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        epilog="Workloads: " + ", ".join(WORKLOAD_NAMES),
    )
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=1, help="draws the roots queried")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="length of the timed phase of each run")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end pass, probe off; 1: per-layer pass, "
                             "probe on; both: one after the other")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many full sets and summarize them")
    parser.add_argument("--vary-seed", action="store_true",
                        help="set k runs with seed + k instead of the same seed")
    parser.add_argument("--check", action="store_true",
                        help="fail if two sets disagree by more than a metric's bound")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs and one set-up: tests the harness, measures nothing")
    args = parser.parse_args(argv)

    workloads = args.workload or WORKLOAD_NAMES
    if len(workloads) == 1 and args.trace != "both" and args.repeat == 1 and not args.check:
        return run_one(workloads[0], args.seed, args.seconds, int(args.trace), args.smoke)

    passes = (0, 1) if args.trace == "both" else (int(args.trace),)
    sets: List[Dict[tuple, float]] = []
    healthy = True
    for index in range(args.repeat):
        if args.repeat > 1:
            print(f"--- set {index + 1} of {args.repeat}")
        values: Dict[tuple, float] = {}
        for workload in workloads:
            for trace in passes:
                seed = args.seed + index if args.vary_seed else args.seed
                line = run_child(workload, seed, args.seconds, trace, args.smoke)
                if line is None or not line["correct"]:
                    healthy = False
                if line is not None:
                    for name, metric in line["metrics"].items():
                        values[workload, name] = metric["value"]
        sets.append(values)
    if args.repeat > 1:
        print(f"--- {args.repeat} sets")
        healthy &= summarize(sets, args.check)
    return 0 if healthy else 1


if __name__ == "__main__":
    raise SystemExit(main())
