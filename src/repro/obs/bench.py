"""Benchmark snapshots and the regression gate.

A *snapshot* is one canonical JSON document (``BENCH_<seq>.json`` at the
repo root) recording what the simulation measures for a fixed scenario
set: per-scenario simulated execution time, input/total bytes, iowait
ratio, iteration count, trim effectiveness, and a profile summary
distilled from the run's span trace.  A snapshot carries **no timestamps
or host facts** — two runs of the same code at the same seed produce
byte-identical documents, so a committed snapshot is a reviewable
statement of the repo's performance claims.  (Host time is measured and
gated elsewhere: ``BENCHMARK.json`` + ``benchmarks/perf``.)

The *gate* (:func:`compare_snapshots`) diffs the newest snapshot against
the previous one under per-metric tolerances: each metric declares how
much drift is tolerated and which direction is a regression (slower,
more bytes, less trimming).  CI runs ``repro bench run`` + ``repro bench
compare`` so a PR that quietly degrades the reproduction fails its
build; improvements update the trajectory by committing the new file.

Scale note: scenarios run at the harness's scale divisor (default from
``REPRO_SCALE_DIVISOR``), so a CI snapshot takes seconds, not hours.
Snapshots at different divisors are never comparable — the gate refuses.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.profile import profile_trace

#: Bump when the snapshot layout changes incompatibly.
#: v2: multi-query scenarios (``kind="multi-query"``) recording the MS-BFS
#: edge-scan amortization metric alongside the single-query cells.
#: v3: informational top-level ``host`` section (dual-clock profiler).
#: v4: ``host`` section retired; the whole document is deterministic.
SNAPSHOT_SCHEMA_VERSION = 4

#: Queries per tracked multi-query cell (matches bench_multi_query.py).
MULTI_QUERY_Q = 8

#: Hard ceiling on the batched/serial edge-scan ratio the multi-query
#: scenario asserts (the ISSUE-7 amortization acceptance bound).
MULTI_QUERY_MAX_AMORTIZATION = 0.2

SNAPSHOT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")


class BenchError(ReproError):
    """Raised on malformed snapshots or unusable comparisons."""


@dataclass(frozen=True)
class Scenario:
    """One (engine, hardware) cell of the tracked benchmark set.

    ``kind="single"`` is one traced BFS run; ``kind="multi-query"`` runs
    the same Q-root batch twice through ``run_many`` — serial rewind and
    MS-BFS batched — and records the edge-scan amortization ratio.
    """

    name: str
    engine: str
    dataset: str = "rmat25"
    disk_kind: str = "hdd"
    num_disks: int = 1
    kind: str = "single"


#: The tracked set: the paper's three engines on one HDD, FastBFS's
#: two-disk rotation (Fig. 7's configuration), and the multi-query
#: amortization cell (ISSUE 7: batched MS-BFS vs serial rewind).
DEFAULT_SCENARIOS: Tuple[Scenario, ...] = (
    Scenario("graphchi", "graphchi"),
    Scenario("x-stream", "x-stream"),
    Scenario("fastbfs", "fastbfs"),
    Scenario("fastbfs-2disk", "fastbfs-2disk", num_disks=2),
    Scenario("fastbfs-multiquery", "fastbfs", kind="multi-query"),
)


@dataclass(frozen=True)
class Tolerance:
    """Allowed drift for one metric and which direction is a regression.

    ``rel`` is a fraction of the baseline value, ``abs`` an absolute
    delta; the allowance is ``max(rel * |baseline|, abs)``.  ``worse``
    is ``"higher"`` (increase is bad: time, bytes), ``"lower"``
    (decrease is bad: trim effectiveness), or ``"any"`` (must match
    within the allowance in both directions: iteration counts).
    """

    rel: float = 0.0
    abs: float = 0.0
    worse: str = "higher"

    def allowance(self, baseline: float) -> float:
        return max(self.rel * abs(baseline), self.abs)


#: Per-metric gate policy (see docs/profiling.md for the rationale).
TOLERANCES: Dict[str, Tolerance] = {
    "execution_time": Tolerance(rel=0.02, worse="higher"),
    "input_bytes": Tolerance(rel=0.01, worse="higher"),
    "total_bytes": Tolerance(rel=0.01, worse="higher"),
    "iowait_ratio": Tolerance(abs=0.02, worse="higher"),
    "iterations": Tolerance(abs=0.0, worse="any"),
    "trim_effectiveness": Tolerance(abs=0.02, worse="lower"),
    # Multi-query cell: batched/serial edge-scan ratio (lower is better)
    # and the batched batch's end-to-end time.
    "edge_scan_amortization": Tolerance(abs=0.01, worse="higher"),
    "batched_time": Tolerance(rel=0.02, worse="higher"),
}


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------
def _multi_query_entry(runner, sc: Scenario) -> Dict[str, object]:
    """The amortization cell: Q-root batch, serial vs MS-BFS batched.

    Asserts the batch contract while measuring it: batched per-query
    levels/parents must be bit-identical to the serial rewind path, and
    the batched run must scan at most
    :data:`MULTI_QUERY_MAX_AMORTIZATION` of the serial edge total.
    """
    import numpy as np

    graph = runner.graph(sc.dataset)
    order = np.argsort(-graph.out_degrees())
    roots = [int(v) for v in order[:MULTI_QUERY_Q]]
    serial = runner.run_batch(
        sc.dataset, sc.engine, roots,
        disk_kind=sc.disk_kind, num_disks=sc.num_disks, mode="serial",
    )
    batched = runner.run_batch(
        sc.dataset, sc.engine, roots,
        disk_kind=sc.disk_kind, num_disks=sc.num_disks, mode="batched",
    )
    if batched.mode != "batched":
        raise BenchError(
            f"scenario {sc.name!r}: engine {sc.engine!r} fell back to "
            "serial execution; the amortization cell needs a batched kernel"
        )
    for qs, qb in zip(serial.queries, batched.queries):
        if not (
            np.array_equal(qs.levels, qb.levels)
            and np.array_equal(qs.parents, qb.parents)
        ):
            raise BenchError(
                f"scenario {sc.name!r}: batched query "
                f"{qb.query_index} diverged from the serial result"
            )
    amortization = (
        batched.edges_scanned / serial.edges_scanned
        if serial.edges_scanned
        else 0.0
    )
    if amortization > MULTI_QUERY_MAX_AMORTIZATION:
        raise BenchError(
            f"scenario {sc.name!r}: batched mode scanned "
            f"{amortization:.3f}x the serial edge total "
            f"(bound {MULTI_QUERY_MAX_AMORTIZATION})"
        )
    return {
        "engine": sc.engine,
        "dataset": sc.dataset,
        "disk_kind": sc.disk_kind,
        "num_disks": sc.num_disks,
        "kind": sc.kind,
        "queries": MULTI_QUERY_Q,
        "batches": len(batched.batch_times),
        "iterations": len(batched.shared_iterations),
        "edges_scanned": batched.edges_scanned,
        "serial_edges_scanned": serial.edges_scanned,
        "edge_scans_per_query": batched.edge_scans_per_query,
        "edge_scan_amortization": amortization,
        "batched_time": batched.total_time,
        "serial_time": serial.total_time,
    }


def _scenario_entry(runner, sc: Scenario) -> Dict[str, object]:
    """The snapshot entry for one scenario (one traced run, or one
    multi-query cell)."""
    if sc.kind == "multi-query":
        return _multi_query_entry(runner, sc)
    result, machine, tracer = runner.run_traced(
        sc.dataset,
        sc.engine,
        disk_kind=sc.disk_kind,
        num_disks=sc.num_disks,
    )
    report = result.report
    graph = runner.graph(sc.dataset)
    edges_scanned = sum(it.edges_scanned for it in result.iterations)
    iterations = result.num_iterations
    denom = iterations * graph.num_edges
    trim_effectiveness = 1.0 - edges_scanned / denom if denom else 0.0

    prof = profile_trace(tracer)
    q = prof.queries[0]
    stay = q.stay
    return {
        "engine": sc.engine,
        "dataset": sc.dataset,
        "disk_kind": sc.disk_kind,
        "num_disks": sc.num_disks,
        "execution_time": report.execution_time,
        "input_bytes": report.bytes_read,
        "total_bytes": report.bytes_total,
        "iowait_ratio": report.iowait_ratio,
        "iterations": iterations,
        "edges_scanned": edges_scanned,
        "trim_effectiveness": trim_effectiveness,
        "profile": {
            "stage_totals": {
                k: v for k, v in sorted(q.stage_totals().items())
            },
            "stay_flushes": stay.flushes,
            "stay_cancelled": stay.cancellations,
            "stay_end_of_run_discards": stay.end_of_run_discards,
            "stay_hidden_fraction": stay.hidden_fraction,
        },
    }


def collect_snapshot(
    runner=None,
    scenarios: Sequence[Scenario] = DEFAULT_SCENARIOS,
    divisor: Optional[int] = None,
    seed: int = 1,
) -> Dict[str, object]:
    """Run the tracked scenarios and assemble one snapshot document."""
    if runner is None:
        from repro.analysis.harness import ExperimentRunner

        runner = ExperimentRunner(divisor=divisor, seed=seed)
    scenario_docs = {sc.name: _scenario_entry(runner, sc) for sc in scenarios}

    derived: Dict[str, float] = {}
    times = {
        name: doc["execution_time"]
        for name, doc in scenario_docs.items()
        if "execution_time" in doc
    }
    if "fastbfs" in times:
        for other in ("x-stream", "graphchi"):
            if other in times and times["fastbfs"]:
                derived[f"speedup_vs_{other}"] = (
                    times[other] / times["fastbfs"]  # type: ignore[operator]
                )
        if "x-stream" in scenario_docs:
            x = scenario_docs["x-stream"]
            f = scenario_docs["fastbfs"]
            if x["input_bytes"]:
                derived["input_reduction_vs_x-stream"] = 1.0 - (
                    f["input_bytes"] / x["input_bytes"]  # type: ignore[operator]
                )
            if x["total_bytes"]:
                derived["total_reduction_vs_x-stream"] = 1.0 - (
                    f["total_bytes"] / x["total_bytes"]  # type: ignore[operator]
                )

    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "divisor": runner.divisor,
        "seed": runner.seed,
        "scenarios": scenario_docs,
        "derived": derived,
    }


# ----------------------------------------------------------------------
# files
# ----------------------------------------------------------------------
def snapshot_files(root: str = ".") -> List[Tuple[int, str]]:
    """(seq, path) for every ``BENCH_<seq>.json`` under ``root``, sorted."""
    out: List[Tuple[int, str]] = []
    for entry in sorted(os.listdir(root)):
        m = SNAPSHOT_PATTERN.match(entry)
        if m:
            out.append((int(m.group(1)), os.path.join(root, entry)))
    return sorted(out)


def snapshot_to_json(snapshot: Dict[str, object]) -> str:
    """Canonical serialized form (sorted keys, trailing newline)."""
    return json.dumps(snapshot, indent=2, sort_keys=True) + "\n"


def write_snapshot(
    snapshot: Dict[str, object], root: str = ".", seq: Optional[int] = None
) -> str:
    """Write ``BENCH_<seq>.json`` (next free sequence number by default)."""
    if seq is None:
        existing = snapshot_files(root)
        seq = existing[-1][0] + 1 if existing else 0
    path = os.path.join(root, f"BENCH_{seq}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(snapshot_to_json(snapshot))
    return path


def load_snapshot(path: str) -> Dict[str, object]:
    """Load and schema-check one snapshot file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot load snapshot {path}: {exc}") from None
    version = doc.get("schema_version")
    if version != SNAPSHOT_SCHEMA_VERSION:
        raise BenchError(
            f"snapshot {path} has schema_version {version!r}; "
            f"this code reads {SNAPSHOT_SCHEMA_VERSION}"
        )
    for key in ("divisor", "seed", "scenarios"):
        if key not in doc:
            raise BenchError(f"snapshot {path} missing key {key!r}")
    return doc


# ----------------------------------------------------------------------
# comparison (the gate)
# ----------------------------------------------------------------------
@dataclass
class MetricDiff:
    """One compared metric of one scenario."""

    scenario: str
    metric: str
    baseline: float
    current: float
    allowance: float
    verdict: str  # "ok" | "improved" | "regressed"

    def describe(self) -> str:
        delta = self.current - self.baseline
        rel = f" ({delta / self.baseline:+.2%})" if self.baseline else ""
        return (
            f"{self.scenario}.{self.metric}: {self.baseline:g} -> "
            f"{self.current:g}{rel} [allowance {self.allowance:g}] "
            f"{self.verdict.upper()}"
        )


@dataclass
class Comparison:
    """The gate's verdict: every metric diff plus the regression list."""

    baseline_path: str
    current_path: str
    diffs: List[MetricDiff]
    problems: List[str]

    @property
    def regressions(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.verdict == "regressed"]

    @property
    def improvements(self) -> List[MetricDiff]:
        return [d for d in self.diffs if d.verdict == "improved"]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.problems

    def render(self) -> str:
        lines = [
            f"bench compare: {os.path.basename(self.baseline_path)} -> "
            f"{os.path.basename(self.current_path)}"
        ]
        lines.extend(f"  PROBLEM: {p}" for p in self.problems)
        for d in self.diffs:
            if d.verdict != "ok":
                lines.append("  " + d.describe())
        changed = sum(1 for d in self.diffs if d.verdict != "ok")
        lines.append(
            f"  {len(self.diffs)} metrics compared, {changed} changed, "
            f"{len(self.regressions)} regressed, "
            f"{len(self.improvements)} improved"
        )
        lines.append("  verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _judge(tol: Tolerance, baseline: float, current: float) -> str:
    allowance = tol.allowance(baseline)
    delta = current - baseline
    if abs(delta) <= allowance:
        return "ok"
    if tol.worse == "any":
        return "regressed"
    worse_is_positive = tol.worse == "higher"
    if (delta > 0) == worse_is_positive:
        return "regressed"
    return "improved"


def compare_snapshots(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerances: Optional[Dict[str, Tolerance]] = None,
    baseline_path: str = "<baseline>",
    current_path: str = "<current>",
) -> Comparison:
    """Diff two snapshots under the per-metric tolerance policy.

    Scenarios present in the baseline but missing from the current
    snapshot (or vice versa) and divisor/seed mismatches are reported as
    problems — the gate fails on them rather than comparing garbage.
    """
    tolerances = tolerances if tolerances is not None else TOLERANCES
    problems: List[str] = []
    for key in ("divisor", "seed"):
        if baseline.get(key) != current.get(key):
            problems.append(
                f"{key} mismatch: baseline {baseline.get(key)!r} vs "
                f"current {current.get(key)!r}; snapshots are not comparable"
            )
    base_sc: Dict[str, Dict] = baseline.get("scenarios", {})  # type: ignore[assignment]
    cur_sc: Dict[str, Dict] = current.get("scenarios", {})  # type: ignore[assignment]
    for missing in sorted(set(base_sc) - set(cur_sc)):
        problems.append(f"scenario {missing!r} missing from current snapshot")
    for added in sorted(set(cur_sc) - set(base_sc)):
        problems.append(
            f"scenario {added!r} has no baseline (commit a new snapshot)"
        )

    diffs: List[MetricDiff] = []
    for name in sorted(set(base_sc) & set(cur_sc)):
        for metric, tol in tolerances.items():
            if metric not in base_sc[name] or metric not in cur_sc[name]:
                continue
            b = float(base_sc[name][metric])
            c = float(cur_sc[name][metric])
            diffs.append(
                MetricDiff(
                    scenario=name,
                    metric=metric,
                    baseline=b,
                    current=c,
                    allowance=tol.allowance(b),
                    verdict=_judge(tol, b, c),
                )
            )
    return Comparison(
        baseline_path=baseline_path,
        current_path=current_path,
        diffs=diffs,
        problems=problems,
    )


def compare_latest(
    root: str = ".", tolerances: Optional[Dict[str, Tolerance]] = None
) -> Comparison:
    """Compare the two newest ``BENCH_*.json`` snapshots under ``root``."""
    files = snapshot_files(root)
    if len(files) < 2:
        raise BenchError(
            f"need two snapshots under {root!r} to compare, found "
            f"{len(files)}; run 'repro bench run' first"
        )
    (_, base_path), (_, cur_path) = files[-2], files[-1]
    return compare_snapshots(
        load_snapshot(base_path),
        load_snapshot(cur_path),
        tolerances=tolerances,
        baseline_path=base_path,
        current_path=cur_path,
    )


__all__ = [
    "SNAPSHOT_SCHEMA_VERSION",
    "BenchError",
    "Scenario",
    "DEFAULT_SCENARIOS",
    "Tolerance",
    "TOLERANCES",
    "collect_snapshot",
    "snapshot_files",
    "snapshot_to_json",
    "write_snapshot",
    "load_snapshot",
    "MetricDiff",
    "Comparison",
    "compare_snapshots",
    "compare_latest",
]
