"""Result objects returned by engine runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.counters import CounterRegistry
from repro.storage.machine import IOReport
from repro.utils.units import format_bytes, format_seconds


@dataclass
class IterationStats:
    """Per-scatter-iteration counters (one BFS level per iteration)."""

    iteration: int
    edges_scanned: int = 0
    updates_generated: int = 0
    activated: int = 0
    partitions_processed: int = 0
    partitions_skipped: int = 0
    edges_eliminated: int = 0
    stay_records_written: int = 0
    stay_swaps: int = 0
    #: Partitions whose pending stay file this pass's scatter cancelled
    #: (not ready, write failure or checksum mismatch), in scatter order.
    stay_cancelled: List[int] = field(default_factory=list)
    clock_end: float = 0.0

    @property
    def volume(self) -> Tuple[int, int, int]:
        """``(edges_scanned, updates_generated, stay_records_written)``,
        the pass as ``BFSAnswerChecker.pass_volumes`` predicts it."""
        return (self.edges_scanned, self.updates_generated,
                self.stay_records_written)


@dataclass
class EngineResult:
    """Output of one engine execution.

    ``output`` holds the algorithm's result arrays (e.g. ``level`` and
    ``parent`` for BFS); ``report`` is the storage substrate's accounting
    (execution time, bytes, iowait); ``iterations`` the per-level counters.
    """

    engine: str
    algorithm: str
    graph_name: str
    output: Dict[str, np.ndarray]
    report: IOReport
    iterations: List[IterationStats] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    #: Position of this query within a ``run_many`` batch (None for a
    #: standalone run).
    query_index: Optional[int] = None
    #: Per-run counter snapshot (repro.obs); attached by the api/harness
    #: front doors when observability export is requested.
    metrics: Optional[CounterRegistry] = None

    # Convenience accessors for the common BFS case -----------------------
    @property
    def levels(self) -> np.ndarray:
        key = "level" if "level" in self.output else "distance"
        return self.output[key]

    @property
    def parents(self) -> Optional[np.ndarray]:
        return self.output.get("parent")

    @property
    def execution_time(self) -> float:
        return self.report.execution_time

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def edges_scanned(self) -> int:
        return sum(it.edges_scanned for it in self.iterations)

    @property
    def updates_generated(self) -> int:
        return sum(it.updates_generated for it in self.iterations)

    def iteration_table(self) -> str:
        """Per-iteration (per BFS level) breakdown as aligned text."""
        header = (
            f"{'iter':>4}  {'edges scanned':>13}  {'updates':>9}  "
            f"{'activated':>9}  {'parts run/skip':>14}  {'stay kept':>9}  "
            f"{'swap/cancel':>11}  {'t_end':>9}"
        )
        lines = [header, "-" * len(header)]
        for it in self.iterations:
            lines.append(
                f"{it.iteration:>4}  {it.edges_scanned:>13,}  "
                f"{it.updates_generated:>9,}  {it.activated:>9,}  "
                f"{f'{it.partitions_processed}/{it.partitions_skipped}':>14}  "
                f"{it.stay_records_written:>9,}  "
                f"{f'{it.stay_swaps}/{len(it.stay_cancelled)}':>11}  "
                f"{format_seconds(it.clock_end):>9}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        lines = [
            f"{self.engine} / {self.algorithm} on {self.graph_name}: "
            f"{format_seconds(self.execution_time)} over "
            f"{self.num_iterations} iterations",
            f"  edges scanned: {self.edges_scanned:,}  "
            f"updates: {self.updates_generated:,}",
            f"  input read: {format_bytes(self.report.bytes_read)}  "
            f"written: {format_bytes(self.report.bytes_written)}  "
            f"iowait: {self.report.iowait_ratio:.1%}",
        ]
        for key, value in sorted(self.extras.items()):
            lines.append(f"  {key}: {value}")
        return "\n".join(lines)


@dataclass
class BatchResult:
    """Output of one ``engine.run_many`` batch: staged once, queried Q times.

    ``staging_report`` covers exactly the shared staging phase (planning
    I/O + partition split); each entry of ``queries`` is a per-query
    :class:`EngineResult`.  In ``mode="serial"`` each query's report covers
    only that query (the machine is rewound to the post-staging checkpoint
    between queries).  In ``mode="batched"`` queries were packed into
    MS-BFS batches sharing one scatter/gather timeline: every query of a
    batch carries that batch's delta report, the shared per-pass counters
    live in ``shared_iterations``, and ``batch_times`` holds one execution
    time per batch (the machine is rewound between batches).
    """

    engine: str
    algorithm: str
    graph_name: str
    staging_report: IOReport
    queries: List[EngineResult] = field(default_factory=list)
    extras: Dict[str, float] = field(default_factory=dict)
    #: Scheduler policy that produced this batch: "serial" or "batched".
    mode: str = "serial"
    #: Batched mode only: per-pass counters of the shared timelines (one
    #: run of passes per batch, concatenated in batch order).
    shared_iterations: List[IterationStats] = field(default_factory=list)
    #: Batched mode only: execution time of each batch's shared timeline.
    batch_times: List[float] = field(default_factory=list)
    #: Batch-wide counter snapshot (repro.obs); per-query registries live
    #: on each entry of ``queries`` as ``EngineResult.metrics``.
    metrics: Optional[CounterRegistry] = None

    @property
    def num_queries(self) -> int:
        return len(self.queries)

    @property
    def staging_time(self) -> float:
        return self.staging_report.execution_time

    @property
    def query_times(self) -> List[float]:
        return [q.execution_time for q in self.queries]

    @property
    def total_time(self) -> float:
        """Wall-clock of the batch: one staging plus every execution.

        Serial mode sums the per-query times; batched mode sums the
        per-batch times (each batch's queries share one timeline, so
        summing per-query reports would count every batch Q times).
        """
        if self.mode == "batched":
            return self.staging_time + sum(self.batch_times)
        return self.staging_time + sum(self.query_times)

    @property
    def edges_scanned(self) -> int:
        """Edge records streamed by scatter across the whole batch.

        This is the amortization headline: batched mode scans each edge
        once per *batch* instead of once per query.
        """
        if self.mode == "batched":
            return sum(it.edges_scanned for it in self.shared_iterations)
        return sum(q.edges_scanned for q in self.queries)

    @property
    def edge_scans_per_query(self) -> float:
        """Amortized edge records streamed per query."""
        if not self.queries:
            return 0.0
        return self.edges_scanned / self.num_queries

    @property
    def amortized_time(self) -> float:
        """Per-query cost with staging spread across the batch."""
        if not self.queries:
            return 0.0
        return self.total_time / self.num_queries

    def summary(self) -> str:
        mode_note = (
            f", {len(self.batch_times)} shared-scan batches"
            if self.mode == "batched"
            else ""
        )
        lines = [
            f"{self.engine} / {self.algorithm} on {self.graph_name}: "
            f"{self.num_queries} queries ({self.mode}), staged once"
            f"{mode_note}",
            f"  staging: {format_seconds(self.staging_time)} "
            f"({format_bytes(self.staging_report.bytes_total)})",
        ]
        for i, q in enumerate(self.queries):
            lines.append(
                f"  query {i}: {format_seconds(q.execution_time)} over "
                f"{q.num_iterations} iterations "
                f"({format_bytes(q.report.bytes_total)})"
            )
        lines.append(
            f"  total: {format_seconds(self.total_time)}  "
            f"amortized/query: {format_seconds(self.amortized_time)}"
        )
        return "\n".join(lines)
