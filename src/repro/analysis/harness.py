"""Experiment runner: build datasets, run engines, memoize, compare.

Figures 4, 5 and 6 report different metrics of the *same* runs; the runner
memoizes each (dataset, engine, hardware) execution so every bench file can
ask for its metric without re-running the traversal.  Roots are chosen
deterministically as the maximum-out-degree vertex (a hub, so the traversal
covers the giant component — the paper does not specify its roots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.analysis.calibration import (
    SCALE_DIVISOR,
    scaled_engine_config,
    scaled_fastbfs_config,
    scaled_graphchi_config,
    scaled_machine,
)
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiEngine
from repro.engines.result import EngineResult
from repro.engines.xstream import XStreamEngine
from repro.errors import ConfigError
from repro.graph.datasets import build_dataset, scale_divisor
from repro.graph.graph import Graph


def default_root(graph: Graph) -> int:
    """Deterministic traversal root: the highest-out-degree vertex (a hub)."""
    return int(np.argmax(graph.out_degrees()))


def peripheral_root(graph: Graph) -> int:
    """A root on the periphery of the giant component.

    BFS depth shrinks logarithmically when a graph is scaled down, which
    under-states X-Stream's per-iteration waste relative to the paper's
    full-size runs.  Starting from the periphery (the deepest BFS level of
    a hub traversal, choosing its best-connected vertex) restores the
    paper's iteration counts while traversing the same component.  Falls
    back to the hub when the peripheral start reaches too little of it.
    """
    from repro.algorithms.reference import bfs_levels  # local: avoid cycle

    hub = default_root(graph)
    hub_levels = bfs_levels(graph, hub)
    hub_reach = int((hub_levels >= 0).sum())
    out_deg = graph.out_degrees()
    best = hub
    for depth in range(int(hub_levels.max()), 0, -1):
        candidates = np.flatnonzero((hub_levels == depth) & (out_deg > 0))
        if len(candidates) == 0:
            continue
        cand = int(candidates[np.argmax(out_deg[candidates])])
        reach = int((bfs_levels(graph, cand) >= 0).sum())
        if reach >= 0.5 * hub_reach:
            return cand
        best = hub  # deepest level is a dead end; try one shallower
    return best


@dataclass
class ComparisonRow:
    """One (dataset, engine) cell of a comparison figure."""

    dataset: str
    engine: str
    result: EngineResult

    @property
    def time(self) -> float:
        return self.result.execution_time

    @property
    def input_bytes(self) -> int:
        return self.result.report.bytes_read

    @property
    def total_bytes(self) -> int:
        return self.result.report.bytes_total

    @property
    def iowait_ratio(self) -> float:
        return self.result.report.iowait_ratio


class ExperimentRunner:
    """Builds scaled machines/configs and memoizes engine runs."""

    ENGINE_NAMES = ("graphchi", "x-stream", "fastbfs")

    def __init__(
        self,
        divisor: Optional[int] = None,
        seed: int = 1,
        memory: str = "4GB",
        cores: int = 4,
    ) -> None:
        # Default to the dataset registry's (env-overridable) divisor so one
        # REPRO_SCALE_DIVISOR setting rescales datasets, memory, buffers and
        # seek times together.
        self.divisor = divisor if divisor is not None else scale_divisor()
        self.seed = seed
        self.memory = memory
        self.cores = cores
        self._graphs: Dict[str, Graph] = {}
        self._roots: Dict[str, int] = {}
        self._runs: Dict[Tuple, EngineResult] = {}
        # Traced-run memo: key -> (result, machine, tracer), kept separate
        # from _runs so untraced benches never pay span allocation.
        self._traced_runs: Dict[Tuple, Tuple] = {}

    # ------------------------------------------------------------------
    def graph(self, dataset: str) -> Graph:
        if dataset not in self._graphs:
            self._graphs[dataset] = build_dataset(
                dataset, divisor=self.divisor, seed=self.seed
            )
        return self._graphs[dataset]

    def root(self, dataset: str) -> int:
        # Hub root: the stand-ins carry their own depth tail (whiskers), so
        # the traversal shape matches full-scale runs from a typical root.
        if dataset not in self._roots:
            self._roots[dataset] = default_root(self.graph(dataset))
        return self._roots[dataset]

    def machine(self, disk_kind: str = "hdd", num_disks: int = 1, memory=None):
        return scaled_machine(
            memory=memory if memory is not None else self.memory,
            cores=self.cores,
            num_disks=num_disks,
            disk_kind=disk_kind,
            divisor=self.divisor,
        )

    def _engine(self, name: str, threads: int, overrides: dict):
        if name == "fastbfs":
            return FastBFSEngine(
                scaled_fastbfs_config(self.divisor, threads=threads, **overrides)
            )
        if name == "fastbfs-2disk":
            merged = dict(rotate_streams=True)
            merged.update(overrides)
            return FastBFSEngine(
                scaled_fastbfs_config(self.divisor, threads=threads, **merged)
            )
        if name == "x-stream":
            return XStreamEngine(
                scaled_engine_config(self.divisor, threads=threads, **overrides)
            )
        if name == "graphchi":
            return GraphChiEngine(
                scaled_graphchi_config(self.divisor, threads=threads, **overrides)
            )
        raise ConfigError(f"unknown engine {name!r}")

    # ------------------------------------------------------------------
    def run(
        self,
        dataset: str,
        engine: str,
        disk_kind: str = "hdd",
        num_disks: int = 1,
        memory: Optional[str] = None,
        threads: int = 4,
        **config_overrides,
    ) -> EngineResult:
        """Run one engine on one dataset and memoize the result."""
        key = (
            dataset,
            engine,
            disk_kind,
            num_disks,
            memory or self.memory,
            threads,
            tuple(sorted(config_overrides.items())),
        )
        if key not in self._runs:
            graph = self.graph(dataset)
            machine = self.machine(disk_kind, num_disks, memory)
            eng = self._engine(engine, threads, config_overrides)
            self._runs[key] = eng.run(graph, machine, root=self.root(dataset))
        return self._runs[key]

    def run_traced(
        self,
        dataset: str,
        engine: str,
        disk_kind: str = "hdd",
        num_disks: int = 1,
        memory: Optional[str] = None,
        threads: int = 4,
        **config_overrides,
    ) -> Tuple[EngineResult, object, object]:
        """Like :meth:`run`, but with a span tracer attached.

        Returns ``(result, machine, tracer)`` so callers can profile the
        trace and reconcile counters against the machine's report.
        Memoized separately from :meth:`run` (tracing on vs. off is
        bit-for-bit identical in timings, but the memo keeps each world's
        objects intact).
        """
        from repro.obs.tracer import Tracer  # local: keep obs optional here

        key = (
            dataset,
            engine,
            disk_kind,
            num_disks,
            memory or self.memory,
            threads,
            tuple(sorted(config_overrides.items())),
        )
        if key not in self._traced_runs:
            graph = self.graph(dataset)
            machine = self.machine(disk_kind, num_disks, memory)
            tracer = Tracer()
            machine.attach_tracer(tracer)
            eng = self._engine(engine, threads, config_overrides)
            result = eng.run(graph, machine, root=self.root(dataset))
            self._traced_runs[key] = (result, machine, tracer)
        return self._traced_runs[key]

    def run_batch(
        self,
        dataset: str,
        engine: str,
        roots: Iterable,
        disk_kind: str = "hdd",
        num_disks: int = 1,
        memory: Optional[str] = None,
        threads: int = 4,
        mode: str = "serial",
        **config_overrides,
    ):
        """One ``run_many`` batch with per-query observability attached.

        Not memoized (each call is a fresh staging + batch).  ``mode``
        selects the scheduler policy (``"serial"`` rewind-per-query or
        ``"batched"`` MS-BFS shared scans).  The returned
        :class:`~repro.engines.result.BatchResult` carries a batch-wide
        :class:`~repro.obs.CounterRegistry` as ``metrics`` and a per-query
        registry on every ``queries`` entry, built from that query's delta
        report — so per-query byte counters reconcile with per-query
        :class:`IOReport` totals by construction.
        """
        from repro.obs.counters import CounterRegistry

        graph = self.graph(dataset)
        machine = self.machine(disk_kind, num_disks, memory)
        eng = self._engine(engine, threads, config_overrides)
        batch = eng.run_many(graph, machine, roots=list(roots), mode=mode)
        registry = CounterRegistry.from_machine(machine)
        for q in batch.queries:
            q.metrics = CounterRegistry.from_report(q.report).ingest_result(q)
            registry.ingest_result(q)
        batch.metrics = registry
        return batch

    def compare(
        self,
        dataset: str,
        disk_kind: str = "hdd",
        engines: Iterable[str] = ENGINE_NAMES,
        **kwargs,
    ) -> Dict[str, ComparisonRow]:
        """The Fig. 4/5/6/7 comparison for one dataset."""
        num_disks = 2 if any("2disk" in e for e in engines) else 1
        return {
            name: ComparisonRow(
                dataset, name, self.run(dataset, name, disk_kind, num_disks, **kwargs)
            )
            for name in engines
        }

    # ------------------------------------------------------------------
    def speedup(
        self, dataset: str, slow: str, fast: str, disk_kind: str = "hdd", **kwargs
    ) -> float:
        """Execution-time ratio slow/fast (>1 means ``fast`` wins)."""
        t_slow = self.run(dataset, slow, disk_kind, **kwargs).execution_time
        t_fast = self.run(dataset, fast, disk_kind, **kwargs).execution_time
        return t_slow / t_fast

    def input_reduction(self, dataset: str, disk_kind: str = "hdd") -> float:
        """Fraction of X-Stream's input bytes that FastBFS avoids."""
        x = self.run(dataset, "x-stream", disk_kind).report.bytes_read
        f = self.run(dataset, "fastbfs", disk_kind).report.bytes_read
        return 1.0 - f / x if x else 0.0

    def total_reduction(self, dataset: str, disk_kind: str = "hdd") -> float:
        """Fraction of X-Stream's total (read+write) bytes FastBFS avoids."""
        x = self.run(dataset, "x-stream", disk_kind).report.bytes_total
        f = self.run(dataset, "fastbfs", disk_kind).report.bytes_total
        return 1.0 - f / x if x else 0.0


#: Process-wide runner shared by the benchmark files (Figs. 4-6 reuse runs).
_shared: Optional[ExperimentRunner] = None


def shared_runner() -> ExperimentRunner:
    global _shared
    if _shared is None:
        _shared = ExperimentRunner()
    return _shared
