"""Experiment runner: build datasets, run engines, memoize, compare.

Figures 4, 5 and 6 report different metrics of the *same* runs; the runner
memoizes each (dataset, engine, hardware) execution so every figure can
ask for its metric without re-running the traversal.  Roots are chosen
deterministically as the maximum-out-degree vertex (a hub, so the traversal
covers the giant component — the paper does not specify its roots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.analysis.calibration import PAPER_ENGINES, engine_kind, scaled_machine
from repro.engines.result import EngineResult
from repro.graph.datasets import build_dataset, scale_divisor
from repro.graph.graph import Graph
from repro.obs.tracer import Tracer


def default_root(graph: Graph) -> int:
    """Deterministic traversal root: the highest-out-degree vertex (a hub)."""
    return int(np.argmax(graph.out_degrees()))


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
        # (result, machine, tracer) per key; an untraced entry keeps only
        # its result, so those runs pay no span allocation and pin no machine.
        self._runs: Dict[Tuple, Tuple] = {}

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

    # ------------------------------------------------------------------
    def _setup(self, dataset, engine, disk_kind, num_disks, memory, threads,
               overrides):
        """Graph, fresh machine and configured engine for one execution.

        An engine name is its own row whatever ``num_disks`` is, so an
        ablation can place FastBFS's streams on two disks by hand.
        """
        return (
            self.graph(dataset),
            self.machine(disk_kind, num_disks, memory),
            engine_kind(engine).scaled(self.divisor, threads=threads, **overrides),
        )

    def _memoized(self, traced, dataset, engine, disk_kind, num_disks, memory,
                  threads, overrides) -> Tuple:
        key = (
            dataset,
            engine,
            disk_kind,
            num_disks,
            memory or self.memory,
            threads,
            tuple(sorted(overrides.items())),
            traced,
        )
        if key not in self._runs:
            graph, machine, eng = self._setup(
                dataset, engine, disk_kind, num_disks, memory, threads, overrides
            )
            if traced:
                machine.attach_tracer(Tracer())
            result = eng.run(graph, machine, root=self.root(dataset))
            self._runs[key] = (
                (result, machine, machine.tracer) if traced
                else (result, None, None)
            )
        return self._runs[key]

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
        return self._memoized(
            False, dataset, engine, disk_kind, num_disks, memory, threads,
            config_overrides,
        )[0]

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
        Memoized apart from the untraced run of the same arguments
        (tracing on vs. off is bit-for-bit identical in timings, but each
        entry keeps its own world's objects intact).
        """
        return self._memoized(
            True, dataset, engine, disk_kind, num_disks, memory, threads,
            config_overrides,
        )

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
        from repro.api import run_queries  # not at the top: repro.api imports this package

        graph, machine, eng = self._setup(
            dataset, engine, disk_kind, num_disks, memory, threads,
            config_overrides,
        )
        return run_queries(graph, list(roots), engine=eng, machine=machine, mode=mode)

    def compare(
        self,
        dataset: str,
        disk_kind: str = "hdd",
        engines: Iterable[str] = PAPER_ENGINES,
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
