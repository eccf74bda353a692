"""The Graph500 BFS benchmark protocol as a library.

The paper frames BFS as the Graph500 kernel (§I); this module implements
the benchmark's measurement protocol over any of the engines: sample roots
with positive out-degree, run one timed BFS per root on a fresh machine,
validate every search tree, and report the TEPS statistics (the official
figure of merit is the harmonic mean).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from repro.algorithms.validation import BFSAnswerChecker, teps
from repro.errors import EngineError, ValidationError
from repro.graph.graph import Graph
from repro.utils.rng import SeedLike, rng_from_seed


def sample_roots(
    graph: Graph, count: int, seed: SeedLike = 2
) -> np.ndarray:
    """Graph500 root sampling: distinct vertices with at least one out-edge."""
    if count < 1:
        raise EngineError(f"count must be >= 1, got {count}")
    rng = rng_from_seed(seed)
    candidates = np.flatnonzero(graph.out_degrees() > 0)
    if len(candidates) == 0:
        raise EngineError("graph has no vertex with out-edges")
    return rng.choice(candidates, size=min(count, len(candidates)),
                      replace=False)


@dataclass
class Graph500Run:
    """One validated search of the protocol."""

    root: int
    execution_time: float
    visited: int
    depth: int
    teps: float


@dataclass
class Graph500Result:
    """Aggregate protocol outcome."""

    runs: List[Graph500Run] = field(default_factory=list)

    @property
    def teps_values(self) -> np.ndarray:
        return np.array([r.teps for r in self.runs])

    @property
    def harmonic_mean_teps(self) -> float:
        values = self.teps_values
        if len(values) == 0:
            return 0.0
        return float(len(values) / np.sum(1.0 / values))

    @property
    def min_teps(self) -> float:
        return float(self.teps_values.min()) if self.runs else 0.0

    @property
    def max_teps(self) -> float:
        return float(self.teps_values.max()) if self.runs else 0.0

    def summary(self) -> str:
        return (
            f"{len(self.runs)} validated searches; TEPS "
            f"min={self.min_teps:,.0f} max={self.max_teps:,.0f} "
            f"harmonic mean={self.harmonic_mean_teps:,.0f}"
        )


def run_graph500(
    graph: Graph,
    engine_factory: Callable[[], object],
    machine_factory: Callable[[], object],
    num_roots: int = 64,
    seed: SeedLike = 2,
    validate: bool = True,
) -> Graph500Result:
    """Execute the protocol: one timed, validated BFS per sampled root.

    ``engine_factory`` / ``machine_factory`` must produce a fresh engine /
    machine per search (machines are single-use).  Raises
    :class:`ValidationError` on the first invalid search tree.
    """
    roots = sample_roots(graph, num_roots, seed)
    checker = BFSAnswerChecker(graph) if validate else None
    result = Graph500Result()
    for root in roots:
        engine = engine_factory()
        machine = machine_factory()
        run = engine.run(graph, machine, root=int(root))
        if checker is not None:
            report = checker.check(int(root), run.levels, run.parents)
            if not report.ok:
                raise ValidationError(
                    f"root {int(root)}: {'; '.join(report.errors[:3])}"
                )
        levels = run.levels
        visited = int((levels >= 0).sum())
        result.runs.append(
            Graph500Run(
                root=int(root),
                execution_time=run.execution_time,
                visited=visited,
                depth=int(levels.max()),
                teps=teps(graph, levels, run.execution_time),
            )
        )
    return result
