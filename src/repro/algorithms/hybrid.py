"""Direction-optimizing (hybrid) BFS — Beamer et al., the paper's ref [18].

The paper's related-work section singles out direction-optimizing search:
when the frontier is huge, scanning *unvisited* vertices for a visited
in-neighbor ("bottom-up") touches far fewer edges than expanding the
frontier ("top-down").  Both directions pick the lowest-id parent on the
previous level, so they find exactly the reference search's levels and
parents; only the amount of work differs.  This module is therefore the
reference BFS plus Beamer's switch, priced per level from the levels and
two degree counts:

* top-down at level ``d`` examines the out-edges of level ``d``;
* bottom-up examines the in-edges of every vertex deeper than ``d`` or
  unreached (each scans its in-neighbors for one at level ``d``).

Switching heuristic (Beamer's alpha/beta rule):

* go bottom-up when ``edges_from_frontier > remaining_edges / alpha``;
* return top-down when ``frontier_size < num_vertices / beta``.

:class:`HybridBFSResult` reports the direction and the edges examined per
level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

import numpy as np

from repro.algorithms.reference import bfs_parents_and_levels, level_sums
from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph


@dataclass
class HybridBFSResult:
    """Levels/parents plus the per-level direction trace."""

    levels: np.ndarray
    parents: np.ndarray
    directions: List[str] = field(default_factory=list)  # "top-down"/"bottom-up"
    edges_examined: List[int] = field(default_factory=list)

    @property
    def depth(self) -> int:
        visited = self.levels >= 0
        return int(self.levels[visited].max()) if visited.any() else 0

    @property
    def total_edges_examined(self) -> int:
        return sum(self.edges_examined)

    @property
    def used_bottom_up(self) -> bool:
        return "bottom-up" in self.directions


def hybrid_bfs(
    graph: Union[Graph],
    root: int,
    alpha: float = 14.0,
    beta: float = 24.0,
) -> HybridBFSResult:
    """Direction-optimizing BFS from ``root``.

    ``alpha`` and ``beta`` are Beamer's switching constants; the defaults
    are the published ones.  Works on directed graphs (bottom-up scans
    in-edges, so correctness does not require symmetry).
    """
    if not isinstance(graph, Graph):
        raise GraphError("hybrid_bfs needs a Graph (it counts in-degrees)")
    n = graph.num_vertices
    if not 0 <= root < n:
        raise GraphError(f"root {root} out of range for {n} vertices")
    if alpha <= 0 or beta <= 0:
        raise GraphError("alpha and beta must be positive")
    csr = CSRGraph.from_graph(graph)
    levels, parents = bfs_parents_and_levels(csr, root)
    sizes, out_sums = level_sums(levels, csr.indptr[1:] - csr.indptr[:-1])
    _, in_sums = level_sums(levels, np.bincount(graph.edges["dst"], minlength=n))
    result = HybridBFSResult(levels=levels, parents=parents)
    remaining_edges = unvisited_in_edges = graph.num_edges
    for size, frontier_edges, level_in_edges in zip(sizes, out_sums, in_sums):
        unvisited_in_edges -= level_in_edges
        bottom_up = (
            frontier_edges > remaining_edges / alpha and size >= n / beta
        )
        result.directions.append("bottom-up" if bottom_up else "top-down")
        result.edges_examined.append(
            unvisited_in_edges if bottom_up else frontier_edges
        )
        remaining_edges -= frontier_edges
    return result
