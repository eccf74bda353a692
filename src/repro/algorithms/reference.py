"""In-memory reference BFS and convergence profiling.

Level-synchronous BFS over a CSR adjacency, fully vectorized per level.
This is the ground truth for every engine test, and the source of the
per-level "useful edges" profile the paper's Fig. 1 illustrates (the
fraction of edges whose source joins the frontier at each level — exactly
the edges FastBFS trims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union, cast

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, UNVISITED


def _as_csr(graph: Union[Graph, CSRGraph]) -> CSRGraph:
    if isinstance(graph, CSRGraph):
        return graph
    return CSRGraph.from_graph(graph)


def bfs_levels(graph: Union[Graph, CSRGraph], root: int) -> np.ndarray:
    """BFS levels from ``root``; unreachable vertices get -1."""
    levels, _ = _bfs(_as_csr(graph), root, with_parents=False)
    return levels


def bfs_parents_and_levels(
    graph: Union[Graph, CSRGraph], root: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS returning (levels, parents).

    Parents are *some* valid BFS parent (lowest neighbor id wins, making the
    result deterministic); the root's parent is the NO_PARENT sentinel, as
    are unreachable vertices'.
    """
    levels, parents = _bfs(_as_csr(graph), root, with_parents=True)
    return levels, cast(np.ndarray, parents)


def _bfs(
    csr: CSRGraph, root: int, with_parents: bool
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """The level loop behind both public functions.

    Each level is a few linear passes over the frontier's adjacency, with
    no sort of it: the unvisited neighbours take the new level, each keeps
    its lowest-id frontier source as parent (NO_PARENT is above every
    vertex id, so ``np.minimum.at`` picks it), and the next frontier is
    every vertex at the new level, in ascending order.
    """
    n = csr.num_vertices
    if not 0 <= root < n:
        raise GraphError(f"root {root} out of range for {n} vertices")
    levels = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, NO_PARENT, dtype=np.uint32) if with_parents else None
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while len(frontier):
        neighbors = csr.frontier_neighbors(frontier)
        fresh = np.flatnonzero(levels.take(neighbors) == UNVISITED)
        if len(fresh) == 0:
            break
        reached = neighbors.take(fresh)
        depth += 1
        levels[reached] = depth
        if parents is not None:
            lengths = csr.indptr.take(frontier + 1) - csr.indptr.take(frontier)
            sources = np.repeat(frontier.astype(np.uint32), lengths)
            np.minimum.at(parents, reached, sources.take(fresh))
        # The next frontier, ascending.  Scanning all V levels costs O(V)
        # per level, which on a long path or grid outweighs sorting the
        # few vertices a small level reached.
        if len(reached) < n >> 6:
            frontier = np.unique(reached)
        else:
            frontier = np.flatnonzero(levels == depth)
    return levels, parents


@dataclass
class LevelProfile:
    """Per-level BFS convergence data (the Fig. 1 phenomenon).

    ``frontier_sizes[i]`` — vertices discovered at level i;
    ``scatter_edges[i]`` — out-edges of those vertices, i.e. the edges that
    generate updates (and get trimmed) at scatter level i;
    ``remaining_edges[i]`` — edges still in the stay list *after* scatter
    level i under the paper's trimming rule.
    """

    root: int
    num_vertices: int
    num_edges: int
    frontier_sizes: List[int]
    scatter_edges: List[int]

    @property
    def depth(self) -> int:
        return len(self.frontier_sizes) - 1

    @property
    def remaining_edges(self) -> List[int]:
        out: List[int] = []
        left = self.num_edges
        for scattered in self.scatter_edges:
            left -= scattered
            out.append(left)
        return out

    @property
    def useful_fraction(self) -> List[float]:
        """Fraction of the original edge list still live entering each level."""
        fractions = []
        left = self.num_edges
        for scattered in self.scatter_edges:
            fractions.append(left / self.num_edges if self.num_edges else 0.0)
            left -= scattered
        return fractions


def level_sums(levels: np.ndarray, weights: np.ndarray) -> Tuple[List[int], List[int]]:
    """Per BFS level: how many vertices sit at it, and their ``weights`` summed.

    ``weights`` holds one non-negative integer per vertex (a degree, in
    both callers); unreached vertices count in neither list.
    """
    reached = levels != UNVISITED
    at = levels[reached]
    sums = np.bincount(at, weights=weights[reached]).astype(np.int64)
    return np.bincount(at).tolist(), sums.tolist()


def level_profile(graph: Union[Graph, CSRGraph], root: int) -> LevelProfile:
    """Compute the BFS convergence profile from ``root``."""
    csr = _as_csr(graph)
    frontier_sizes, scatter_edges = level_sums(
        bfs_levels(csr, root), csr.indptr[1:] - csr.indptr[:-1]
    )
    return LevelProfile(
        root=root,
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        frontier_sizes=frontier_sizes,
        scatter_edges=scatter_edges,
    )
