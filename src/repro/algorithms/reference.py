"""In-memory reference BFS and convergence profiling.

Level-synchronous BFS over a CSR adjacency, fully vectorized per level.
This is the ground truth for every engine test, and the source of the
per-level "useful edges" profile the paper's Fig. 1 illustrates (the
fraction of edges whose source joins the frontier at each level — exactly
the edges FastBFS trims).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

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
    levels, _ = bfs_parents_and_levels(graph, root)
    return levels


def bfs_parents_and_levels(
    graph: Union[Graph, CSRGraph], root: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS returning (levels, parents).

    Parents are *some* valid BFS parent (lowest neighbor id wins, making the
    result deterministic); the root's parent is the NO_PARENT sentinel, as
    are unreachable vertices'.
    """
    csr = _as_csr(graph)
    n = csr.num_vertices
    if not 0 <= root < n:
        raise GraphError(f"root {root} out of range for {n} vertices")
    levels = np.full(n, UNVISITED, dtype=np.int32)
    parents = np.full(n, NO_PARENT, dtype=np.uint32)
    levels[root] = 0
    frontier = np.array([root], dtype=np.int64)
    depth = 0
    while len(frontier):
        starts = csr.indptr[frontier]
        lengths = csr.indptr[frontier + 1] - starts
        neighbors = csr.frontier_neighbors(frontier)
        sources = np.repeat(frontier, lengths)
        fresh = levels[neighbors] == UNVISITED
        cand_dst = neighbors[fresh]
        cand_src = sources[fresh]
        if len(cand_dst) == 0:
            break
        # Deterministic parent: sort by (dst, src), keep the first per dst.
        order = np.lexsort((cand_src, cand_dst))
        cand_dst = cand_dst[order]
        cand_src = cand_src[order]
        first = np.ones(len(cand_dst), dtype=bool)
        first[1:] = cand_dst[1:] != cand_dst[:-1]
        new_dst = cand_dst[first]
        depth += 1
        levels[new_dst] = depth
        parents[new_dst] = cand_src[first]
        frontier = new_dst
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

    def total_scanned_without_trimming(self) -> int:
        """Edges X-Stream scans: the whole list, every level."""
        return self.num_edges * len(self.scatter_edges)

    def total_scanned_with_trimming(self) -> int:
        """Edges FastBFS scans: the shrinking stay list."""
        left = self.num_edges
        scanned = 0
        for scattered in self.scatter_edges:
            scanned += left
            left -= scattered
        return scanned


def level_profile(graph: Union[Graph, CSRGraph], root: int) -> LevelProfile:
    """Compute the BFS convergence profile from ``root``."""
    csr = _as_csr(graph)
    levels = bfs_levels(csr, root)
    depth = int(levels.max())
    out_degrees = (csr.indptr[1:] - csr.indptr[:-1]).astype(np.int64)
    frontier_sizes: List[int] = []
    scatter_edges: List[int] = []
    for d in range(depth + 1):
        mask = levels == d
        frontier_sizes.append(int(mask.sum()))
        scatter_edges.append(int(out_degrees[mask].sum()))
    return LevelProfile(
        root=root,
        num_vertices=csr.num_vertices,
        num_edges=csr.num_edges,
        frontier_sizes=frontier_sizes,
        scatter_edges=scatter_edges,
    )
