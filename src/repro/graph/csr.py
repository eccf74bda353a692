"""Compressed-sparse-row adjacency, used by the in-memory reference BFS.

Built fully vectorized (counting sort on sources); the engines never touch
this — it exists so every out-of-core result can be checked against a
straightforward in-memory traversal.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph


class CSRGraph:
    """Out-adjacency in CSR form: ``indices[indptr[v]:indptr[v+1]]``."""

    def __init__(self, num_vertices: int, indptr: np.ndarray, indices: np.ndarray):
        if len(indptr) != num_vertices + 1:
            raise GraphError("indptr length must be num_vertices + 1")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphError("indptr must start at 0 and end at len(indices)")
        self.num_vertices = num_vertices
        self.indptr = indptr
        self.indices = indices

    @staticmethod
    def from_graph(graph: Graph) -> "CSRGraph":
        src = graph.edges["src"]
        dst = graph.edges["dst"]
        counts = np.bincount(src, minlength=graph.num_vertices)
        indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        order = np.argsort(src, kind="stable")
        indices = dst[order].astype(np.int64)
        return CSRGraph(graph.num_vertices, indptr, indices)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def frontier_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of every vertex in ``frontier``.

        Vectorized slice-gather: no Python-level loop over vertices.
        """
        starts = self.indptr[frontier]
        stops = self.indptr[frontier + 1]
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Classic repeat/cumsum gather of ragged slices.
        out_offsets = np.zeros(len(frontier) + 1, dtype=np.int64)
        np.cumsum(lengths, out=out_offsets[1:])
        idx = np.arange(total, dtype=np.int64)
        which = np.searchsorted(out_offsets[1:], idx, side="right")
        within = idx - out_offsets[which]
        return self.indices[starts[which] + within]
