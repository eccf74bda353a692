"""Compressed-sparse-row adjacency, used by the in-memory reference BFS.

Built fully vectorized (one key sort on sources); the engines never touch
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
        """The out-adjacency of ``graph``, each row in edge-list order.

        Sorting the unique keys (source, edge position) with the default
        sort gives the stable order several times faster than
        ``kind="stable"``; vertex ids are 32-bit and the edge count is
        below 2**31, so a key fits an int64.
        """
        src = graph.edges["src"]
        dst = graph.edges["dst"]
        counts = np.bincount(src, minlength=graph.num_vertices)
        indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        shift = len(src).bit_length()
        keys = (src.astype(np.int64) << shift) | np.arange(len(src), dtype=np.int64)
        keys.sort()
        order = keys & ((1 << shift) - 1)
        indices = dst.take(order).astype(np.int64)
        return CSRGraph(graph.num_vertices, indptr, indices)

    @property
    def num_edges(self) -> int:
        return len(self.indices)

    def frontier_neighbors(self, frontier: np.ndarray) -> np.ndarray:
        """Concatenated neighbor lists of every vertex in ``frontier``.

        Vectorized slice-gather: no Python-level loop over vertices.
        """
        starts = self.indptr[frontier]
        lengths = self.indptr[frontier + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # Output slot j, inside the slice of a row that starts at output
        # offset o, holds indices[row start + j - o].
        offsets = np.cumsum(lengths) - lengths
        gather = np.repeat(starts - offsets, lengths)
        gather += np.arange(total, dtype=np.int64)
        return self.indices.take(gather)
