"""The :class:`Graph` container: a named raw edge list.

This is the dataset object handed to engines.  It mirrors FastBFS's input
format — a flat binary edge list plus a config describing vertex count and
directedness — held in memory (our reproductions run at reduced scale; the
*engines* still stream it through the simulated storage layer partition by
partition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.types import EDGE_DTYPE, make_edges
from repro.utils.units import format_bytes


@dataclass
class Graph:
    """An immutable-by-convention directed edge list.

    ``directed=False`` means the edge list already contains both directions
    of every undirected edge (the friendster convention); engines always
    treat edges as directed arcs.
    """

    num_vertices: int
    edges: np.ndarray
    name: str = "graph"
    directed: bool = True
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_vertices <= 0:
            raise GraphError(f"num_vertices must be positive, got {self.num_vertices}")
        if self.edges.dtype != EDGE_DTYPE:
            raise GraphError(
                f"edges must have EDGE_DTYPE, got {self.edges.dtype}; "
                "use make_edges()/Graph.from_arrays()"
            )
        if len(self.edges):
            top = max(int(self.edges["src"].max()), int(self.edges["dst"].max()))
            if top >= self.num_vertices:
                raise GraphError(
                    f"edge endpoint {top} out of range for {self.num_vertices} vertices"
                )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_arrays(
        num_vertices: int,
        src,
        dst,
        name: str = "graph",
        directed: bool = True,
    ) -> "Graph":
        return Graph(num_vertices, make_edges(src, dst), name=name, directed=directed)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def nbytes(self) -> int:
        """On-disk size of the raw edge list."""
        return self.edges.nbytes

    def out_degrees(self) -> np.ndarray:
        return np.bincount(self.edges["src"], minlength=self.num_vertices)

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def symmetrized(self, name: Optional[str] = None) -> "Graph":
        """Add the reverse of every edge (undirected-graph convention)."""
        fwd = self.edges
        rev = np.empty(len(fwd), dtype=EDGE_DTYPE)
        rev["src"] = fwd["dst"]
        rev["dst"] = fwd["src"]
        both = np.concatenate([fwd, rev])
        return Graph(
            self.num_vertices,
            both,
            name=name or f"{self.name}-sym",
            directed=False,
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:
        return (
            f"Graph({self.name!r}, V={self.num_vertices:,}, E={self.num_edges:,}, "
            f"{format_bytes(self.nbytes)}, {'directed' if self.directed else 'undirected'})"
        )
