"""Graph substrate: record dtypes, containers, generators, partitioning, I/O.

Everything the engines consume comes from here: a :class:`Graph` is an
in-memory raw edge list (the same representation FastBFS stores on disk as a
binary file plus a config sidecar), generators produce the paper's synthetic
and social-network workloads at configurable scale, and
:class:`VertexPartitioning` implements the disjoint vertex-interval split
shared by FastBFS and X-Stream.
"""

from repro.graph.types import (
    EDGE_DTYPE,
    UPDATE_DTYPE,
    WEIGHTED_EDGE_DTYPE,
    make_edges,
)
from repro.graph.graph import Graph
from repro.graph.generators import (
    grid_graph,
    path_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
    star_graph,
)
from repro.graph.partition import VertexPartitioning
from repro.graph.csr import CSRGraph
from repro.graph.io import load_graph, save_graph
from repro.graph.datasets import DATASETS, DatasetSpec, build_dataset

__all__ = [
    "EDGE_DTYPE",
    "UPDATE_DTYPE",
    "WEIGHTED_EDGE_DTYPE",
    "make_edges",
    "Graph",
    "rmat_graph",
    "random_graph",
    "powerlaw_graph",
    "grid_graph",
    "path_graph",
    "star_graph",
    "VertexPartitioning",
    "CSRGraph",
    "load_graph",
    "save_graph",
    "DATASETS",
    "DatasetSpec",
    "build_dataset",
]
