"""Traversal algorithms and their verification tools.

* :mod:`repro.algorithms.reference` — in-memory CSR BFS, the oracle every
  out-of-core engine is checked against; plus the per-level convergence
  profile behind the paper's Fig. 1.
* :mod:`repro.algorithms.streaming` — the scatter/gather algorithm objects
  the engines execute (BFS, and the future-work extensions WCC and
  unit-weight SSSP).
* :mod:`repro.algorithms.validation` — Graph500-style BFS tree validation
  and TEPS computation.
"""

from repro.algorithms.reference import (
    bfs_levels,
    bfs_parents_and_levels,
    level_profile,
)
from repro.algorithms.streaming import (
    BFSAlgorithm,
    StreamingAlgorithm,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
)
from repro.algorithms.sssp import (
    WeightedSSSPAlgorithm,
    hash_weights,
    reference_sssp,
)
from repro.algorithms.hybrid import HybridBFSResult, hybrid_bfs
from repro.algorithms.pagerank import PageRankAlgorithm, reference_pagerank
from repro.algorithms.graph500 import (
    Graph500Result,
    run_graph500,
    sample_roots,
)
from repro.algorithms.diameter import (
    DiameterEstimate,
    double_sweep_diameter,
    engine_sweep,
)
from repro.algorithms.validation import BFSAnswerChecker, teps, validate_bfs_result

__all__ = [
    "bfs_levels",
    "bfs_parents_and_levels",
    "level_profile",
    "StreamingAlgorithm",
    "BFSAlgorithm",
    "WCCAlgorithm",
    "UnitSSSPAlgorithm",
    "WeightedSSSPAlgorithm",
    "hash_weights",
    "reference_sssp",
    "hybrid_bfs",
    "HybridBFSResult",
    "PageRankAlgorithm",
    "reference_pagerank",
    "run_graph500",
    "sample_roots",
    "Graph500Result",
    "double_sweep_diameter",
    "DiameterEstimate",
    "engine_sweep",
    "BFSAnswerChecker",
    "validate_bfs_result",
    "teps",
]
