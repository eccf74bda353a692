"""FastBFS reproduction library.

A full reimplementation of *FastBFS: Fast Breadth-First Graph Search on a
Single Server* (Cheng et al., IPDPS 2016): the FastBFS engine with
asynchronous trimming, its X-Stream and GraphChi baselines, and the
simulated single-server storage substrate they run on (real data path,
simulated time path).  See DESIGN.md for the architecture and
EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import rmat_graph, run_bfs

    graph = rmat_graph(scale=14, edge_factor=16, seed=7)
    result = run_bfs(graph, engine="fastbfs", memory="64MB")
    print(result.summary())
"""

from repro.algorithms import (
    BFSAlgorithm,
    UnitSSSPAlgorithm,
    BFSAnswerChecker,
    WCCAlgorithm,
    bfs_levels,
    bfs_parents_and_levels,
    level_profile,
    teps,
    validate_bfs_result,
)
from repro.api import make_engine, profile_trace, run_bfs
from repro.core import FastBFSConfig, FastBFSEngine
from repro.engines import (
    EngineResult,
    GraphChiConfig,
    GraphChiEngine,
    XStreamEngine,
)
from repro.errors import ReproError
from repro.graph import (
    Graph,
    build_dataset,
    grid_graph,
    load_graph,
    path_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
    save_graph,
    star_graph,
)
from repro.storage import DeviceSpec, Machine

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # graphs
    "Graph",
    "rmat_graph",
    "random_graph",
    "powerlaw_graph",
    "grid_graph",
    "path_graph",
    "star_graph",
    "build_dataset",
    "load_graph",
    "save_graph",
    # machines
    "Machine",
    "DeviceSpec",
    # engines
    "FastBFSEngine",
    "FastBFSConfig",
    "XStreamEngine",
    "GraphChiEngine",
    "GraphChiConfig",
    "EngineResult",
    "make_engine",
    "run_bfs",
    "profile_trace",
    # algorithms
    "BFSAlgorithm",
    "WCCAlgorithm",
    "UnitSSSPAlgorithm",
    "bfs_levels",
    "bfs_parents_and_levels",
    "level_profile",
    "BFSAnswerChecker",
    "validate_bfs_result",
    "teps",
]
