"""Cross-engine integration tests: sanitizer-clean traversals and trimming.

Every engine's answer against the in-memory reference, on every graph
kind, partition count, placement and trimming mode, is the contract
matrix's (``tests/test_contracts.py``; ``tests/test_differential.py`` runs
its BFS ``run`` column on all 33 scenarios), and
``tests/test_fuzz_engines.py`` fuzzes random graphs under random configs.
This file holds what those do not: the DESIGN.md obligations that every
edge-centric engine passes the sanitizer end to end, and that trimming
only ever reduces I/O.
"""

import numpy as np
import pytest

from tests.helpers import (
    fresh_machine,
    hub_root,
    small_engine_config,
    small_fastbfs_config,
)

from repro.algorithms.reference import bfs_levels
from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import attach_whiskers, grid_graph, rmat_graph


def all_engines():
    return [
        ("fastbfs", FastBFSEngine(small_fastbfs_config())),
        ("fastbfs-no-trim", FastBFSEngine(small_fastbfs_config(trim_enabled=False))),
        ("x-stream", XStreamEngine(small_engine_config())),
    ]


GRAPHS = {
    "rmat": lambda: rmat_graph(scale=9, edge_factor=8, seed=21),
    "grid": lambda: grid_graph(16, 16),
    "whiskered": lambda: attach_whiskers(
        rmat_graph(scale=8, edge_factor=8, seed=5), 12, 3, 6, seed=6
    ),
}


@pytest.mark.parametrize("graph_name", ["rmat", "whiskered", "grid"])
def test_full_traversal_under_sanitizer(graph_name):
    """A full FastBFS traversal passes the sanitizer's checks, which run on
    every report (a leak, an uncharged byte or an unterminated stay writer
    would raise SanitizerError), and gives the reference answer."""
    graph = GRAPHS[graph_name]()
    root = hub_root(graph)
    engine = FastBFSEngine(small_fastbfs_config())
    result = engine.run(graph, fresh_machine(), root=root)
    assert np.array_equal(result.levels, bfs_levels(graph, root))
    assert result.extras["stay_files_written"] > 0
    assert not any(key.startswith("sanitizer") for key in result.extras)


@pytest.mark.parametrize("engine_name", [e[0] for e in all_engines()])
def test_engines_sanitize_clean_on_sanitized_machine(engine_name):
    """Every edge-centric engine obeys the simulation protocol end to end:
    its staging and query reports pass the sanitizer's checks."""
    graph = GRAPHS["rmat"]()
    engine = dict(all_engines())[engine_name]
    result = engine.run(graph, fresh_machine(), root=hub_root(graph))
    assert np.array_equal(result.levels, bfs_levels(graph, hub_root(graph)))


def test_sanitizer_clean_with_rotating_two_disk_config():
    """The Fig. 10 two-disk rotation also keeps the stay protocol clean."""
    graph = GRAPHS["rmat"]()
    machine = fresh_machine(num_disks=2)
    engine = FastBFSEngine(small_fastbfs_config(rotate_streams=True))
    result = engine.run(graph, machine, root=hub_root(graph))
    assert np.array_equal(
        result.levels, bfs_levels(graph, hub_root(graph))
    )
    assert machine.disks[1].bytes_written > 0


def test_trimming_only_reduces_io_never_changes_answer(rmat12):
    """DESIGN.md invariant: trimming is an I/O optimization, nothing more."""
    root = hub_root(rmat12)
    on = FastBFSEngine(small_fastbfs_config()).run(
        rmat12, fresh_machine(), root=root
    )
    off = FastBFSEngine(small_fastbfs_config(trim_enabled=False)).run(
        rmat12, fresh_machine(), root=root
    )
    assert np.array_equal(on.levels, off.levels)
    assert np.array_equal(on.parents, off.parents)
    assert on.report.bytes_read < off.report.bytes_read
    assert on.num_iterations == off.num_iterations
