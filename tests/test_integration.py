"""Cross-engine integration tests: all engines agree with the reference.

These are the DESIGN.md correctness obligations: every engine's BFS levels
equal the in-memory CSR reference on directed/undirected graphs, any
partition count, any buffer size, trimming on or off, including
hypothesis-generated random graphs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    fresh_machine,
    graph_from_pairs,
    hub_root,
    small_engine_config,
    small_fastbfs_config,
)

from repro.algorithms.reference import bfs_levels
from repro.algorithms.validation import validate_bfs_result
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import (
    attach_whiskers,
    grid_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
    star_graph,
)


def all_engines():
    return [
        ("fastbfs", FastBFSEngine(small_fastbfs_config())),
        ("fastbfs-no-trim", FastBFSEngine(small_fastbfs_config(trim_enabled=False))),
        ("x-stream", XStreamEngine(small_engine_config())),
        ("graphchi", GraphChiEngine(GraphChiConfig(num_shards=3))),
    ]


GRAPHS = {
    "rmat": lambda: rmat_graph(scale=9, edge_factor=8, seed=21),
    "rmat-sym": lambda: rmat_graph(scale=8, edge_factor=4, seed=3).symmetrized(),
    "powerlaw": lambda: powerlaw_graph(800, 8000, out_exponent=2.0, seed=4),
    "grid": lambda: grid_graph(16, 16),
    "star-in": lambda: star_graph(64, out=False),
    "whiskered": lambda: attach_whiskers(
        rmat_graph(scale=8, edge_factor=8, seed=5), 12, 3, 6, seed=6
    ),
    "self-loops": lambda: graph_from_pairs(
        5, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (3, 4)]
    ),
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("engine_name", [e[0] for e in all_engines()])
def test_engine_graph_matrix(graph_name, engine_name):
    graph = GRAPHS[graph_name]()
    engine = dict(all_engines())[engine_name]
    root = hub_root(graph)
    ref = bfs_levels(graph, root)
    result = engine.run(graph, fresh_machine(), root=root)
    assert np.array_equal(result.levels, ref), (
        f"{engine_name} wrong on {graph_name}"
    )
    report = validate_bfs_result(graph, root, result.levels, result.parents, ref)
    assert report.ok, report.errors


@given(
    n=st.integers(min_value=2, max_value=120),
    m_factor=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    partitions=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_property_fastbfs_equals_reference(n, m_factor, seed, partitions):
    graph = random_graph(n, m_factor * n, seed=seed)
    root = seed % n
    ref = bfs_levels(graph, root)
    engine = FastBFSEngine(small_fastbfs_config(num_partitions=partitions))
    result = engine.run(graph, fresh_machine(), root=root)
    assert np.array_equal(result.levels, ref)


@given(
    n=st.integers(min_value=2, max_value=80),
    seed=st.integers(min_value=0, max_value=10**6),
    shards=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=15, deadline=None)
def test_property_graphchi_equals_reference(n, seed, shards):
    graph = random_graph(n, 3 * n, seed=seed)
    root = seed % n
    ref = bfs_levels(graph, root)
    engine = GraphChiEngine(GraphChiConfig(num_shards=shards))
    result = engine.run(graph, fresh_machine(), root=root)
    assert np.array_equal(result.levels, ref)


def test_all_engines_agree_pairwise(rmat12):
    root = hub_root(rmat12)
    results = {}
    for name, engine in all_engines():
        results[name] = engine.run(rmat12, fresh_machine(), root=root).levels
    baseline = results.pop("x-stream")
    for name, levels in results.items():
        assert np.array_equal(levels, baseline), name


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


@pytest.mark.parametrize(
    "engine_name", ["fastbfs", "fastbfs-no-trim", "x-stream"]
)
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
