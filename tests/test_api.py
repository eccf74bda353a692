"""Tests for the one-call API front-end."""

import numpy as np
import pytest

from repro.algorithms.reference import bfs_levels
from repro.api import ENGINES, make_engine, run_bfs, run_queries
from repro.core.config import FastBFSConfig
from repro.core.engine import FastBFSEngine
from repro.engines.graphchi import GraphChiEngine
from repro.engines.xstream import XStreamEngine
from repro.errors import ConfigError, EngineError
from repro.graph.generators import rmat_graph
from repro.storage.machine import Machine


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=9, edge_factor=8, seed=17)


class TestMakeEngine:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fastbfs", FastBFSEngine),
            ("fast-bfs", FastBFSEngine),
            ("fastbfs-2disk", FastBFSEngine),
            ("x-stream", XStreamEngine),
            ("xstream", XStreamEngine),
            ("graphchi", GraphChiEngine),
        ],
    )
    def test_names(self, name, cls):
        assert isinstance(make_engine(name), cls)

    def test_unknown(self):
        with pytest.raises(ConfigError):
            make_engine("pregel")

    def test_engine_list_constant(self):
        for name in ENGINES:
            make_engine(name)

    def test_no_config_is_the_rows_default(self):
        assert make_engine("fastbfs").config == FastBFSConfig()
        assert make_engine("fastbfs-2disk").config == FastBFSConfig(rotate_streams=True)


class TestRunBfs:
    def test_default_machine(self, graph):
        root = int(np.argmax(graph.out_degrees()))
        result = run_bfs(graph, root=root)
        assert np.array_equal(result.levels, bfs_levels(graph, root))
        assert result.engine == "fastbfs"

    def test_machine_kwargs(self, graph):
        result = run_bfs(graph, engine="x-stream", memory="8MB", cores=2)
        assert result.engine == "x-stream"

    def test_explicit_machine(self, graph):
        machine = Machine.commodity_server(memory="8MB")
        result = run_bfs(graph, machine=machine)
        assert result.execution_time > 0

    def test_machine_and_kwargs_conflict(self, graph):
        with pytest.raises(ConfigError):
            run_bfs(graph, machine=Machine.commodity_server(), memory="1GB")

    def test_engine_instance_passthrough(self, graph):
        engine = GraphChiEngine()
        result = run_bfs(graph, engine=engine, memory="8MB")
        assert result.engine == "graphchi"

    def test_all_engines_same_levels(self, graph):
        root = int(np.argmax(graph.out_degrees()))
        levels = [
            run_bfs(graph, engine=e, root=root, memory="8MB").levels
            for e in ENGINES
        ]
        for lv in levels[1:]:
            assert np.array_equal(lv, levels[0])

    def test_summary_smoke(self, graph):
        text = run_bfs(graph, memory="8MB").summary()
        assert "fastbfs" in text

    def test_multi_source_roots(self, graph):
        result = run_bfs(graph, roots=[0, 1], memory="8MB")
        assert result.levels[0] == 0 and result.levels[1] == 0


class TestRunQueries:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_matches_single_runs(self, graph, engine):
        roots = [0, int(np.argmax(graph.out_degrees()))]
        batch = run_queries(graph, roots, engine=engine, memory="8MB")
        assert batch.num_queries == 2
        for root, q in zip(roots, batch.queries):
            single = run_bfs(graph, engine=engine, root=root, memory="8MB")
            assert np.array_equal(single.levels, q.levels)

    def test_multi_source_entry(self, graph):
        batch = run_queries(graph, [0, [0, 1]], memory="8MB")
        assert batch.queries[1].levels[1] == 0

    def test_batched_mode_matches_serial(self, graph):
        roots = [0, int(np.argmax(graph.out_degrees()))]
        serial = run_queries(graph, roots, memory="8MB")
        batched = run_queries(graph, roots, memory="8MB", mode="batched")
        assert batched.mode == "batched"
        assert batched.edges_scanned < serial.edges_scanned
        for qs, qb in zip(serial.queries, batched.queries):
            assert np.array_equal(qs.levels, qb.levels)
            assert np.array_equal(qs.parents, qb.parents)

    def test_machine_and_kwargs_conflict(self, graph):
        with pytest.raises(ConfigError):
            run_queries(
                graph, [0], machine=Machine.commodity_server(), memory="1GB"
            )

    def test_empty_roots_rejected_at_boundary(self, graph):
        """Regression: an empty batch must fail before touching the engine."""
        machine = Machine.commodity_server()
        with pytest.raises(EngineError, match="at least one root"):
            run_queries(graph, [], machine=machine)
        # the typed error fired at the API boundary: the machine is pristine
        assert machine.clock.now == 0.0
        assert len(machine.vfs) == 0

    def test_bad_root_rejected_before_staging(self, graph):
        machine = Machine.commodity_server()
        with pytest.raises(EngineError, match="out of range"):
            run_queries(graph, [0, graph.num_vertices], machine=machine)
        assert machine.clock.now == 0.0
        assert len(machine.vfs) == 0
