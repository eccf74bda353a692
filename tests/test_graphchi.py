"""Tests for the GraphChi baseline: shards, PSW execution, scheduling."""

import numpy as np
import pytest

from tests.helpers import fresh_machine, graph_from_pairs, hub_root

from repro.algorithms.reference import bfs_levels
from repro.algorithms.streaming import WCCAlgorithm
from repro.engines.graphchi import (
    GraphChiConfig,
    GraphChiEngine,
    build_shards,
)
from repro.engines.session import run_staged_queries
from repro.errors import ConfigError, EngineError, PartitionError
from repro.graph.generators import grid_graph, path_graph, rmat_graph
from repro.graph.graph import Graph
from repro.storage.faults import FaultPlan, FaultSpec
from repro.storage.machine import Machine


class TestShards:
    def test_shards_partition_in_edges(self, rmat10):
        sharded = build_shards(rmat10, 4)
        assert sum(len(s) for s in sharded.shards) == rmat10.num_edges
        for j, shard in enumerate(sharded.shards):
            lo, hi = sharded.interval_range(j)
            assert ((shard.dst >= lo) & (shard.dst < hi)).all()

    def test_shards_sorted_by_source(self, rmat10):
        sharded = build_shards(rmat10, 4)
        for shard in sharded.shards:
            assert (np.diff(shard.src) >= 0).all()

    def test_balanced_by_in_edges(self, rmat10):
        sharded = build_shards(rmat10, 4)
        sizes = [len(s) for s in sharded.shards]
        assert max(sizes) < 2.5 * (rmat10.num_edges / 4)

    def test_window_is_contiguous_block(self, rmat10):
        sharded = build_shards(rmat10, 4)
        shard = sharded.shards[1]
        lo, hi = sharded.interval_range(2)
        inside = np.flatnonzero((shard.src >= lo) & (shard.src < hi))
        assert len(inside) > 0
        assert (np.diff(inside) == 1).all()

    def test_window_counts_match_windows(self, rmat10):
        sharded = build_shards(rmat10, 3)
        counts = sharded.window_counts()
        for k, shard in enumerate(sharded.shards):
            for j in range(3):
                lo, hi = sharded.interval_range(j)
                inside = (shard.src >= lo) & (shard.src < hi)
                assert counts[k, j] == inside.sum()
        assert counts.sum() == rmat10.num_edges

    def test_single_shard(self, rmat10):
        sharded = build_shards(rmat10, 1)
        assert sharded.num_intervals == 1
        assert len(sharded.shards[0]) == rmat10.num_edges

    def test_more_shards_than_vertices_clamped(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert build_shards(g, 10).num_intervals <= 3

    def test_bad_count(self, rmat10):
        with pytest.raises(PartitionError):
            build_shards(rmat10, 0)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(threads=0),
            dict(num_shards=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            GraphChiConfig(**kwargs)

    def test_shard_planning_tracks_memory(self, rmat12):
        engine = GraphChiEngine()
        small = engine.plan_shard_count(rmat12, fresh_machine(memory=2**16))
        big = engine.plan_shard_count(rmat12, fresh_machine(memory=2**24))
        assert small > big


class TestExecution:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    def test_matches_reference(self, rmat10, shards):
        root = hub_root(rmat10)
        ref = bfs_levels(rmat10, root)
        engine = GraphChiEngine(GraphChiConfig(num_shards=shards))
        result = engine.run(rmat10, fresh_machine(), root=root)
        assert np.array_equal(result.levels, ref)

    def test_parents_valid(self, rmat10):
        from repro.algorithms.validation import validate_bfs_result

        root = hub_root(rmat10)
        result = GraphChiEngine(GraphChiConfig(num_shards=3)).run(
            rmat10, fresh_machine(), root=root
        )
        validate_bfs_result(
            rmat10, root, result.levels, result.parents
        ).raise_if_failed()

    def test_grid(self, grid):
        ref = bfs_levels(grid, 0)
        result = GraphChiEngine(GraphChiConfig(num_shards=3)).run(
            grid, fresh_machine(), root=0
        )
        assert np.array_equal(result.levels, ref)

    def test_path_async_converges_fast(self, path):
        """Async propagation crosses many levels per pass."""
        result = GraphChiEngine(GraphChiConfig(num_shards=4)).run(
            path, fresh_machine(), root=0
        )
        assert result.levels[-1] == 63
        assert result.num_iterations < 64  # far fewer passes than levels

    def test_async_fewer_iterations_than_bsp(self, rmat10):
        from tests.helpers import small_engine_config
        from repro.engines.xstream import XStreamEngine

        root = hub_root(rmat10)
        gc = GraphChiEngine(GraphChiConfig(num_shards=4)).run(
            rmat10, fresh_machine(), root=root
        )
        xs = XStreamEngine(small_engine_config()).run(
            rmat10, fresh_machine(), root=root
        )
        assert gc.num_iterations <= xs.num_iterations

    def test_multiple_roots(self, rmat10):
        result = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            rmat10, fresh_machine(), roots=[0, 5]
        )
        assert result.levels[0] == 0 and result.levels[5] == 0

    def test_unreachable_get_sentinel(self):
        g = graph_from_pairs(4, [(0, 1)])
        result = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            g, fresh_machine(), root=0
        )
        assert result.levels.tolist() == [0, 1, -1, -1]
        assert result.parents[2] == np.uint32(0xFFFFFFFF)

    def test_bad_root(self, rmat10):
        with pytest.raises(EngineError):
            GraphChiEngine().run(rmat10, fresh_machine(), root=10**9)

    def test_used_machine_rejected(self, rmat10):
        machine = fresh_machine()
        GraphChiEngine(GraphChiConfig(num_shards=2)).run(rmat10, machine, root=0)
        with pytest.raises(EngineError):
            GraphChiEngine().run(rmat10, machine, root=0)

    def test_preprocessing_reported_not_charged(self, rmat10):
        result = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        assert result.extras["preprocessing_time"] > 0
        # First measured I/O starts at t=0: preprocessing wasn't on the clock.
        assert result.iterations[0].clock_end < result.execution_time + 1e-9


class TestScheduling:
    def test_selective_reads_less(self, path):
        on = GraphChiEngine(GraphChiConfig(num_shards=4)).run(
            path, fresh_machine(), root=0
        )
        off = GraphChiEngine(
            GraphChiConfig(num_shards=4, selective_scheduling=False)
        ).run(path, fresh_machine(), root=0)
        assert on.report.bytes_read < off.report.bytes_read
        assert np.array_equal(on.levels, off.levels)

    def test_scheduler_stops_without_extra_pass(self, star):
        """Leaves have no out-edges: nothing is scheduled after pass 0."""
        result = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            star, fresh_machine(), root=0
        )
        assert result.report.bytes_written > 0
        assert result.num_iterations == 1


class TestIOModel:
    def test_reads_and_writes_both_charged(self, rmat10):
        result = GraphChiEngine(GraphChiConfig(num_shards=3)).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        assert result.report.bytes_read > rmat10.num_edges * 8
        assert result.report.bytes_written > 0

    def test_heavier_than_xstream_per_iteration(self, rmat10):
        from tests.helpers import small_engine_config
        from repro.engines.xstream import XStreamEngine

        root = hub_root(rmat10)
        gc = GraphChiEngine(
            GraphChiConfig(num_shards=4, selective_scheduling=False)
        ).run(rmat10, fresh_machine(), root=root)
        xs = XStreamEngine(small_engine_config()).run(
            rmat10, fresh_machine(), root=root
        )
        gc_per_iter = gc.report.bytes_total / gc.num_iterations
        xs_per_iter = xs.report.bytes_total / xs.num_iterations
        assert gc_per_iter > xs_per_iter


class TestWCC:
    def test_labels_match_networkx(self):
        import networkx as nx

        g = rmat_graph(scale=8, edge_factor=2, seed=9).symmetrized()
        result = GraphChiEngine(GraphChiConfig(num_shards=3)).run(
            g, fresh_machine(), algorithm=WCCAlgorithm()
        )
        labels = result.output["label"]
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.num_vertices))
        nxg.add_edges_from(zip(g.edges["src"].tolist(), g.edges["dst"].tolist()))
        for comp in nx.connected_components(nxg):
            comp = list(comp)
            assert len(set(labels[comp].tolist())) == 1
            assert labels[comp[0]] == min(comp)

    def test_matches_streaming_wcc(self):
        from tests.helpers import small_fastbfs_config
        from repro.core.engine import FastBFSEngine

        g = rmat_graph(scale=7, edge_factor=3, seed=4).symmetrized()
        chi = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            g, fresh_machine(), algorithm=WCCAlgorithm()
        )
        stream = FastBFSEngine(small_fastbfs_config(num_partitions=3)).run(
            g, fresh_machine(), algorithm=WCCAlgorithm(), root=0
        )
        assert np.array_equal(chi.output["label"], stream.output["label"])

    def test_result_metadata(self):
        g = rmat_graph(scale=6, edge_factor=2, seed=1).symmetrized()
        result = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            g, fresh_machine(), algorithm=WCCAlgorithm()
        )
        assert result.algorithm == "wcc"
        assert "parent" not in result.output


class TestFaultPlan:
    """GraphChi retries and recovers through the shared session, like the
    edge-centric engines."""

    @pytest.fixture(scope="class")
    def graph(self):
        return rmat_graph(scale=12, edge_factor=16, seed=3)

    @pytest.fixture(scope="class")
    def clean(self, graph):
        return GraphChiEngine().run(graph, self._machine(), root=0)

    @staticmethod
    def _machine(*specs, **plan):
        fault_plan = FaultPlan(specs=specs, **plan) if specs else None
        return Machine.commodity_server(memory="256KB", fault_plan=fault_plan)

    def test_transient_faults_are_retried(self, graph, clean):
        machine = self._machine(
            FaultSpec(kind="transient_error", probability=0.2),
            seed=1, max_attempts=50,
        )
        faulted = GraphChiEngine().run(graph, machine, root=0)
        assert np.array_equal(faulted.levels, clean.levels)
        assert np.array_equal(faulted.parents, clean.parents)
        assert machine.fault_injector.total("io_retries") > 0

    def test_crash_recovers_through_the_session(self, graph, clean):
        machine = self._machine(
            FaultSpec(kind="crash", probability=0.05, max_fires=1), seed=2
        )
        engine = GraphChiEngine()
        staged = engine.stage(graph, machine)
        checkpoint = machine.checkpoint()
        (query,) = run_staged_queries(
            engine, staged, checkpoint, [0], max_recoveries=1
        ).queries
        assert query.extras["recovered"] == 1.0
        assert np.array_equal(query.levels, clean.levels)
        assert np.array_equal(query.parents, clean.parents)
        assert machine.fault_injector.total("crash_recoveries") == 1
