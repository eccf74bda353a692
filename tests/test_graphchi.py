"""Tests for the GraphChi baseline: shards, PSW execution, scheduling.

GraphChi's BFS and WCC answers against the in-memory reference, and its
transient-fault and crash-recovery paths, are the ``graphchi`` rows of
the contract matrix (``tests/test_contracts.py``); this file holds the
shard layout, the asynchronous schedule and the I/O shape.
"""

import numpy as np
import pytest

from tests.helpers import fresh_machine, graph_from_pairs, hub_root

from repro.algorithms.streaming import WCCAlgorithm
from repro.engines.graphchi import (
    GraphChiConfig,
    GraphChiEngine,
    build_shards,
)
from repro.errors import ConfigError, EngineError, PartitionError
from repro.graph.generators import rmat_graph


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
    def test_path_async_converges_fast(self, path):
        """Async propagation crosses many levels per pass."""
        result = GraphChiEngine(GraphChiConfig(num_shards=4)).run(
            path, fresh_machine(), root=0
        )
        assert result.levels[-1] == 63
        assert result.num_iterations < 64  # far fewer passes than levels

    def test_async_fewer_iterations_than_bsp(self, rmat10):
        from tests.helpers import small_fastbfs_config
        from repro.engines.xstream import XStreamEngine

        root = hub_root(rmat10)
        gc = GraphChiEngine(GraphChiConfig(num_shards=4)).run(
            rmat10, fresh_machine(), root=root
        )
        xs = XStreamEngine(small_fastbfs_config()).run(
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
        from tests.helpers import small_fastbfs_config
        from repro.engines.xstream import XStreamEngine

        root = hub_root(rmat10)
        gc = GraphChiEngine(
            GraphChiConfig(num_shards=4, selective_scheduling=False)
        ).run(rmat10, fresh_machine(), root=root)
        xs = XStreamEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=root
        )
        gc_per_iter = gc.report.bytes_total / gc.num_iterations
        xs_per_iter = xs.report.bytes_total / xs.num_iterations
        assert gc_per_iter > xs_per_iter


class TestWCC:
    def test_result_metadata(self):
        g = rmat_graph(scale=6, edge_factor=2, seed=1).symmetrized()
        result = GraphChiEngine(GraphChiConfig(num_shards=2)).run(
            g, fresh_machine(), algorithm=WCCAlgorithm()
        )
        assert result.algorithm == "wcc"
        assert "parent" not in result.output
