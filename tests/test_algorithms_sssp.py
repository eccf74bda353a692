"""Tests for weighted SSSP (streaming Bellman-Ford) and its oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import (
    fresh_machine,
    graph_from_pairs,
    hub_root,
    small_fastbfs_config,
)

from repro.algorithms.reference import bfs_levels
from repro.algorithms.sssp import (
    UNREACHED,
    WeightedSSSPAlgorithm,
    hash_weights,
    reference_sssp,
)
from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.errors import EngineError
from repro.graph.generators import path_graph, random_graph, rmat_graph
from repro.graph.graph import Graph


def unit_weights(src, dst):
    """All-ones weights: SSSP becomes BFS."""
    return np.ones(len(src), dtype=np.uint32)


class TestWeightFunctions:
    def test_hash_weights_deterministic_and_in_range(self):
        fn = hash_weights(max_weight=8)
        src = np.arange(1000, dtype=np.uint32)
        dst = (src * 7 + 3).astype(np.uint32)
        w1, w2 = fn(src, dst), fn(src, dst)
        assert np.array_equal(w1, w2)
        assert w1.min() >= 1 and w1.max() <= 8
        assert len(np.unique(w1)) > 1  # actually varies

    def test_bad_max_weight(self):
        with pytest.raises(EngineError):
            hash_weights(0)


class TestReferenceSSSP:
    def test_weighted_path(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

        def fn(src, dst):
            # 0->3 direct costs 10; the 3-hop path costs 3.
            w = np.ones(len(src), dtype=np.uint32)
            w[(src == 0) & (dst == 3)] = 10
            return w

        dist = reference_sssp(g, 0, fn)
        assert dist.tolist() == [0, 1, 2, 3]

    def test_unreachable(self):
        g = graph_from_pairs(3, [(0, 1)])
        dist = reference_sssp(g, 0, unit_weights)
        assert dist[2] == UNREACHED

    def test_unit_weights_equal_bfs(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=3)
        root = hub_root(g)
        dist = reference_sssp(g, root, unit_weights).astype(np.int64)
        dist[dist == int(UNREACHED)] = -1
        assert np.array_equal(dist, bfs_levels(g, root))

    def test_bad_root(self):
        with pytest.raises(EngineError):
            reference_sssp(path_graph(3), 9)


class TestEngineSSSP:
    @pytest.mark.parametrize("engine_cls", [FastBFSEngine, XStreamEngine])
    def test_matches_reference(self, engine_cls):
        g = rmat_graph(scale=9, edge_factor=8, seed=5)
        root = hub_root(g)
        algo = WeightedSSSPAlgorithm(hash_weights(6))
        engine = engine_cls(small_fastbfs_config())
        result = engine.run(g, fresh_machine(), algorithm=algo, root=root)
        expected = reference_sssp(g, root, hash_weights(6))
        assert np.array_equal(result.output["distance"], expected)

    def test_no_trimming_happens(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=1)
        engine = FastBFSEngine(small_fastbfs_config())
        result = engine.run(
            g, fresh_machine(), algorithm=WeightedSSSPAlgorithm(),
            root=hub_root(g),
        )
        assert result.extras["stay_files_written"] == 0.0

    def test_shorter_paths_replace_longer(self):
        """Label-correcting: a vertex improves after first being settled."""
        g = graph_from_pairs(4, [(0, 3), (0, 1), (1, 2), (2, 3)])

        def fn(src, dst):
            w = np.ones(len(src), dtype=np.uint32)
            w[(src == 0) & (dst == 3)] = 9
            return w

        result = FastBFSEngine(small_fastbfs_config(num_partitions=2)).run(
            g, fresh_machine(), algorithm=WeightedSSSPAlgorithm(fn), root=0
        )
        assert result.output["distance"][3] == 3

    @given(
        n=st.integers(min_value=2, max_value=50),
        seed=st.integers(min_value=0, max_value=10**6),
        max_w=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_matches_reference(self, n, seed, max_w):
        g = random_graph(n, 4 * n, seed=seed)
        root = seed % n
        fn = hash_weights(max_w)
        engine = XStreamEngine(small_fastbfs_config(num_partitions=3))
        result = engine.run(
            g, fresh_machine(), algorithm=WeightedSSSPAlgorithm(fn), root=root
        )
        assert np.array_equal(
            result.output["distance"], reference_sssp(g, root, fn)
        )

    def test_scipy_cross_check(self):
        import scipy.sparse as sp
        import scipy.sparse.csgraph as csgraph

        g = rmat_graph(scale=8, edge_factor=6, seed=11)
        g = Graph(g.num_vertices, np.unique(g.edges))  # no parallel edges
        root = hub_root(g)
        fn = hash_weights(5)
        w = fn(g.edges["src"], g.edges["dst"]).astype(np.float64)
        matrix = sp.coo_matrix(
            (w, (g.edges["src"], g.edges["dst"])),
            shape=(g.num_vertices, g.num_vertices),
        ).tocsr()
        expected = csgraph.dijkstra(matrix, indices=root)
        result = FastBFSEngine(small_fastbfs_config()).run(
            g, fresh_machine(), algorithm=WeightedSSSPAlgorithm(fn), root=root
        )
        got = result.output["distance"].astype(np.float64)
        got[got == float(UNREACHED)] = np.inf
        assert np.allclose(got, expected)
