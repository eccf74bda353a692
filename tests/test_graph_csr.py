"""Tests for the CSR adjacency used by the reference BFS."""

import numpy as np
import pytest

from tests.helpers import graph_from_pairs

from repro.errors import GraphError
from repro.graph.csr import CSRGraph
from repro.graph.generators import random_graph


def neighbors(csr, v):
    return csr.indices[csr.indptr[v] : csr.indptr[v + 1]]


class TestBuild:
    def test_neighbors(self):
        g = graph_from_pairs(4, [(0, 1), (0, 3), (2, 1)])
        csr = CSRGraph.from_graph(g)
        assert sorted(neighbors(csr, 0).tolist()) == [1, 3]
        assert neighbors(csr, 1).tolist() == []
        assert neighbors(csr, 2).tolist() == [1]

    def test_degrees(self):
        g = graph_from_pairs(3, [(0, 1), (0, 2), (0, 0)])
        csr = CSRGraph.from_graph(g)
        assert np.diff(csr.indptr).tolist() == [3, 0, 0]

    def test_num_edges(self):
        g = random_graph(50, 333, seed=1)
        assert CSRGraph.from_graph(g).num_edges == 333

    def test_multi_edges_kept(self):
        g = graph_from_pairs(2, [(0, 1), (0, 1)])
        assert np.diff(CSRGraph.from_graph(g).indptr)[0] == 2

    def test_validation(self):
        with pytest.raises(GraphError):
            CSRGraph(2, np.array([0, 1]), np.array([1]))  # indptr too short
        with pytest.raises(GraphError):
            CSRGraph(1, np.array([0, 2]), np.array([0]))  # end mismatch


class TestFrontierNeighbors:
    def test_matches_python_loop(self):
        g = random_graph(200, 2000, seed=3)
        csr = CSRGraph.from_graph(g)
        rng = np.random.default_rng(0)
        frontier = np.unique(rng.integers(0, 200, 30)).astype(np.int64)
        expected = np.concatenate(
            [neighbors(csr, v) for v in frontier]
        ) if len(frontier) else np.array([])
        got = csr.frontier_neighbors(frontier)
        assert np.array_equal(got, expected)

    def test_empty_frontier(self):
        g = random_graph(10, 50, seed=1)
        csr = CSRGraph.from_graph(g)
        assert len(csr.frontier_neighbors(np.array([], dtype=np.int64))) == 0

    def test_frontier_of_sinks(self):
        g = graph_from_pairs(4, [(0, 1)])
        csr = CSRGraph.from_graph(g)
        assert len(csr.frontier_neighbors(np.array([1, 2, 3]))) == 0
