"""Tests for the in-memory reference BFS and the convergence profile."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import networkx as nx

from tests.helpers import graph_from_pairs

from repro.algorithms.reference import (
    bfs_levels,
    bfs_parents_and_levels,
    level_profile,
)
from repro.errors import GraphError
from repro.graph.generators import grid_graph, path_graph, random_graph, rmat_graph
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, UNVISITED


def networkx_levels(graph: Graph, root: int) -> np.ndarray:
    g = nx.DiGraph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(zip(graph.edges["src"].tolist(), graph.edges["dst"].tolist()))
    lengths = nx.single_source_shortest_path_length(g, root)
    out = np.full(graph.num_vertices, UNVISITED, dtype=np.int32)
    for v, d in lengths.items():
        out[v] = d
    return out


class TestBfsLevels:
    def test_path(self):
        levels = bfs_levels(path_graph(5), 0)
        assert levels.tolist() == [0, 1, 2, 3, 4]

    def test_unreachable(self):
        g = graph_from_pairs(4, [(0, 1)])
        levels = bfs_levels(g, 0)
        assert levels.tolist() == [0, 1, UNVISITED, UNVISITED]

    def test_root_only(self):
        g = graph_from_pairs(3, [])
        assert bfs_levels(g, 2).tolist() == [UNVISITED, UNVISITED, 0]

    def test_self_loops_ignored(self):
        g = graph_from_pairs(2, [(0, 0), (0, 1)])
        assert bfs_levels(g, 0).tolist() == [0, 1]

    def test_multi_edges_equivalent(self):
        g1 = graph_from_pairs(3, [(0, 1), (0, 1), (1, 2)])
        g2 = graph_from_pairs(3, [(0, 1), (1, 2)])
        assert np.array_equal(bfs_levels(g1, 0), bfs_levels(g2, 0))

    def test_bad_root(self):
        with pytest.raises(GraphError):
            bfs_levels(path_graph(3), 5)

    def test_against_networkx_rmat(self):
        g = rmat_graph(scale=9, edge_factor=8, seed=4)
        root = int(np.argmax(g.out_degrees()))
        assert np.array_equal(bfs_levels(g, root), networkx_levels(g, root))

    def test_against_networkx_grid(self):
        g = grid_graph(9, 7)
        assert np.array_equal(bfs_levels(g, 13), networkx_levels(g, 13))

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=20))
    @settings(max_examples=30, deadline=None)
    def test_property_matches_networkx(self, n, seed):
        g = random_graph(n, 3 * n, seed=seed)
        root = seed % n
        assert np.array_equal(bfs_levels(g, root), networkx_levels(g, root))


class TestParents:
    def test_root_has_no_parent(self):
        levels, parents = bfs_parents_and_levels(path_graph(4), 0)
        assert parents[0] == NO_PARENT

    def test_parents_descend_one_level(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=2)
        root = int(np.argmax(g.out_degrees()))
        levels, parents = bfs_parents_and_levels(g, root)
        tree = np.flatnonzero((levels > 0))
        assert (levels[parents[tree].astype(np.int64)] == levels[tree] - 1).all()

    def test_parent_edges_exist(self):
        g = random_graph(80, 400, seed=6)
        levels, parents = bfs_parents_and_levels(g, 0)
        pairs = set(zip(g.edges["src"].tolist(), g.edges["dst"].tolist()))
        for v in np.flatnonzero(levels > 0):
            assert (int(parents[v]), int(v)) in pairs

    def test_deterministic_lowest_parent(self):
        g = graph_from_pairs(4, [(0, 2), (1, 2), (0, 1), (0, 3), (3, 2)])
        _, parents = bfs_parents_and_levels(g, 0)
        assert parents[2] == 0  # 0 beats 1 and 3 as parent of 2

    def test_unreachable_have_no_parent(self):
        g = graph_from_pairs(3, [(0, 1)])
        _, parents = bfs_parents_and_levels(g, 0)
        assert parents[2] == NO_PARENT


class TestLevelProfile:
    def test_path_profile(self):
        prof = level_profile(path_graph(4), 0)
        assert prof.frontier_sizes == [1, 1, 1, 1]
        assert prof.scatter_edges == [1, 1, 1, 0]
        assert prof.depth == 3

    def test_remaining_edges_monotone(self):
        g = rmat_graph(scale=10, edge_factor=8, seed=7)
        prof = level_profile(g, int(np.argmax(g.out_degrees())))
        remaining = prof.remaining_edges
        assert all(a >= b for a, b in zip(remaining, remaining[1:]))
        assert remaining[-1] >= 0

    def test_useful_fraction_starts_at_one(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=1)
        prof = level_profile(g, int(np.argmax(g.out_degrees())))
        assert prof.useful_fraction[0] == 1.0

    def test_fig1_shape_on_skewed_graph(self):
        """Fig. 1's claim: the useful fraction decays as levels proceed."""
        g = rmat_graph(scale=11, edge_factor=16, seed=3)
        prof = level_profile(g, int(np.argmax(g.out_degrees())))
        fractions = prof.useful_fraction
        assert fractions[min(3, len(fractions) - 1)] < 0.55

    def test_scan_totals(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=2)
        prof = level_profile(g, int(np.argmax(g.out_degrees())))
        without = prof.total_scanned_without_trimming()
        with_trim = prof.total_scanned_with_trimming()
        assert with_trim < without
        assert without == g.num_edges * (prof.depth + 1)

    def test_frontier_sums_to_reachable(self):
        g = random_graph(100, 400, seed=8)
        prof = level_profile(g, 0)
        assert sum(prof.frontier_sizes) == (bfs_levels(g, 0) >= 0).sum()
