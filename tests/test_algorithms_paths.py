"""Tests for BFS path extraction/checking and diameter estimation."""

import numpy as np
import pytest

from repro.algorithms.diameter import (
    DiameterEstimate,
    double_sweep_diameter,
    engine_sweep,
)
from repro.algorithms.paths import (
    extract_path,
    hop_distances_from_paths,
    path_exists_in_graph,
)
from repro.algorithms.reference import bfs_parents_and_levels
from repro.errors import GraphError, ValidationError
from repro.graph.generators import grid_graph, path_graph, rmat_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT


class TestExtractPath:
    def setup_method(self):
        self.graph = rmat_graph(scale=9, edge_factor=8, seed=8)
        self.root = int(np.argmax(self.graph.out_degrees()))
        self.levels, self.parents = bfs_parents_and_levels(self.graph, self.root)

    def test_path_to_root_is_trivial(self):
        assert extract_path(self.parents, self.root, self.root) == [self.root]

    def test_extracted_path_is_real_and_shortest(self):
        targets = np.flatnonzero(self.levels >= 2)[:20]
        for t in targets:
            path = extract_path(self.parents, self.root, int(t))
            assert path[0] == self.root and path[-1] == t
            assert len(path) - 1 == self.levels[t]
            assert path_exists_in_graph(self.graph, path)

    def test_unreached_returns_none(self):
        unreached = np.flatnonzero(self.levels < 0)
        if len(unreached) == 0:
            pytest.skip("fully reachable")
        assert extract_path(self.parents, self.root, int(unreached[0])) is None

    def test_cycle_detected(self):
        parents = np.array([1, 0, NO_PARENT], dtype=np.uint32)
        with pytest.raises(ValidationError):
            extract_path(parents, 2, 0)

    def test_broken_chain_detected(self):
        parents = np.array([NO_PARENT, 9, NO_PARENT], dtype=np.uint32)
        with pytest.raises(ValidationError):
            extract_path(parents, 0, 1)

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            extract_path(np.array([0], dtype=np.uint32), 0, 5)


class TestPathExists:
    def test_real_path(self):
        g = path_graph(5)
        assert path_exists_in_graph(g, [0, 1, 2, 3])

    def test_fake_hop(self):
        g = path_graph(5)
        assert not path_exists_in_graph(g, [0, 2])

    def test_trivial_paths(self):
        g = path_graph(3)
        assert path_exists_in_graph(g, [1])
        assert path_exists_in_graph(g, [])

    def test_duplicate_edges(self):
        g = Graph.from_edge_pairs(3, [(0, 1), (1, 2), (0, 1), (1, 2), (0, 1)])
        assert path_exists_in_graph(g, [0, 1, 2])
        assert not path_exists_in_graph(g, [0, 2])


class TestHopDistances:
    def test_matches_levels(self):
        g = grid_graph(8, 8)
        levels, parents = bfs_parents_and_levels(g, 0)
        hops = hop_distances_from_paths(parents, levels, 0, [0, 7, 63])
        assert hops == [0, int(levels[7]), int(levels[63])]

    def test_contradiction_raises(self):
        g = path_graph(4)
        levels, parents = bfs_parents_and_levels(g, 0)
        levels = levels.copy()
        levels[3] = 1  # lie
        with pytest.raises(ValidationError):
            hop_distances_from_paths(parents, levels, 0, [3])


class TestDiameter:
    def test_path_graph_exact(self):
        g = path_graph(40).symmetrized()
        est = double_sweep_diameter(g, seed_root=20)
        assert est.lower_bound == 39

    def test_grid_exact(self):
        g = grid_graph(10, 6)
        est = double_sweep_diameter(g, seed_root=33)
        assert est.lower_bound == 9 + 5  # manhattan corner-to-corner

    def test_star(self):
        est = double_sweep_diameter(star_graph(20).symmetrized(), seed_root=0)
        assert est.lower_bound == 2

    def test_lower_bound_never_exceeds_true_diameter(self):
        import networkx as nx

        g = rmat_graph(scale=7, edge_factor=4, seed=5).symmetrized()
        est = double_sweep_diameter(g)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.num_vertices))
        nxg.add_edges_from(zip(g.edges["src"].tolist(), g.edges["dst"].tolist()))
        giant = max(nx.connected_components(nxg), key=len)
        true_diameter = nx.diameter(nxg.subgraph(giant))
        assert est.lower_bound <= true_diameter
        assert est.lower_bound >= true_diameter // 2  # double sweep quality

    def test_sweeps_bounded(self):
        g = grid_graph(12, 12)
        est = double_sweep_diameter(g, max_sweeps=2)
        assert est.sweeps <= 2
        assert len(est.sweep_roots) == est.sweeps

    def test_engine_sweep_adapter(self):
        from tests.helpers import fresh_machine, small_fastbfs_config
        from repro.core.engine import FastBFSEngine

        g = grid_graph(9, 5)
        sweep = engine_sweep(
            lambda: FastBFSEngine(small_fastbfs_config(num_partitions=2)),
            fresh_machine,
        )
        est = double_sweep_diameter(g, seed_root=22, sweep=sweep)
        reference = double_sweep_diameter(g, seed_root=22)
        assert est.lower_bound == reference.lower_bound

    def test_bad_args(self):
        with pytest.raises(GraphError):
            double_sweep_diameter(path_graph(3), max_sweeps=0)
        with pytest.raises(GraphError):
            double_sweep_diameter(path_graph(3), seed_root=9)
