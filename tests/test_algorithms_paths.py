"""Tests for diameter estimation by BFS sweeps."""

import pytest

from repro.algorithms.diameter import double_sweep_diameter, engine_sweep
from repro.errors import GraphError
from repro.graph.generators import grid_graph, path_graph, rmat_graph, star_graph


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
