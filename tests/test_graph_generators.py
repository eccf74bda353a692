"""Tests for the synthetic graph generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graph.generators import (
    attach_whiskers,
    grid_graph,
    path_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
    star_graph,
)


class TestRmat:
    def test_size_matches_graph500_spec(self):
        g = rmat_graph(scale=10, edge_factor=16, seed=1)
        assert g.num_vertices == 1024
        assert g.num_edges == 16 * 1024

    def test_deterministic(self):
        a = rmat_graph(scale=8, seed=42)
        b = rmat_graph(scale=8, seed=42)
        assert np.array_equal(a.edges, b.edges)

    def test_seed_changes_graph(self):
        a = rmat_graph(scale=8, seed=1)
        b = rmat_graph(scale=8, seed=2)
        assert not np.array_equal(a.edges, b.edges)

    def test_degree_skew(self):
        """Graph500 parameters produce heavy-tailed out-degrees."""
        g = rmat_graph(scale=12, edge_factor=16, seed=3)
        deg = g.out_degrees()
        assert deg.max() > 20 * deg.mean()

    def test_permute_spreads_hubs(self):
        g_perm = rmat_graph(scale=10, seed=1, permute=True)
        g_raw = rmat_graph(scale=10, seed=1, permute=False)
        # Without permutation the hubs concentrate at low vertex ids.
        raw_deg = g_raw.out_degrees()
        assert np.argmax(raw_deg) < 64
        assert g_perm.num_edges == g_raw.num_edges

    def test_scale_zero(self):
        g = rmat_graph(scale=0, edge_factor=4, seed=1)
        assert g.num_vertices == 1
        assert g.num_edges == 4  # all self loops

    @pytest.mark.parametrize("bad", [-1, 32])
    def test_bad_scale(self, bad):
        with pytest.raises(GraphError):
            rmat_graph(scale=bad)

    def test_bad_probabilities(self):
        with pytest.raises(GraphError):
            rmat_graph(scale=4, a=0.5, b=0.5, c=0.5, d=0.5)

    def test_bad_edge_factor(self):
        with pytest.raises(GraphError):
            rmat_graph(scale=4, edge_factor=0)

    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=50))
    @settings(max_examples=20, deadline=None)
    def test_endpoints_always_in_range(self, scale, seed):
        g = rmat_graph(scale=scale, edge_factor=4, seed=seed)
        assert g.edges["src"].max() < g.num_vertices
        assert g.edges["dst"].max() < g.num_vertices


class TestRandomGraph:
    def test_size(self):
        g = random_graph(100, 500, seed=1)
        assert g.num_vertices == 100
        assert g.num_edges == 500

    def test_deterministic(self):
        assert np.array_equal(random_graph(50, 100, 7).edges,
                              random_graph(50, 100, 7).edges)

    def test_zero_edges(self):
        assert random_graph(10, 0).num_edges == 0

    def test_bad_vertices(self):
        with pytest.raises(GraphError):
            random_graph(0, 10)


class TestPowerlaw:
    def test_in_degree_skew_with_flattened_head(self):
        g = powerlaw_graph(5000, 50000, exponent=1.9, seed=2)
        deg = np.bincount(g.edges["dst"], minlength=g.num_vertices)
        # Heavy tail, but the head must hold a small share of all edges
        # (the real twitter top account has ~0.2%, not ~50%).
        assert deg.max() > 20 * deg.mean()
        assert deg.max() < 0.05 * g.num_edges

    def test_out_degrees_uniform_by_default(self):
        g = powerlaw_graph(2000, 40000, seed=3)
        deg = g.out_degrees()
        assert deg.max() < 10 * deg.mean()

    def test_correlated_out_exponent(self):
        g = powerlaw_graph(2000, 40000, exponent=1.9, out_exponent=2.0, seed=3)
        out_deg = g.out_degrees().astype(float)
        in_deg = np.bincount(g.edges["dst"], minlength=g.num_vertices).astype(float)
        # Rank-correlation: hubs by in-degree also have high out-degree.
        top = np.argsort(in_deg)[-20:]
        assert out_deg[top].mean() > 2 * out_deg.mean()

    def test_deterministic(self):
        a = powerlaw_graph(500, 2000, seed=5)
        b = powerlaw_graph(500, 2000, seed=5)
        assert np.array_equal(a.edges, b.edges)

    def test_bad_exponent(self):
        with pytest.raises(GraphError):
            powerlaw_graph(100, 100, exponent=1.0)

    def test_bad_out_exponent(self):
        with pytest.raises(GraphError):
            powerlaw_graph(100, 100, out_exponent=0.5)

    def test_bad_head_shift(self):
        with pytest.raises(GraphError):
            powerlaw_graph(100, 100, head_shift=-1)

    def test_too_few_vertices(self):
        with pytest.raises(GraphError):
            powerlaw_graph(1, 10)


class TestStructuredGraphs:
    def test_grid_shape(self):
        g = grid_graph(4, 3)
        assert g.num_vertices == 12
        # 2*(3*(4-1)) horizontal + 2*(4*(3-1)) vertical arcs
        assert g.num_edges == 2 * (3 * 3) + 2 * (4 * 2)
        assert not g.directed

    def test_grid_bad_dims(self):
        with pytest.raises(GraphError):
            grid_graph(0, 5)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.edges["src"].tolist() == [0, 1, 2, 3]

    def test_path_single_vertex(self):
        assert path_graph(1).num_edges == 0

    def test_star_out(self):
        g = star_graph(5, out=True)
        assert g.num_vertices == 6
        assert (g.edges["src"] == 0).all()

    def test_star_in(self):
        g = star_graph(5, out=False)
        assert (g.edges["dst"] == 0).all()

    def test_star_empty(self):
        assert star_graph(0).num_edges == 0


class TestWhiskers:
    def test_adds_vertices_and_edges(self):
        core = rmat_graph(scale=8, edge_factor=8, seed=1)
        g = attach_whiskers(core, num_whiskers=10, min_length=3, max_length=5,
                            seed=2, relabel=False)
        added = g.num_vertices - core.num_vertices
        assert 30 <= added <= 50
        assert g.num_edges == core.num_edges + added

    def test_bidirectional_doubles_whisker_edges(self):
        core = rmat_graph(scale=6, edge_factor=4, seed=1).symmetrized()
        g = attach_whiskers(core, num_whiskers=5, min_length=2, max_length=2,
                            seed=3, relabel=False)
        assert g.num_edges == core.num_edges + 2 * (g.num_vertices - core.num_vertices)

    def test_whiskers_reachable_from_anchor(self):
        from repro.algorithms.reference import bfs_levels

        core = star_graph(20, out=True)  # everything reachable from 0
        g = attach_whiskers(core, num_whiskers=3, min_length=4, max_length=4,
                            seed=1, relabel=False)
        levels = bfs_levels(g, 0)
        assert (levels >= 0).all()
        assert levels.max() >= 4  # depth extended by the whiskers

    def test_relabel_preserves_structure(self):
        from repro.algorithms.reference import level_profile

        core = star_graph(50, out=True)
        a = attach_whiskers(core, 4, 3, 3, seed=9, relabel=False)
        b = attach_whiskers(core, 4, 3, 3, seed=9, relabel=True)
        assert a.num_edges == b.num_edges
        # Same depth from the (relabeled) hub.
        hub_b = int(np.argmax(b.out_degrees()))
        assert level_profile(a, 0).depth == level_profile(b, hub_b).depth

    def test_zero_whiskers_is_identity(self):
        core = path_graph(5)
        assert attach_whiskers(core, 0) is core

    def test_metadata_recorded(self):
        g = attach_whiskers(path_graph(5), 2, 2, 3, seed=1)
        assert g.meta["whiskers"] == 2

    def test_bad_params(self):
        with pytest.raises(GraphError):
            attach_whiskers(path_graph(5), -1)
        with pytest.raises(GraphError):
            attach_whiskers(path_graph(5), 1, min_length=0)
        with pytest.raises(GraphError):
            attach_whiskers(path_graph(5), 1, min_length=5, max_length=2)

    def test_deterministic(self):
        core = rmat_graph(scale=6, seed=1)
        a = attach_whiskers(core, 5, 2, 4, seed=7)
        b = attach_whiskers(core, 5, 2, 4, seed=7)
        assert np.array_equal(a.edges, b.edges)
