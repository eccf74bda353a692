"""Tests for direction-optimizing (hybrid) BFS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.hybrid import hybrid_bfs
from repro.algorithms.reference import bfs_levels
from repro.algorithms.validation import validate_bfs_result
from repro.errors import GraphError
from repro.graph.generators import (
    grid_graph,
    powerlaw_graph,
    path_graph,
    random_graph,
    rmat_graph,
    star_graph,
)


class TestCorrectness:
    def test_levels_match_reference_rmat(self):
        g = rmat_graph(scale=11, edge_factor=16, seed=4)
        root = int(np.argmax(g.out_degrees()))
        result = hybrid_bfs(g, root)
        assert np.array_equal(result.levels, bfs_levels(g, root))

    def test_valid_bfs_tree(self):
        g = rmat_graph(scale=10, edge_factor=8, seed=9)
        root = int(np.argmax(g.out_degrees()))
        result = hybrid_bfs(g, root)
        validate_bfs_result(
            g, root, result.levels, result.parents, bfs_levels(g, root)
        ).raise_if_failed()

    def test_directed_correctness(self):
        """Bottom-up scans in-edges, so direction must be respected."""
        g = star_graph(200, out=False)  # leaves -> hub only
        result = hybrid_bfs(g, 0)
        assert result.levels[0] == 0
        assert (result.levels[1:] == -1).all()

    def test_path(self):
        result = hybrid_bfs(path_graph(30), 0)
        assert result.levels.tolist() == list(range(30))

    def test_grid(self):
        g = grid_graph(20, 20)
        assert np.array_equal(hybrid_bfs(g, 0).levels, bfs_levels(g, 0))

    def test_bad_root(self):
        with pytest.raises(GraphError):
            hybrid_bfs(path_graph(3), 3)

    def test_bad_constants(self):
        with pytest.raises(GraphError):
            hybrid_bfs(path_graph(3), 0, alpha=0)
        with pytest.raises(GraphError):
            hybrid_bfs(path_graph(3), 0, beta=-1)

    @given(
        n=st.integers(min_value=2, max_value=80),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_reference(self, n, seed):
        g = random_graph(n, 4 * n, seed=seed)
        root = seed % n
        assert np.array_equal(hybrid_bfs(g, root).levels, bfs_levels(g, root))


class TestDirectionSwitching:
    def test_switches_bottom_up_on_skewed_graph(self):
        """Beamer's defaults switch on an R-MAT frontier explosion."""
        g = rmat_graph(scale=11, edge_factor=16, seed=4)
        root = int(np.argmax(g.out_degrees()))
        result = hybrid_bfs(g, root)
        assert result.used_bottom_up
        assert result.directions[0] == "top-down"  # tiny frontier first

    def test_pure_top_down_with_tiny_alpha(self):
        """alpha -> 0 raises the switch threshold beyond any frontier."""
        g = rmat_graph(scale=9, edge_factor=8, seed=2)
        root = int(np.argmax(g.out_degrees()))
        result = hybrid_bfs(g, root, alpha=1e-9)
        assert not result.used_bottom_up

    def test_bottom_up_examines_fewer_edges_at_peak(self):
        """The point of the optimization: fewer edge checks overall."""
        g = rmat_graph(scale=12, edge_factor=16, seed=6)
        root = int(np.argmax(g.out_degrees()))
        hybrid = hybrid_bfs(g, root)
        top_down_only = hybrid_bfs(g, root, alpha=1e-9)
        assert hybrid.used_bottom_up
        assert hybrid.total_edges_examined < top_down_only.total_edges_examined

    def test_trace_lengths_consistent(self):
        g = rmat_graph(scale=9, edge_factor=8, seed=1)
        root = int(np.argmax(g.out_degrees()))
        result = hybrid_bfs(g, root)
        assert len(result.directions) == len(result.edges_examined)
        assert len(result.directions) >= result.depth


class TestPinnedTrace:
    """The per-level trace, recorded literally.  ``directions`` and
    ``edges_examined`` follow from the levels and two degree counts, so
    any way of computing them must reproduce these lists exactly."""

    @pytest.mark.parametrize(
        "make, root, constants, directions, examined",
        [
            pytest.param(
                lambda: rmat_graph(scale=10, edge_factor=16, seed=4), 329, {},
                "TBBT", [1072, 2435, 18, 26], id="rmat-bottom-up",
            ),
            pytest.param(
                lambda: random_graph(300, 1500, seed=3), 7,
                {"alpha": 3.0, "beta": 40.0},
                "TTTBBBT", [4, 24, 133, 792, 57, 1, 7], id="random-alpha-beta",
            ),
            pytest.param(
                lambda: powerlaw_graph(2000, 16000, seed=5), 0, {},
                "TTTTBBBTTTTT", [5, 44, 248, 914, 2370, 1254, 862, 525, 261, 51, 12, 11],
                id="directed-powerlaw",
            ),
            pytest.param(
                lambda: star_graph(200, out=False), 0, {}, "T", [0], id="in-star",
            ),
        ],
    )
    def test_trace(self, make, root, constants, directions, examined):
        result = hybrid_bfs(make(), root, **constants)
        names = {"T": "top-down", "B": "bottom-up"}
        assert result.directions == [names[c] for c in directions]
        assert result.edges_examined == examined
