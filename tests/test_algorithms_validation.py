"""Tests for Graph500-style BFS validation, pass volumes and TEPS."""

import numpy as np
import pytest

from tests.helpers import fresh_machine, graph_from_pairs, small_fastbfs_config

from repro.algorithms.reference import bfs_parents_and_levels
from repro.algorithms.validation import (
    BFSAnswerChecker,
    teps,
    traversed_edges,
    validate_bfs_result,
)
from repro.core.engine import FastBFSEngine
from repro.errors import ValidationError
from repro.graph.generators import path_graph, rmat_graph
from repro.graph.partition import VertexPartitioning
from repro.graph.types import NO_PARENT, UNVISITED


@pytest.fixture
def graph():
    return rmat_graph(scale=9, edge_factor=8, seed=6)


@pytest.fixture
def valid(graph):
    root = int(np.argmax(graph.out_degrees()))
    levels, parents = bfs_parents_and_levels(graph, root)
    return graph, root, levels, parents


class TestAcceptsValid:
    def test_reference_result_validates(self, valid):
        graph, root, levels, parents = valid
        report = validate_bfs_result(graph, root, levels, parents, levels)
        assert report.ok, report.errors
        assert report.visited == int((levels >= 0).sum())
        assert report.depth == int(levels.max())

    def test_levels_only(self, valid):
        graph, root, levels, _ = valid
        assert validate_bfs_result(graph, root, levels).ok

    def test_raise_if_failed_passes(self, valid):
        graph, root, levels, parents = valid
        validate_bfs_result(graph, root, levels, parents).raise_if_failed()


class TestRejectsCorruption:
    def test_wrong_root_level(self, valid):
        graph, root, levels, parents = valid
        levels = levels.copy()
        levels[root] = 1
        assert not validate_bfs_result(graph, root, levels, parents).ok

    def test_level_skip(self, valid):
        graph, root, levels, parents = valid
        levels = levels.copy()
        victim = int(np.flatnonzero(levels == 1)[0])
        levels[victim] = 5  # its in-edge from the root now skips levels
        assert not validate_bfs_result(graph, root, levels, parents).ok

    def test_unvisited_with_visited_inneighbor(self, valid):
        graph, root, levels, parents = valid
        levels = levels.copy()
        parents = parents.copy()
        victim = int(np.flatnonzero(levels == 1)[0])
        levels[victim] = UNVISITED
        parents[victim] = NO_PARENT
        assert not validate_bfs_result(graph, root, levels, parents).ok

    def test_phantom_tree_edge(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3)])
        levels = np.array([0, 1, 2, 3], dtype=np.int32)
        parents = np.array([NO_PARENT, 0, 1, 1], dtype=np.uint32)  # 1->3 fake
        # levels say parent of 3 is 2 levels up: both checks catch it
        assert not validate_bfs_result(g, 0, levels, parents).ok

    def test_parent_without_visit(self):
        g = path_graph(3)
        levels = np.array([0, 1, UNVISITED], dtype=np.int32)
        parents = np.array([NO_PARENT, 0, 1], dtype=np.uint32)
        assert not validate_bfs_result(g, 0, levels, parents).ok

    def test_visited_without_parent(self):
        g = path_graph(3)
        levels = np.array([0, 1, 2], dtype=np.int32)
        parents = np.array([NO_PARENT, 0, NO_PARENT], dtype=np.uint32)
        assert not validate_bfs_result(g, 0, levels, parents).ok

    def test_reference_mismatch(self, valid):
        graph, root, levels, parents = valid
        ref = levels.copy()
        unvisited = np.flatnonzero(levels == UNVISITED)
        if len(unvisited) == 0:
            pytest.skip("graph fully reachable")
        bad = levels.copy()
        bad[unvisited[0]] = UNVISITED  # unchanged; corrupt ref instead
        ref[unvisited[0]] = 3
        assert not validate_bfs_result(graph, root, bad, parents, ref).ok

    def test_wrong_shape(self, valid):
        graph, root, levels, parents = valid
        assert not validate_bfs_result(graph, root, levels[:-1], parents).ok

    def test_bad_root(self, valid):
        graph, _, levels, parents = valid
        assert not validate_bfs_result(graph, -1, levels, parents).ok

    def test_raise_if_failed_raises(self):
        g = path_graph(2)
        levels = np.array([1, 0], dtype=np.int32)
        report = validate_bfs_result(g, 0, levels)
        with pytest.raises(ValidationError):
            report.raise_if_failed()


class TestDuplicateEdges:
    """Rule 3 (tree edges are graph edges) is a membership test on the
    sorted edge keys; repeated edges must not change its verdict."""

    @pytest.fixture
    def multigraph(self):
        return graph_from_pairs(
            4, [(0, 1), (0, 2), (0, 1), (1, 3), (0, 2), (1, 3), (0, 1)]
        )

    def test_valid_tree_accepted(self, multigraph):
        levels, parents = bfs_parents_and_levels(multigraph, 0)
        report = validate_bfs_result(multigraph, 0, levels, parents, levels)
        assert report.ok, report.errors

    def test_phantom_edge_still_rejected(self, multigraph):
        # 2 -> 3 descends one level like a tree edge should, but is not
        # in the graph: only the membership test can catch it.
        levels = np.array([0, 1, 1, 2], dtype=np.int32)
        parents = np.array([NO_PARENT, 0, 0, 2], dtype=np.uint32)
        report = validate_bfs_result(multigraph, 0, levels, parents)
        assert report.errors == ["1 claimed tree edges are not graph edges"]


class TestPassVolumes:
    def test_a_hand_worked_cycle(self):
        """On the cycle 0->1->2->3->0 a query from 0 trims one edge a
        pass.  A batch from 0, 2 and 0 sends one record per edge at level
        *i* in some query, however many share it, and trims an edge once
        its source is visited in every query."""
        graph = graph_from_pairs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        engine = FastBFSEngine(small_fastbfs_config(num_partitions=1))
        checker, one = BFSAnswerChecker(graph), VertexPartitioning(4, 1)
        assert checker.pass_volumes(engine, one, 0) == [
            (4, 1, 3), (3, 1, 2), (2, 1, 1), (1, 1, 0), (0, 0, 0)]
        batch = [(4, 2, 4), (4, 2, 4), (4, 2, 2), (2, 2, 0), (0, 0, 0)]
        assert checker.pass_volumes(engine, one, [0, 2, 0]) == batch
        ran = engine.run_many(graph, fresh_machine(), [0, 2, 0], mode="batched")
        assert [it.volume for it in ran.shared_iterations] == batch


class TestTeps:
    def test_traversed_edges_counts_visited_sources(self):
        g = graph_from_pairs(4, [(0, 1), (1, 2), (3, 0)])
        levels = np.array([0, 1, 2, UNVISITED], dtype=np.int32)
        assert traversed_edges(g, levels) == 2

    def test_teps_value(self):
        g = path_graph(5)
        levels = np.array([0, 1, 2, 3, 4], dtype=np.int32)
        assert teps(g, levels, 2.0) == pytest.approx(2.0)

    def test_teps_rejects_zero_time(self):
        g = path_graph(2)
        with pytest.raises(ValidationError):
            teps(g, np.array([0, 1], dtype=np.int32), 0.0)
