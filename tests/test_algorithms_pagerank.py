"""Tests for PageRank on the streaming engines."""

import numpy as np
import pytest

from tests.helpers import (
    fresh_machine,
    graph_from_pairs,
    hub_root,
    small_fastbfs_config,
)

from repro.algorithms.pagerank import PageRankAlgorithm, reference_pagerank
from repro.core.engine import FastBFSEngine
from repro.engines.xstream import XStreamEngine
from repro.errors import EngineError
from repro.graph.generators import path_graph, random_graph, rmat_graph
from repro.graph.graph import Graph

ROUNDS = 8


def run_pagerank(graph, engine_cls=XStreamEngine, rounds=ROUNDS, partitions=3):
    algo = PageRankAlgorithm(graph.out_degrees(), rounds)
    engine = engine_cls(small_fastbfs_config(num_partitions=partitions))
    return engine.run(graph, fresh_machine(), algorithm=algo, root=0)


class TestConstruction:
    def test_bad_damping(self):
        with pytest.raises(EngineError):
            PageRankAlgorithm(np.ones(3), ROUNDS, damping=1.0)

    def test_negative_degrees(self):
        with pytest.raises(EngineError):
            PageRankAlgorithm(np.array([-1.0, 2.0]), ROUNDS)

    def test_degree_size_mismatch(self):
        algo = PageRankAlgorithm(np.ones(3), ROUNDS)
        with pytest.raises(EngineError):
            algo.init_state(5, None)

    def test_max_iterations_validation(self):
        """The iteration cap is the kernel's ``rounds``.  Every vertex stays
        active every round, so only that count ends a run: a kernel
        without a finite one is refused."""
        for rounds in (None, 0, -1, float("inf"), 2.5):
            with pytest.raises(EngineError, match="rounds"):
                PageRankAlgorithm(np.ones(3), rounds)


class TestCorrectness:
    def test_matches_dense_oracle(self):
        g = rmat_graph(scale=8, edge_factor=8, seed=13)
        result = run_pagerank(g)
        expected = reference_pagerank(g, ROUNDS)
        assert np.allclose(result.output["rank"], expected, rtol=1e-4,
                           atol=1e-7)

    def test_fastbfs_engine_identical(self):
        """PageRank on FastBFS = graceful fallback, same numbers."""
        g = rmat_graph(scale=8, edge_factor=8, seed=13)
        xs = run_pagerank(g, XStreamEngine)
        fb = run_pagerank(g, FastBFSEngine)
        assert np.allclose(xs.output["rank"], fb.output["rank"], rtol=1e-5)
        assert fb.extras.get("stay_files_written", 0.0) == 0.0

    def test_partition_count_invariance(self):
        g = random_graph(300, 2400, seed=4)
        a = run_pagerank(g, partitions=1)
        b = run_pagerank(g, partitions=7)
        assert np.allclose(a.output["rank"], b.output["rank"], rtol=1e-4)

    def test_runs_exactly_max_iterations(self):
        g = rmat_graph(scale=7, edge_factor=4, seed=2)
        result = run_pagerank(g, rounds=5)
        # Pass 0 .. pass 5: 5 scatter rounds + the final gather-only pass.
        assert result.num_iterations == 6
        scatters = [it for it in result.iterations if it.updates_generated > 0]
        assert len(scatters) == 5

    def test_ranks_sum_below_one(self):
        """Without dangling redistribution the total mass leaks but stays
        positive and bounded."""
        g = rmat_graph(scale=8, edge_factor=8, seed=3)
        rank = run_pagerank(g).output["rank"]
        assert 0.0 < rank.sum() <= 1.0 + 1e-3
        assert (rank > 0).all()

    def test_hub_ranks_highest_on_star(self):
        g = graph_from_pairs(
            5, [(1, 0), (2, 0), (3, 0), (4, 0), (0, 1)]
        )
        # The 0<->1 cycle oscillates early; run to (near) convergence.
        rank = run_pagerank(g, rounds=30, partitions=2).output["rank"]
        assert rank.argmax() == 0

    def test_networkx_ranking_agreement(self):
        import networkx as nx

        g = rmat_graph(scale=8, edge_factor=8, seed=21)
        edges = np.unique(g.edges)
        g = Graph(g.num_vertices, edges[edges["src"] != edges["dst"]])
        rank = run_pagerank(g, rounds=25).output["rank"]
        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(g.num_vertices))
        nxg.add_edges_from(zip(g.edges["src"].tolist(), g.edges["dst"].tolist()))
        nx_rank = nx.pagerank(nxg, alpha=0.85)
        ours_top = set(np.argsort(rank)[-10:].tolist())
        theirs_top = set(
            sorted(nx_rank, key=nx_rank.get, reverse=True)[:10]
        )
        # Different dangling handling => compare rankings, not values.
        assert len(ours_top & theirs_top) >= 7

    def test_more_rounds_converge(self):
        g = rmat_graph(scale=7, edge_factor=8, seed=9)
        r10 = run_pagerank(g, rounds=10).output["rank"]
        r11 = run_pagerank(g, rounds=11).output["rank"]
        r30 = run_pagerank(g, rounds=30).output["rank"]
        r31 = run_pagerank(g, rounds=31).output["rank"]
        assert np.abs(r31 - r30).max() < np.abs(r11 - r10).max() + 1e-7


class TestEngineIntegrationDetails:
    def test_dense_updates_every_round(self):
        g = path_graph(40)
        result = run_pagerank(g, rounds=3, partitions=2)
        scatters = [it.updates_generated for it in result.iterations]
        assert scatters[0] == g.num_edges
        assert scatters[1] == g.num_edges

    def test_bfs_unaffected_by_max_iterations_default(self, rmat10):
        from repro.algorithms.reference import bfs_levels

        result = FastBFSEngine(small_fastbfs_config()).run(
            rmat10, fresh_machine(), root=hub_root(rmat10)
        )
        assert np.array_equal(
            result.levels, bfs_levels(rmat10, hub_root(rmat10))
        )
