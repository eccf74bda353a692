"""Tests for the Graph500 protocol library."""

import numpy as np
import pytest

from tests.helpers import fresh_machine, graph_from_pairs, small_fastbfs_config

from repro.algorithms.graph500 import (
    Graph500Result,
    Graph500Run,
    run_graph500,
    sample_roots,
)
from repro.core.engine import FastBFSEngine
from repro.errors import EngineError, ValidationError
from repro.graph.generators import rmat_graph, star_graph


class TestSampleRoots:
    def test_roots_have_out_edges(self, rmat10):
        roots = sample_roots(rmat10, 16, seed=1)
        degrees = rmat10.out_degrees()
        assert (degrees[roots] > 0).all()

    def test_distinct(self, rmat10):
        roots = sample_roots(rmat10, 32, seed=2)
        assert len(np.unique(roots)) == len(roots)

    def test_deterministic(self, rmat10):
        a = sample_roots(rmat10, 8, seed=5)
        b = sample_roots(rmat10, 8, seed=5)
        assert np.array_equal(a, b)

    def test_clamped_to_candidates(self):
        g = star_graph(3, out=True)  # only the hub has out-edges
        assert len(sample_roots(g, 10)) == 1

    def test_no_candidates_raises(self):
        g = graph_from_pairs(3, [])
        with pytest.raises(EngineError):
            sample_roots(g, 4)

    def test_bad_count(self, rmat10):
        with pytest.raises(EngineError):
            sample_roots(rmat10, 0)


class TestRunProtocol:
    def test_protocol_produces_validated_runs(self, rmat10):
        result = run_graph500(
            rmat10,
            engine_factory=lambda: FastBFSEngine(small_fastbfs_config()),
            machine_factory=fresh_machine,
            num_roots=4,
            seed=3,
        )
        assert len(result.runs) == 4
        for run in result.runs:
            assert isinstance(run, Graph500Run)
            assert run.teps > 0
            assert run.visited >= 1
            assert run.execution_time > 0

    def test_teps_statistics(self, rmat10):
        result = run_graph500(
            rmat10,
            engine_factory=lambda: FastBFSEngine(small_fastbfs_config()),
            machine_factory=fresh_machine,
            num_roots=3,
        )
        assert result.min_teps <= result.harmonic_mean_teps <= result.max_teps
        assert "harmonic mean" in result.summary()

    def test_empty_result(self):
        result = Graph500Result()
        assert result.harmonic_mean_teps == 0.0
        assert result.min_teps == 0.0

    def test_validation_catches_broken_engine(self, rmat10):
        class BrokenEngine(FastBFSEngine):
            def run(self, graph, machine, **kwargs):
                result = super().run(graph, machine, **kwargs)
                result.output["level"][:] = 0  # corrupt
                return result

        with pytest.raises(ValidationError):
            run_graph500(
                rmat10,
                engine_factory=lambda: BrokenEngine(small_fastbfs_config()),
                machine_factory=fresh_machine,
                num_roots=1,
            )

    def test_validate_false_skips_checks(self, rmat10):
        result = run_graph500(
            rmat10,
            engine_factory=lambda: FastBFSEngine(small_fastbfs_config()),
            machine_factory=fresh_machine,
            num_roots=1,
            validate=False,
        )
        assert len(result.runs) == 1
