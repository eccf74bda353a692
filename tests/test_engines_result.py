"""Unit tests for EngineResult / IterationStats presentation."""

import numpy as np

from repro.engines.result import EngineResult, IterationStats
from repro.storage.machine import IOReport


def make_result(**kwargs):
    defaults = dict(
        engine="fastbfs",
        algorithm="bfs",
        graph_name="test",
        output={"level": np.array([0, 1, -1], dtype=np.int32),
                "parent": np.array([3, 0, 3], dtype=np.uint32)},
        report=IOReport(execution_time=2.0, compute_time=0.5,
                        iowait_time=1.5),
        iterations=[
            IterationStats(iteration=0, edges_scanned=100,
                           updates_generated=40, partitions_processed=4,
                           clock_end=1.0),
            IterationStats(iteration=1, edges_scanned=60,
                           updates_generated=0, activated=40,
                           partitions_processed=3, partitions_skipped=1,
                           stay_records_written=60, stay_swaps=2,
                           clock_end=2.0),
        ],
        extras={"stay_swaps": 2.0},
    )
    defaults.update(kwargs)
    return EngineResult(**defaults)


class TestAccessors:
    def test_levels_and_parents(self):
        r = make_result()
        assert r.levels.tolist() == [0, 1, -1]
        assert r.parents.tolist() == [3, 0, 3]

    def test_distance_alias(self):
        r = make_result(output={"distance": np.array([0, 1], dtype=np.int32)})
        assert r.levels.tolist() == [0, 1]
        assert r.parents is None

    def test_counters(self):
        r = make_result()
        assert r.num_iterations == 2
        assert r.edges_scanned == 160
        assert r.updates_generated == 40
        assert r.execution_time == 2.0

    def test_empty_iterations(self):
        r = make_result(iterations=[])
        assert r.edges_scanned == 0
        assert r.num_iterations == 0


class TestRendering:
    def test_summary_contains_key_facts(self):
        text = make_result().summary()
        assert "fastbfs" in text
        assert "bfs" in text
        assert "stay_swaps" in text
        assert "iowait" in text

    def test_iteration_table_rows(self):
        text = make_result().iteration_table()
        lines = text.splitlines()
        assert "edges scanned" in lines[0]
        assert len(lines) == 2 + 2  # header + rule + 2 iterations
        assert "100" in lines[2]
        assert "2/0" in lines[3]  # swaps/cancels

    def test_iteration_table_empty(self):
        text = make_result(iterations=[]).iteration_table()
        assert "edges scanned" in text
