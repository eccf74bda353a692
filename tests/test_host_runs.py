"""Host-run invariance: the schedule does not depend on the host run length.

The engines compute on host runs of many modeled buffers and replay the
per-buffer schedule afterwards (``repro.engines.base``).  A run length of
one modeled buffer *is* a buffer-at-a-time loop, so recording everything
the time path sees at one buffer, three buffers and the whole file, and
requiring the three records to be equal, proves that host granularity
reorders no device request and no clock charge — without keeping a copy of
the old loop.  Stay-file cancellation races and fault-plan ``after_index``
positions depend on exactly this order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankAlgorithm
from repro.algorithms.sssp import WeightedSSSPAlgorithm
from repro.algorithms.streaming import (
    BFSAlgorithm,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
)
from repro.core.engine import FastBFSEngine
from repro.engines import base
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import path_graph, rmat_graph, star_graph
from repro.graph.types import EDGE_DTYPE
from repro.storage.streams import StreamReader
from tests.helpers import (
    ScheduleRecorder,
    fresh_machine,
    hub_root,
    slow_stay_disk_machine,
    small_engine_config,
    small_fastbfs_config,
)

#: Edge records per modeled edge buffer under the ``small_*_config`` helpers.
EDGE_BUFFER_RECORDS = small_engine_config().edge_buffer_bytes // EDGE_DTYPE.itemsize

#: ``HOST_RUN_RECORDS`` values under test.  The first is today's behaviour
#: by construction (a run never holds less than one modeled buffer).
RUN_LENGTHS = {
    "one buffer": 1,
    "three buffers": 3 * EDGE_BUFFER_RECORDS,
    "whole file": 1 << 40,
}


def assert_same_sequence(what, expected, actual, label):
    """Fail on the first differing entry, printed, not on a list diff."""
    for index, (want, got) in enumerate(zip(expected, actual)):
        assert want == got, (
            f"{what} #{index} differs at a host run of {label}:\n"
            f"  one buffer: {want}\n  {label}: {got}"
        )
    assert len(expected) == len(actual), (
        f"{len(expected)} {what}s at one buffer, {len(actual)} at {label}; "
        f"first extra: {(expected + actual)[min(len(expected), len(actual))]}"
    )


def assert_same_results(expected, actual):
    assert len(expected) == len(actual)
    for want, got in zip(expected, actual):
        assert want.output.keys() == got.output.keys()
        for key, column in want.output.items():
            # Bit-equal, float32 PageRank ranks included.
            assert column.tobytes() == got.output[key].tobytes(), key
        assert want.iterations == got.iterations
        assert want.extras == got.extras
        assert want.report == got.report


def record_at_every_run_length(monkeypatch, drive):
    """``drive() -> [EngineResult]`` under each run length, compared to the
    one-buffer record."""
    records = {}
    for label, run_records in RUN_LENGTHS.items():
        with monkeypatch.context() as patch:
            patch.setattr(base, "HOST_RUN_RECORDS", run_records)
            recorder = ScheduleRecorder(patch)
            records[label] = (recorder, drive())
    reference, reference_results = records["one buffer"]
    assert any(call[0] == "submit" for call in reference.calls)
    for label in ("three buffers", "whole file"):
        recorder, results = records[label]
        assert_same_sequence("time-path call", reference.calls, recorder.calls, label)
        assert_same_sequence("sealed file", reference.sealed, recorder.sealed, label)
        assert_same_results(reference_results, results)
    return reference_results


ENGINES = {
    "fastbfs": lambda **kw: FastBFSEngine(small_fastbfs_config(**kw)),
    "fastbfs-extended": lambda **kw: FastBFSEngine(
        small_fastbfs_config(extended_trim=True, **kw)
    ),
    "x-stream": lambda **kw: XStreamEngine(small_engine_config(**kw)),
}


@pytest.fixture(scope="module")
def graph():
    # 8K edges over 4 partitions: 8+ modeled edge buffers per partition
    # file, so three buffers is neither one nor the whole file.
    return rmat_graph(scale=10, edge_factor=8, seed=5)


@pytest.mark.parametrize("engine", ENGINES)
class TestScheduleIdentity:
    def _run(self, monkeypatch, engine, graph, algorithm, root=0, **config):
        def drive():
            return [
                ENGINES[engine](**config).run(
                    graph, fresh_machine(), algorithm=algorithm, root=root
                )
            ]

        return record_at_every_run_length(monkeypatch, drive)[0]

    def test_bfs(self, monkeypatch, engine, graph):
        result = self._run(
            monkeypatch, engine, graph, BFSAlgorithm(), root=hub_root(graph)
        )
        assert result.num_iterations > 3
        if engine != "x-stream":
            assert sum(it.stay_records_written for it in result.iterations) > 0
            assert sum(it.edges_eliminated for it in result.iterations) > 0

    def test_unit_sssp(self, monkeypatch, engine, graph):
        self._run(
            monkeypatch, engine, graph, UnitSSSPAlgorithm(), root=hub_root(graph)
        )

    @pytest.mark.parametrize("width", [1, 8, 64])
    def test_batched_bfs(self, monkeypatch, engine, graph, width):
        degrees = graph.out_degrees()
        roots = [int(v) for v in np.argsort(-degrees, kind="stable")[:width]]

        def drive():
            batch = ENGINES[engine]().run_many(
                graph, fresh_machine(), roots, mode="batched"
            )
            assert batch.mode == "batched"
            return batch.queries

        results = record_at_every_run_length(monkeypatch, drive)
        assert len(results) == width

    def test_weighted_sssp(self, monkeypatch, engine, graph):
        result = self._run(
            monkeypatch, engine, graph, WeightedSSSPAlgorithm(),
            root=hub_root(graph),
        )
        assert sum(it.activated for it in result.iterations) > 0

    def test_wcc(self, monkeypatch, engine, graph):
        result = self._run(monkeypatch, engine, graph.symmetrized(), WCCAlgorithm())
        assert sum(it.activated for it in result.iterations) > 0

    def test_pagerank(self, monkeypatch, engine, graph):
        self._run(
            monkeypatch, engine, graph,
            PageRankAlgorithm(graph.out_degrees()), max_iterations=3,
        )

    @pytest.mark.parametrize(
        "shape",
        [
            # Every edge of the hub's partition is eliminated in pass 0.
            lambda: (star_graph(1500), 0),
            # One frontier vertex per pass: most runs select no edge at all.
            lambda: (path_graph(1200), 0),
        ],
        ids=["star", "path"],
    )
    def test_degenerate_frontiers(self, monkeypatch, engine, shape):
        shaped, root = shape()
        self._run(
            monkeypatch, engine, shaped, BFSAlgorithm(), root=root,
            edge_buffer_bytes=256, update_buffer_bytes=128,
        )


class TestCancellationRaces:
    """Swap-or-cancel outcomes hang on request order; they must not move."""

    @pytest.mark.parametrize("extended_trim", [False, True])
    @pytest.mark.parametrize("write_bandwidth", [8192, 16384])
    def test_same_swaps_and_cancels(
        self, monkeypatch, graph, write_bandwidth, extended_trim
    ):
        config = small_fastbfs_config(
            cancellation_grace=0.0, num_stay_buffers=64, stay_disk=1,
            extended_trim=extended_trim,
        )

        def drive():
            return [
                FastBFSEngine(config).run(
                    graph, slow_stay_disk_machine(write_bandwidth),
                    root=hub_root(graph),
                )
            ]

        result = record_at_every_run_length(monkeypatch, drive)[0]
        assert result.extras["stay_cancellations"] > 0
        if extended_trim or write_bandwidth == 16384:
            assert result.extras["stay_swaps"] > 0


class TestHostRuns:
    """``_host_runs`` cuts a file exactly where the reader's buffers fall."""

    def _file(self, num_records):
        machine = fresh_machine()
        file = machine.vfs.create("edges", machine.disk(0))
        if num_records is not None:
            edges = np.zeros(num_records, dtype=EDGE_DTYPE)
            edges["src"] = np.arange(num_records)
            file.append_records(edges)
        file.seal()
        return machine, file

    def _cut(self, monkeypatch, num_records, run_records, buffer_records=4):
        monkeypatch.setattr(base, "HOST_RUN_RECORDS", run_records)
        machine, file = self._file(num_records)
        reader = StreamReader(
            machine.clock, file, buffer_records * EDGE_DTYPE.itemsize
        )
        seen = []
        for run, bounds in base._host_runs(reader):
            assert bounds[0] == 0 and bounds[-1] == len(run)
            for b in range(len(bounds) - 1):
                # The replay loop's contract: buffer b of the run is what
                # the reader hands out next.
                buf = next(reader)
                assert np.array_equal(buf, run[bounds[b]:bounds[b + 1]])
            seen.append([int(n) for n in np.diff(bounds)])
        with pytest.raises(StopIteration):
            next(reader)
        return seen

    def test_file_without_a_dtype_has_no_runs(self, monkeypatch):
        assert self._cut(monkeypatch, None, 1 << 18) == []

    def test_empty_file_has_no_runs(self, monkeypatch):
        assert self._cut(monkeypatch, 0, 1 << 18) == []

    def test_exact_multiple_of_the_buffer(self, monkeypatch):
        assert self._cut(monkeypatch, 12, 1 << 18) == [[4, 4, 4]]
        assert self._cut(monkeypatch, 12, 8) == [[4, 4], [4]]

    def test_one_record_tail_buffer(self, monkeypatch):
        assert self._cut(monkeypatch, 9, 1 << 18) == [[4, 4, 1]]
        assert self._cut(monkeypatch, 9, 8) == [[4, 4], [1]]

    def test_run_is_rounded_down_to_whole_buffers(self, monkeypatch):
        assert self._cut(monkeypatch, 13, 11) == [[4, 4], [4, 1]]

    def test_run_shorter_than_a_buffer_is_one_buffer(self, monkeypatch):
        assert self._cut(monkeypatch, 9, 1) == [[4], [4], [1]]
