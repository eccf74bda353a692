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

import hashlib
import struct

import numpy as np
import pytest

from repro.algorithms.pagerank import PageRankAlgorithm
from repro.algorithms.reference import bfs_levels
from repro.algorithms.sssp import WeightedSSSPAlgorithm
from repro.algorithms.streaming import (
    BFSAlgorithm,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
)
from repro.core.engine import FastBFSEngine
from repro.engines import base
from repro.engines.graphchi import GraphChiConfig, GraphChiEngine
from repro.engines.xstream import XStreamEngine
from repro.graph.generators import path_graph, rmat_graph, star_graph
from repro.graph.types import EDGE_DTYPE
from repro.storage.device import DeviceSpec
from repro.storage.faults import FaultPlan, FaultSpec
from repro.storage.machine import Machine
from repro.storage import streams
from repro.storage.streams import AsyncStreamWriter, StreamReader, StreamWriter
from repro.utils.units import MB
from tests.helpers import (
    ScheduleRecorder,
    fresh_machine,
    hub_root,
    slow_stay_disk_machine,
    small_fastbfs_config,
)

#: Edge records per modeled edge buffer under ``small_fastbfs_config``.
EDGE_BUFFER_RECORDS = small_fastbfs_config().edge_buffer_bytes // EDGE_DTYPE.itemsize

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
    "x-stream": lambda **kw: XStreamEngine(small_fastbfs_config(**kw)),
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
            PageRankAlgorithm(graph.out_degrees(), 3),
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


class _SourceRecorder:
    """Wraps ``algorithm.scatter`` on ``engine``'s runs and keeps, per call,
    ``(pass, p, lo, records, src_local, src_global, dst_global)``, where
    ``records`` is the sealed array the partition's scan reads."""

    def __init__(self, engine, algorithm):
        self.seen = []
        self.tag = None
        held_edges = engine._held_edges

        def tagged(rt, p, records, lo):
            self.tag = (len(rt.iterations) - 1, p, lo, records)
            return held_edges(rt, p, records, lo)

        engine._held_edges = tagged
        scatter = algorithm.scatter

        def recording(ctx, state, src_local, src_global, dst_global):
            self.seen.append((*self.tag, src_local, src_global, dst_global))
            return scatter(ctx, state, src_local, src_global, dst_global)

        algorithm.scatter = recording
        self.algorithm = algorithm

    def scans(self):
        """``{(pass, p): (lo, records, calls)}``: one partition's scan, with
        the ``(src_local, src_global, dst_global)`` of each kernel call."""
        scans = {}
        for iteration, p, lo, records, *arrays in self.seen:
            scans.setdefault((iteration, p), (lo, records, []))[2].append(arrays)
        return scans


def stream_positions(records, src, dst):
    """Where each edge ``(src[k], dst[k])`` sits in ``records``, matched in
    order; raises ValueError unless the edges are a subsequence of
    ``records``: in stream order, and none from elsewhere.  Identical
    records have one source, so a trimming kernel keeps or drops them
    together, and the earliest match is the edge handed."""
    def keys(s, d):
        return (s.astype(np.int64) << 32 | d).tolist()

    file_keys, at, k = keys(records["src"], records["dst"]), [], 0
    for key in keys(src, dst):
        k = file_keys.index(key, k) + 1
        at.append(k - 1)
    return np.array(at, dtype=np.int64)


def concatenated(calls, column):
    return np.concatenate([call[column] for call in calls])


class TestHeldSources:
    """What the kernel sees when a partition scans the same sealed edge
    records again: for a trimming kernel the edges it has not eliminated,
    otherwise slices of one held cast of every edge."""

    @pytest.mark.parametrize("share", [base.COMPACT_DEAD_SHARE, 0.0])
    def test_bfs_rescan_sees_every_live_edge_in_stream_order(
        self, monkeypatch, graph, share
    ):
        monkeypatch.setattr(base, "COMPACT_DEAD_SHARE", share)
        recorders = []

        def drive():
            engine = ENGINES["x-stream"]()
            recorder = _SourceRecorder(engine, BFSAlgorithm())
            recorders.append(recorder)
            return [
                engine.run(
                    graph, fresh_machine(), algorithm=recorder.algorithm,
                    root=hub_root(graph),
                )
            ]

        levels = record_at_every_run_length(monkeypatch, drive)[0].levels
        for label, recorder in zip(RUN_LENGTHS, recorders):
            handed = streamed = 0
            for (iteration, p), (lo, records, calls) in recorder.scans().items():
                for src_local, src_global, _ in calls:
                    assert np.array_equal(src_local, src_global.astype(np.int64) - lo)
                    assert src_local.flags.writeable == (iteration == 0), label
                at = stream_positions(
                    records, concatenated(calls, 1), concatenated(calls, 2)
                )
                # An edge is spent once its source was active: at the pass
                # of the source's level.
                level = levels[records["src"]]
                spent = (level >= 0) & (level < iteration)
                assert np.isin(np.flatnonzero(~spent), at).all(), label
                dead = np.count_nonzero(spent[at])
                assert dead == 0 or dead < share * len(at), (label, iteration, p)
                if iteration:
                    handed += len(at)
                    streamed += len(records)
            assert 0 < handed < streamed / 2, label

    @pytest.mark.parametrize("kernel", ["wcc", "pagerank", "weighted-sssp"])
    def test_other_kernels_see_every_edge_from_one_held_cast(
        self, monkeypatch, graph, kernel
    ):
        if kernel == "wcc":
            graph, algorithm = graph.symmetrized(), lambda: WCCAlgorithm()
        elif kernel == "pagerank":
            algorithm = lambda: PageRankAlgorithm(graph.out_degrees(), 3)
        else:
            algorithm = lambda: WeightedSSSPAlgorithm()
        recorders = []

        def drive():
            engine = ENGINES["x-stream"]()
            recorder = _SourceRecorder(engine, algorithm())
            recorders.append(recorder)
            return [
                engine.run(
                    graph, fresh_machine(), algorithm=recorder.algorithm,
                    root=hub_root(graph),
                )
            ]

        record_at_every_run_length(monkeypatch, drive)
        for label, recorder in zip(RUN_LENGTHS, recorders):
            held = {}
            for (iteration, p), (lo, records, calls) in recorder.scans().items():
                assert np.array_equal(concatenated(calls, 1), records["src"])
                assert np.array_equal(concatenated(calls, 2), records["dst"])
                for src_local, src_global, _ in calls:
                    assert np.array_equal(src_local, src_global.astype(np.int64) - lo)
                    # The first scan fills the held cast run by run (it
                    # writes no stay file); every rescan reads it.
                    assert src_local.flags.writeable == (iteration == 0), label
                    assert src_local.base is held.setdefault(p, src_local.base)
                    assert len(src_local.base) == len(records)
            assert len(held) == 4, label
            assert len({id(cast) for cast in held.values()}) == 4

    def test_replaced_records_reset_the_set(self, monkeypatch, graph):
        # Compact at every rescan, so the set the damage resets is not
        # the whole file.
        monkeypatch.setattr(base, "COMPACT_DEAD_SHARE", 0.0)
        root = hub_root(graph)
        engine = ENGINES["x-stream"]()
        recorder = _SourceRecorder(engine, BFSAlgorithm())
        finish_pass = engine._finish_pass
        corrupted = []

        def corrupt_after_pass_one(rt, stats):
            finish_pass(rt, stats)
            if stats.iteration != 1:
                return
            # Flip the low byte of a source that stays inside the root's
            # partition, so the damaged file still traverses.
            p = int(rt.staged.partitioning.partition_of(np.array([root]))[0])
            edge_file = rt.edge_files[p]
            lo, hi = rt.staged.partitioning.range_of(p)
            src = edge_file.records()["src"].astype(np.int64)
            k = int(np.flatnonzero(((src ^ 0xFF) >= lo) & ((src ^ 0xFF) < hi))[0])
            edge_file.corrupt_at(k * EDGE_DTYPE.itemsize + EDGE_DTYPE.fields["src"][1])
            corrupted.append((p, k, int(src[k] ^ 0xFF)))

        engine._finish_pass = corrupt_after_pass_one
        result = engine.run(
            graph, fresh_machine(), algorithm=recorder.algorithm, root=root,
        )
        assert result.num_iterations > 3 and corrupted
        p, k, damaged = corrupted[0]
        scans = recorder.scans()
        lo, before, calls = scans[(1, p)]
        # Pass 1 no longer hands the root's edges: pass 0 spent them.
        assert len(concatenated(calls, 1)) < len(before)
        lo, after, calls = scans[(2, p)]
        assert after is not before
        # The damaged array is new input: scanned whole, cast per run.
        assert np.array_equal(concatenated(calls, 1), after["src"])
        assert concatenated(calls, 1)[k] == damaged
        assert all(call[0].flags.writeable for call in calls)
        later = [scan for (i, q), scan in scans.items() if i > 2 and q == p]
        assert later
        for lo, records, calls in later:
            assert records is after
            stream_positions(records, concatenated(calls, 1), concatenated(calls, 2))
            assert not any(call[0].flags.writeable for call in calls)
        for lo, _, calls in scans.values():
            for src_local, src_global, _ in calls:
                assert np.array_equal(src_local, src_global.astype(np.int64) - lo)

    @pytest.mark.parametrize("share", [base.COMPACT_DEAD_SHARE, 0.0])
    def test_stay_writer_on_a_rescanned_file_sees_whole_runs(
        self, monkeypatch, graph, share
    ):
        """FastBFS trimming from pass 2 scans the staged files in passes 0
        and 1, then trims them: survivors include the edges spent in pass
        0, so the kernel sees pass 2's runs whole, and the run equals one
        where every rescan is handed whole."""
        monkeypatch.setattr(base, "COMPACT_DEAD_SHARE", share)
        root = hub_root(graph)

        def run(whole):
            engine = ENGINES["fastbfs"](trim_start_iteration=2)
            if whole:
                # A set that never learns what its rescans eliminated
                # hands every rescan to the kernel whole.
                held_edges = engine._held_edges

                def whole_runs(rt, p, records, lo):
                    held = held_edges(rt, p, records, lo)
                    if held is not None:
                        held.dead = None
                    return held

                engine._held_edges = whole_runs
            recorder = _SourceRecorder(engine, BFSAlgorithm())
            result = engine.run(
                graph, fresh_machine(), algorithm=recorder.algorithm, root=root
            )
            return result, recorder.scans()

        def recorded(whole):
            with monkeypatch.context() as patch:
                patch.setattr(base, "HOST_RUN_RECORDS", run_records)
                return ScheduleRecorder(patch), *run(whole)

        for label, run_records in RUN_LENGTHS.items():
            live, result, scans = recorded(whole=False)
            whole, whole_result, _ = recorded(whole=True)
            assert_same_sequence("time-path call", whole.calls, live.calls, label)
            assert_same_sequence("sealed file", whole.sealed, live.sealed, label)
            assert_same_results([whole_result], [result])
            assert result.extras["stay_bytes_written"] > 0
            assert np.array_equal(result.levels, bfs_levels(graph, root))
            rescanned = 0
            for (iteration, p), (lo, records, calls) in scans.items():
                if iteration != 2 or scans[(1, p)][1] is not records:
                    continue
                rescanned += 1
                assert np.array_equal(concatenated(calls, 1), records["src"])
                assert np.array_equal(concatenated(calls, 2), records["dst"])
            assert rescanned == 4, label
            hub = [len(concatenated(scans[(1, p)][2], 1)) < len(scans[(1, p)][1])
                   for p in range(4)]
            assert any(hub) == (share == 0.0), label

    def test_cancelled_stay_write_rescan_matches_reference(self, graph):
        config = small_fastbfs_config(
            cancellation_grace=0.0, num_stay_buffers=64, stay_disk=1,
        )
        root = hub_root(graph)
        engine = FastBFSEngine(config)
        recorder = _SourceRecorder(engine, BFSAlgorithm())
        result = engine.run(
            graph, slow_stay_disk_machine(8192), algorithm=recorder.algorithm,
            root=root,
        )
        assert result.extras["stay_cancellations"] > 0
        # A cancelled stay write sends its partition back to the file it
        # just scanned: that rescan reads held edges.
        assert any(not seen[4].flags.writeable for seen in recorder.seen)
        assert np.array_equal(result.levels, bfs_levels(graph, root))


def schedule_digest(records) -> str:
    """sha256 of a list of tuples, independent of ``repr``.

    Integers (numpy's too) are packed as int64 and floats as IEEE doubles
    with ``struct``, strings and bytes length-prefixed, each behind a type
    tag, so numpy 1.x / 2.x and Python 3.9 / 3.11 hash the same schedule
    to the same digest.  Takes ``ScheduleRecorder.calls`` or ``.sealed``.
    """
    digest = hashlib.sha256()
    for record in records:
        digest.update(struct.pack("<B", len(record)))
        for value in record:
            if isinstance(value, (str, bytes)):
                raw = value.encode() if isinstance(value, str) else value
                digest.update(b"s" + struct.pack("<I", len(raw)) + raw)
            elif isinstance(value, (int, np.integer)):
                digest.update(b"i" + struct.pack("<q", int(value)))
            else:
                digest.update(b"f" + struct.pack("<d", float(value)))
    return digest.hexdigest()


def _faulted_machine(*specs, seed=0):
    return Machine(
        [DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
        fault_plan=FaultPlan(specs=specs, seed=seed),
    )


#: The digest rows also pin GraphChi, which has no host runs to vary.
DIGEST_ENGINES = {
    **ENGINES,
    "graphchi": lambda **kw: GraphChiEngine(GraphChiConfig(num_shards=4, **kw)),
}


def _single(engine, algorithm=None, symmetrize=False, machine=fresh_machine,
            **config):
    def drive(graph):
        if symmetrize:
            graph, root = graph.symmetrized(), 0
        else:
            root = hub_root(graph)
        return [
            DIGEST_ENGINES[engine](**config).run(
                graph, machine(), algorithm=algorithm and algorithm(), root=root
            )
        ]

    return drive


def _batched_64(graph):
    roots = [int(v) for v in np.argsort(-graph.out_degrees(), kind="stable")[:64]]
    batch = ENGINES["fastbfs"]().run_many(
        graph, fresh_machine(), roots, mode="batched"
    )
    assert batch.mode == "batched"
    return batch.queries


def _graphchi_two_roots(graph):
    roots = [int(v) for v in np.argsort(-graph.out_degrees(), kind="stable")[:2]]
    return DIGEST_ENGINES["graphchi"]().run_many(graph, fresh_machine(), roots).queries


#: scenario -> (drive(graph) -> [EngineResult], the extras the row must show
#: are non-zero so that it exercises what its name says).
DIGEST_SCENARIOS = {
    **{
        f"{engine} {name}": (_single(engine, algorithm, symmetrize), ())
        for engine in ENGINES
        for name, algorithm, symmetrize in (
            ("bfs", None, False),
            ("unit-sssp", UnitSSSPAlgorithm, False),
            ("wcc", WCCAlgorithm, True),
        )
    },
    "fastbfs bfs torn-stay": (
        _single("fastbfs", machine=lambda: _faulted_machine(
            FaultSpec(kind="torn_write", role="stay", probability=0.5), seed=3,
        )),
        ("stay_integrity_failures", "stay_swaps"),
    ),
    "fastbfs bfs transient": (
        _single("fastbfs", machine=lambda: _faulted_machine(
            FaultSpec(kind="transient_error", probability=0.05), seed=5,
        )),
        ("stay_swaps",),
    ),
    # Extended trim widens the mask only after a cancellation put trimmed
    # edges back, so this is the row where the two engines part.
    **{
        f"{engine} bfs slow-stay-disk": (
            _single(
                engine, machine=lambda: slow_stay_disk_machine(8192),
                cancellation_grace=0.0, num_stay_buffers=4, stay_disk=1,
            ),
            ("stay_cancellations", "stay_swaps", "stay_pool_waits"),
        )
        for engine in ("fastbfs", "fastbfs-extended")
    },
    "fastbfs batched-64": (_batched_64, ()),
    "graphchi bfs": (_single("graphchi"), ()),
    "graphchi wcc": (_single("graphchi", WCCAlgorithm, True), ()),
    "graphchi run_many": (_graphchi_two_roots, ()),
}

#: scenario -> (digest of the time-path calls, digest of the sealed files).
#: Recorded at the parent of the PR that made stay records single-copy
#: (commit f52d07b) and regenerated only by a PR whose stated purpose is to
#: change the schedule: print ``TestScheduleDigests.record(...)`` for the
#: moved rows and say in CHANGES.md why they moved.
SCHEDULE_DIGESTS = {
    "fastbfs bfs": (
        "068b47d8148d12bfaf26a9263a258c5ba5ddaaad67458a62011a0c307d98872d",
        "ce798db1ab8e1e5b218fa80d39abed759874c26dfe88bb0ca758020819b528b4",
    ),
    "fastbfs unit-sssp": (
        "068b47d8148d12bfaf26a9263a258c5ba5ddaaad67458a62011a0c307d98872d",
        "ce798db1ab8e1e5b218fa80d39abed759874c26dfe88bb0ca758020819b528b4",
    ),
    "fastbfs wcc": (
        "54664a6ff31cd4529fbb9cd7f4bb4924258169d99d25f908b04c5ecc96d7d465",
        "e770fb2d901292296f64d2dcfd844c94ace01c59519e6d5fbf50d1e1b96f6b04",
    ),
    "fastbfs-extended bfs": (
        "068b47d8148d12bfaf26a9263a258c5ba5ddaaad67458a62011a0c307d98872d",
        "ce798db1ab8e1e5b218fa80d39abed759874c26dfe88bb0ca758020819b528b4",
    ),
    "fastbfs-extended unit-sssp": (
        "068b47d8148d12bfaf26a9263a258c5ba5ddaaad67458a62011a0c307d98872d",
        "ce798db1ab8e1e5b218fa80d39abed759874c26dfe88bb0ca758020819b528b4",
    ),
    "fastbfs-extended wcc": (
        "54664a6ff31cd4529fbb9cd7f4bb4924258169d99d25f908b04c5ecc96d7d465",
        "e770fb2d901292296f64d2dcfd844c94ace01c59519e6d5fbf50d1e1b96f6b04",
    ),
    "x-stream bfs": (
        "107563a6f98b636be793c96b6554a123c00c4629415f8ace3d67e499b6fcf409",
        "ef2249bed1e393cbb0fabde3d9cad40413d176a30cf498b045bb76b4656abedf",
    ),
    "x-stream unit-sssp": (
        "107563a6f98b636be793c96b6554a123c00c4629415f8ace3d67e499b6fcf409",
        "ef2249bed1e393cbb0fabde3d9cad40413d176a30cf498b045bb76b4656abedf",
    ),
    "x-stream wcc": (
        "35030af555131c28aaefcc2e9a4603adc7c76d87d1cbbad210f876ab8e3066e4",
        "e770fb2d901292296f64d2dcfd844c94ace01c59519e6d5fbf50d1e1b96f6b04",
    ),
    "fastbfs bfs torn-stay": (
        "6062542add19229edffafac9b1b1ba3ac367183217508f2c020fd84f8f44d65a",
        "b11363f3facd1a616b4a2501b498178b96915cb25d3f6f56e9a97fa351004a68",
    ),
    "fastbfs bfs transient": (
        "5298355a64a4aac21ef663302a1f3e25d2d7db10489f118c361357bafd46b564",
        "ce798db1ab8e1e5b218fa80d39abed759874c26dfe88bb0ca758020819b528b4",
    ),
    "fastbfs bfs slow-stay-disk": (
        "c1487128e16181b8fc53110a723adf904043931865cee575c9627f13d1191590",
        "ce981c73e4cfb9652ea94abbe453a425c02731a62935f1f9eb3f3c6dde1ca551",
    ),
    "fastbfs-extended bfs slow-stay-disk": (
        "4425855fd4f3e4d15d10749f10995df14535ffb58a0fa51a0951a7822a0c4c71",
        "ce798db1ab8e1e5b218fa80d39abed759874c26dfe88bb0ca758020819b528b4",
    ),
    "fastbfs batched-64": (
        "97c47dc27fd8b15299214eae1004fcebc809c0c50fb65c7eba87558fb23194cd",
        "a6dee46f760a89ce35c042afb22d6290459e75c5eec31874d64032905043f9c1",
    ),
    # The GraphChi rows were recorded at commit 325c906, while GraphChi still
    # ran its own query loop; it seals no file, hence the empty-input digest.
    "graphchi bfs": (
        "540bce9ee188f60f9ac079540a0a6b28c08bea1f09a513c854047ae620f39c69",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "graphchi wcc": (
        "e3e52068f52f3b2fe8c05d56157b52b61bf5bf79ba991ffd0a3d7fa7596a9836",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "graphchi run_many": (
        "76ab1aa393a9d84257ae12167f49b7fc4dc1579b4ccfdc4c96282df6f317bd02",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


class TestScheduleDigests:
    """The schedule of the parent commit, pinned as digests.

    ``TestScheduleIdentity`` proves host granularity moves nothing *within*
    a commit; this table proves a data-path change moved nothing *across*
    commits: every ``Device.submit``, ``charge_compute`` and ``wait_until``
    argument, every stay ``cancel()`` count, each result's ``extras`` and
    every sealed file byte.
    """

    @staticmethod
    def record(monkeypatch, graph, scenario, stretches=None):
        """The two digests of ``scenario``; ``stretches``, if given, gets
        the number of stretches its readers replayed in closed form."""
        drive, must_show = DIGEST_SCENARIOS[scenario]
        with monkeypatch.context() as patch:
            recorder = ScheduleRecorder(patch)
            cancel = AsyncStreamWriter.cancel

            def record_cancel(self):
                dropped = cancel(self)
                recorder.calls.append(("cancel", self.file.name, dropped))
                return dropped

            patch.setattr(AsyncStreamWriter, "cancel", record_cancel)
            results = drive(graph)
        for result in results:
            recorder.calls.extend(
                ("extra", key, value) for key, value in sorted(result.extras.items())
            )
        for key in must_show:
            assert results[0].extras[key] > 0, key
        assert any(call[0] == "submit" for call in recorder.calls)
        if stretches is not None:
            stretches.append(recorder.stretches)
        return schedule_digest(recorder.calls), schedule_digest(recorder.sealed)

    @pytest.mark.parametrize("scenario", DIGEST_SCENARIOS)
    def test_schedule_is_the_recorded_one(self, monkeypatch, graph, scenario):
        calls, sealed = self.record(monkeypatch, graph, scenario)
        want_calls, want_sealed = SCHEDULE_DIGESTS[scenario]
        assert calls == want_calls, "time-path calls moved"
        assert sealed == want_sealed, "sealed file bytes moved"

    @pytest.mark.parametrize("scenario", DIGEST_SCENARIOS)
    def test_stretches_keep_the_recorded_schedule(self, monkeypatch, graph, scenario):
        # The fixture's partition files are about 8 buffers long, shorter
        # than a stretch at the real minimum: at one buffer, every reader
        # of an untraced, fault-free device replays its quiet buffers in
        # closed form wherever each read is waited on.
        monkeypatch.setattr(streams, "MIN_STRETCH_BUFFERS", 1)
        stretches = []
        calls, sealed = self.record(monkeypatch, graph, scenario, stretches)
        want_calls, want_sealed = SCHEDULE_DIGESTS[scenario]
        assert calls == want_calls, "time-path calls moved"
        assert sealed == want_sealed, "sealed file bytes moved"
        if scenario in ("fastbfs bfs", "x-stream bfs"):
            assert stretches[0] > 0

    def test_digest_does_not_depend_on_repr(self):
        plain = [("submit", "hdd0", 4096, 0.5), ("wait", 2)]
        numpy_typed = [
            ("submit", "hdd0", np.int64(4096), np.float64(0.5)),
            ("wait", np.uint32(2)),
        ]
        assert schedule_digest(plain) == schedule_digest(numpy_typed)
        assert schedule_digest(plain) != schedule_digest([("wait", 2.0)])


class TestFedOncePerFlush:
    """The replay feeds a writer where it flushes, plus one tail per run."""

    @pytest.mark.parametrize("label", ["three buffers", "whole file"])
    def test_batched_run(self, monkeypatch, graph, label):
        monkeypatch.setattr(base, "HOST_RUN_RECORDS", RUN_LENGTHS[label])
        events = []  # ("run",) per host run; (writer, flushed) per append
        host_runs, append = base._host_runs, StreamWriter.append

        def marked_runs(reader):
            for cut in host_runs(reader):
                events.append(("run",))
                yield cut

        def counted_append(self, arr):
            before = self.flush_count
            append(self, arr)
            events.append((self, self.flush_count != before))

        monkeypatch.setattr(base, "_host_runs", marked_runs)
        monkeypatch.setattr(StreamWriter, "append", counted_append)
        roots = [int(v) for v in np.argsort(-graph.out_degrees(), kind="stable")[:8]]
        batch = ENGINES["fastbfs"]().run_many(
            graph, fresh_machine(), roots, mode="batched"
        )
        assert batch.mode == "batched"

        runs = sum(1 for event in events if event[0] == "run")
        appends = [event for event in events if event[0] != "run"]
        flushing = sum(1 for _, flushed in appends if flushed)
        assert runs > 3 and flushing > 50
        # Per run, at most one append per writer does not flush (its tail).
        tails = set()
        for event in events:
            if event[0] == "run":
                tails.clear()
            elif not event[1]:
                writer = event[0]
                assert writer not in tails, f"{writer.file.name}: two tails in a run"
                tails.add(writer)
        kinds = {type(writer) for writer, _ in appends}
        assert kinds == {StreamWriter, AsyncStreamWriter}  # updates, staging, stay


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
            machine.clock, file, buffer_records * EDGE_DTYPE.itemsize,
            prefetch=2, group="read:edges",
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
