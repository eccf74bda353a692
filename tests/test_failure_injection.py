"""Failure-path tests: forced cancellations, exhausted buffer pools,
starved devices — correctness must survive every degraded mode.
"""

import numpy as np

from tests.helpers import (
    checked_run,
    fresh_machine,
    graph_from_pairs,
    hub_root,
    slow_stay_disk_machine,
    small_fastbfs_config,
    stay_append,
)

from repro.algorithms.reference import bfs_levels
from repro.core.engine import FastBFSEngine
from repro.storage.device import DeviceSpec
from repro.storage.machine import Machine
from repro.utils.units import MB


def slow_write_machine(write_bandwidth=0.5 * MB, memory=2 * MB):
    """A machine whose writes crawl: stay files are never ready in time."""
    spec = DeviceSpec(
        "slow", seek_time=0.0, read_bandwidth=200 * MB,
        write_bandwidth=write_bandwidth,
    )
    return Machine([spec], memory=memory)


class TestForcedCancellation:
    """Each run cancels and still reads the volume formula fed its
    cancels: a cancelled partition rescans its older edge file."""

    def test_zero_grace_with_slow_stay_disk_cancels(self, rmat12):
        root = hub_root(rmat12)
        engine = FastBFSEngine(
            small_fastbfs_config(
                cancellation_grace=0.0, num_stay_buffers=64, stay_disk=1
            )
        )
        result = checked_run(engine, rmat12, slow_stay_disk_machine(), root)
        assert result.extras["stay_cancellations"] > 0
        assert np.array_equal(result.levels, bfs_levels(rmat12, root))

    def test_cancellation_falls_back_to_previous_file(self, rmat12):
        """After a cancel, the next iteration rescans the old edge file —
        more I/O than the happy path, same answer."""
        root = hub_root(rmat12)
        happy = checked_run(
            FastBFSEngine(small_fastbfs_config()), rmat12, fresh_machine(), root
        )
        degraded = checked_run(
            FastBFSEngine(
                small_fastbfs_config(
                    cancellation_grace=0.0, num_stay_buffers=64, stay_disk=1
                )
            ),
            rmat12, slow_stay_disk_machine(), root,
        )
        assert degraded.extras["stay_cancellations"] > 0
        assert degraded.edges_scanned > happy.edges_scanned
        assert np.array_equal(degraded.levels, happy.levels)

    def test_nonempty_stays_all_cancelled(self, rmat12):
        """Pathological stay disk: only trivially-empty stay files swap in."""
        root = hub_root(rmat12)
        engine = FastBFSEngine(
            small_fastbfs_config(
                cancellation_grace=0.0, num_stay_buffers=1024, stay_disk=1
            )
        )
        result = checked_run(
            engine, rmat12, slow_stay_disk_machine(write_bandwidth=1024), root
        )
        assert np.array_equal(result.levels, bfs_levels(rmat12, root))
        assert result.extras["stay_cancellations"] > 0

    def test_pending_stay_waits_for_the_next_scheduled_scatter(self):
        """BFS levels alternate between the two partitions, so each one
        sits out every other pass: its stay file stays pending across the
        skipped pass and the scatter after it cancels the file, rescanning
        the edges the file had trimmed."""
        blocks = [range(0, 1), range(500, 550), range(100, 150),
                  range(550, 600), range(150, 200)]  # one level each
        graph = graph_from_pairs(1000, [
            (u, blocks[k + 1][(i + t) % len(blocks[k + 1])])
            for k in range(4) for i, u in enumerate(blocks[k])
            for t in range(8 if k else 50)
        ])
        engine = FastBFSEngine(
            small_fastbfs_config(
                cancellation_grace=0.0, num_stay_buffers=64, stay_disk=1,
                num_partitions=2,
            )
        )
        result = checked_run(
            engine, graph, slow_stay_disk_machine(write_bandwidth=1024), 0
        )
        assert [it.partitions_skipped for it in result.iterations] == [1] * 5
        assert [it.stay_cancelled for it in result.iterations] == [
            [], [], [0], [1], [0]
        ]
        assert np.array_equal(result.levels, bfs_levels(graph, 0))


class TestBufferPoolExhaustion:
    def test_single_buffer_pool_still_correct(self, rmat12):
        root = hub_root(rmat12)
        ref = bfs_levels(rmat12, root)
        engine = FastBFSEngine(
            small_fastbfs_config(num_stay_buffers=1, stay_buffer_bytes=256)
        )
        result = engine.run(rmat12, fresh_machine(), root=root)
        assert np.array_equal(result.levels, ref)
        assert result.extras["stay_pool_waits"] > 0

    def test_pool_waits_slow_the_run(self, rmat12):
        root = hub_root(rmat12)
        starved = FastBFSEngine(
            small_fastbfs_config(num_stay_buffers=1, stay_buffer_bytes=256)
        ).run(rmat12, slow_write_machine(write_bandwidth=2 * MB), root=root)
        roomy = FastBFSEngine(
            small_fastbfs_config(num_stay_buffers=64, stay_buffer_bytes=256)
        ).run(rmat12, slow_write_machine(write_bandwidth=2 * MB), root=root)
        assert starved.extras["stay_pool_waits"] > roomy.extras["stay_pool_waits"]
        assert starved.execution_time >= roomy.execution_time

    def test_tunable_buffers_avoid_the_wait(self, rmat12):
        """Paper §III: 'user can utilize larger memory space and more edge
        buffers to avoid the first condition'."""
        root = hub_root(rmat12)
        result = FastBFSEngine(
            small_fastbfs_config(num_stay_buffers=256, stay_buffer_bytes=8192)
        ).run(rmat12, fresh_machine(), root=root)
        assert result.extras["stay_pool_waits"] == 0


class TestDegradedHardware:
    def test_tiny_memory_many_partitions(self, rmat12):
        root = hub_root(rmat12)
        ref = bfs_levels(rmat12, root)
        machine = fresh_machine(memory=48 * 1024)
        engine = FastBFSEngine(
            small_fastbfs_config(num_partitions=None)  # plan from memory
        )
        result = engine.run(rmat12, machine, root=root)
        assert result.extras["partitions"] >= 2
        assert np.array_equal(result.levels, ref)

    def test_single_core_machine(self, rmat10):
        root = hub_root(rmat10)
        machine = fresh_machine(cores=1)
        result = FastBFSEngine(small_fastbfs_config(threads=8)).run(
            rmat10, machine, root=root
        )
        assert np.array_equal(result.levels, bfs_levels(rmat10, root))

    def test_asymmetric_disks(self, rmat10):
        """Disk 1 much slower than disk 0: rotation still correct."""
        root = hub_root(rmat10)
        specs = [
            DeviceSpec.hdd("fast"),
            DeviceSpec("slowdisk", seek_time=0.02, read_bandwidth=10 * MB,
                       write_bandwidth=5 * MB),
        ]
        machine = Machine(specs, memory=2 * MB)
        result = FastBFSEngine(
            small_fastbfs_config(rotate_streams=True)
        ).run(rmat10, machine, root=root)
        assert np.array_equal(result.levels, bfs_levels(rmat10, root))


class TestEndOfRunCancellation:
    """StayStreamManager.discard_all, the end-of-run teardown: terminal
    discards, traced and counted."""

    def _manager(self, tracer=None):
        from repro.core.staystream import StayStreamManager
        from repro.obs.tracer import NULL_TRACER
        from repro.sim.clock import SimClock
        from repro.storage.device import Device
        from repro.storage.vfs import VFS

        clock = SimClock()
        device = Device(DeviceSpec.hdd("d0"))
        vfs = VFS()
        if tracer is not None:
            tracer.bind_clock(clock)
        mgr = StayStreamManager(
            clock, vfs, device, small_fastbfs_config(),
            tracer=tracer if tracer is not None else NULL_TRACER,
        )
        return mgr, vfs

    def _edges(self, n):
        from repro.graph.types import make_edges

        idx = np.arange(n, dtype=np.uint32)
        return make_edges(idx, idx)

    def test_finalize_discards_every_outstanding_writer(self):
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        mgr, vfs = self._manager(tracer=tracer)
        input_file = vfs.create("edges:p0", mgr.device)
        input_file.append_records(self._edges(40))
        with tracer.span("query"):
            for p in (0, 1):
                mgr.open(p, iteration=1, input_file=input_file)
                stay_append(mgr, self._edges(40), p)
                mgr.finish_partition(p)
            # still current, not yet finished
            mgr.open(2, iteration=1, input_file=input_file)
            stay_append(mgr, self._edges(8), 2)
            mgr.discard_all()
        assert mgr.stats.end_of_run_discards == 3
        assert mgr._pending == {}
        assert mgr.current(2) is None
        # Discarded stay files are gone from the namespace.
        assert [n for n in vfs.names() if n.startswith("stay:")] == []
        assert vfs.names() == ["edges:p0"]
        cancels = [s for s in tracer.spans if s.name == "stay_cancel"]
        assert len(cancels) == 3
        assert all(s.attrs["end_of_run"] is True for s in cancels)
        assert all(s.attrs["reason"] == "end_of_run" for s in cancels)

    def test_finalize_on_empty_manager_is_a_noop(self):
        from repro.core.staystream import StayStats

        mgr, _ = self._manager()
        mgr.discard_all()
        assert mgr.stats == StayStats()

    def test_run_reconciles_cancellations_with_spans(self, rmat12):
        """The passes' stay cancellations == mid-run stay_cancel spans, and
        end-of-run discards are traced separately — the two countings
        always agree with the extras the engine reports."""
        from repro.obs.tracer import Tracer

        root = hub_root(rmat12)
        machine = slow_stay_disk_machine()
        machine.attach_tracer(Tracer())
        engine = FastBFSEngine(
            small_fastbfs_config(
                cancellation_grace=0.0, num_stay_buffers=64, stay_disk=1
            )
        )
        result = engine.run(rmat12, machine, root=root)
        assert result.extras["stay_cancellations"] > 0
        cancels = [s for s in machine.tracer.spans if s.name == "stay_cancel"]
        mid_run = [s for s in cancels if s.attrs["end_of_run"] is False]
        end_of_run = [s for s in cancels if s.attrs["end_of_run"] is True]
        cancelled = [p for it in result.iterations for p in it.stay_cancelled]
        assert len(mid_run) == len(cancelled) == result.extras["stay_cancellations"]
        assert sorted(s.attrs["partition"] for s in mid_run) == sorted(cancelled)
        assert len(end_of_run) == result.extras["stay_end_of_run_discards"]
        assert {s.attrs["reason"] for s in mid_run} <= {
            "not_ready", "write_failure", "checksum_mismatch"
        }
        assert np.array_equal(result.levels, bfs_levels(rmat12, root))
