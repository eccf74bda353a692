"""Unit tests for deterministic fault injection and the recovery layers.

Covers the plan/spec/injector contracts, the stream-layer retry loop, the
stay-file integrity fallback, crash/resume through QuerySession.recover,
and the chaos harness built on all of it.
"""

import zlib
from functools import partial

import numpy as np
import pytest

from tests.helpers import (
    ScheduleRecorder,
    checked_run,
    fresh_machine,
    hub_root,
    small_fastbfs_config,
    stay_append,
)

from repro.algorithms.reference import bfs_levels
from repro.core.engine import FastBFSEngine
from repro.errors import (
    ConfigError,
    CrashError,
    EngineError,
    IOFaultError,
    OutOfSpaceError,
    PersistentIOError,
    TransientIOError,
)
from repro.obs.counters import CounterRegistry
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    submit_with_retry,
)
from repro.storage.machine import Machine
from repro.storage.streams import AsyncStreamWriter, StreamReader, StreamWriter
from repro.storage.vfs import VFS, VirtualFile
from repro.utils.units import MB


def edges_of(n, start=0):
    from repro.graph.types import make_edges

    idx = np.arange(start, start + n, dtype=np.uint32)
    return make_edges(idx, idx)


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="gremlins")

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="transient_error", probability=1.5)

    def test_delay_kind_needs_delay(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="latency")

    def test_torn_write_rejects_read_filter(self):
        with pytest.raises(ConfigError):
            FaultSpec(kind="torn_write", io_kind="read")

    def test_write_only_kinds_skip_reads_implicitly(self):
        spec = FaultSpec(kind="torn_write")
        assert not spec.matches("d", "read", "stay", 0)
        assert spec.matches("d", "write", "stay", 0)

    def test_crash_point_helper(self):
        plan = FaultPlan.crash_point(after_index=7, seed=3)
        assert len(plan.specs) == 1
        assert plan.specs[0].kind == "crash"
        assert plan.specs[0].max_fires == 1
        assert plan.seed == 3

    def test_retry_policy_validation(self):
        assert FaultPlan().max_attempts == 3
        with pytest.raises(ConfigError):
            FaultPlan(max_attempts=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
    def test_plan_seed_must_be_a_non_negative_integer(self, seed):
        # numpy would refuse it later, untyped, when the machine is built.
        with pytest.raises(ConfigError, match="non-negative integer"):
            FaultPlan(seed=seed)

    def test_numpy_integer_seed_is_accepted(self):
        assert FaultPlan(seed=np.int64(5)).seed == 5

    def test_serve_fault_plan_checks_the_seed_before_drawing(self):
        from repro.tooling.chaos import serve_fault_plan

        with pytest.raises(ConfigError, match="got -1"):
            serve_fault_plan("hostile", -1)


class TestFaultInjector:
    def _submit_all(self, injector, count=40):
        """Submit ``count`` reads through a faulted device; return the
        indices at which a transient fault fired."""
        device = Device(DeviceSpec.hdd("d0"))
        device.injector = injector
        fired = []
        for i in range(count):
            try:
                device.submit(0.0, "read", 100, file_id=1, offset=i * 100,
                              group="edges:p0")
            except TransientIOError:
                fired.append(i)
        return fired

    def test_same_plan_same_seed_same_schedule(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", probability=0.3),),
            seed=42,
        )
        a = self._submit_all(FaultInjector(plan, clock=SimClock()))
        b = self._submit_all(FaultInjector(plan, clock=SimClock()))
        assert a == b
        assert a  # the schedule actually fires at p=0.3 over 40 requests

    def test_different_seeds_differ(self):
        spec = FaultSpec(kind="transient_error", probability=0.3)
        a = self._submit_all(
            FaultInjector(FaultPlan(specs=(spec,), seed=1), clock=SimClock())
        )
        b = self._submit_all(
            FaultInjector(FaultPlan(specs=(spec,), seed=2), clock=SimClock())
        )
        assert a != b

    def test_max_fires_budget(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", max_fires=2),), seed=0
        )
        fired = self._submit_all(FaultInjector(plan, clock=SimClock()))
        assert fired == [0, 1]

    def test_after_index_offsets_the_schedule(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", after_index=5,
                             max_fires=1),),
            seed=0,
        )
        fired = self._submit_all(FaultInjector(plan, clock=SimClock()))
        assert fired == [5]

    def test_budgets_survive_snapshot_restore(self):
        """restore() rewinds the schedule position, never the fire budget:
        a consumed one-shot fault does not re-fire after recovery."""
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", after_index=3,
                             max_fires=1),),
            seed=0,
        )
        injector = FaultInjector(plan, clock=SimClock())
        device = Device(DeviceSpec.hdd("d0"))
        device.injector = injector
        snap = injector.snapshot()
        raises = 0
        for _ in range(2):  # original run, then the replay after restore
            for i in range(8):
                try:
                    device.submit(0.0, "read", 10, file_id=1, offset=0,
                                  group="g")
                except TransientIOError:
                    raises += 1
            injector.restore(snap)
        assert raises == 1
        assert injector.total("fault_transient_error") == 1

    def test_persistent_fault_raises_typed(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="persistent_error", max_fires=1),), seed=0
        )
        device = Device(DeviceSpec.hdd("d0"))
        device.injector = FaultInjector(plan, clock=SimClock())
        with pytest.raises(PersistentIOError):
            device.submit(0.0, "write", 10, file_id=1, offset=0, group="g")

    def test_latency_fault_inflates_service_time(self):
        device = Device(DeviceSpec("d0", seek_time=0.0, read_bandwidth=MB,
                                   write_bandwidth=MB))
        clean = device.submit(0.0, "read", 1000, file_id=1, offset=0,
                              group="g")
        plan = FaultPlan(
            specs=(FaultSpec(kind="latency", delay_seconds=0.5),), seed=0
        )
        slow_dev = Device(DeviceSpec("d0", seek_time=0.0, read_bandwidth=MB,
                                     write_bandwidth=MB))
        slow_dev.injector = FaultInjector(plan, clock=SimClock())
        slow = slow_dev.submit(0.0, "read", 1000, file_id=1, offset=0,
                               group="g")
        assert slow.end - slow.start == pytest.approx(
            (clean.end - clean.start) + 0.5
        )

    def test_out_of_space_fault_uses_the_choke_point(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="out_of_space", max_fires=1),), seed=0
        )
        device = Device(DeviceSpec.hdd("d0"))
        device.injector = FaultInjector(plan, clock=SimClock())
        with pytest.raises(OutOfSpaceError) as exc_info:
            device.submit(0.0, "write", 10, file_id=1, offset=0, group="g")
        assert "'d0'" in str(exc_info.value)


class TestRetryLoop:
    def _setup(self, plan):
        clock = SimClock()
        device = Device(DeviceSpec.hdd("d0"))
        device.injector = FaultInjector(plan, clock=clock)
        vfs = VFS()
        f = vfs.create("f", device)
        f.append_records(edges_of(100))
        f.seal()
        return clock, device, f

    def test_retries_absorb_transients(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", max_fires=2),), seed=0,
            max_attempts=4,
        )
        clock, device, f = self._setup(plan)
        req = submit_with_retry(
            clock, f, kind="read", nbytes=f.nbytes, offset=0, group="g",
        )
        assert req.nbytes == f.nbytes
        assert device.injector.total("io_retries") == 2
        assert device.injector.total("io_giveups") == 0
        assert clock.iowait_time > 0  # backoff landed in the iowait ledger

    def test_exhaustion_raises_io_fault_error(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error"),), seed=0  # always fails
        )
        clock, device, f = self._setup(plan)
        with pytest.raises(IOFaultError):
            # The plan's default budget: three attempts.
            submit_with_retry(
                clock, f, kind="read", nbytes=f.nbytes, offset=0, group="g",
            )
        assert device.injector.total("io_retries") == 2
        assert device.injector.total("io_giveups") == 1

    def test_one_attempt_budget_gives_up_on_first_fault(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", max_fires=1),), seed=0,
            max_attempts=1,
        )
        clock, device, f = self._setup(plan)
        with pytest.raises(IOFaultError) as exc_info:
            submit_with_retry(
                clock, f, kind="read", nbytes=f.nbytes, offset=0, group="g",
            )
        assert str(exc_info.value).startswith(
            "read on 'd0' (group 'g') still failing after 1 attempt(s): "
        )
        assert isinstance(exc_info.value.__cause__, TransientIOError)
        assert device.injector.total("io_retries") == 0
        assert device.injector.total("io_giveups") == 1
        assert clock.now == 0.0  # no backoff: the one attempt was the last

    def test_persistent_error_passes_straight_through(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="persistent_error", max_fires=1),), seed=0
        )
        clock, device, f = self._setup(plan)
        with pytest.raises(PersistentIOError):
            submit_with_retry(
                clock, f, kind="read", nbytes=f.nbytes, offset=0, group="g",
            )
        assert device.injector.total("io_retries") == 0

    def test_stream_reader_and_writer_take_retry_policy(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", probability=0.3),),
            seed=7,
            max_attempts=6,
        )
        clock, device, f_unused = self._setup(plan)
        vfs = VFS()
        f = vfs.create("rw", device)
        writer = StreamWriter(clock, f, buffer_bytes=256, group="write:rw")
        for i in range(20):
            writer.append(edges_of(30, start=i * 30))
        writer.close()
        reader = StreamReader(clock, f, buffer_bytes=256, prefetch=2, group="read:rw")
        got = np.concatenate(list(reader))
        assert np.array_equal(got, np.concatenate(
            [edges_of(30, start=i * 30) for i in range(20)]
        ))
        assert device.injector.total("io_retries") > 0


class TestTornWriteIntegrity:
    def test_torn_write_detected_by_checksums(self):
        plan = FaultPlan(
            specs=(FaultSpec(kind="torn_write", max_fires=1),), seed=0
        )
        clock = SimClock()
        device = Device(DeviceSpec.hdd("d0"))
        device.injector = FaultInjector(plan, clock=clock)
        vfs = VFS()
        f = vfs.create("stay", device)
        writer = AsyncStreamWriter(clock, f, buffer_bytes=8 * 256,
                                   capacity=200, num_buffers=4, group="stay:stay")
        stay_append(writer, edges_of(200))
        writer.close()
        clock.wait_until(writer.last_end)
        assert f.corruptions  # the medium really flipped a byte
        bad = writer.verify_integrity()
        assert bad  # and the checksum layer caught it

    def test_clean_writer_verifies_clean(self):
        clock = SimClock()
        device = Device(DeviceSpec.hdd("d0"))
        vfs = VFS()
        f = vfs.create("stay", device)
        writer = AsyncStreamWriter(clock, f, buffer_bytes=8 * 256,
                                   capacity=600, num_buffers=4, group="stay:stay")
        stay_append(writer, edges_of(200))
        stay_append(writer, edges_of(300, start=200))  # fills the buffer: one flush
        stay_append(writer, edges_of(100, start=500))  # flushed by close
        writer.close()
        clock.wait_until(writer.last_end)
        assert writer.verify_integrity() == []
        # The ledger is where each flush starts in the file, which is where
        # its bytes start in the buffer that still holds them.
        assert writer._flush_starts == [0, 8 * 500]
        assert f.records().tobytes() == writer._buffer.tobytes()
        assert f.records().tobytes() == edges_of(600).tobytes()

    def test_torn_stay_degrades_to_previous_file(self, rmat10):
        """Every stay flush torn: swap-ins fail their checksum and the run
        degrades to the previous edge files — correct, just slower."""
        root = hub_root(rmat10)
        plan = FaultPlan(
            specs=(FaultSpec(kind="torn_write", role="stay",
                             probability=1.0),),
            seed=0,
        )
        machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                          fault_plan=plan)
        machine.attach_tracer(Tracer())
        result = FastBFSEngine(small_fastbfs_config()).run(
            rmat10, machine, root=root
        )
        assert np.array_equal(result.levels, bfs_levels(rmat10, root))
        assert result.extras["stay_integrity_failures"] > 0
        assert result.extras["stay_swaps"] == 0  # nothing corrupt swapped in
        mismatches = [
            s for s in machine.tracer.spans
            if s.name == "stay_cancel"
            and s.attrs.get("reason") == "checksum_mismatch"
        ]
        assert len(mismatches) == result.extras["stay_integrity_failures"]

    def test_stay_crc_is_taken_only_by_a_swap_in_that_compares(
        self, rmat10, monkeypatch
    ):
        """A clean traversal takes no CRC at all; a torn one takes them all
        inside ``verify_integrity``, and still degrades every swap-in."""
        root = hub_root(rmat10)
        crc32 = zlib.crc32
        verify = AsyncStreamWriter.verify_integrity
        calls = []  # True for each crc32 made inside verify_integrity
        verifying = []

        def verifying_integrity(writer):
            verifying.append(1)
            try:
                return verify(writer)
            finally:
                verifying.pop()

        monkeypatch.setattr(
            zlib, "crc32",
            lambda data: calls.append(bool(verifying)) or crc32(data),
        )
        monkeypatch.setattr(
            AsyncStreamWriter, "verify_integrity", verifying_integrity
        )

        def traverse(plan):
            machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB,
                              cores=4, fault_plan=plan)
            machine.attach_tracer(Tracer())
            result = FastBFSEngine(small_fastbfs_config()).run(
                rmat10, machine, root=root
            )
            assert np.array_equal(result.levels, bfs_levels(rmat10, root))
            return machine, result

        traverse(None)
        assert calls == []

        machine, result = traverse(FaultPlan(
            specs=(FaultSpec(kind="torn_write", role="stay",
                             probability=1.0),),
            seed=0,
        ))
        failures = result.extras["stay_integrity_failures"]
        assert failures > 0
        mismatches = [
            s for s in machine.tracer.spans
            if s.name == "stay_cancel"
            and s.attrs.get("reason") == "checksum_mismatch"
        ]
        assert len(mismatches) == failures
        assert calls and all(calls)

    def test_stay_write_failure_degrades_to_previous_file(self, rmat10):
        """Stay flushes that exhaust their retries mark the writer failed;
        swap-in degrades with reason=write_failure and stays correct."""
        root = hub_root(rmat10)
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", role="stay",
                             probability=1.0),),
            seed=0,
            max_attempts=1,
        )
        machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                          fault_plan=plan)
        machine.attach_tracer(Tracer())
        result = checked_run(
            FastBFSEngine(small_fastbfs_config()), rmat10, machine, root
        )
        assert np.array_equal(result.levels, bfs_levels(rmat10, root))
        assert result.extras["stay_write_failures"] > 0
        assert result.extras["stay_swaps"] == 0
        failures = [
            s for s in machine.tracer.spans
            if s.name == "stay_cancel"
            and s.attrs.get("reason") == "write_failure"
        ]
        assert len(failures) == result.extras["stay_write_failures"]


    # -- a stay file that is the writer's own buffer ---------------------
    # Swap-in skips the comparison only when the file provably still holds
    # the very bytes each flush sent; the cases below fail on a design
    # that skips it because the fault injector tagged nothing.

    PIECES = (200, 300, 100)  # flushes of 500 (buffer full) and 100 (close)

    def _staged(self, close=True, plan=None):
        """A stay file written the way the engine writes one: survivors
        selected into the writer's buffer, read-only views appended."""
        clock = SimClock()
        device = Device(DeviceSpec.hdd("d0"))
        if plan is not None:
            device.injector = FaultInjector(plan, clock=clock)
        f = VFS().create("stay", device)
        total = sum(self.PIECES)
        writer = AsyncStreamWriter(clock, f, buffer_bytes=8 * 256,
                                   num_buffers=4, capacity=total, group="stay:stay")
        run, views, start = edges_of(2 * total), [], 0
        for count in self.PIECES:
            keep = np.arange(start, start + 2 * count, 2)  # every other edge
            views.append(writer.take_survivors(run, keep))
            writer.append(views[-1])
            start += 2 * count
        if close:
            writer.close()
            clock.wait_until(writer.last_end)
        return writer, f, views, run[::2]

    def test_hand_damaged_chunk_is_reported_without_the_injector(self):
        writer, f, _, _ = self._staged()
        assert writer.verify_integrity() == []
        damaged = f.records().copy()
        damaged.view(np.uint8)[8 * 500 + 17] ^= 0xFF  # inside the second flush
        f._sealed = damaged
        assert f.corruptions == []  # no injector ever tagged this file
        assert writer.verify_integrity() == [8 * 500]

    def test_hand_damaged_chunk_is_reported_before_the_seal_too(self):
        writer, f, _, _ = self._staged(close=False)
        (chunk,) = f._chunks
        damaged = chunk.copy()
        damaged.view(np.uint8)[3] ^= 0xFF
        f._chunks[0] = damaged
        writer.close()
        assert f.corruptions == []
        assert writer.verify_integrity() == [0]

    def test_stored_records_and_handed_views_are_read_only(self):
        writer, f, views, _ = self._staged()
        for array in (f.records(), f.read_records(10, 5), views[0], views[-1][3:]):
            with pytest.raises(ValueError, match="read-only"):
                array["src"][0] = 7
            with pytest.raises(ValueError, match="read-only"):
                array.view(np.uint8)[0] ^= 0xFF
        assert writer.verify_integrity() == []

    def test_clean_staged_file_is_sealed_by_reference(self, monkeypatch):
        def no_copy(*args, **kwargs):
            raise AssertionError("a fault-free stay file is never concatenated")

        checksummed = []
        crc32 = zlib.crc32
        monkeypatch.setattr(np, "concatenate", no_copy)
        monkeypatch.setattr(
            zlib, "crc32", lambda data: checksummed.append(len(data)) or crc32(data)
        )
        writer, f, _, survivors = self._staged()
        stored = f.records()
        assert stored.base is writer._buffer
        assert np.shares_memory(stored, writer._buffer)
        assert np.array_equal(stored, survivors)
        assert checksummed == []  # nothing at send
        assert writer.verify_integrity() == []
        assert checksummed == []  # and swap-in reads nothing either

    def _traverse_verifying(self, graph, monkeypatch, plan=None):
        """A FastBFS run on one disk; returns the result, per swap-in that
        compared ``(writer, bad offsets, stored records)``, and per stay
        file its writer closed ``(writer, sealed records)``."""
        verify = AsyncStreamWriter.verify_integrity
        close = AsyncStreamWriter.close
        verified, sealed = [], []

        def recording_verify(writer):
            bad = verify(writer)
            verified.append((writer, bad, writer.file.records()))
            return bad

        def recording_close(writer):
            was_closed = writer.closed
            close(writer)
            if not was_closed:
                sealed.append((writer, writer.file.records()))

        monkeypatch.setattr(AsyncStreamWriter, "verify_integrity", recording_verify)
        monkeypatch.setattr(AsyncStreamWriter, "close", recording_close)
        root = hub_root(graph)
        machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                          fault_plan=plan)
        machine.attach_tracer(Tracer())
        result = FastBFSEngine(small_fastbfs_config()).run(graph, machine, root=root)
        assert np.array_equal(result.levels, bfs_levels(graph, root))
        return machine, result, verified, sealed

    def test_a_clean_pass_seals_each_stay_file_as_its_buffer(
        self, rmat10, monkeypatch
    ):
        """Every stay file a clean traversal writes seals as its writer's
        buffer, from its first byte, by reference; so every swap-in finds
        it intact without a CRC."""
        _, result, verified, sealed = self._traverse_verifying(
            rmat10, monkeypatch
        )
        assert result.extras["stay_swaps"] > 0
        assert len(verified) == result.extras["stay_swaps"]
        for writer, bad, stored in verified:
            assert bad == []
            assert stored.base is writer._buffer
        written = [(writer, stored) for writer, stored in sealed if len(stored)]
        assert written
        for writer, stored in written:
            assert stored.base is writer._buffer
            assert stored.ctypes.data == writer._buffer.ctypes.data
            assert not stored.flags.writeable

    def test_a_torn_stay_flush_still_fails_the_check_and_cancels_the_swap(
        self, rmat10, monkeypatch
    ):
        plan = FaultPlan(
            specs=(FaultSpec(kind="torn_write", role="stay", max_fires=1),),
            seed=0,
        )
        machine, result, verified, _ = self._traverse_verifying(
            rmat10, monkeypatch, plan=plan
        )
        torn = [(writer, bad, stored) for writer, bad, stored in verified if bad]
        assert len(torn) == 1 == result.extras["stay_integrity_failures"]
        (writer, bad, stored), = torn
        assert bad == writer.file.corruptions
        assert stored.base is not writer._buffer  # sealed by the general path
        mismatches = [
            s for s in machine.tracer.spans
            if s.name == "stay_cancel"
            and s.attrs.get("reason") == "checksum_mismatch"
        ]
        assert len(mismatches) == 1
        assert result.extras["stay_swaps"] == len(verified) - 1

    def test_injected_torn_write_into_the_buffer_is_reported(self):
        plan = FaultPlan(specs=(FaultSpec(kind="torn_write", max_fires=1),),
                         seed=0)
        writer, f, _, survivors = self._staged(plan=plan)
        bad = writer.verify_integrity()
        assert len(bad) == 1
        assert bad == f.corruptions  # the one flush the device tore
        # The damage is in the file's copy; what the flush sent is intact.
        assert np.array_equal(writer._buffer, survivors)

    def test_a_writable_or_shifted_view_of_the_buffer_gets_the_full_check(self):
        """Same base object is not enough: the stored array must be the
        buffer from its first byte, whole, and read-only."""
        writer, f, _, _ = self._staged()
        checked = []
        crc32 = zlib.crc32
        own = f.records()
        for stored in (writer._buffer[:600], own[1:], own[:-1]):
            f._sealed = stored
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(
                    zlib, "crc32", lambda data: checked.append(1) or crc32(data)
                )
                bad = writer.verify_integrity()
            assert checked, "identity was trusted"
            checked.clear()
            # Truncated or shifted contents do not match the ledger.
            assert bool(bad) == (len(stored) != 600)

    def test_every_flush_torn_copies_one_flush_at_a_time(self, rmat10, monkeypatch):
        """64+ torn flushes per stay file: each copy-on-corrupt copies the
        flushed chunk, never the merged file so far, and the run degrades
        exactly as it did when every flush was its own chunk."""
        root = hub_root(rmat10)
        plan = FaultPlan(
            specs=(FaultSpec(kind="torn_write", role="stay", probability=1.0),),
            seed=0,
        )
        machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                          fault_plan=plan)
        config = small_fastbfs_config(
            edge_buffer_bytes=256, stay_buffer_bytes=128, num_partitions=2
        )
        corrupt_at = VirtualFile.corrupt_at
        copied = {}  # file id -> bytes copied by each corrupt_at

        def measured(self, offset):
            corrupt_at(self, offset)
            damaged = self._chunks[-1]
            assert damaged.base is None and damaged.flags.writeable
            assert damaged.nbytes == self.nbytes - offset  # the flush, alone
            copied.setdefault(self.file_id, []).append(damaged.nbytes)

        monkeypatch.setattr(VirtualFile, "corrupt_at", measured)
        result = checked_run(FastBFSEngine(config), rmat10, machine, root)
        assert np.array_equal(result.levels, bfs_levels(rmat10, root))
        assert max(len(sizes) for sizes in copied.values()) >= 64
        # A flush holds less than a stay buffer plus one edge buffer's survivors.
        assert max(max(sizes) for sizes in copied.values()) <= 128 + 256
        # Recorded at the parent commit (f52d07b) for this plan and config.
        assert result.extras["stay_integrity_failures"] == 5
        assert result.extras["stay_cancellations"] == 5
        assert result.extras["stay_swaps"] == 0


class TestCrashRecovery:
    """``recover()``'s refusals and a crash outside a session.  That a
    crash-recovered query, serial or batched, is the clean one bit for bit
    is the contract matrix's ``crash`` column (``tests/test_contracts.py``)."""

    def _machine(self, plan=None):
        return Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                       fault_plan=plan)

    def test_recover_without_crash_is_an_error(self, rmat10):
        machine = self._machine(FaultPlan(seed=0))
        engine = FastBFSEngine(small_fastbfs_config())
        staged = engine.stage(rmat10, machine)
        session = engine.session(staged)
        with pytest.raises(EngineError):
            session.recover()

    def test_recover_needs_a_fault_injector(self, rmat10):
        """Without a fault plan no entry checkpoint is taken, so recover()
        refuses instead of restoring garbage."""
        machine = self._machine()
        engine = FastBFSEngine(small_fastbfs_config())
        staged = engine.stage(rmat10, machine)
        session = engine.session(staged)
        session._crashed = [np.array([0])]  # simulate an externally-raised crash
        with pytest.raises(EngineError):
            session.recover()

    def test_crash_during_monolithic_run_propagates(self, rmat10):
        machine = self._machine(FaultPlan.crash_point(after_index=80))
        with pytest.raises(CrashError):
            FastBFSEngine(small_fastbfs_config()).run(
                rmat10, machine, root=hub_root(rmat10)
            )


class TestFaultPositionInsideHostRun:
    """The engines compute on host runs of many modeled buffers but issue
    device requests one modeled buffer at a time, in the order they always
    did, so an ``after_index`` names the same request whatever the host
    granularity.  Expected requests were recorded at the commit before host
    runs existed (one kernel call per modeled buffer)."""

    @pytest.mark.parametrize(
        "after_index, expected",
        [
            # Scatter: an edge read well past its partition's first buffer.
            (150, ("read", 2048, 12288, "edges:p2")),
            # Shuffle: an update flush in the middle of a partition's scatter.
            (157, ("write", 1248, 6528, "updates:1:p0")),
            # Gather: an update read past the file's first buffer.
            (213, ("read", 1024, 9216, "updates:p1")),
        ],
    )
    def test_fault_lands_on_the_same_request(
        self, rmat10, monkeypatch, after_index, expected
    ):
        recorder = ScheduleRecorder(monkeypatch)
        plan = FaultPlan(
            specs=(FaultSpec(kind="persistent_error", after_index=after_index,
                             max_fires=1),),
        )
        machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                          fault_plan=plan)
        with pytest.raises(PersistentIOError, match=f"#{after_index} on 'hdd0'"):
            FastBFSEngine(small_fastbfs_config()).run(
                rmat10, machine, root=hub_root(rmat10)
            )
        assert len(recorder.submits) - 1 == after_index
        assert recorder.submits[-1] == expected
        assert expected[2] > 0  # not the first modeled buffer of its file


class TestFaultObservability:
    def test_registry_samples_injector_counters(self, rmat10):
        plan = FaultPlan(
            specs=(FaultSpec(kind="transient_error", probability=0.05),),
            seed=5,
        )
        machine = Machine([DeviceSpec.hdd("hdd0")], memory=2 * MB, cores=4,
                          fault_plan=plan)
        machine.attach_tracer(Tracer())
        FastBFSEngine(small_fastbfs_config()).run(
            rmat10, machine, root=hub_root(rmat10)
        )
        injector = machine.fault_injector
        assert injector.faults_injected > 0
        registry = CounterRegistry.from_machine(machine)
        assert registry.get("fault_transient_error_total", device="hdd0") == (
            float(injector.total("fault_transient_error"))
        )
        assert registry.total("io_retries_total") == float(
            injector.total("io_retries")
        )
        retry_spans = [
            s for s in machine.tracer.spans if s.name == "io_retry"
        ]
        assert len(retry_spans) == injector.total("io_retries")
        # Each injected transient raise becomes exactly one retry or one
        # give-up — the counters tie out.
        assert injector.total("fault_transient_error") == (
            injector.total("io_retries") + injector.total("io_giveups")
        )

    def test_run_bfs_accepts_a_fault_plan(self, rmat10):
        from repro.api import run_bfs

        plan = FaultPlan(
            specs=(FaultSpec(kind="latency", probability=0.2,
                             delay_seconds=0.01),),
            seed=1,
        )
        result = run_bfs(rmat10, engine="fastbfs",
                         config=small_fastbfs_config(),
                         memory=2 * MB, fault_plan=plan)
        assert np.array_equal(result.levels, bfs_levels(rmat10, 0))

    def test_run_bfs_rejects_fault_plan_with_explicit_machine(self, rmat10):
        from repro.api import run_bfs

        with pytest.raises(ConfigError):
            run_bfs(rmat10, machine=fresh_machine(),
                    fault_plan=FaultPlan(seed=0))


class TestChaosHarness:
    def test_smoke_sweep_is_clean(self):
        from repro.tooling.chaos import run_chaos

        report = run_chaos("smoke", seed=0, trials=8)
        assert report.ok
        assert len(report.trials) == 8
        outcomes = report.outcome_counts()
        assert outcomes.get("violation", 0) == 0
        # The sweep actually injected faults somewhere.
        assert sum(t.faults_injected for t in report.trials) > 0

    def test_sweep_is_deterministic(self):
        from repro.tooling.chaos import run_chaos

        a = run_chaos("smoke", seed=3, trials=6)
        b = run_chaos("smoke", seed=3, trials=6)
        assert [(t.outcome, t.detail, t.faults_injected, t.retries,
                 t.recoveries) for t in a.trials] == [
            (t.outcome, t.detail, t.faults_injected, t.retries, t.recoveries)
            for t in b.trials
        ]

    def test_serve_sweep_is_a_pure_function_of_its_seed(self, monkeypatch):
        """One trial per serve fault profile, twice: the same report, and
        the held burst of a healthy graph is one 16-wide flush."""
        from repro.tooling import chaos

        bursts = []
        drive_burst = chaos._drive_burst

        def recorded(service, roots, answers):
            outcome = drive_burst(service, roots, answers)
            bursts.append(outcome[0])
            return outcome

        monkeypatch.setattr(chaos, "_drive_burst", recorded)
        a = chaos.run_serve_chaos(seed=0, trials=3)
        b = chaos.run_serve_chaos(seed=0, trials=3)
        assert a.ok
        assert a.render() == b.render()
        assert a.trials[0].mode == "serve/transient"
        burst = bursts[0]
        assert len(burst) == chaos.SERVE_BURST
        assert len({body["flush"]["id"] for body in burst}) == 1
        assert {body["flush"]["size"] for body in burst} == {chaos.SERVE_BURST}

    def test_sanitizer_failure_is_a_violation(self, monkeypatch):
        """A trial whose session breaks the protocol fails the sweep: a
        SanitizerError is a violation, not an absorbable typed error."""
        from repro.tooling import chaos

        make_engine = chaos._make_engine

        def leaky(name, disks):
            engine = make_engine(name, disks)
            run_passes = engine._run_passes

            def leave_update_file(staged, rt):
                run_passes(staged, rt)
                rt.machine.vfs.create("updates:0:p1", rt.staged.dev_updates)

            engine._run_passes = leave_update_file
            return engine

        monkeypatch.setattr(chaos, "_make_engine", leaky)
        report = chaos.run_chaos("smoke", seed=0, trials=2)
        assert not report.ok
        assert any(
            "[vfs-leak] file 'updates:0:p1'" in t.detail
            for t in report.violations
        )

    def test_a_wrong_parent_is_a_violation(self, monkeypatch):
        """An engine answer with the reference levels but one parent
        swapped for a non-edge fails the sweep: chaos checks parents."""
        from repro.tooling import chaos

        run_queries = chaos.run_staged_queries

        def one_wrong_parent(*args, **kwargs):
            batch = run_queries(*args, **kwargs)
            for result in batch.queries:
                result.output["parent"] = _phantom_parent(
                    "smoke", result.levels, result.parents
                )
            return batch

        monkeypatch.setattr(chaos, "run_staged_queries", one_wrong_parent)
        report = chaos.run_chaos("smoke", seed=0, trials=2)
        assert [t.outcome for t in report.trials] == ["violation"] * 2
        for trial in report.trials:
            assert trial.detail == (
                "query 0: 1 claimed tree edges are not graph edges"
            )

    def test_a_wrong_pass_volume_is_a_violation(self, monkeypatch):
        """A clean trial whose run reports one edge more in one pass than
        the reference levels give fails the sweep: chaos checks volumes."""
        from repro.tooling import chaos

        run_queries = chaos.run_staged_queries

        def one_edge_more(*args, **kwargs):
            batch = run_queries(*args, **kwargs)
            (result,) = batch.queries
            assert not result.extras["stay_cancellations"]
            result.iterations[1].edges_scanned += 1
            return batch

        monkeypatch.setattr(chaos, "run_staged_queries", one_edge_more)
        report = chaos.run_chaos("smoke", seed=0, trials=2)
        assert [t.outcome for t in report.trials] == ["violation"] * 2
        for trial in report.trials:
            assert trial.detail.startswith("(scanned, updates, stay) per pass")

    def test_a_wrong_served_parent_is_a_violation(self, monkeypatch):
        """A served 200 BFS body with the reference levels but one parent
        swapped for a non-edge fails the serve sweep."""
        from repro.tooling import chaos

        request = chaos._serve_request

        def one_wrong_parent(port, method, path, *args, **kwargs):
            status, headers, body = request(port, method, path, *args, **kwargs)
            if status == 200 and path.endswith("/bfs"):
                result = body["result"]
                result["parents"] = _phantom_parent(
                    "serve", np.array(result["levels"]),
                    np.array(result["parents"], dtype=np.uint32),
                ).tolist()
            return status, headers, body

        monkeypatch.setattr(chaos, "_serve_request", one_wrong_parent)
        (trial,) = chaos.run_serve_chaos(seed=0, trials=1).trials
        assert trial.outcome == "violation"
        assert trial.detail.endswith("diverges")

    def test_unknown_profile_rejected(self):
        from repro.tooling.chaos import run_chaos

        with pytest.raises(ConfigError):
            run_chaos("hurricane")

    def test_negative_seed_rejected_before_trial_0(self, monkeypatch):
        from repro.tooling import chaos

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(chaos, "_run_trial", no_trial)
        monkeypatch.setattr(chaos, "_run_serve_trial", no_trial)
        monkeypatch.setattr(chaos, "rmat_graph", no_trial)
        sweeps = [partial(chaos.run_chaos, name) for name in chaos.PROFILES]
        for sweep in sweeps + [chaos.run_serve_chaos]:
            with pytest.raises(ConfigError, match="chaos seed must be >= 0, got -1"):
                sweep(seed=-1)


def _phantom_parent(profile, levels, parents):
    """A copy of ``parents`` in which the first vertex two levels down
    claims, as its parent, a vertex one level up with no edge to it in
    the graph of chaos profile ``profile``."""
    from repro.graph.generators import rmat_graph
    from repro.tooling.chaos import PROFILES

    prof = PROFILES[profile]
    graph = rmat_graph(scale=prof.scale, edge_factor=prof.edge_factor, seed=prof.graph_seed)
    edges = set(zip(graph.edges["src"].tolist(), graph.edges["dst"].tolist()))
    child = int(np.flatnonzero(levels == 2)[0])
    stranger = next(
        int(u) for u in np.flatnonzero(levels == 1) if (int(u), child) not in edges
    )
    out = parents.copy()
    out[child] = stranger
    return out
