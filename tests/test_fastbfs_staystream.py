"""Unit tests for the stay-stream manager (swap / cancel lifecycle)."""

import numpy as np
import pytest

from repro.core.config import FastBFSConfig
from repro.core.staystream import StayStreamManager
from repro.errors import EngineError, StorageError
from repro.graph.types import make_edges
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.vfs import VFS
from repro.utils.units import MB
from tests.helpers import stay_append


def edges(n):
    return make_edges(np.arange(n) % 100, np.arange(n) % 100)


def edge_file(ctx, n, name="edges:p0"):
    """A sealed edge file of ``n`` records: the input a stay file trims."""
    _, device, vfs, _ = ctx
    f = vfs.create(name, device)
    f.append_records(edges(n))
    f.seal()
    return f


def opened(ctx, p, iteration, n=100, **kwargs):
    """``p``'s stay writer, over an input file of ``n`` records."""
    mgr = ctx[3]
    return mgr.open(
        p, iteration=iteration,
        input_file=edge_file(ctx, n, name=f"input:p{p}:i{iteration}"), **kwargs
    )


@pytest.fixture
def ctx():
    clock = SimClock()
    device = Device(
        DeviceSpec("d", seek_time=0.0, read_bandwidth=100 * MB,
                   write_bandwidth=100 * MB)
    )
    vfs = VFS()
    cfg = FastBFSConfig(
        stay_buffer_bytes=1024, num_stay_buffers=2, cancellation_grace=0.001
    )
    return clock, device, vfs, StayStreamManager(clock, vfs, device, cfg)


class TestLifecycle:
    def test_open_append_finish(self, ctx):
        clock, device, vfs, mgr = ctx
        writer = opened(ctx, 0, iteration=0)
        stay_append(mgr, edges(100))
        mgr.finish_partition(0)
        assert 0 in mgr._pending
        assert mgr.stats.files_written == 1
        assert writer.records_written == 100
        assert writer.file.nbytes == edges(100).nbytes

    def test_double_open_rejected(self, ctx):
        _, _, _, mgr = ctx
        opened(ctx, 0, iteration=0)
        with pytest.raises(EngineError):
            mgr.open(0, iteration=0, input_file=edge_file(ctx, 10))

    def test_append_without_open_rejected(self, ctx):
        _, _, _, mgr = ctx
        with pytest.raises(EngineError):
            mgr.append(3, edges(1))

    def test_finish_without_open_is_noop(self, ctx):
        _, _, _, mgr = ctx
        mgr.finish_partition(5)
        assert mgr._pending == {}

    def test_current_accessor(self, ctx):
        _, _, _, mgr = ctx
        assert mgr.current(0) is None
        w = opened(ctx, 0, iteration=1)
        assert mgr.current(0) is w


class TestStagedSurvivors:
    """The engine's path: survivors go straight into the writer's buffer."""

    def _trimmed(self, ctx, num_records):
        clock, device, vfs, mgr = ctx
        old = vfs.create("edges:p0", device)
        old.append_records(edges(num_records))
        old.seal()
        mgr.open(0, iteration=0, input_file=old)
        return old, mgr

    def test_staged_file_swaps_in_as_the_writers_buffer(self, ctx):
        clock = ctx[0]
        old, mgr = self._trimmed(ctx, 500)
        writer = mgr.current(0)
        run = old.records()
        first = mgr.stage_survivors(0, run[:256], np.arange(0, 256, 2))
        mgr.append(0, first[:100])
        mgr.append(0, first[100:])
        second = mgr.stage_survivors(0, run[256:], np.arange(1, 244, 2))
        mgr.append(0, second)
        mgr.finish_partition(0)
        clock.charge_compute(1.0)
        f, outcome = mgr.resolve_input(0, old)
        assert outcome == "swap"
        expected = np.concatenate([run[:256:2], run[257:500:2]])
        assert np.array_equal(f.records(), expected)
        assert f.records().base is writer._buffer
        assert writer.records_written == len(expected)
        assert f.nbytes == expected.nbytes

    def test_staging_past_the_capacity_is_a_typed_error(self, ctx):
        old, mgr = self._trimmed(ctx, 10)
        run = old.records()
        mgr.stage_survivors(0, run, np.arange(8))
        with pytest.raises(StorageError) as exc:
            mgr.stage_survivors(0, run, np.arange(5))
        message = str(exc.value)
        assert "'stay:p0:i0'" in message  # the file
        assert "capacity of 10 records" in message and "holds 8" in message
        assert "cannot take 5 more" in message  # the request
        # The refused request staged nothing: the rest still fits.
        assert len(mgr.stage_survivors(0, run, np.arange(2))) == 2

    def test_appending_what_was_not_staged_is_refused(self, ctx):
        """A caller's own array never enters a stay file: the manager's
        append takes only the writer's next staged records."""
        old, mgr = self._trimmed(ctx, 10)
        with pytest.raises(StorageError, match="appends only the next"):
            mgr.append(0, edges(4))
        staged = mgr.stage_survivors(0, old.records(), np.arange(4))
        with pytest.raises(StorageError, match="appends only the next"):
            mgr.append(0, staged[1:])
        writer = mgr.current(0)
        mgr.append(0, staged)
        assert writer.records_written == 4
        mgr.finish_partition(0)
        assert writer.file.nbytes == staged.nbytes

    def test_stage_without_open_rejected(self, ctx):
        _, _, _, mgr = ctx
        with pytest.raises(EngineError, match="no open stay writer"):
            mgr.stage_survivors(3, edges(2), np.arange(1))


class TestResolveInput:
    def test_keep_when_no_pending(self, ctx):
        clock, device, vfs, mgr = ctx
        old = vfs.create("edges:p0", device)
        f, outcome = mgr.resolve_input(0, old)
        assert outcome == "keep"
        assert f is old

    def test_swap_when_ready(self, ctx):
        clock, device, vfs, mgr = ctx
        old = edge_file(ctx, 500)
        mgr.open(0, iteration=0, input_file=old)
        stay_append(mgr, edges(50))
        mgr.finish_partition(0)
        clock.charge_compute(1.0)  # plenty of time for the flush to land
        f, outcome = mgr.resolve_input(0, old)
        assert outcome == "swap"
        assert f.name == "edges:p0"  # installed under the edge-file name
        assert f.num_records == 50
        assert old.deleted

    def test_swap_waits_within_grace(self, ctx):
        clock, device, vfs, mgr = ctx
        old = edge_file(ctx, 2000)
        mgr.open(0, iteration=0, input_file=old)
        stay_append(mgr, edges(2000))  # flushes ~16KB -> 160us write
        mgr.finish_partition(0)
        cfg_grace = mgr.config.cancellation_grace
        f, outcome = mgr.resolve_input(0, old)
        assert outcome == "swap"  # 160us < 1ms grace
        assert clock.iowait_time > 0.0  # the short wait was accounted

    def test_cancel_when_too_slow(self, ctx):
        clock, device, vfs, mgr = ctx
        old = edge_file(ctx, 10**6)
        mgr.open(0, iteration=0, input_file=old)
        stay_append(mgr, edges(10**6))  # 8MB: ~80ms >> 1ms grace
        mgr.finish_partition(0)
        f, outcome = mgr.resolve_input(0, old)
        assert outcome == "cancel"
        assert f is old
        assert not vfs.exists("stay:p0:i0")

    def test_cancel_then_next_iteration_can_swap(self, ctx):
        clock, device, vfs, mgr = ctx
        old = edge_file(ctx, 10**6)
        mgr.open(0, iteration=0, input_file=old)
        stay_append(mgr, edges(10**6))
        mgr.finish_partition(0)
        f, outcome = mgr.resolve_input(0, old)
        assert outcome == "cancel"
        # Next iteration writes a smaller stay list that lands in time.
        mgr.open(0, iteration=1, input_file=f)
        stay_append(mgr, edges(10))
        mgr.finish_partition(0)
        clock.charge_compute(1.0)
        f2, outcome2 = mgr.resolve_input(0, f)
        assert outcome2 == "swap"
        assert f2.num_records == 10


class TestErrorPaths:
    def test_append_after_finish_rejected(self, ctx):
        _, _, _, mgr = ctx
        opened(ctx, 0, iteration=0)
        mgr.finish_partition(0)
        with pytest.raises(EngineError, match="no open stay writer"):
            mgr.append(0, edges(1))

    def test_append_after_discard_all_rejected(self, ctx):
        _, _, _, mgr = ctx
        opened(ctx, 0, iteration=0)
        mgr.discard_all()
        with pytest.raises(EngineError, match="no open stay writer"):
            mgr.append(0, edges(1))

    def test_reopen_same_partition_after_finish_allowed(self, ctx):
        """Next iteration's writer coexists with the pending previous one."""
        _, _, vfs, mgr = ctx
        opened(ctx, 0, iteration=0)
        mgr.finish_partition(0)
        w = opened(ctx, 0, iteration=1)
        assert w.file.name == "stay:p0:i1"
        assert 0 in mgr._pending
        assert mgr.stats.files_written == 2

    def test_double_open_leaves_first_writer_intact(self, ctx):
        _, _, _, mgr = ctx
        first = opened(ctx, 0, iteration=0)
        with pytest.raises(EngineError):
            mgr.open(0, iteration=0, input_file=edge_file(ctx, 10))
        assert mgr.current(0) is first
        assert mgr.stats.files_written == 1


class TestDiscardAll:
    def test_discards_pending_and_current(self, ctx):
        clock, device, vfs, mgr = ctx
        opened(ctx, 0, iteration=0)
        stay_append(mgr, edges(10))
        mgr.finish_partition(0)
        opened(ctx, 1, iteration=0)
        mgr.discard_all()
        assert mgr._pending == {}
        assert mgr.stats.end_of_run_discards == 2
        assert not vfs.exists("stay:p0:i0")
        assert not vfs.exists("stay:p1:i0")

    def test_counts_pending_and_current_separately(self, ctx):
        """end_of_run_discards covers both writer generations."""
        _, _, vfs, mgr = ctx
        opened(ctx, 0, iteration=0)
        stay_append(mgr, edges(10))
        mgr.finish_partition(0)  # generation "pending"
        opened(ctx, 1, iteration=0)  # generation "current", never finished
        opened(ctx, 2, iteration=0)
        assert len(mgr._pending) == 1
        mgr.discard_all()
        assert mgr.stats.end_of_run_discards == 3
        assert mgr._pending == {}
        for name in ("stay:p0:i0", "stay:p1:i0", "stay:p2:i0"):
            assert not vfs.exists(name)

    def test_discard_all_idempotent(self, ctx):
        _, _, _, mgr = ctx
        opened(ctx, 0, iteration=0)
        mgr.discard_all()
        mgr.discard_all()
        assert mgr.stats.end_of_run_discards == 1

    def test_device_override(self, ctx):
        clock, device, vfs, mgr = ctx
        other = Device(DeviceSpec.hdd("other"))
        w = opened(ctx, 0, iteration=0, device=other)
        assert w.file.device is other
