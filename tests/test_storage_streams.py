"""Tests for stream readers/writers, prefetch overlap, async stay writer."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import base
from repro.errors import StorageError
from repro.graph.types import EDGE_DTYPE, make_edges
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.streams import AsyncStreamWriter, StreamReader, StreamWriter
from repro.storage.vfs import VFS
from repro.utils.units import MB
from tests.helpers import fresh_machine, stay_append

RECORD = EDGE_DTYPE.itemsize  # 8 bytes


def edges(n, start=0):
    return make_edges(
        np.arange(start, start + n) % 2**32, np.arange(start, start + n) % 2**32
    )


@pytest.fixture
def setup():
    clock = SimClock()
    device = Device(
        DeviceSpec("d", seek_time=0.0, read_bandwidth=100 * MB, write_bandwidth=100 * MB)
    )
    vfs = VFS()
    return clock, device, vfs


class TestStreamReader:
    def test_yields_all_records_in_order(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(1000))
        f.seal()
        reader = StreamReader(clock, f, buffer_bytes=64 * RECORD, prefetch=2, group="read:f")
        out = np.concatenate(list(reader))
        assert np.array_equal(out, f.records())

    def test_buffer_granularity(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(100))
        f.seal()
        reader = StreamReader(clock, f, buffer_bytes=32 * RECORD, prefetch=2, group="read:f")
        sizes = [len(buf) for buf in reader]
        assert sizes == [32, 32, 32, 4]
        assert reader.buffers_read == 4

    def test_empty_file_yields_nothing(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.seal()
        assert list(StreamReader(clock, f, buffer_bytes=1024, prefetch=2, group="read:f")) == []
        assert clock.now == 0.0  # no I/O charged

    def test_time_charged_as_iowait(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(1000))
        f.seal()
        list(StreamReader(clock, f, buffer_bytes=100 * RECORD, prefetch=2, group="read:f"))
        expected = 1000 * RECORD / (100 * MB)
        assert clock.now == pytest.approx(expected)
        assert clock.iowait_time == pytest.approx(expected)

    def test_prefetch_overlaps_compute(self, setup):
        """With prefetch depth 2, compute hides the next buffer's read."""
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(2000))
        f.seal()
        buffer_records = 1000
        io_per_buffer = buffer_records * RECORD / (100 * MB)
        reader = StreamReader(
            clock, f, buffer_bytes=buffer_records * RECORD, prefetch=2, group="read:f"
        )
        for _ in reader:
            clock.charge_compute(io_per_buffer * 2)  # compute-bound
        # Perfect overlap: total = first read + 2 computes.
        assert clock.now == pytest.approx(io_per_buffer * (1 + 4))
        assert clock.iowait_time == pytest.approx(io_per_buffer)

    def test_no_prefetch_serializes(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        f.append_records(edges(2000))
        f.seal()
        buffer_records = 1000
        io_per_buffer = buffer_records * RECORD / (100 * MB)
        reader = StreamReader(
            clock, f, buffer_bytes=buffer_records * RECORD, prefetch=1, group="read:f"
        )
        for _ in reader:
            clock.charge_compute(io_per_buffer)
        # prefetch=1 still submits the next read before compute (inside
        # __next__), so the second buffer's read overlaps the first compute.
        assert clock.iowait_time <= 2 * io_per_buffer

    def test_rejects_bad_params(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        with pytest.raises(StorageError):
            StreamReader(clock, f, buffer_bytes=0, prefetch=2, group="read:f")
        with pytest.raises(StorageError):
            StreamReader(clock, f, buffer_bytes=100, prefetch=0, group="read:f")


class TestStreamWriter:
    def test_buffered_appends_flush_on_threshold(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=10 * RECORD, group="write:f")
        w.append(edges(4))
        assert w.flush_count == 0
        w.append(edges(7, start=4))  # 11 records >= threshold
        assert w.flush_count == 1
        assert f.num_records == 11

    def test_close_writes_remainder(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=1000 * RECORD, group="write:f")
        w.append(edges(5))
        w.close()
        assert f.num_records == 5
        assert w.closed
        data = f.records()
        assert data["src"][4] == 4

    def test_append_empty_noop(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=8, group="write:f")
        w.append(edges(0))
        assert w.flush_count == 0

    def test_append_after_close_rejected(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=8, group="write:f")
        w.close()
        with pytest.raises(StorageError):
            w.append(edges(1))

    def test_views_it_does_not_own_are_copied(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=10 * RECORD, group="write:f")
        whole = edges(30)
        w.append(whole[0:4])
        w.append(whole[4:9])
        w.append(whole[9:12])  # flush of three consecutive views
        assert w.flush_count == 1
        (chunk,) = f._chunks
        assert not np.shares_memory(chunk, whole)
        assert chunk.tobytes() == whole[0:12].tobytes()
        w.append(whole[12:30])  # flush of one array: written as it is
        assert f._chunks[1].base is whole
        w.close()
        assert not np.shares_memory(f.records(), whole)
        assert f.records().tobytes() == whole.tobytes()

    def test_unrelated_arrays_are_still_concatenated(self, setup):
        clock, device, vfs = setup
        f = vfs.create("f", device)
        w = StreamWriter(clock, f, buffer_bytes=10 * RECORD, group="write:f")
        whole = edges(30)
        w.append(whole[0:4])
        w.append(whole[5:9])  # skips a record
        w.append(edges(3, start=50))
        w.close()
        assert np.array_equal(
            f.records(), np.concatenate([whole[0:4], whole[5:9], edges(3, start=50)])
        )

    def test_last_end_skips_landed_requests_without_losing_them(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=RECORD, group="write:f")
        assert w.last_end is None
        ends = []
        for i in range(5):
            w.append(edges(10**4, start=i))
            ends.append(w._requests[-1].end)
            assert w.last_end == max(ends)
            clock.wait_until(ends[-1])  # landed: settled, still the last end
            assert w.last_end == max(ends)
        assert w._settled == 5
        assert w._unsettled() == []

    def test_writes_do_not_block_engine(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=RECORD, group="write:f")
        w.append(edges(10**6))  # 8MB write queued
        assert clock.now == 0.0  # fire-and-forget

    def test_drain_is_barrier(self, setup):
        """``close`` does not wait; waiting on ``last_end`` after it is the
        barrier."""
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=10**7, group="write:f")
        w.append(edges(10**6))  # below the buffer: flushed by close
        w.close()
        assert clock.now == 0.0
        clock.wait_until(w.last_end)
        assert clock.now == pytest.approx(8 * 10**6 / (100 * MB))
        assert clock.iowait_time > 0

    def test_drain_empty_writer(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=8, group="write:f")
        w.close()
        assert w.last_end is None  # nothing to wait for
        assert w._requests == []
        assert clock.now == 0.0

    def test_records_written_counter(self, setup):
        clock, device, vfs = setup
        w = StreamWriter(clock, vfs.create("f", device), buffer_bytes=8, group="write:f")
        w.append(edges(3))
        w.append(edges(2))
        assert w.records_written == 5


class TestFlushBuffers:
    """``flush_buffers`` is ``append``'s flush rule, in integers."""

    @staticmethod
    def _writer(buffer_bytes, name="f"):
        machine = fresh_machine()
        file = machine.vfs.create(name, machine.disk(0))
        return StreamWriter(machine.clock, file, buffer_bytes, group=f"write:{file.name}")

    @given(
        record_bytes=st.sampled_from([1, 3, 8, 12, 20]),
        buffer_bytes=st.integers(min_value=1, max_value=256),
        carried=st.integers(min_value=0, max_value=40),
        # 0 is an empty slice; up to 60 records overshoot most buffers
        sizes=st.lists(st.integers(min_value=0, max_value=60), max_size=24),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_append_per_slice_flushes_where_predicted(
        self, record_bytes, buffer_bytes, carried, sizes
    ):
        dtype = np.dtype([("raw", f"S{record_bytes}")])
        records = np.zeros(sum(sizes), dtype=dtype)
        records["raw"] = [b"%d" % (i % 97) for i in range(len(records))]
        cuts = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))).tolist()

        sliced, fed = self._writer(buffer_bytes), self._writer(buffer_bytes)
        carry = np.zeros(carried, dtype=dtype)
        for writer in (sliced, fed):
            writer.append(carry)  # whatever stays pending is carried in
        predicted = sliced.flush_buffers(cuts, record_bytes)
        assert predicted == fed.flush_buffers(cuts, record_bytes)

        flushed = []
        for b in range(len(sizes)):
            before = sliced.flush_count
            sliced.append(records[cuts[b]:cuts[b + 1]])
            if sliced.flush_count != before:
                flushed.append(b)
        assert flushed == predicted

        # Fed once per flush plus the tail: the same writes, same bytes.
        flushes, tail = base._feeds(fed, records, cuts)
        assert sorted(flushes) == predicted
        for b in range(len(sizes)):
            if b in flushes:
                before = fed.flush_count
                fed.append(flushes[b])
                assert fed.flush_count == before + 1
        fed.append(tail)
        assert fed.flush_count == sliced.flush_count
        assert [(r.nbytes, r.submit, r.end) for r in fed._requests] == [
            (r.nbytes, r.submit, r.end) for r in sliced._requests
        ]
        for writer in (sliced, fed):
            writer.close()
        assert fed.file.records().tobytes() == sliced.file.records().tobytes()

    def test_examples(self):
        writer = self._writer(buffer_bytes=10 * RECORD)
        # Slices of 4, 0, 7, 25, 3 and 9 records: 11 fill one buffer at 2,
        # 25 overshoot one at 3, and 12 fill one at 5.
        assert writer.flush_buffers([0, 4, 4, 11, 36, 39, 48], RECORD) == [2, 3, 5]
        writer.append(edges(6))  # 6 records carried: 4 more flush
        assert writer.flush_buffers([0, 4, 4, 11, 36, 39, 48], RECORD) == [0, 3, 5]
        assert writer.flush_buffers([0, 3], RECORD) == []
        assert writer.flush_buffers([7], RECORD) == []


class TestAsyncStreamWriter:
    def _writer(self, setup, num_buffers=2, buffer_records=100, capacity=10**6):
        clock, device, vfs = setup
        f = vfs.create("stay", device)
        return clock, AsyncStreamWriter(
            clock, f, buffer_bytes=buffer_records * RECORD, capacity=capacity,
            num_buffers=num_buffers, group="stay:stay",
        )

    def test_carry_and_next_run_flush_as_one_view(self, setup, monkeypatch):
        """A host run's carried tail and the next run's slice flush as one
        read-only view of the private buffer, with no copy and no CRC."""
        clock, device, vfs = setup
        f = vfs.create("stay", device)
        w = AsyncStreamWriter(
            clock, f, buffer_bytes=10 * RECORD, capacity=30, num_buffers=4,
            group="stay:stay",
        )
        monkeypatch.setattr(np, "concatenate", None)  # would raise if called
        monkeypatch.setattr(zlib, "crc32", None)  # no CRC at send
        first = w.take_survivors(edges(30), np.arange(0, 30, 5))  # 6 records
        w.append(first)  # a host run's tail, carried
        second = w.take_survivors(edges(30, start=100), np.arange(10))
        w.append(second[:4])  # the next run's slice fills the buffer
        assert w.flush_count == 1
        (chunk,) = f._chunks
        assert chunk.base is w._buffer and not chunk.flags.writeable
        assert chunk.ctypes.data == w._buffer.ctypes.data and len(chunk) == 10
        assert w._flush_starts == [0]  # the ledger keeps only the offset
        w.append(second[4:])
        w.close()
        monkeypatch.undo()
        assert w._flush_starts == [0, 10 * RECORD]
        held = f.records()
        assert held.base is w._buffer and not held.flags.writeable
        assert held.ctypes.data == w._buffer.ctypes.data and len(held) == 16
        assert held.tobytes() == np.concatenate([first, second]).tobytes()
        assert w.verify_integrity() == []

    @pytest.mark.parametrize("parts", [
        lambda t, w, o: [t[0:5], t[6:10]],
        lambda t, w, o: [t[0:5], t[4:10]],
        lambda t, w, o: [t[5:10], t[0:5]],
        lambda t, w, o: [t[0:5], t[0:5], t[10:15]],
        lambda t, w, o: [t[0:5], o[5:10]],
        lambda t, w, o: [w, w],
        lambda t, w, o: [t[0:10:2]],
        lambda t, w, o: [t[0:5]["src"], t[5:10]["src"]],
        lambda t, w, o: [t.view(np.uint64)[0:5], t.view(np.uint64)[5:10]],
        lambda t, w, o: [w[0:5], t[5:10]],
    ], ids=[
        "gap", "overlap", "reorder", "repeat", "other-array", "owner",
        "strided", "field", "dtype", "writable",
    ])
    def test_copies_anything_else(self, setup, parts):
        """Nothing else is copied any more: what is not the next taken
        records, as a read-only view of the private buffer, is refused with
        a typed error, and nothing is submitted."""
        clock, device, vfs = setup
        w = AsyncStreamWriter(
            clock, vfs.create("stay", device), buffer_bytes=10 * RECORD,
            capacity=20, num_buffers=4, group="stay:stay",
        )
        taken = w.take_survivors(edges(20), np.arange(20))
        other = edges(20, start=50)
        other.flags.writeable = False
        with pytest.raises(StorageError, match="appends only the next"):
            for part in parts(taken, w._buffer, other):
                w.append(part)
        assert w._requests == [] and w.file.num_records == 0
        assert w.records_written <= 5  # at most a valid first part pending

    def test_records_not_yet_taken_are_refused(self, setup):
        """A read-only view of the buffer past what ``take_survivors``
        selected holds no survivor: it is refused even where it would be
        next."""
        clock, w = self._writer(setup, capacity=20)
        taken = w.take_survivors(edges(10), np.arange(10))
        ahead = w._buffer[10:15]
        ahead.flags.writeable = False
        w.append(taken)
        with pytest.raises(StorageError, match="appends only the next"):
            w.append(ahead)
        assert w.records_written == 10

    def test_fire_and_forget_until_pool_exhausted(self, setup):
        clock, w = self._writer(setup, num_buffers=2, buffer_records=10**5)
        stay_append(w, edges(10**5))  # flush 1 in flight
        stay_append(w, edges(10**5))  # flush 2 in flight
        assert clock.now == 0.0
        assert w.buffers_in_flight == 2
        stay_append(w, edges(10**5))  # pool exhausted -> must wait for oldest
        assert clock.now > 0.0
        assert w.pool_waits == 1

    def test_ready_at_tracks_last_write(self, setup):
        clock, w = self._writer(setup, buffer_records=10**5)
        assert w.is_ready()
        stay_append(w, edges(10**5))
        assert not w.is_ready()
        assert w.is_ready(grace=1.0)  # write lands well within a second
        clock.wait_until(w.ready_at())
        assert w.is_ready()

    def test_cancel_drops_queued_requests(self, setup):
        clock, w = self._writer(setup, num_buffers=4, buffer_records=10**5)
        for i in range(3):
            stay_append(w, edges(10**5))
        dev = w.file.device
        before = dev.bytes_written
        dropped = w.cancel()
        # First request is in service at t=0... start==0 means it started.
        assert dropped >= 2
        assert w.cancelled
        assert dev.bytes_written < before

    def test_live_requests_equal_a_scan_of_every_request(self, setup):
        """The settled prefix is bookkeeping: in flight, ready time and the
        cancel count are what a rescan of all requests gives."""
        clock, w = self._writer(setup, num_buffers=3, buffer_records=10**4)
        for i in range(12):
            stay_append(w, edges(10**4 + 1000 * i))
            clock.charge_compute(0.0004 * (i % 4))
            live = [r for r in w._requests if not r.cancelled and r.end > clock.now]
            assert w._live_requests() == live
            assert w.buffers_in_flight == len(live) <= 3
            assert w.ready_at() == max(r.end for r in w._requests)
        assert w.pool_waits > 0 and w._settled > 0
        queued = [r for r in w._requests if r.start >= clock.now]
        assert w.cancel() == len(queued) > 0
        assert w.buffers_in_flight == len(
            [r for r in w._requests if not r.cancelled and r.end > clock.now]
        )

    def test_cancel_discards_unflushed_records(self, setup):
        clock, w = self._writer(setup, buffer_records=1000)
        stay_append(w, edges(5))  # below threshold, never submitted
        w.cancel()
        # Cancelling closed the writer without writing the tail.
        assert w.closed
        assert w._requests == [] and w.file.num_records == 0

    def test_num_buffers_validation(self, setup):
        clock, device, vfs = setup
        with pytest.raises(StorageError):
            AsyncStreamWriter(
                clock, vfs.create("f", device), 8, capacity=1, num_buffers=0, group="stay:f"
            )

    def test_more_buffers_fewer_waits(self, setup):
        clock1, device1, vfs1 = SimClock(), Device(DeviceSpec.hdd()), VFS()
        w_small = AsyncStreamWriter(
            clock1, vfs1.create("a", device1), 100 * RECORD, capacity=800,
            num_buffers=1, group="stay:a",
        )
        clock2, device2, vfs2 = SimClock(), Device(DeviceSpec.hdd()), VFS()
        w_big = AsyncStreamWriter(
            clock2, vfs2.create("b", device2), 100 * RECORD, capacity=800,
            num_buffers=16, group="stay:b",
        )
        for i in range(8):
            stay_append(w_small, edges(100))
            stay_append(w_big, edges(100))
        assert w_big.pool_waits < w_small.pool_waits
        assert clock2.now <= clock1.now
