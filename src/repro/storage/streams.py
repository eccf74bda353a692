"""Buffered sequential streams over virtual files.

These classes are where the data path (numpy record arrays) meets the time
path (device timelines + the engine clock):

* :class:`StreamReader` — iterate a file in buffer-sized views with a
  configurable prefetch depth.  With depth >= 2 the next buffer's read is in
  flight while the engine computes on the current one, which is exactly the
  edge-streaming pipeline X-Stream (and FastBFS) use to overlap I/O and
  compute.
* :class:`StreamWriter` — buffered appends whose flushes are queued on the
  device without blocking the engine; :meth:`StreamWriter.drain` is the
  barrier ("updates must be durable before the gather phase starts").
* :class:`AsyncStreamWriter` — the dedicated stay-list writer thread of
  FastBFS §III: a private pool of edge buffers, fire-and-forget flushes that
  only block when the pool is exhausted, a readiness query, and
  cancellation.

A flush of one pending array submits that array; a flush of several
joins them into one byte copy (:func:`~repro.storage.vfs.as_one_array`).
The stay writer is the one writer that owns the buffer its records live
in, so it is the one that joins without a copy: survivors are selected
straight into its private buffer (:meth:`AsyncStreamWriter.take_survivors`),
a flush of consecutive read-only views of that buffer submits one view of
it, and the file seals as the buffer's prefix, so a stay record is written
once and swap-in can tell that what it holds is what was flushed
(:meth:`AsyncStreamWriter.verify_integrity`).
A flush of that buffer is not checksummed at send either: the ledger keeps
the read-only view, and its CRC is taken only by a swap-in that has to
compare it, so a clean stay record is read once.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from collections import deque
from typing import Deque, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import IOFaultError, StorageError
from repro.sim.clock import SimClock
from repro.sim.timeline import ScheduledRequest
from repro.storage.faults import submit_with_retry
from repro.storage.vfs import VirtualFile, as_one_array


class StreamReader:
    """Sequential buffered reader with prefetch.

    Iterating yields zero-copy views of at most ``records_per_buffer``
    records.  Each view's read request was charged to the file's device; the
    engine clock blocks (iowait) until that request completes.
    """

    def __init__(
        self,
        clock: SimClock,
        file: VirtualFile,
        buffer_bytes: int,
        prefetch: int = 2,
        group: str = "",
    ) -> None:
        if buffer_bytes <= 0:
            raise StorageError(f"buffer_bytes must be positive, got {buffer_bytes}")
        if prefetch < 1:
            raise StorageError(f"prefetch depth must be >= 1, got {prefetch}")
        self.clock = clock
        self.file = file
        self.group = group or f"read:{file.name}"
        self.prefetch = prefetch
        # Fixed for the reader's life: it reads the records the file held
        # at open, and a file with records has a fixed dtype.
        self._record_size = record_size = file.record_size
        self.records_per_buffer = (
            max(1, buffer_bytes // record_size) if record_size else 0
        )
        self._total = file.num_records
        self._next_submit = 0  # next record index to request
        self._pending: Deque[tuple] = deque()  # (request, start_record, count)
        self.buffers_read = 0

    def _fill(self) -> None:
        pending, total, record_size = self._pending, self._total, self._record_size
        while len(pending) < self.prefetch and self._next_submit < total:
            first = self._next_submit
            count = min(self.records_per_buffer, total - first)
            req = submit_with_retry(
                self.clock, self.file, "read", count * record_size,
                first * record_size, self.group,
            )
            pending.append((req, first, count))
            self._next_submit = first + count

    def __iter__(self) -> Iterator[np.ndarray]:
        return self

    def __next__(self) -> np.ndarray:
        self._fill()
        if not self._pending:
            raise StopIteration
        req, start, count = self._pending.popleft()
        self.clock.wait_until(req.end)
        self._fill()  # keep the pipeline full while we go compute
        self.buffers_read += 1
        return self.file.read_records(start, count)


class StreamWriter:
    """Buffered appender; flushes are queued writes, ``drain()`` is a barrier."""

    def __init__(
        self,
        clock: SimClock,
        file: VirtualFile,
        buffer_bytes: int,
        group: str = "",
    ) -> None:
        if buffer_bytes <= 0:
            raise StorageError(f"buffer_bytes must be positive, got {buffer_bytes}")
        self.clock = clock
        self.file = file
        self.buffer_bytes = buffer_bytes
        self.group = group or f"write:{file.name}"
        #: Simulated time the writer was opened (span anchoring only).
        self.opened_at = clock.now
        self._pending: List[np.ndarray] = []
        self._pending_bytes = 0
        self._requests: List[ScheduledRequest] = []
        # Requests are appended in submit order and one that was cancelled
        # or has landed never becomes live again (a landed write cannot be
        # cancelled, and ends only ever move earlier), so the scans below
        # start after that prefix; ``_settled_end`` is its latest
        # uncancelled end.
        self._settled = 0
        self._settled_end: Optional[float] = None
        self.records_written = 0
        self.flush_count = 0
        self.closed = False

    def append(self, arr: np.ndarray) -> None:
        if self.closed:
            raise StorageError(f"writer for {self.file.name!r} is closed")
        if len(arr) == 0:
            return
        self._pending.append(arr)
        self._pending_bytes += arr.nbytes
        self.records_written += len(arr)
        if self._pending_bytes >= self.buffer_bytes:
            self.flush()

    def flush_buffers(self, cuts: Sequence[int], record_bytes: int) -> List[int]:
        """Where :meth:`append` of consecutive slices would flush.

        ``cuts`` are ascending record positions in one array of
        ``record_bytes``-byte records; slice ``b`` is
        ``records[cuts[b]:cuts[b + 1]]``.  Returns, in order, every ``b`` at
        which appending those slices one at a time, starting from what the
        writer holds pending now, would flush: empty slices add nothing, and
        a flush happens once the pending bytes reach ``buffer_bytes``.
        Integer arithmetic only; the writer is not touched.  A caller that
        appends everything since the previous flush at each of these ``b``,
        and the rest after the last slice, submits the same writes at the
        same points.
        """
        # Records that fill a buffer: on top of what is pending, then from
        # empty.  ``append`` flushes whenever pending reaches the buffer, so
        # less than a buffer is ever pending and ``owed`` is at least one.
        owed = -(-(self.buffer_bytes - self._pending_bytes) // record_bytes)
        per_flush = -(-self.buffer_bytes // record_bytes)
        target = cuts[0] + owed
        last = cuts[-1]
        due: List[int] = []
        while target <= last:
            b = bisect_left(cuts, target, 1) - 1
            due.append(b)
            target = cuts[b + 1] + per_flush
        return due

    def flush(self) -> Optional[ScheduledRequest]:
        """Submit buffered records as one device write (non-blocking)."""
        if not self._pending:
            return None
        chunk = self._join(self._pending)
        offset = self.file.nbytes
        self._on_chunk(chunk, offset)
        self.file.append_records(chunk)
        req = self._submit(chunk.nbytes, offset)
        self._pending = []
        self._pending_bytes = 0
        self.flush_count += 1
        return req

    def _join(self, pending: List[np.ndarray]) -> np.ndarray:
        """Hook: the pending arrays as the one chunk a flush writes."""
        return as_one_array(pending)

    def _on_chunk(self, chunk: np.ndarray, offset: int) -> None:
        """Hook: called with each chunk about to be written (pre-submit).

        The stay writer overrides this to record what each chunk *sent*,
        so a torn write (which damages what *landed*) is detectable at
        swap-in.
        """

    def _submit(self, nbytes: int, offset: int) -> ScheduledRequest:
        req = submit_with_retry(
            self.clock, self.file, "write", nbytes, offset, self.group
        )
        self._requests.append(req)
        if req.fault == "torn_write":
            # The device acknowledged the write but it did not land intact:
            # damage the stored copy so readers see what the medium holds.
            self.file.corrupt_at(offset)
        return req

    def drain(self) -> None:
        """Flush and block until every submitted write has completed."""
        self.flush()
        end = self.last_end
        if end is not None:
            self.clock.wait_until(end)

    def _unsettled(self) -> List[ScheduledRequest]:
        """The requests past the cancelled-or-landed prefix."""
        now = self.clock.now
        requests = self._requests
        i = self._settled
        while i < len(requests):
            req = requests[i]
            if not req.cancelled:
                if req.end > now:
                    break
                if self._settled_end is None or req.end > self._settled_end:
                    self._settled_end = req.end
            i += 1
        self._settled = i
        return requests[i:]

    @property
    def last_end(self) -> Optional[float]:
        """Completion time of the latest uncancelled write, if any."""
        ends = [r.end for r in self._unsettled() if not r.cancelled]
        if self._settled_end is not None:
            ends.append(self._settled_end)
        return max(ends) if ends else None

    def close(self, drain: bool = True) -> None:
        """Flush remaining records; optionally barrier; seal the file."""
        if self.closed:
            return
        if drain:
            self.drain()
        else:
            self.flush()
        self.closed = True
        self.file.seal(self._whole())

    def _whole(self) -> Optional[np.ndarray]:
        """Hook: the written records as one view, when the writer knows
        them to be one (see :meth:`VirtualFile.seal`); None to let the file
        join its chunks."""
        return None


class AsyncStreamWriter(StreamWriter):
    """Stay-list writer: private buffer pool, asynchronous flushes.

    The engine only blocks here when all ``num_buffers`` private buffers hold
    writes still in flight (paper §III condition 1).  Readiness of the whole
    file and cancellation of the not-yet-started tail are exposed for the
    cross-iteration swap logic (condition 2).

    The private buffers are real on the host too: ``capacity`` records,
    allocated once, that :meth:`take_survivors` selects into and whose
    consecutive read-only views are what gets appended.  A flush joins
    them into one view of the buffer (:meth:`_join`), the file's chunks are
    then that buffer, in order, and it seals as the buffer's prefix by
    reference, so a stay record exists once.  Nothing else ever holds the
    buffer writable.

    Because a stay file is advisory (an optimization, never the only copy
    of the data), this writer is also where I/O faults degrade instead of
    propagate: a per-chunk ledger of what each flush sent detects torn
    writes at swap-in, and a write that keeps failing after retries flips
    :attr:`write_failed` — both degrade the swap to the previous edge file
    exactly like a cancellation.  A flush of the private buffer is recorded
    as its read-only view, whose CRC is taken only if swap-in has to compare
    it; any other chunk is recorded as its CRC, taken at send.
    """

    def __init__(
        self,
        clock: SimClock,
        file: VirtualFile,
        buffer_bytes: int,
        num_buffers: int = 4,
        group: str = "",
        capacity: int = 0,
    ) -> None:
        if num_buffers < 1:
            raise StorageError(f"num_buffers must be >= 1, got {num_buffers}")
        super().__init__(clock, file, buffer_bytes, group or f"stay:{file.name}")
        self.num_buffers = num_buffers
        #: Records the private buffer holds (the most the file can grow to).
        self.capacity = capacity
        self._buffer: Optional[np.ndarray] = None  # allocated at first use
        self._taken = 0  # records of it selected so far
        self._views_only = True  # every flush so far sent a view of it
        self.pool_waits = 0  # times the engine stalled on buffer exhaustion
        self.cancelled = False
        #: Flipped when a flush keeps failing after retries; the manager
        #: treats a failed writer exactly like a cancellation candidate.
        self.write_failed = False
        self.write_failure: Optional[IOFaultError] = None
        # (offset, nbytes, sent) per flushed chunk: ``sent`` is the
        # read-only view of the private buffer that was flushed, or the
        # crc32 of any other chunk's bytes, taken at send.
        self._chunk_sums: List[Tuple[int, int, Union[int, np.ndarray]]] = []

    def _live_requests(self) -> List[ScheduledRequest]:
        now = self.clock.now
        return [r for r in self._unsettled() if not r.cancelled and r.end > now]

    @property
    def buffers_in_flight(self) -> int:
        return len(self._live_requests())

    def take_survivors(self, run: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Select ``run[keep]`` into the private buffer.

        Returns a read-only view of the selected records, for the caller
        to :meth:`append` in consecutive slices, once each and in the order
        taken (as the engine's replay does), so what the file holds is the
        buffer's prefix.
        """
        start = self._taken
        stop = start + len(keep)
        if stop > self.capacity:
            raise StorageError(
                f"stay writer for {self.file.name!r} has a capacity of "
                f"{self.capacity} records and holds {start}; "
                f"cannot take {len(keep)} more"
            )
        if self._buffer is None:
            self._buffer = np.empty(self.capacity, dtype=run.dtype)
        taken = self._buffer[start:stop]
        # mode="clip" writes into ``out`` directly ("raise" goes through a
        # temporary); ``keep`` indexes ``run``, so nothing is ever clipped.
        np.take(run, keep, out=taken, mode="clip")
        taken.flags.writeable = False
        self._taken = stop
        return taken

    def append(self, arr: np.ndarray) -> None:
        if self.write_failed:
            # Degraded: the file will be discarded at swap time anyway, so
            # stop spending buffers and device bandwidth on it.
            return
        super().append(arr)

    def _join(self, pending: List[np.ndarray]) -> np.ndarray:
        # Read-only slices of the private buffer, each starting where the
        # one before it ended (a carry from one host run and the next run's
        # slice), are one view of the buffer; anything else is a copy.
        buffer = self._buffer
        if buffer is None or len(pending) == 1:
            return as_one_array(pending)
        start = next_byte = pending[0].ctypes.data
        for part in pending:
            if (
                part.base is not buffer
                or part.dtype is not buffer.dtype
                or part.flags.writeable
                or not part.flags.c_contiguous
                or part.ctypes.data != next_byte
            ):
                return as_one_array(pending)
            next_byte += part.nbytes
        first = (start - buffer.ctypes.data) // buffer.itemsize
        joined = buffer[first : first + (next_byte - start) // buffer.itemsize]
        joined.flags.writeable = False
        return joined

    def _on_chunk(self, chunk: np.ndarray, offset: int) -> None:
        # A flushed region of the private buffer is never written again
        # (take_survivors writes only past ``_taken`` and hands out
        # read-only views), so its view still holds the bytes sent and its
        # CRC can wait for a swap-in that compares it.  Any other chunk may
        # change after send: crc32 it now, from its own buffer (no copy).
        buffer = self._buffer
        if buffer is not None and chunk.base is buffer and not chunk.flags.writeable:
            sent: Union[int, np.ndarray] = chunk
        else:
            sent = zlib.crc32(chunk.view(np.uint8))
            self._views_only = False
        self._chunk_sums.append((offset, chunk.nbytes, sent))

    def _whole(self) -> Optional[np.ndarray]:
        # Each flush sent a read-only view of the buffer, the views were
        # appended in the order taken, and together they hold every record
        # taken: the file is the buffer's prefix.
        if (
            self._buffer is None
            or not self._views_only
            or self.file.num_records != self._taken
        ):
            return None
        whole = self._buffer[: self._taken]
        whole.flags.writeable = False
        return whole

    def _submit(self, nbytes: int, offset: int) -> ScheduledRequest:
        live = self._live_requests()
        if len(live) >= self.num_buffers:
            # All private buffers are tied to in-flight writes: wait for the
            # oldest to land (this is the only sync point in the fast path).
            self.pool_waits += 1
            self.clock.wait_until(min(r.end for r in live))
        try:
            return super()._submit(nbytes, offset)
        except IOFaultError as exc:
            # Stay data is never the only copy; a lost flush costs the
            # trimming opportunity, not correctness.  Record the failure
            # and hand back an already-dead pseudo-request so accounting
            # ignores it; the manager cancels the writer at swap time.
            self.write_failed = True
            self.write_failure = exc
            now = self.clock.now
            dead = ScheduledRequest(
                group=self.group, kind="write", nbytes=0,
                submit=now, service=0.0, start=now, end=now,
            )
            dead.cancelled = True
            return dead

    def verify_integrity(self) -> List[int]:
        """Checksum every flushed chunk; return offsets that mismatch.

        Compares the CRC of what each flush *sent* against the bytes the
        file holds now — a torn write shows up as exactly one damaged
        chunk.  An empty list means the file is intact.  The sent-side CRC
        is the one taken at send, or, for a flush of the private buffer,
        taken here from the view the ledger kept.

        The one case with nothing to read: the file's array *is* the
        private buffer (same object behind it, from its first byte through
        the last byte flushed) and is read-only.  Every flush was then a
        view of those very bytes, and nothing could have written to them
        since, so no CRC is taken at all.  Anything that stores other
        bytes (``corrupt_at`` copies a chunk; so does a seal over chunks
        that are not one array) breaks that identity and gets the full
        comparison.
        """
        bad: List[int] = []
        if not self._chunk_sums:
            return bad
        held = self.file.records()
        last_offset, last_nbytes, _ = self._chunk_sums[-1]
        if (
            self._buffer is not None
            and held.base is self._buffer
            and not held.flags.writeable
            and held.ctypes.data == self._buffer.ctypes.data
            and held.nbytes == last_offset + last_nbytes
        ):
            return bad
        data = held.view(np.uint8)
        for offset, nbytes, sent in self._chunk_sums:
            if isinstance(sent, np.ndarray):
                sent = zlib.crc32(sent.view(np.uint8))
            if zlib.crc32(data[offset : offset + nbytes]) != sent:
                bad.append(offset)
        return bad

    def ready_at(self) -> float:
        """Time at which every submitted write will have completed."""
        end = self.last_end
        return end if end is not None else self.clock.now

    def is_ready(self, grace: float = 0.0) -> bool:
        """Would the file be durable within ``grace`` seconds from now?"""
        return self.ready_at() <= self.clock.now + grace

    def cancel(self) -> int:
        """Abort the write-back: drop queued (unstarted) requests.

        In-flight requests finish (the head is already committed to them);
        their time and bytes stay charged — that is the cost the paper's
        cancellation mechanism accepts.  Returns the number of requests
        cancelled.  The caller is expected to discard the output file.
        """
        self._pending = []  # never-submitted records die with the file
        self._pending_bytes = 0
        now = self.clock.now
        mine = {id(r) for r in self._requests}
        dropped = self.file.device.timeline.cancel(
            now, lambda r: id(r) in mine and not r.cancelled
        )
        self.cancelled = True
        self.closed = True
        return len(dropped)
