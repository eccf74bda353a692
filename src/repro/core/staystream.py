"""Stay-stream lifecycle: the asynchronous trimming machinery (paper §III).

Every trimming scatter over partition *p* produces a new stay file through
an :class:`~repro.storage.streams.AsyncStreamWriter` (the "dedicated thread"
with private edge buffers).  The engine selects each host run's survivors
straight into that writer's buffer (:meth:`StayStreamManager.stage_survivors`)
and appends read-only views of it, so a stay record is copied once between
the input edge file and the stay file that replaces it.  The file is *not*
drained when the partition finishes — its writes keep flushing in the
background across the rest of the pass and into the next iteration.  When
scatter reaches *p* again, exactly one of two things happens:

* **swap** — the stay file is durable (or will be within the cancellation
  grace): it replaces *p*'s edge file as input, and the displaced file is
  deleted;
* **cancel** — the write-back is still queued: drop the unstarted requests,
  discard the partial file, and keep streaming the previous edge file
  ("pull out in time from expensive data writing").

The manager tracks both generations — the writer currently producing
("stay stream out") and the writer pending from last iteration ("stay
stream in" candidate) — mirroring the two stay stream sets the paper swaps
each iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.core.config import FastBFSConfig
from repro.errors import EngineError
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import SimClock
from repro.storage.device import Device
from repro.storage.streams import AsyncStreamWriter
from repro.storage.vfs import VFS, VirtualFile


@dataclass
class StayStats:
    """Cumulative trimming counters for one run that no pass counts.

    Swaps, cancellations and stay records (and so stay bytes) are the
    passes' to count (``IterationStats``).  ``integrity_failures``
    (checksum mismatches at swap-in) and ``write_failures`` (flushes that
    kept failing after retries) break out the fault-driven cancellations.
    """

    files_written: int = 0
    pool_waits: int = 0
    end_of_run_discards: int = 0
    integrity_failures: int = 0
    write_failures: int = 0


class StayStreamManager:
    """Owns every stay writer of a run."""

    def __init__(
        self,
        clock: SimClock,
        vfs: VFS,
        device: Device,
        config: FastBFSConfig,
        protected: FrozenSet[str] = frozenset(),
        tracer=NULL_TRACER,
    ) -> None:
        self.clock = clock
        self.vfs = vfs
        self.device = device
        self.config = config
        #: VFS names a swap must not displace (staged-artifact edge files
        #: owned by a shared StagedGraph, not by this query).
        self.protected = protected
        self._current: Dict[int, AsyncStreamWriter] = {}
        self._pending: Dict[int, AsyncStreamWriter] = {}
        self.stats = StayStats()
        # Stay flushes outlive the iteration span that opened them, so
        # their spans are emitted retroactively under the span open at
        # construction time — the enclosing query span.
        self.tracer = tracer
        self._span_anchor = tracer.current_id
        self._iteration_of: Dict[int, int] = {}  # id(writer) -> iteration

    # ------------------------------------------------------------------
    # input resolution (start of a partition's scatter)
    # ------------------------------------------------------------------
    def resolve_input(
        self, p: int, current_file: VirtualFile
    ) -> Tuple[VirtualFile, str]:
        """Swap in partition ``p``'s pending stay file, or cancel it.

        Returns ``(input_file, outcome)`` with outcome one of ``"keep"``
        (no pending stay), ``"swap"``, or ``"cancel"``.
        """
        writer = self._pending.pop(p, None)
        if writer is None:
            return current_file, "keep"
        if writer.write_failed:
            # The flush path gave up after retries: the stay file is
            # incomplete on the medium.  Degrade exactly like a timing
            # cancellation — the previous edge file is still valid input.
            self.stats.write_failures += 1
            return self._cancel(p, writer, current_file, reason="write_failure")
        if writer.is_ready(grace=self.config.cancellation_grace):
            # Possibly a short wait inside the grace window.
            self.clock.wait_until(writer.ready_at())
            if writer.verify_integrity():
                # Durable but damaged (torn write): a checksum mismatch at
                # swap-in degrades to the previous edge file rather than
                # ever serving corrupt edges.
                self.stats.integrity_failures += 1
                return self._cancel(
                    p, writer, current_file, reason="checksum_mismatch"
                )
            self._emit_span("stay_flush", p, writer, end=writer.ready_at())
            new_file = writer.file
            # A displaced file of a shared staged artifact stays intact for
            # the next query session: the stay file keeps its own name.
            if current_file.name not in self.protected:
                self.vfs.replace(new_file.name, current_file.name)
            return new_file, "swap"
        return self._cancel(p, writer, current_file, reason="not_ready")

    def _cancel(
        self,
        p: int,
        writer: AsyncStreamWriter,
        current_file: VirtualFile,
        reason: str,
    ) -> Tuple[VirtualFile, str]:
        """Mid-run cancellation: drop the stay file, keep the previous input."""
        writer.cancel()
        self._emit_span(
            "stay_cancel", p, writer, end=self.clock.now,
            end_of_run=False, reason=reason,
        )
        self.vfs.delete(writer.file.name)
        return current_file, "cancel"

    def _emit_span(
        self,
        name: str,
        p: int,
        writer: AsyncStreamWriter,
        end: float,
        **attrs,
    ) -> None:
        """Retroactive span for one stay writer's lifetime (see __init__)."""
        self.tracer.emit(
            name,
            start=writer.opened_at,
            end=max(end, writer.opened_at),
            parent_id=self._span_anchor,
            partition=p,
            iteration=self._iteration_of.pop(id(writer), -1),
            records=writer.records_written,
            bytes=writer.file.nbytes,
            **attrs,
        )

    # ------------------------------------------------------------------
    # output production (during a partition's scatter)
    # ------------------------------------------------------------------
    def open(
        self,
        p: int,
        iteration: int,
        input_file: VirtualFile,
        device: Optional[Device] = None,
    ) -> AsyncStreamWriter:
        """Create the stay-out writer for partition ``p`` this iteration.

        ``input_file`` is the edge file being trimmed: a stay file never
        outgrows it, so its record count is the capacity of the writer's
        private buffer, the only place its records can come from
        (:meth:`stage_survivors`).  ``device`` overrides the manager's
        default target (used by the two-disk rotation, which alternates the
        stay-out disk per iteration).
        """
        if p in self._current:
            raise EngineError(f"stay writer for partition {p} already open")
        file = self.vfs.create(f"stay:p{p}:i{iteration}", device or self.device)
        writer = AsyncStreamWriter(
            self.clock,
            file,
            self.config.stay_buffer_bytes,
            capacity=input_file.num_records,
            num_buffers=self.config.num_stay_buffers,
            group=f"stay:p{p}:i{iteration}",
        )
        self._current[p] = writer
        self._iteration_of[id(writer)] = iteration
        self.stats.files_written += 1
        return writer

    def current(self, p: int) -> Optional[AsyncStreamWriter]:
        return self._current.get(p)

    def stage_survivors(self, p: int, run: np.ndarray, keep: np.ndarray) -> np.ndarray:
        """Select ``run[keep]`` into ``p``'s stay writer; a read-only view."""
        writer = self._current.get(p)
        if writer is None:
            raise EngineError(f"no open stay writer for partition {p}")
        return writer.take_survivors(run, keep)

    def append(self, p: int, records: np.ndarray) -> None:
        writer = self._current.get(p)
        if writer is None:
            raise EngineError(f"no open stay writer for partition {p}")
        writer.append(records)

    def finish_partition(self, p: int) -> None:
        """Close ``p``'s stay-out writer; its flushes land in the background."""
        writer = self._current.pop(p, None)
        if writer is None:
            return
        writer.close()
        self.stats.pool_waits += writer.pool_waits
        self._pending[p] = writer

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def discard_all(self) -> None:
        """Cancel every outstanding stay write (traversal finished).

        The in-flight buffers still complete and stay charged — wasted
        write-back is a real cost of trimming near the end of a traversal.
        """
        for p, writer in list(self._pending.items()) + list(self._current.items()):
            writer.cancel()
            self._emit_span(
                "stay_cancel", p, writer, end=self.clock.now,
                end_of_run=True, reason="end_of_run",
            )
            self.vfs.delete_if_exists(writer.file.name)
            self.stats.end_of_run_discards += 1
        self._pending.clear()
        self._current.clear()
