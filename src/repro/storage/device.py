"""Block-device timing model.

A device turns a request (kind, size, file, offset) into a service time:

``service = seeks * seek_time + nbytes / bandwidth``

A *seek* is charged whenever the request does not continue sequentially from
the previous request on the same device (different file, or a jump within the
file).  That single rule reproduces the phenomena the paper leans on: long
sequential streams run at full bandwidth, interleaving two streams on one
spindle thrashes the head, and SSDs barely care.

Presets are calibrated to the paper's hardware generation (2016 commodity
parts); see ``repro.analysis.calibration`` for how they combine with the
compute model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import OutOfSpaceError, StorageError
from repro.sim.timeline import ScheduledRequest, Timeline
from repro.utils.units import GB, MB


@dataclass(frozen=True)
class DeviceSpec:
    """Static performance parameters of one device."""

    name: str
    seek_time: float  # seconds per non-sequential access
    read_bandwidth: float  # bytes/second
    write_bandwidth: float  # bytes/second
    kind: str = "hdd"  # "hdd" | "ssd" | "ram" (reporting only)
    #: Modeled capacity in bytes; ``None`` means unbounded (the default —
    #: the paper's experiments never fill a disk, but a fault plan or an
    #: explicit capacity lets out-of-space behaviour be exercised).
    capacity: Optional[int] = None

    def __post_init__(self) -> None:
        if self.seek_time < 0:
            raise StorageError(f"seek_time must be >= 0, got {self.seek_time}")
        if self.read_bandwidth <= 0 or self.write_bandwidth <= 0:
            raise StorageError("bandwidths must be positive")
        if self.capacity is not None and self.capacity <= 0:
            raise StorageError(f"capacity must be positive, got {self.capacity}")

    # ------------------------------------------------------------------
    # presets (2016-era commodity parts, matching the paper's test bed)
    # ------------------------------------------------------------------
    @staticmethod
    def hdd(name: str = "hdd0") -> "DeviceSpec":
        """7200RPM SATA3 disk (Seagate Barracuda class)."""
        return DeviceSpec(
            name=name,
            seek_time=8.5e-3,
            read_bandwidth=140 * MB,
            write_bandwidth=130 * MB,
            kind="hdd",
        )

    @staticmethod
    def ssd(name: str = "ssd0") -> "DeviceSpec":
        """SATA2 SSD (EJITEC EJS1125A class)."""
        return DeviceSpec(
            name=name,
            seek_time=0.08e-3,
            read_bandwidth=260 * MB,
            write_bandwidth=210 * MB,
            kind="ssd",
        )

    @staticmethod
    def ram(name: str = "ram") -> "DeviceSpec":
        """Main-memory 'device' for in-memory processing mode."""
        return DeviceSpec(
            name=name,
            seek_time=0.0,
            read_bandwidth=8 * GB,
            write_bandwidth=8 * GB,
            kind="ram",
        )


class Device:
    """A block device: a :class:`DeviceSpec` plus a request timeline."""

    def __init__(self, spec: DeviceSpec) -> None:
        self.spec = spec
        self.timeline = Timeline(spec.name)
        # (file id, next sequential offset) of the last scheduled request.
        self._head: Optional[Tuple[int, int]] = None
        self._seek_count = 0
        self._used_bytes = 0
        #: Optional shared OS page cache (see repro.storage.pagecache).
        self.cache = None
        #: Optional fault injector (see repro.storage.faults); installed by
        #: ``Machine(fault_plan=...)``, shared across the machine's disks.
        self.injector = None
        #: The attached span tracer, which records every request (``io``
        #: spans); None while the machine is untraced.
        self.tracer = None

    @property
    def name(self) -> str:
        return self.spec.name

    def service_time(self, kind: str, nbytes: int, seeks: int) -> float:
        bandwidth = (
            self.spec.read_bandwidth if kind == "read" else self.spec.write_bandwidth
        )
        return seeks * self.spec.seek_time + nbytes / bandwidth

    # ------------------------------------------------------------------
    # capacity model
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes currently reserved by live file data on this device."""
        return self._used_bytes

    @property
    def available_bytes(self) -> Optional[int]:
        """Free capacity in bytes; ``None`` when the device is unbounded."""
        if self.spec.capacity is None:
            return None
        return max(0, self.spec.capacity - self._used_bytes)

    def reserve(self, nbytes: int) -> None:
        """Claim ``nbytes`` of capacity for file data (VFS append path)."""
        available = self.available_bytes
        if available is not None and nbytes > available:
            self._out_of_space(nbytes, available)
        self._used_bytes += nbytes

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` of capacity (VFS delete path)."""
        self._used_bytes = max(0, self._used_bytes - nbytes)

    def _out_of_space(self, requested: int, available: Optional[int] = None) -> None:
        """The single choke point every out-of-space condition goes through.

        Both real capacity exhaustion (:meth:`reserve`) and an injected
        ``out_of_space`` fault raise here, so the error message is uniform:
        device name, requested bytes, available bytes.
        """
        if available is None:
            avail = self.available_bytes
            available = avail if avail is not None else 0
        raise OutOfSpaceError(
            f"device {self.name!r} is out of space: "
            f"requested {requested} bytes, {available} bytes available"
        )

    def submit(
        self,
        submit_time: float,
        kind: str,
        nbytes: int,
        file_id: int,
        offset: int,
        group: str = "",
    ) -> ScheduledRequest:
        """Queue one request; returns its placement on the timeline.

        Sequential continuation (same file, offset where the head was left)
        costs no seek.  Approximation: cancellations do not restore the head
        position — a cancelled queued write still counts as having moved the
        head for the *next* request's seek decision.  This slightly overcounts
        seeks (pessimistic for FastBFS), never under.

        With an attached page cache, reads only pay the disk for the blocks
        not resident; a fully-cached read completes instantly without
        touching the timeline (and without counting as device bytes — the
        paper's "input data amount" is what reaches the disk).

        With an installed fault injector, the request is first judged
        against the machine's fault plan: error faults raise before any
        state changes, latency/stall faults inflate the service time, a
        torn write tags the returned request (the stream layer applies the
        corruption), and an injected out-of-space goes through the same
        choke point as real capacity exhaustion.
        """
        outcome = None
        if self.injector is not None:
            # Evaluated before any cache/head mutation so a raised fault
            # leaves the device exactly as it was (retries re-judge).
            outcome = self.injector.on_submit(self, kind, nbytes, group)
            if outcome is not None and outcome.out_of_space:
                self._out_of_space(nbytes)
        disk_bytes = nbytes
        if self.cache is not None:
            if kind == "read":
                disk_bytes = self.cache.read(file_id, offset, nbytes)
                if disk_bytes == 0:
                    # RAM-speed hit: an already-complete pseudo-request.
                    return ScheduledRequest(
                        group=group, kind=kind, nbytes=0,
                        submit=submit_time, service=0.0,
                        start=submit_time, end=submit_time,
                    )
            else:
                self.cache.write(file_id, offset, nbytes)
        spec = self.spec
        seeks = 0
        if spec.seek_time > 0.0:
            if self._head is None or self._head != (file_id, offset):
                seeks = 1
        self._head = (file_id, offset + nbytes)
        self._seek_count += seeks
        # service_time(kind, disk_bytes, seeks), inline: same operands, same
        # order, so the same float.
        service = seeks * spec.seek_time + disk_bytes / (
            spec.read_bandwidth if kind == "read" else spec.write_bandwidth
        )
        if outcome is not None and outcome.delay > 0.0:
            service += outcome.delay
        req = self.timeline.schedule(submit_time, service, disk_bytes, kind, group)
        if outcome is not None and outcome.torn and kind == "write":
            req.fault = "torn_write"
        if self.tracer is not None:
            self.tracer.record_request(spec.name, req)
        return req

    def plan_reads(
        self, file_id: int, offset: int, nbytes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Service times and ends of reads of consecutive extents of one
        file, ``nbytes[j]`` bytes each from ``offset`` on, were each
        submitted by the time the one before it ends; changes nothing.
        Only the first can seek.  For a device without a fault injector,
        page cache or tracer, which each must see every request."""
        seeks = np.zeros(len(nbytes), dtype=np.int64)
        if self.spec.seek_time > 0.0 and self._head != (file_id, offset):
            seeks[0] = 1
        services = self.service_time("read", nbytes, seeks)
        return services, self.timeline.packed_ends(services)

    def submit_reads(
        self,
        submits: np.ndarray,
        file_id: int,
        offset: int,
        nbytes: np.ndarray,
        services: np.ndarray,
        ends: np.ndarray,
        group: str,
        held_from: int,
    ) -> List[ScheduledRequest]:
        """Queue the reads :meth:`plan_reads` planned, submitted at
        ``submits``: what :meth:`submit` of each in turn leaves, head and
        seek count included.  Returns the requests from index
        ``held_from`` on (:meth:`Timeline.schedule_packed`)."""
        if self.spec.seek_time > 0.0 and self._head != (file_id, offset):
            self._seek_count += 1
        self._head = (file_id, offset + int(nbytes.sum()))
        return self.timeline.schedule_packed(
            submits, services, ends, nbytes, group, held_from
        )

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture head position, seek count, capacity use, timeline state."""
        return {
            "head": self._head,
            "seek_count": self._seek_count,
            "used_bytes": self._used_bytes,
            "timeline": self.timeline.snapshot(),
        }

    def restore(self, state: dict) -> None:
        """Roll the device back to a snapshot (see Machine.restore)."""
        self._head = state["head"]
        self._seek_count = state["seek_count"]
        self._used_bytes = state["used_bytes"]
        self.timeline.restore(state["timeline"])

    # ------------------------------------------------------------------
    # accounting passthroughs
    # ------------------------------------------------------------------
    def counter_samples(self):
        """Yield (name, labels, value) samples for the counter registry.

        Sourced from the timeline's per-role ledger — the ledger the
        per-kind totals (``bytes_read``/``bytes_written``) are reconciled
        against — plus the seek count, which lives on the device itself.
        """
        for (role, kind), nbytes in self.timeline.bytes_by_role().items():
            yield (
                "device_bytes_total",
                {"device": self.name, "kind": kind, "role": role},
                float(nbytes),
            )
        yield "device_seeks_total", {"device": self.name}, float(self._seek_count)

    @property
    def bytes_read(self) -> int:
        return self.timeline.bytes_read

    @property
    def bytes_written(self) -> int:
        return self.timeline.bytes_written

    @property
    def seek_count(self) -> int:
        return self._seek_count

    def busy_time_until(self, t: float) -> float:
        return self.timeline.busy_time_until(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.spec.name!r}, kind={self.spec.kind})"
