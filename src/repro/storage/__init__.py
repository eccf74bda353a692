"""Simulated single-server storage substrate.

This package is the stand-in for the paper's test bed (a 4-core Xeon with
one or two 7200RPM SATA disks or a SATA2 SSD).  Data really flows — files
hold the actual numpy record arrays the engines stream — but time is charged
to a :class:`~repro.sim.clock.SimClock` through per-device FIFO timelines, so
execution time, iowait and byte counts come out of a deterministic model
instead of Python's (irrelevant) wall clock.

Key pieces:

* :class:`DeviceSpec` / :class:`Device` — seek + bandwidth model with
  ``hdd()``, ``ssd()`` and ``ram()`` presets;
* :class:`VirtualFile` / :class:`VFS` — named record files on devices;
* :class:`StreamReader` — sequential buffered reads with prefetch depth;
* :class:`StreamWriter` — buffered appends, drained with a barrier;
* :class:`AsyncStreamWriter` — the dedicated stay-list writer: a private
  buffer pool, fire-and-forget flushes, and cancellation support;
* :class:`Machine` — clock + devices + memory budget + core count;
* :class:`FaultPlan` / :class:`FaultInjector` — deterministic fault
  injection and the plan's retry budget for the stream-layer retry loop
  (see :mod:`repro.storage.faults`).
"""

from repro.storage.device import Device, DeviceSpec
from repro.storage.faults import FaultInjector, FaultPlan, FaultSpec
from repro.storage.machine import IOReport, Machine
from repro.storage.pagecache import PageCache
from repro.storage.streams import AsyncStreamWriter, StreamReader, StreamWriter
from repro.storage.vfs import VFS, VirtualFile

__all__ = [
    "Device",
    "DeviceSpec",
    "VFS",
    "VirtualFile",
    "StreamReader",
    "StreamWriter",
    "AsyncStreamWriter",
    "Machine",
    "IOReport",
    "PageCache",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
]
