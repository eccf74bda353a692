"""Importable test helpers (fixtures stay in conftest.py)."""

from __future__ import annotations

import numpy as np

from repro.algorithms.validation import BFSAnswerChecker
from repro.core.config import FastBFSConfig
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.machine import Machine
from repro.storage.streams import AsyncStreamWriter
from repro.storage.vfs import VirtualFile
from repro.utils.units import KB, MB


def fresh_machine(num_disks: int = 1, memory: int = 2 * MB, cores: int = 4,
                  disk_kind: str = "hdd") -> Machine:
    """A small out-of-core test machine."""
    if disk_kind == "hdd":
        specs = [DeviceSpec.hdd(f"hdd{i}") for i in range(num_disks)]
    else:
        specs = [DeviceSpec.ssd(f"ssd{i}") for i in range(num_disks)]
    return Machine(specs, memory=memory, cores=cores)


def slow_stay_disk_machine(write_bandwidth=64 * 1024, memory=2 * MB) -> Machine:
    """Disk 0 is normal; disk 1 (the stay target) barely writes.

    On a single disk the update drain barrier also flushes the queued stay
    writes (FIFO), so cancellation can only be forced when stays live on
    their own, slower device.
    """
    specs = [
        DeviceSpec.hdd("main"),
        DeviceSpec("slowstay", seek_time=0.0, read_bandwidth=200 * MB,
                   write_bandwidth=write_bandwidth),
    ]
    return Machine(specs, memory=memory)


def small_fastbfs_config(**overrides) -> FastBFSConfig:
    base = dict(
        edge_buffer_bytes=2 * KB,
        update_buffer_bytes=1 * KB,
        stay_buffer_bytes=1 * KB,
        num_partitions=4,
        allow_in_memory=False,
    )
    base.update(overrides)
    return FastBFSConfig(**base)


def graph_from_pairs(num_vertices: int, pairs, name: str = "graph") -> Graph:
    """A graph from an iterable of (src, dst) tuples."""
    pairs = list(pairs)
    src, dst = zip(*pairs) if pairs else ((), ())
    return Graph.from_arrays(num_vertices, src, dst, name=name)


def hub_root(graph) -> int:
    return int(np.argmax(graph.out_degrees()))


def stay_append(target, records: np.ndarray, p: int = 0) -> np.ndarray:
    """Append ``records`` to a stay writer, or to partition ``p``'s open
    writer of a ``StayStreamManager``, the one way stay records enter one:
    selected into the writer's buffer (``take_survivors`` /
    ``stage_survivors``), then appended as the read-only view taken, which
    is returned."""
    keep = np.arange(len(records))
    if isinstance(target, AsyncStreamWriter):
        taken = target.take_survivors(records, keep)
        target.append(taken)
    else:
        taken = target.stage_survivors(p, records, keep)
        target.append(p, taken)
    return taken


def assert_reference_volumes(graph, engine, roots, iterations, extras) -> None:
    """``iterations``, a run of ``engine`` from ``roots`` (several: one
    batch), read the volumes :meth:`BFSAnswerChecker.pass_volumes` gives
    over the run's partitioning and stay cancellations."""
    partitioning = VertexPartitioning(graph.num_vertices, int(extras["partitions"]))
    cancels = [(it.iteration, p) for it in iterations for p in it.stay_cancelled]
    expected = BFSAnswerChecker(graph).pass_volumes(
        engine, partitioning, roots, cancels
    )
    assert [it.volume for it in iterations] == expected, (roots, cancels, expected)


def checked_run(engine, graph, machine, root):
    """``engine.run`` from ``root``, held to :func:`assert_reference_volumes`."""
    result = engine.run(graph, machine, root=root)
    assert_reference_volumes(graph, engine, root, result.iterations, result.extras)
    return result


class ScheduleRecorder:
    """Everything a run shows the time path, in order, plus file contents.

    ``calls`` holds one tuple per ``Device.submit`` (``"submit"``, device,
    kind, nbytes, offset, group, submit time), ``SimClock.charge_compute``
    (``"charge"``, seconds, category) and ``SimClock.wait_until``
    (``"wait"``, target); ``sealed`` the name and bytes of every file at the
    ``seal`` that froze it.  Patches last as long as ``monkeypatch`` does.
    """

    def __init__(self, monkeypatch) -> None:
        self.calls = []
        self.sealed = []
        recorder = self
        submit, charge = Device.submit, SimClock.charge_compute
        wait, seal = SimClock.wait_until, VirtualFile.seal

        def record_submit(self, submit_time, kind, nbytes, file_id, offset, group=""):
            recorder.calls.append(
                ("submit", self.name, kind, nbytes, offset, group, submit_time)
            )
            return submit(self, submit_time, kind, nbytes, file_id, offset, group)

        def record_charge(self, seconds, category="compute"):
            recorder.calls.append(("charge", seconds, category))
            return charge(self, seconds, category)

        def record_wait(self, t):
            recorder.calls.append(("wait", t))
            return wait(self, t)

        def record_seal(self, whole=None):
            first = self._sealed is None
            seal(self, whole)
            if first:
                recorder.sealed.append((self.name, self._sealed.tobytes()))

        monkeypatch.setattr(Device, "submit", record_submit)
        monkeypatch.setattr(SimClock, "charge_compute", record_charge)
        monkeypatch.setattr(SimClock, "wait_until", record_wait)
        monkeypatch.setattr(VirtualFile, "seal", record_seal)

    @property
    def submits(self) -> list:
        """``(kind, nbytes, offset, group)`` of every device request."""
        return [call[2:6] for call in self.calls if call[0] == "submit"]
