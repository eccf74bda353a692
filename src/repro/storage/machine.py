"""The simulated single server: clock, devices, RAM, memory budget, cores.

One :class:`Machine` corresponds to one engine execution on the paper's test
bed.  Engines get their clock, their disks, a RAM pseudo-device (for the
in-memory processing mode of Fig. 9), and the working-memory budget that
drives partitioning decisions.  :meth:`Machine.report` snapshots everything
the evaluation section measures: execution time, per-device byte counts,
iowait time and ratio, and the compute breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import SimClock
from repro.storage.device import Device, DeviceSpec
from repro.storage.vfs import VFS
from repro.utils.units import format_bytes, format_seconds, parse_bytes


@dataclass
class DeviceReport:
    """I/O accounting for one device over a run."""

    name: str
    kind: str
    bytes_read: int
    bytes_written: int
    seek_count: int
    busy_time: float
    #: (stream role, "read"/"write") -> bytes, e.g. ("stay", "write").
    bytes_by_role: Dict[tuple, int] = field(default_factory=dict)

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written


@dataclass
class IOReport:
    """Everything the paper's evaluation measures, for one engine run."""

    execution_time: float
    compute_time: float
    iowait_time: float
    compute_breakdown: Dict[str, float] = field(default_factory=dict)
    devices: List[DeviceReport] = field(default_factory=list)

    @property
    def iowait_ratio(self) -> float:
        if self.execution_time <= 0:
            return 0.0
        return self.iowait_time / self.execution_time

    def _disk_devices(self) -> List[DeviceReport]:
        return [d for d in self.devices if d.kind != "ram"]

    @property
    def bytes_read(self) -> int:
        """Bytes read from persistent devices (the paper's 'input data amount')."""
        return sum(d.bytes_read for d in self._disk_devices())

    @property
    def bytes_written(self) -> int:
        return sum(d.bytes_written for d in self._disk_devices())

    @property
    def bytes_total(self) -> int:
        """Overall data amount moved to/from persistent devices."""
        return self.bytes_read + self.bytes_written

    def bytes_by_role(self) -> Dict[tuple, int]:
        """Aggregate (stream role, kind) -> bytes over persistent devices.

        Roles are stream-group prefixes: ``edges``, ``updates``, ``stay``,
        ``vertices``, ``input``, ``partition`` — the attribution behind the
        Fig. 5 discussion of where FastBFS's savings and extra writes live.
        """
        totals: Dict[tuple, int] = {}
        for dev in self._disk_devices():
            for key, value in dev.bytes_by_role.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def minus(self, baseline: "IOReport") -> "IOReport":
        """This report with ``baseline``'s counters subtracted.

        The per-query accounting of the session protocol: ``baseline`` is
        the machine's report at session start (e.g. right after staging)
        and the difference is what the query itself cost.  Devices are
        matched by name; both reports must come from the same machine.
        """
        base_devs = {d.name: d for d in baseline.devices}
        devices = []
        for dev in self.devices:
            base = base_devs.get(dev.name)
            if base is None:
                devices.append(dev)
                continue
            roles = {
                key: value - base.bytes_by_role.get(key, 0)
                for key, value in dev.bytes_by_role.items()
            }
            roles = {k: v for k, v in roles.items() if v}
            devices.append(
                DeviceReport(
                    name=dev.name,
                    kind=dev.kind,
                    bytes_read=dev.bytes_read - base.bytes_read,
                    bytes_written=dev.bytes_written - base.bytes_written,
                    seek_count=dev.seek_count - base.seek_count,
                    busy_time=dev.busy_time - base.busy_time,
                    bytes_by_role=roles,
                )
            )
        breakdown = {
            key: value - baseline.compute_breakdown.get(key, 0.0)
            for key, value in self.compute_breakdown.items()
        }
        breakdown = {k: v for k, v in breakdown.items() if v}
        return IOReport(
            execution_time=self.execution_time - baseline.execution_time,
            compute_time=self.compute_time - baseline.compute_time,
            iowait_time=self.iowait_time - baseline.iowait_time,
            compute_breakdown=breakdown,
            devices=devices,
        )

    def to_dict(self) -> Dict:
        """JSON-safe dict (role tuples become ``"role/kind"`` strings)."""
        return {
            "execution_time": self.execution_time,
            "compute_time": self.compute_time,
            "iowait_time": self.iowait_time,
            "compute_breakdown": dict(self.compute_breakdown),
            "devices": [
                {
                    "name": d.name,
                    "kind": d.kind,
                    "bytes_read": d.bytes_read,
                    "bytes_written": d.bytes_written,
                    "seek_count": d.seek_count,
                    "busy_time": d.busy_time,
                    "bytes_by_role": {
                        f"{role}/{kind}": value
                        for (role, kind), value in sorted(d.bytes_by_role.items())
                    },
                }
                for d in self.devices
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "IOReport":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        devices = [
            DeviceReport(
                name=d["name"],
                kind=d["kind"],
                bytes_read=int(d["bytes_read"]),
                bytes_written=int(d["bytes_written"]),
                seek_count=int(d["seek_count"]),
                busy_time=float(d["busy_time"]),
                bytes_by_role={
                    tuple(key.split("/", 1)): int(value)
                    for key, value in d.get("bytes_by_role", {}).items()
                },
            )
            for d in data.get("devices", [])
        ]
        return cls(
            execution_time=float(data["execution_time"]),
            compute_time=float(data["compute_time"]),
            iowait_time=float(data["iowait_time"]),
            compute_breakdown=dict(data.get("compute_breakdown", {})),
            devices=devices,
        )

    def summary(self) -> str:
        lines = [
            f"time={format_seconds(self.execution_time)} "
            f"(compute={format_seconds(self.compute_time)}, "
            f"iowait={format_seconds(self.iowait_time)}, "
            f"iowait_ratio={self.iowait_ratio:.1%})",
            f"read={format_bytes(self.bytes_read)} "
            f"written={format_bytes(self.bytes_written)}",
        ]
        for d in self.devices:
            lines.append(
                f"  {d.name}[{d.kind}]: read={format_bytes(d.bytes_read)} "
                f"written={format_bytes(d.bytes_written)} seeks={d.seek_count} "
                f"busy={format_seconds(d.busy_time)}"
            )
        return "\n".join(lines)


def merge_reports(reports: Sequence[IOReport]) -> IOReport:
    """Sum a sequence of per-phase reports into one cumulative report.

    Devices are matched by name (byte counts, seeks, busy time and
    ``bytes_by_role`` all add); times and compute breakdowns add.  This is
    the inverse direction of :meth:`IOReport.minus`: summing the staging
    report with every per-query report of a rewound machine reconstructs
    exactly what a counter registry fed the same parts saw — the identity
    the serving metrics endpoint relies on for exact reconciliation.
    """
    devices: Dict[str, DeviceReport] = {}
    order: List[str] = []
    execution = compute = iowait = 0.0
    breakdown: Dict[str, float] = {}
    for report in reports:
        execution += report.execution_time
        compute += report.compute_time
        iowait += report.iowait_time
        for key, value in report.compute_breakdown.items():
            breakdown[key] = breakdown.get(key, 0.0) + value
        for dev in report.devices:
            acc = devices.get(dev.name)
            if acc is None:
                devices[dev.name] = DeviceReport(
                    name=dev.name,
                    kind=dev.kind,
                    bytes_read=dev.bytes_read,
                    bytes_written=dev.bytes_written,
                    seek_count=dev.seek_count,
                    busy_time=dev.busy_time,
                    bytes_by_role=dict(dev.bytes_by_role),
                )
                order.append(dev.name)
            else:
                acc.bytes_read += dev.bytes_read
                acc.bytes_written += dev.bytes_written
                acc.seek_count += dev.seek_count
                acc.busy_time += dev.busy_time
                for key, value in dev.bytes_by_role.items():
                    acc.bytes_by_role[key] = (
                        acc.bytes_by_role.get(key, 0) + value
                    )
    return IOReport(
        execution_time=execution,
        compute_time=compute,
        iowait_time=iowait,
        compute_breakdown=breakdown,
        devices=[devices[name] for name in order],
    )


@dataclass
class MachineCheckpoint:
    """Opaque snapshot of a machine's mutable simulation state.

    Produced by :meth:`Machine.checkpoint` and consumed by
    :meth:`Machine.restore` — the protocol that lets one machine serve many
    query sessions against a shared staged artifact instead of demanding a
    fresh machine per traversal.
    """

    clock_state: object
    vfs_state: object
    device_states: List[object] = field(default_factory=list)
    cache_state: Optional[object] = None
    fault_state: Optional[object] = None


class Machine:
    """A simulated commodity server.

    Historically one machine served exactly one engine run ("build a fresh
    one per run"); the :meth:`checkpoint`/:meth:`restore` protocol relaxes
    that into explicit snapshots, so a batch front door can stage a graph
    once and rewind the clock/VFS/device state between queries.
    """

    def __init__(
        self,
        disks: Sequence[DeviceSpec],
        memory: Union[int, str] = "4GB",
        cores: int = 4,
        page_cache: Union[int, str, None] = None,
        sanitize: bool = False,
        fault_plan=None,
    ) -> None:
        if not disks:
            raise ConfigError("a machine needs at least one persistent disk")
        if cores < 1:
            raise ConfigError(f"cores must be >= 1, got {cores}")
        names = [spec.name for spec in disks]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate device names: {names}")
        self.clock = SimClock()
        self.disks: List[Device] = [Device(spec) for spec in disks]
        self.ram = Device(DeviceSpec.ram())
        self.page_cache = None
        if page_cache is not None:
            from repro.storage.pagecache import PageCache

            cache_bytes = parse_bytes(page_cache)
            if cache_bytes > 0:
                # One shared cache across all disks, like the OS's.
                self.page_cache = PageCache(cache_bytes)
                for dev in self.disks:
                    dev.cache = self.page_cache
        self.memory_bytes = parse_bytes(memory)
        if self.memory_bytes <= 0:
            raise ConfigError("memory budget must be positive")
        self.cores = cores
        self.vfs = VFS()
        #: Deterministic fault schedule (see repro.storage.faults), if any.
        self.fault_plan = fault_plan
        self.fault_injector = None
        if fault_plan is not None:
            from repro.storage.faults import FaultInjector

            # One injector shared by the persistent disks; the RAM
            # pseudo-device is exempt (faults model persistent media).
            self.fault_injector = FaultInjector(fault_plan, clock=self.clock)
            for dev in self.disks:
                dev.injector = self.fault_injector
        #: Span tracer (repro.obs); the shared no-op unless one is attached.
        self.tracer = NULL_TRACER
        #: Installed runtime checker, if any (see repro.tooling.sanitizer).
        self.sanitizer = None
        if sanitize:
            from repro.tooling.sanitizer import Sanitizer

            Sanitizer().install(self)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def commodity_server(
        memory: Union[int, str] = "4GB",
        cores: int = 4,
        num_disks: int = 1,
        disk_kind: str = "hdd",
        sanitize: bool = False,
        fault_plan=None,
    ) -> "Machine":
        """The paper's test bed: Xeon X5472-class box, 4GB working memory.

        ``disk_kind`` is ``"hdd"`` or ``"ssd"``; ``num_disks`` is 1 or 2 in
        the paper's experiments but any positive count is accepted.
        """
        if disk_kind == "hdd":
            specs = [DeviceSpec.hdd(f"hdd{i}") for i in range(num_disks)]
        elif disk_kind == "ssd":
            specs = [DeviceSpec.ssd(f"ssd{i}") for i in range(num_disks)]
        else:
            raise ConfigError(f"unknown disk kind {disk_kind!r}")
        return Machine(
            specs, memory=memory, cores=cores, sanitize=sanitize,
            fault_plan=fault_plan,
        )

    # ------------------------------------------------------------------
    # device access
    # ------------------------------------------------------------------
    def disk(self, index: int) -> Device:
        """Persistent disk by index; out-of-range indices clamp to the last
        disk so single-disk machines accept configs written for two."""
        if index < 0:
            raise ConfigError(f"disk index must be >= 0, got {index}")
        return self.disks[min(index, len(self.disks) - 1)]

    def all_devices(self) -> List[Device]:
        return [*self.disks, self.ram]

    # ------------------------------------------------------------------
    # observability (see repro.obs)
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer) -> "Machine":
        """Install a span tracer and bind it to this machine's clock.

        The tracer is the explicit observability handle engines reach as
        ``machine.tracer`` — there is no global registry.  Every device
        reports its requests to an enabled tracer (``io`` spans).  Pass the
        shared ``NULL_TRACER`` (or a fresh ``NullTracer``) to detach.
        """
        self.tracer = tracer.bind_clock(self.clock)
        for dev in self.all_devices():
            dev.tracer = tracer if tracer.enabled else None
        if self.fault_injector is not None:
            self.fault_injector.tracer = self.tracer
        return self

    def counters(self):
        """Sample every counter source into a fresh ``CounterRegistry``."""
        from repro.obs.counters import CounterRegistry

        return CounterRegistry.from_machine(self)

    def attach_fault_plan(self, fault_plan) -> "Machine":
        """Install a fault schedule on a machine built without one.

        The serving registry's hook: graphs are staged on a *clean*
        machine (staging must stay deterministic and fault-free), then the
        plan is attached just before the post-staging checkpoint is taken
        — so every query replays under the schedule and the checkpoint
        carries the injector's initial state.  Call only at a quiescent
        point, before any checkpoint that should observe the injector;
        re-attaching replaces the previous injector wholesale.
        """
        if fault_plan is None:
            return self
        from repro.storage.faults import FaultInjector

        self.fault_plan = fault_plan
        self.fault_injector = FaultInjector(fault_plan, clock=self.clock)
        self.fault_injector.tracer = self.tracer
        for dev in self.disks:
            dev.injector = self.fault_injector
        return self

    # ------------------------------------------------------------------
    # checkpoint / restore (the query-session protocol)
    # ------------------------------------------------------------------
    def checkpoint(self) -> MachineCheckpoint:
        """Snapshot clock, VFS, devices and page cache.

        Take checkpoints only at a quiescent point — no device request may
        still be in flight (end > clock.now).  The engines' staging phase
        ends with exactly such a barrier.
        """
        return MachineCheckpoint(
            clock_state=self.clock.snapshot(),
            vfs_state=self.vfs.snapshot(),
            device_states=[dev.snapshot() for dev in self.all_devices()],
            cache_state=(
                self.page_cache.snapshot() if self.page_cache is not None else None
            ),
            fault_state=(
                self.fault_injector.snapshot()
                if self.fault_injector is not None
                else None
            ),
        )

    def restore(self, cp: MachineCheckpoint) -> None:
        """Roll the machine back to a checkpoint.

        Files created since the checkpoint are deleted, the clock and every
        device timeline rewind, and an installed sanitizer is told the
        rollback is sanctioned (so its monotonicity checker re-anchors).
        """
        self.clock.restore(cp.clock_state)
        self.vfs.restore(cp.vfs_state)
        for dev, state in zip(self.all_devices(), cp.device_states):
            dev.restore(state)
        if self.page_cache is not None and cp.cache_state is not None:
            self.page_cache.restore(cp.cache_state)
        if self.fault_injector is not None and cp.fault_state is not None:
            self.fault_injector.restore(cp.fault_state)
        if self.sanitizer is not None:
            self.sanitizer.notify_restore(self.clock.now)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def report(self) -> IOReport:
        now = self.clock.now
        return IOReport(
            execution_time=self.clock.elapsed,
            compute_time=self.clock.compute_time,
            iowait_time=self.clock.iowait_time,
            compute_breakdown=self.clock.compute_breakdown(),
            devices=[
                DeviceReport(
                    name=dev.name,
                    kind=dev.spec.kind,
                    bytes_read=dev.bytes_read,
                    bytes_written=dev.bytes_written,
                    seek_count=dev.seek_count,
                    busy_time=dev.busy_time_until(now),
                    bytes_by_role=dev.timeline.bytes_by_role(),
                )
                for dev in self.all_devices()
            ],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = ",".join(d.spec.kind for d in self.disks)
        return (
            f"Machine(disks=[{kinds}], memory={format_bytes(self.memory_bytes)}, "
            f"cores={self.cores})"
        )
