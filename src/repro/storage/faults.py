"""Deterministic fault injection for the storage substrate.

Out-of-core engines live or die on how they behave when the disk
misbehaves, yet a simulator only ever models the happy path unless faults
are part of the model.  This module makes device misbehaviour a
first-class, *seeded* input: a :class:`FaultPlan` is a reproducible
schedule of faults, a :class:`FaultInjector` evaluates it at the single
choke point every I/O goes through (:meth:`Device.submit
<repro.storage.device.Device.submit>`), and :func:`submit_with_retry` is
the stream-layer answer to the transient subset, within the plan's
``max_attempts`` budget.

Fault taxonomy (``FaultSpec.kind``):

``transient_error``
    The request fails with :class:`~repro.errors.TransientIOError`; a
    retry may succeed.  Absorbed by :func:`submit_with_retry` within the
    plan's ``max_attempts``.
``persistent_error``
    The request fails with :class:`~repro.errors.PersistentIOError`;
    retrying is pointless and the error propagates as a typed failure.
``latency`` / ``stall``
    The request succeeds but its service time is inflated by
    ``delay_seconds`` (a spike) or by a long device hiccup (a stall).
    Purely a timing fault — data is unaffected.
``torn_write``
    The write is acknowledged but what lands on the medium differs from
    what was sent (one byte of the chunk is flipped via
    :meth:`VirtualFile.corrupt_at <repro.storage.vfs.VirtualFile.corrupt_at>`).
    Only checksummed consumers (the stay writer) can detect this.
``out_of_space``
    The write fails through the device's out-of-space choke point exactly
    as if modeled capacity ran out (:class:`~repro.errors.OutOfSpaceError`).
``crash``
    The whole run dies mid-flight with :class:`~repro.errors.CrashError`
    (a *CrashPoint*); :meth:`QuerySession.recover
    <repro.engines.session.QuerySession.recover>` replays from the staged
    artifact plus the last machine checkpoint.

Determinism: the injector draws from one ``numpy`` generator seeded via
:func:`repro.utils.rng.rng_from_seed`, and the simulated workload issues
requests in a deterministic order, so the same seed and plan produce the
same faults, the same retries, and the same spans — bit for bit.  The
checkpoint protocol snapshots the rng state and per-device request
indices (so a replay sees the same schedule) but deliberately **not**
fire budgets or counters: a ``max_fires=1`` crash does not re-fire after
recovery, and fault counters remain lifetime totals that reconcile with
the (never-truncated) span trace.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple

from repro.errors import (
    ConfigError,
    CrashError,
    IOFaultError,
    PersistentIOError,
    TransientIOError,
)
from repro.obs.tracer import NULL_TRACER
from repro.sim.timeline import ScheduledRequest, Timeline
from repro.utils.backoff import exponential_backoff
from repro.utils.rng import rng_from_seed

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.sim.clock import SimClock
    from repro.storage.device import Device
    from repro.storage.vfs import VirtualFile

#: Every fault kind a FaultSpec may carry.
FAULT_KINDS = frozenset(
    {
        "transient_error",
        "persistent_error",
        "latency",
        "stall",
        "torn_write",
        "out_of_space",
        "crash",
    }
)

#: Kinds that only make sense for write requests.
_WRITE_ONLY_KINDS = frozenset({"torn_write", "out_of_space"})

#: Kinds that inflate service time instead of raising.
_DELAY_KINDS = frozenset({"latency", "stall"})


@dataclass(frozen=True)
class FaultSpec:
    """One rule of a fault plan: *what* fails, *where*, and *how often*.

    A spec matches a request when every set filter agrees: ``device``
    (device name), ``io_kind`` (``"read"``/``"write"``), ``role`` (the
    stream-group prefix, e.g. ``"stay"``), and ``after_index`` (the
    per-device request ordinal).  A matching spec then fires with
    ``probability`` (one rng draw), bounded by ``max_fires`` over the
    machine's lifetime.
    """

    kind: str
    probability: float = 1.0
    device: Optional[str] = None
    io_kind: Optional[str] = None
    role: Optional[str] = None
    after_index: int = 0
    max_fires: Optional[int] = None
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"fault probability must be in [0, 1], got {self.probability}"
            )
        if self.io_kind not in (None, "read", "write"):
            raise ConfigError(f"io_kind must be 'read' or 'write', got {self.io_kind!r}")
        if self.kind in _WRITE_ONLY_KINDS and self.io_kind == "read":
            raise ConfigError(f"{self.kind} faults only apply to writes")
        if self.after_index < 0:
            raise ConfigError(f"after_index must be >= 0, got {self.after_index}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ConfigError(f"max_fires must be >= 1, got {self.max_fires}")
        if self.delay_seconds < 0:
            raise ConfigError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}"
            )
        if self.kind in _DELAY_KINDS and self.delay_seconds <= 0:
            raise ConfigError(f"{self.kind} faults need delay_seconds > 0")

    def matches(self, device_name: str, io_kind: str, role: str, index: int) -> bool:
        if self.device is not None and self.device != device_name:
            return False
        if self.io_kind is not None and self.io_kind != io_kind:
            return False
        if self.io_kind is None and self.kind in _WRITE_ONLY_KINDS and io_kind != "write":
            return False
        if self.role is not None and self.role != role:
            return False
        return index >= self.after_index


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, reproducible schedule of faults for one machine.

    Attach through ``Machine(fault_plan=...)``; the machine builds one
    :class:`FaultInjector` shared by its persistent disks (the RAM
    pseudo-device is exempt — faults model persistent media).

    ``max_attempts`` is the stream layer's budget per request for the
    plan's transient errors (:func:`submit_with_retry`), counting the
    first try: 3 means one submit plus at most two retries.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        # Accept any sequence of specs; freeze to a tuple for hashability.
        object.__setattr__(self, "specs", tuple(self.specs))
        # numpy seeds its generators from non-negative integers only.
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ConfigError(
                f"fault plan seed must be a non-negative integer, got {self.seed!r}"
            )
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")

    @staticmethod
    def crash_point(
        after_index: int, device: Optional[str] = None, seed: int = 0
    ) -> "FaultPlan":
        """A plan with exactly one deterministic mid-run crash."""
        return FaultPlan(
            specs=(
                FaultSpec(
                    kind="crash", after_index=after_index, device=device, max_fires=1
                ),
            ),
            seed=seed,
        )


#: Simulated seconds before the first retry, and the growth of each
#: later wait (see :func:`retry_backoff`).
RETRY_BACKOFF_BASE = 0.002
RETRY_BACKOFF_MULTIPLIER = 2.0


def retry_backoff(retry_number: int) -> float:
    """Simulated seconds to wait before retry ``retry_number`` (1-based).

    ``RETRY_BACKOFF_BASE * RETRY_BACKOFF_MULTIPLIER ** (n - 1)``, so
    recovery cost is visible in the iowait ledger like any other stall.
    """
    return exponential_backoff(
        RETRY_BACKOFF_BASE, RETRY_BACKOFF_MULTIPLIER, retry_number
    )


@dataclass
class FaultOutcome:
    """A non-raising fault decision for one request."""

    delay: float = 0.0
    torn: bool = False
    out_of_space: bool = False


class FaultInjector:
    """Evaluates a :class:`FaultPlan` at every device submit.

    One injector serves all of a machine's disks; it keeps a per-device
    request ordinal (the schedule's clock), one seeded rng (the
    schedule's randomness), lifetime fire budgets, and the fault/retry
    counters that :meth:`counter_samples` exposes to the
    :class:`~repro.obs.counters.CounterRegistry`.
    """

    def __init__(self, plan: FaultPlan, clock: Optional["SimClock"] = None) -> None:
        self.plan = plan
        self.clock = clock
        self.tracer = NULL_TRACER
        self._rng = rng_from_seed(plan.seed)
        self._indices: Dict[str, int] = {}
        self._fires: List[int] = [0] * len(plan.specs)
        # (counter name, device) -> lifetime count; never rewound.
        self._counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # evaluation (called from Device.submit)
    # ------------------------------------------------------------------
    def on_submit(
        self, device: "Device", kind: str, nbytes: int, group: str
    ) -> Optional[FaultOutcome]:
        """Decide this request's fate; raises for error faults.

        Returns ``None`` (no fault) or a :class:`FaultOutcome` the device
        applies (extra delay, torn flag, forced out-of-space).
        """
        name = device.name
        index = self._indices.get(name, 0)
        self._indices[name] = index + 1
        role = Timeline.role_of(group)
        outcome: Optional[FaultOutcome] = None
        for i, spec in enumerate(self.plan.specs):
            if not spec.matches(name, kind, role, index):
                continue
            if spec.max_fires is not None and self._fires[i] >= spec.max_fires:
                continue
            if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                continue
            self._fires[i] += 1
            self._count(f"fault_{spec.kind}", name)
            where = f"{kind} #{index} on {name!r} (group {group!r}, {nbytes} bytes)"
            if spec.kind == "transient_error":
                raise TransientIOError(f"injected transient fault: {where}")
            if spec.kind == "persistent_error":
                raise PersistentIOError(f"injected persistent fault: {where}")
            if spec.kind == "crash":
                # Trace the crash point itself so the span trace reconciles
                # with fault_crash_total even though the error unwinds the
                # whole query (closing every open span on the way out).
                now = self.clock.now if self.clock is not None else 0.0
                self.tracer.emit(
                    "crash",
                    start=now,
                    end=now,
                    parent_id=self.tracer.current_id,
                    device=name,
                    group=group,
                    index=index,
                )
                raise CrashError(f"injected crash point: {where}")
            if outcome is None:
                outcome = FaultOutcome()
            if spec.kind in _DELAY_KINDS:
                outcome.delay += spec.delay_seconds
            elif spec.kind == "torn_write":
                outcome.torn = True
            elif spec.kind == "out_of_space":
                outcome.out_of_space = True
        return outcome

    # ------------------------------------------------------------------
    # retry / recovery accounting (called from the stream + session layers)
    # ------------------------------------------------------------------
    def record_retry(
        self, device_name: str, group: str, attempt: int, start: float, end: float
    ) -> None:
        """Count one retry and trace its backoff window as an ``io_retry`` span."""
        self._count("io_retries", device_name)
        self.tracer.emit(
            "io_retry",
            start=start,
            end=end,
            parent_id=self.tracer.current_id,
            device=device_name,
            group=group,
            attempt=attempt,
        )

    def record_giveup(self, device_name: str, group: str, attempts: int, now: float) -> None:
        """Count one exhausted retry loop and trace it as an ``io_giveup`` span."""
        self._count("io_giveups", device_name)
        self.tracer.emit(
            "io_giveup",
            start=now,
            end=now,
            parent_id=self.tracer.current_id,
            device=device_name,
            group=group,
            attempts=attempts,
        )

    def record_recovery(self) -> None:
        """Count one successful crash/resume recovery."""
        self._count("crash_recoveries", "-")

    def _count(self, name: str, device_name: str) -> None:
        key = (name, device_name)
        self._counts[key] = self._counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def counter_samples(self) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """Yield (name, labels, value) fault counters for the registry."""
        for (name, device_name), count in sorted(self._counts.items()):
            labels = {} if device_name == "-" else {"device": device_name}
            yield f"{name}_total", labels, float(count)

    def total(self, name: str) -> int:
        """Lifetime count of one event class summed over devices."""
        return sum(v for (n, _), v in self._counts.items() if n == name)

    def counts_snapshot(self) -> Dict[Tuple[str, str], int]:
        """Copy of the lifetime counters, for windowed delta sampling.

        The serving layer takes one snapshot per admission flush and
        merges only the *delta* into the ``/metrics`` registry via
        :meth:`delta_samples` — lifetime totals merged repeatedly would
        double-count.
        """
        return dict(self._counts)

    def delta_samples(
        self, base: Dict[Tuple[str, str], int]
    ) -> Iterator[Tuple[str, Dict[str, str], float]]:
        """Yield counters grown since ``base`` (a :meth:`counts_snapshot`).

        Same ``(name_total, labels, value)`` shape as
        :meth:`counter_samples`, restricted to nonzero growth.  Because
        lifetime counters are never rewound, a flush window's delta also
        covers faults fired by executions that were later rolled back.
        """
        for (name, device_name), count in sorted(self._counts.items()):
            grown = count - base.get((name, device_name), 0)
            if grown <= 0:
                continue
            labels = {} if device_name == "-" else {"device": device_name}
            yield f"{name}_total", labels, float(grown)

    @property
    def faults_injected(self) -> int:
        return sum(
            v for (n, _), v in self._counts.items() if n.startswith("fault_")
        )

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture schedule position (indices + rng); budgets/counters stay.

        Restoring replays the same fault schedule from the checkpoint
        (bit-identical recovery), while lifetime fire budgets and counters
        survive — a consumed ``max_fires=1`` crash point does not re-fire,
        and counters keep reconciling with the never-truncated trace.
        """
        return {
            "indices": dict(self._indices),
            "rng": self._rng.bit_generator.state,
        }

    def restore(self, state: dict) -> None:
        self._indices = dict(state["indices"])
        self._rng.bit_generator.state = state["rng"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultInjector(specs={len(self.plan.specs)}, seed={self.plan.seed}, "
            f"injected={self.faults_injected})"
        )


def submit_with_retry(
    clock: "SimClock",
    file: "VirtualFile",
    kind: str,
    nbytes: int,
    offset: int,
    group: str,
) -> ScheduledRequest:
    """Submit one device request, absorbing transient faults.

    The stream layer's recovery loop: a :class:`~repro.errors.TransientIOError`
    (only a fault injector raises one) triggers a simulated-clock backoff
    (``clock.wait_until``, so the stall lands in the iowait ledger) and a
    resubmit, up to the injector's ``plan.max_attempts`` total attempts.  Each retry is
    traced as an ``io_retry`` span and counted; exhaustion emits an
    ``io_giveup`` span and raises :class:`~repro.errors.IOFaultError`.
    Persistent faults and out-of-space pass straight through — retrying
    cannot help them.
    """
    device = file.device
    attempt = 0
    while True:
        attempt += 1
        try:
            return device.submit(clock.now, kind, nbytes, file.file_id, offset, group)
        except TransientIOError as exc:
            injector = device.injector
            if attempt >= injector.plan.max_attempts:
                injector.record_giveup(device.name, group, attempt, clock.now)
                raise IOFaultError(
                    f"{kind} on {device.name!r} (group {group!r}) still failing "
                    f"after {attempt} attempt(s): {exc}"
                ) from exc
            start = clock.now
            clock.wait_until(start + retry_backoff(attempt))
            injector.record_retry(device.name, group, attempt, start, clock.now)
