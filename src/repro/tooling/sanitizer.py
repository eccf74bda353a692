"""Runtime sanitizer: invariant checkers for one simulated engine run.

The simulation's correctness rests on protocol discipline that functional
tests cannot observe: every stay file must walk the
open -> append -> async-flush -> swap-or-cancel state machine (paper §III),
every byte a device moves must be attributable to a charged stream role,
and the simulated clock must never run backwards.  A single silent
violation skews every reproduced figure without failing a single BFS
correctness assertion — which is exactly why these checks live in an
opt-in sanitizer rather than in tests.

Usage::

    machine = Machine.commodity_server(sanitize=True)
    engine = FastBFSEngine(FastBFSConfig(sanitize=True))
    result = engine.run(graph, machine)        # raises SanitizerError on
                                               # any protocol violation

Either opt-in is sufficient: a sanitized machine is picked up by any
edge-centric engine, and ``sanitize=True`` on the engine config installs a
sanitizer onto a plain machine at the start of ``run()``.  The installed
checkers are:

``vfs-leak``
    Every :class:`~repro.storage.vfs.VirtualFile` created during the run
    must be deleted, replaced, or be a legitimate end-of-run survivor
    (input / edge / vertex / shard files).  Leaked transient files
    (``stay:*``, ``updates:*``) are reported with their creation site.
``clock``
    The engine clock must be monotonic at every observed operation,
    compute charges must be non-negative, and ``wait_until`` targets must
    not be impossible (negative) times.  Waits for times already in the
    past are legal no-ops (the request completed while the engine was
    computing); they are counted in :attr:`Sanitizer.past_waits`.
``stay-state``
    Every stay writer the :class:`~repro.core.staystream.StayStreamManager`
    opens must reach exactly one terminal state — swap, cancel, or
    end-of-run discard — and the manager must never double-open a
    partition or append without an open writer.
``cost-coverage``
    Device requests must carry a stream-group label, and every known
    stream role that moved bytes must have a matching CPU charge
    (``edges`` reads imply ``scatter`` charges, ``stay`` writes imply
    ``trim`` charges, ...).  I/O that bypasses
    :meth:`~repro.engines.costs.CostModel.charge` breaks the compute:I/O
    ratio the whole reproduction argues about.

The sanitizer wraps bound methods on the *instances* it watches (clock,
VFS, devices, stay manager); nothing changes for unsanitized runs.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import SanitizerError
from repro.sim.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.staystream import StayStreamManager
    from repro.sim.clock import SimClock
    from repro.storage.device import Device
    from repro.storage.machine import Machine
    from repro.storage.vfs import VFS, VirtualFile

#: File-name roles that may legitimately be live when a run finishes.
SURVIVOR_ROLES = frozenset({"input", "edges", "vertices", "shard", "chivert"})

#: (stream role, request kind) -> compute category that must accompany it.
EXPECTED_CHARGES: Dict[Tuple[str, str], str] = {
    ("input", "read"): "partition",
    ("partition", "write"): "partition",
    ("edges", "read"): "scatter",
    ("updates", "write"): "shuffle",
    ("updates", "read"): "gather",
    ("stay", "write"): "trim",
}

#: Stay-writer states; the last three are terminal.
_STAY_TERMINAL = frozenset({"swapped", "cancelled", "discarded"})

#: Absolute tolerance for clock comparisons (float accumulation slack).
_EPS = 1e-12


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    checker: str  # "vfs-leak" | "clock" | "stay-state" | "cost-coverage"
    message: str
    site: Optional[str] = None  # "path:line in function" when known

    def __str__(self) -> str:
        loc = f" (created at {self.site})" if self.site else ""
        return f"[{self.checker}] {self.message}{loc}"


@dataclass
class _FileRecord:
    file: "VirtualFile"
    site: Optional[str]


@dataclass
class _StayRecord:
    partition: int
    name: str
    state: str  # "open" -> "pending" -> swapped/cancelled/discarded
    site: Optional[str]


_SITE_SKIP = frozenset({"sanitizer.py", "vfs.py", "staystream.py"})


def _creation_site() -> Optional[str]:
    """Innermost stack frame outside the sanitizer / storage plumbing."""
    for frame in reversed(traceback.extract_stack()):
        basename = frame.filename.rsplit("/", 1)[-1].rsplit("\\", 1)[-1]
        if basename not in _SITE_SKIP:
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    return None


class Sanitizer:
    """Watches one machine (and optionally a stay manager) for one run.

    ``strict=True`` (the default) makes :meth:`finalize_run` raise
    :class:`~repro.errors.SanitizerError`; ``strict=False`` only records
    violations for inspection via :attr:`violations` / :meth:`report`.
    """

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict
        self.violations: List[Violation] = []
        self.past_waits = 0  # wait_until targets already in the past (legal)
        self.finalized = False
        self._files: Dict[int, _FileRecord] = {}
        self._stay: Dict[int, _StayRecord] = {}
        self._categories: set = set()
        self._role_bytes: Dict[Tuple[str, str], int] = {}
        self._last_now = 0.0
        self._machine: Optional["Machine"] = None
        self._session_baseline: Optional[set] = None
        self._session_checked: set = set()

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self, machine: "Machine") -> "Sanitizer":
        """Attach all machine-level checkers; sets ``machine.sanitizer``."""
        if self._machine is not None:
            raise SanitizerError("sanitizer is already installed on a machine")
        self._machine = machine
        self._last_now = machine.clock.now
        self._watch_clock(machine.clock)
        self._watch_vfs(machine.vfs)
        for dev in machine.all_devices():
            self._watch_device(dev)
        machine.sanitizer = self
        return self

    def _watch_clock(self, clock: "SimClock") -> None:
        orig_charge = clock.charge_compute
        orig_wait = clock.wait_until

        def charge_compute(seconds: float, category: str = "compute") -> None:
            self._check_monotonic(clock.now)
            if seconds < 0:
                self._record(
                    "clock", f"negative compute charge {seconds} ({category})"
                )
            orig_charge(seconds, category=category)
            self._categories.add(category)
            self._check_monotonic(clock.now)

        def wait_until(t: float) -> float:
            before = clock.now
            self._check_monotonic(before)
            if t < 0:
                self._record("clock", f"wait_until impossible time {t}")
            elif t < before - _EPS:
                self.past_waits += 1
            waited = orig_wait(t)
            self._check_monotonic(clock.now)
            return waited

        clock.charge_compute = charge_compute  # type: ignore[method-assign]
        clock.wait_until = wait_until  # type: ignore[method-assign]

    def _watch_vfs(self, vfs: "VFS") -> None:
        orig_create = vfs.create

        def create(
            name: str, device: "Device", overwrite: bool = False
        ) -> "VirtualFile":
            f = orig_create(name, device, overwrite=overwrite)
            self._files[id(f)] = _FileRecord(file=f, site=_creation_site())
            return f

        vfs.create = create  # type: ignore[method-assign]

    def _watch_device(self, dev: "Device") -> None:
        orig_submit = dev.submit

        def submit(
            submit_time: float,
            kind: str,
            nbytes: int,
            file_id: int,
            offset: int,
            group: str = "",
        ) -> Any:
            if not group:
                self._record(
                    "cost-coverage",
                    f"unattributed {kind} of {nbytes} bytes on {dev.name!r} "
                    "(empty stream-group label)",
                )
            role = Timeline.role_of(group)
            key = (role, kind)
            self._role_bytes[key] = self._role_bytes.get(key, 0) + nbytes
            return orig_submit(
                submit_time=submit_time,
                kind=kind,
                nbytes=nbytes,
                file_id=file_id,
                offset=offset,
                group=group,
            )

        dev.submit = submit  # type: ignore[method-assign]

    def watch_staystream(self, mgr: "StayStreamManager") -> None:
        """Attach the stay-writer state-machine checker to ``mgr``."""
        orig_open = mgr.open
        orig_stage = mgr.stage_survivors
        orig_append = mgr.append
        orig_finish = mgr.finish_partition
        orig_resolve = mgr.resolve_input
        orig_discard = mgr.discard_all

        def open(
            p: int,
            iteration: int,
            device: Optional["Device"] = None,
            input_file: Optional["VirtualFile"] = None,
        ) -> Any:
            if mgr.current(p) is not None:
                self._record(
                    "stay-state",
                    f"double open of stay writer for partition {p} "
                    f"(iteration {iteration})",
                )
            writer = orig_open(p, iteration, device=device, input_file=input_file)
            self._stay[id(writer)] = _StayRecord(
                partition=p,
                name=writer.file.name,
                state="open",
                site=_creation_site(),
            )
            return writer

        def check_open(p: int, verb: str) -> None:
            writer = mgr.current(p)
            if writer is None:
                self._record(
                    "stay-state",
                    f"{verb} without an open stay writer for partition {p}",
                )
            elif writer.closed:
                self._record(
                    "stay-state",
                    f"{verb} to closed stay writer {writer.file.name!r}",
                )

        def stage_survivors(p: int, run: np.ndarray, keep: np.ndarray) -> Any:
            check_open(p, "stage")
            return orig_stage(p, run, keep)

        def append(p: int, records: np.ndarray) -> None:
            check_open(p, "append")
            orig_append(p, records)

        def finish_partition(p: int) -> None:
            writer = mgr.current(p)
            orig_finish(p)
            if writer is not None:
                rec = self._stay.get(id(writer))
                if rec is not None:
                    rec.state = "pending"

        def resolve_input(p: int, current_file: "VirtualFile") -> Any:
            pending = mgr.pending_partitions.get(p)
            resolved, outcome = orig_resolve(p, current_file)
            if pending is not None:
                rec = self._stay.get(id(pending))
                if rec is not None:
                    rec.state = "swapped" if outcome == "swap" else "cancelled"
            return resolved, outcome

        def discard_all() -> None:
            orig_discard()
            for rec in self._stay.values():
                if rec.state not in _STAY_TERMINAL:
                    rec.state = "discarded"

        mgr.open = open  # type: ignore[method-assign]
        mgr.stage_survivors = stage_survivors  # type: ignore[method-assign]
        mgr.append = append  # type: ignore[method-assign]
        mgr.finish_partition = finish_partition  # type: ignore[method-assign]
        mgr.resolve_input = resolve_input  # type: ignore[method-assign]
        mgr.discard_all = discard_all  # type: ignore[method-assign]

    # ------------------------------------------------------------------
    # live recording
    # ------------------------------------------------------------------
    def _record(
        self, checker: str, message: str, site: Optional[str] = None
    ) -> None:
        self.violations.append(Violation(checker, message, site))

    def _check_monotonic(self, now: float) -> None:
        if now < self._last_now - _EPS:
            self._record(
                "clock",
                f"clock went backwards: {now} after {self._last_now}",
            )
        self._last_now = max(self._last_now, now)

    def notify_restore(self, now: float) -> None:
        """Re-anchor the monotonicity checker after a sanctioned rollback.

        ``Machine.restore`` is the one legal way the clock moves backwards
        (the query-session protocol rewinding to a post-staging
        checkpoint); it calls this so the next observed operation is
        checked against the restored time, not the rolled-back one.
        """
        self._last_now = now

    # ------------------------------------------------------------------
    # session-scoped checks (the query-session protocol)
    # ------------------------------------------------------------------
    def begin_session(self) -> None:
        """Mark the start of one query session.

        Files alive now (e.g. a sealed staged artifact shared across
        queries) are outside the session's leak accounting: only files
        created *after* this point must be gone — or be legitimate
        survivors — when :meth:`finalize_session` runs.
        """
        self._session_baseline = set(self._files)

    def finalize_session(self) -> List[Violation]:
        """Leak-check the files created since :meth:`begin_session`.

        A staged artifact surviving the query is *not* a leak (it predates
        the session); transient per-query files (``stay:*``, ``updates:*``)
        still alive are.  Raises in strict mode if this session leaked.
        """
        baseline = self._session_baseline or set()
        self._session_baseline = None
        before = len(self.violations)
        for key, rec in self._files.items():
            if key in baseline:
                continue
            self._session_checked.add(key)
            f = rec.file
            if f.deleted:
                continue
            role = Timeline.role_of(f.name)
            if role not in SURVIVOR_ROLES:
                self._record(
                    "vfs-leak",
                    f"file {f.name!r} ({f.nbytes} bytes on "
                    f"{f.device.name!r}) still live at end of session",
                    site=rec.site,
                )
        new = self.violations[before:]
        if self.strict and new:
            raise SanitizerError(self.report())
        return new

    # ------------------------------------------------------------------
    # end-of-run checks
    # ------------------------------------------------------------------
    def finalize_run(self) -> List[Violation]:
        """Run the end-of-run checks; raise in strict mode on violations.

        Idempotent: the end-of-run sweeps are applied once; later calls
        just return the accumulated list (re-raising in strict mode).
        """
        if not self.finalized:
            self.finalized = True
            self._check_leaks()
            self._check_stay_terminal()
            self._check_cost_coverage()
        if self.strict and self.violations:
            raise SanitizerError(self.report())
        return list(self.violations)

    def _check_leaks(self) -> None:
        for key, rec in self._files.items():
            if key in self._session_checked:
                # Already leak-checked by a finalize_session; re-reporting
                # here would double-count the same file.
                continue
            f = rec.file
            if f.deleted:
                continue
            role = Timeline.role_of(f.name)
            if role not in SURVIVOR_ROLES:
                self._record(
                    "vfs-leak",
                    f"file {f.name!r} ({f.nbytes} bytes on "
                    f"{f.device.name!r}) still live at end of run",
                    site=rec.site,
                )

    def _check_stay_terminal(self) -> None:
        for rec in self._stay.values():
            if rec.state not in _STAY_TERMINAL:
                self._record(
                    "stay-state",
                    f"stay writer {rec.name!r} (partition {rec.partition}) "
                    f"never reached swap/cancel/discard (state: {rec.state})",
                    site=rec.site,
                )

    def _check_cost_coverage(self) -> None:
        for (role, kind), category in EXPECTED_CHARGES.items():
            moved = self._role_bytes.get((role, kind), 0)
            if moved > 0 and category not in self._categories:
                self._record(
                    "cost-coverage",
                    f"{moved} bytes of {role!r} {kind}s were never charged "
                    f"to the cost model (no {category!r} compute charge)",
                )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return not self.violations

    def leaks(self) -> List[Violation]:
        return [v for v in self.violations if v.checker == "vfs-leak"]

    def by_checker(self, checker: str) -> List[Violation]:
        return [v for v in self.violations if v.checker == checker]

    def report(self) -> str:
        """Human-readable summary of every recorded violation."""
        if not self.violations:
            return "sanitizer: 0 violations"
        lines = [f"sanitizer: {len(self.violations)} violation(s)"]
        lines.extend(f"  {v}" for v in self.violations)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Sanitizer(violations={len(self.violations)}, "
            f"files={len(self._files)}, stay={len(self._stay)}, "
            f"strict={self.strict})"
        )
