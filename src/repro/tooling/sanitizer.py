"""Runtime sanitizer: the protocol checks every engine report passes.

The simulation's correctness rests on protocol discipline that functional
tests cannot observe: every stay file must walk the
open -> append -> async-flush -> swap-or-cancel state machine (paper §III),
every byte a device moves must be attributable to a charged stream role,
and no transient file may outlive the run that made it.  A single silent
violation skews every reproduced figure without failing a single BFS
correctness assertion.

The run already keeps the ledgers these rules are about: the device
timelines' ``bytes_by_role``, the clock's compute breakdown (both in the
delta :class:`~repro.storage.machine.IOReport`), the VFS namespace and the
stay manager's :class:`~repro.core.staystream.StayStats`.
:func:`check_report` reads them wherever an engine takes a delta report —
staging and every query session (``run``, ``run_many``, admission
flushes, chaos trials; GraphChi's queries run in the same sessions) — and
raises
:class:`~repro.errors.SanitizerError` naming each broken checker:

``vfs-leak``
    A file live at the report's end, not live at its start, whose role
    (the name's prefix: ``stay:p3:i2``, ``updates:0:p1``) is not in
    :data:`SURVIVOR_ROLES`.
``cost-coverage``
    Bytes under role ``other`` (a request with an empty stream-group
    label), or bytes under an :data:`EXPECTED_CHARGES` (role, kind) whose
    compute category is missing from the report's compute breakdown.
``stay-state``
    After the stay manager's end-of-run teardown, every stay file it
    opened was swapped, cancelled or discarded:
    ``files_written == swaps + cancellations + end_of_run_discards``.

The fourth rule, ``clock``, is the clock's own:
:class:`~repro.sim.clock.SimClock` rejects negative compute charges and
negative wait targets, and analyzer rule FB105 rejects writes to its
private state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple

from repro.errors import SanitizerError
from repro.sim.timeline import Timeline

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.core.staystream import StayStats
    from repro.storage.machine import IOReport
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


def check_report(
    report: "IOReport",
    vfs: "VFS",
    files_before: Mapping[str, "VirtualFile"],
    stay: Optional["StayStats"] = None,
) -> None:
    """Raise :class:`SanitizerError` if the run behind ``report`` broke
    the simulation protocol.

    ``report`` is a delta report and ``files_before`` the
    ``vfs.snapshot()`` taken together with its baseline; ``stay`` is the
    stay manager's stats after its end-of-run teardown, for edge-centric
    runs.
    """
    violations: List[str] = []
    for name, f in vfs.snapshot().items():
        new = files_before.get(name) is not f
        if new and Timeline.role_of(name) not in SURVIVOR_ROLES:
            violations.append(
                f"[vfs-leak] file {name!r} ({f.nbytes} bytes on "
                f"{f.device.name!r}) still live at the end of the run"
            )
    moved: Dict[Tuple[str, str], int] = {}
    for dev in report.devices:
        for (role, kind), nbytes in dev.bytes_by_role.items():
            moved[role, kind] = moved.get((role, kind), 0) + nbytes
            if role == "other":
                violations.append(
                    f"[cost-coverage] unattributed {kind}s of {nbytes} bytes "
                    f"on {dev.name!r} (empty stream-group label)"
                )
    for (role, kind), nbytes in moved.items():
        category = EXPECTED_CHARGES.get((role, kind))
        if category is not None and category not in report.compute_breakdown:
            violations.append(
                f"[cost-coverage] {nbytes} bytes of {role!r} {kind}s were "
                f"never charged to the cost model (no {category!r} compute "
                "charge)"
            )
    if stay is not None:
        ended = stay.swaps + stay.cancellations + stay.end_of_run_discards
        if stay.files_written != ended:
            violations.append(
                f"[stay-state] {stay.files_written} stay files opened but "
                f"{ended} reached swap/cancel/discard ({stay.swaps} swapped, "
                f"{stay.cancellations} cancelled, "
                f"{stay.end_of_run_discards} discarded)"
            )
    if violations:
        raise SanitizerError(
            f"sanitizer: {len(violations)} violation(s)\n  "
            + "\n  ".join(violations)
        )
