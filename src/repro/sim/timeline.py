"""FIFO device timeline with cancellation.

Each simulated block device owns one :class:`Timeline`.  Requests are
submitted with a *service time* (seek + transfer, computed by the device
model) and packed first-come-first-served: a request submitted at time ``t``
starts at ``max(t, end of the previous request)``.

Submissions must be non-decreasing in time.  This holds by construction:
every submitter shares the engine's single :class:`~repro.sim.clock.SimClock`
and that clock is monotonic.

Cancellation removes *queued, not-yet-started* requests and repacks the ones
behind them, which is exactly the semantics the paper gives for abandoning an
unfinished stay-file write: buffers already being written complete, queued
buffers are dropped, and later requests move up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import TimelineError


class ScheduledRequest:
    """One device request as placed on a timeline.

    ``group`` labels a logical stream (e.g. ``"stay:p3:i2"``) so related
    requests can be queried or cancelled together.  ``start``/``end`` may
    shift earlier if a request queued ahead of this one is cancelled, so
    always read them from the live object rather than caching.

    ``kind`` is ``"read"`` or ``"write"``; ``fault`` is the non-raising
    injected fault applied to the request, if any (``"torn_write"`` |
    ``"latency"`` | ``"stall"``; see repro.storage.faults).

    A hand-written slotted class (a device makes thousands per query, and
    ``dataclass(slots=True)`` needs Python 3.10) with the dataclass it
    replaces' constructor, ``repr`` and field-wise ``==``.
    """

    __slots__ = (
        "group", "kind", "nbytes", "submit", "service",
        "start", "end", "cancelled", "fault",
    )

    def __init__(
        self,
        group: str,
        kind: str,
        nbytes: int,
        submit: float,
        service: float,
        start: float = 0.0,
        end: float = 0.0,
        cancelled: bool = False,
        fault: Optional[str] = None,
    ) -> None:
        self.group = group
        self.kind = kind
        self.nbytes = nbytes
        self.submit = submit
        self.service = service
        self.start = start
        self.end = end
        self.cancelled = cancelled
        self.fault = fault

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()  # type: ignore[attr-defined]

    __hash__ = None  # type: ignore[assignment]  # mutable, like the dataclass

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields())
        )
        return f"ScheduledRequest({fields})"


class Timeline:
    """FIFO schedule of requests for a single device."""

    def __init__(self, name: str = "device") -> None:
        self.name = name
        self._queue: List[ScheduledRequest] = []
        # End time of the last request pruned from the queue head.
        self._settled_end = 0.0
        # Accounting for pruned requests (live ones are scanned on demand).
        self._settled_busy = 0.0
        self._bytes_by_kind: Dict[str, int] = {"read": 0, "write": 0}
        # (group, kind) -> bytes; bytes_by_role() folds groups into their
        # role, so no request pays for splitting its group label.
        self._bytes_by_group: Dict[Tuple[str, str], int] = {}
        self._last_submit = 0.0

    @staticmethod
    def role_of(group: str) -> str:
        """Stream role: the group label's prefix ('stay:p3:i2' -> 'stay')."""
        return group.split(":", 1)[0] if group else "other"

    @classmethod
    def lane_of(cls, request: ScheduledRequest) -> tuple:
        """Canonical (role, kind) lane of a request.

        The single definition shared by the byte ledger below (which
        folds its groups with :meth:`role_of`) and every lane-keyed
        consumer (``io`` spans and their Gantt lanes, per-role reports) —
        keep them keyed identically or per-role accounting and rendering
        drift apart.
        """
        return cls.role_of(request.group), request.kind

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        submit: float,
        service: float,
        nbytes: int,
        kind: str,
        group: str = "",
    ) -> ScheduledRequest:
        """Append a request, returning its scheduled placement."""
        if service < 0:
            raise TimelineError(f"negative service time {service}")
        if nbytes < 0:
            raise TimelineError(f"negative request size {nbytes}")
        key = (group, kind)
        by_group = self._bytes_by_group
        group_bytes = by_group.get(key)
        if group_bytes is None:
            # Only a pair never accepted before can carry a bad kind.
            if kind not in ("read", "write"):
                raise TimelineError(
                    f"request kind must be 'read' or 'write', got {kind!r}"
                )
            group_bytes = 0
        last_submit = self._last_submit
        if submit < last_submit - 1e-12:
            raise TimelineError(
                f"submissions must be monotonic: {submit} after {last_submit}"
            )
        # The branches below are max() spelled out: same winner on ties.
        if submit > last_submit:
            self._last_submit = submit
        queue = self._queue
        if queue and queue[0].end <= submit:
            self._prune(submit)  # deletes in place: ``queue`` stays the queue
        free_at = queue[-1].end if queue else self._settled_end
        start = free_at if free_at > submit else submit
        req = ScheduledRequest(group, kind, nbytes, submit, service, start, start + service)
        queue.append(req)
        by_kind = self._bytes_by_kind
        by_kind[kind] = by_kind.get(kind, 0) + nbytes
        by_group[key] = group_bytes + nbytes
        return req

    def _prune(self, watermark: float) -> None:
        """Retire queue-head requests that finished at or before ``watermark``.

        Retired requests can never be affected by a future cancellation
        (cancellation only touches requests starting at or after the current
        engine time, and engine time >= watermark).
        """
        idx = 0
        for req in self._queue:
            if req.end <= watermark:
                self._settled_end = req.end
                self._settled_busy += req.service
                idx += 1
            else:
                break
        if idx:
            del self._queue[:idx]

    # ------------------------------------------------------------------
    # cancellation
    # ------------------------------------------------------------------
    def cancel(
        self,
        now: float,
        predicate: Callable[[ScheduledRequest], bool],
    ) -> List[ScheduledRequest]:
        """Cancel queued requests matching ``predicate`` that haven't started.

        A request with ``start < now`` is in service (or done) and is left
        alone.  Requests behind a cancelled one are repacked earlier.
        Returns the cancelled requests (marked ``cancelled=True``).
        """
        cancelled: List[ScheduledRequest] = []
        kept: List[ScheduledRequest] = []
        for req in self._queue:
            if req.start >= now and predicate(req):
                req.cancelled = True
                self._bytes_by_kind[req.kind] -= req.nbytes
                self._bytes_by_group[(req.group, req.kind)] -= req.nbytes
                cancelled.append(req)
            else:
                kept.append(req)
        if cancelled:
            self._queue = kept
            self._repack(now)
        return cancelled

    def _repack(self, now: float) -> None:
        """Re-run FIFO packing for requests that haven't started by ``now``."""
        free_at = self._settled_end
        for req in self._queue:
            if req.start < now:
                # In service or already finished; its placement is history.
                free_at = max(free_at, req.end)
                continue
            req.start = max(req.submit, free_at, now)
            req.end = req.start + req.service
            free_at = req.end

    # ------------------------------------------------------------------
    # checkpoint protocol
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """Capture the timeline's mutable state for a later :meth:`restore`.

        Live queue entries are shared by reference: a snapshot is only
        valid for restore while every request in it has already *ended* at
        snapshot time (a quiescent device), because later cancellations and
        repacks never touch requests whose start precedes the current
        engine time.  The Machine checkpoint protocol guarantees this by
        checkpointing at the post-staging barrier.
        """
        return {
            "queue": list(self._queue),
            "settled_end": self._settled_end,
            "settled_busy": self._settled_busy,
            "bytes_by_kind": dict(self._bytes_by_kind),
            "bytes_by_group": dict(self._bytes_by_group),
            "last_submit": self._last_submit,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Roll the timeline back to a snapshot (drops later requests)."""
        self._queue = list(state["queue"])  # type: ignore[arg-type]
        self._settled_end = state["settled_end"]  # type: ignore[assignment]
        self._settled_busy = state["settled_busy"]  # type: ignore[assignment]
        self._bytes_by_kind = dict(state["bytes_by_kind"])  # type: ignore[arg-type]
        self._bytes_by_group = dict(state["bytes_by_group"])  # type: ignore[arg-type]
        self._last_submit = state["last_submit"]  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def free_at(self) -> float:
        """Time at which the device has no queued or in-service work."""
        return self._queue[-1].end if self._queue else self._settled_end

    def busy_time_until(self, t: float) -> float:
        """Total seconds the device was busy in ``[0, t]``."""
        busy = min(self._settled_busy, t) if self._settled_end > t else self._settled_busy
        # Settled requests never overlap t in practice (they settled before
        # the latest submit); the min() above is a cheap guard.
        for req in self._queue:
            if req.start >= t:
                break
            busy += min(req.end, t) - req.start
        return busy

    def bytes_by_role(self) -> Dict[tuple, int]:
        """Copy of (stream role, kind) -> bytes accounting."""
        totals: Dict[tuple, int] = {}
        for (group, kind), nbytes in self._bytes_by_group.items():
            lane = (self.role_of(group), kind)
            totals[lane] = totals.get(lane, 0) + nbytes
        return {k: v for k, v in totals.items() if v}

    @property
    def bytes_read(self) -> int:
        return self._bytes_by_kind.get("read", 0)

    @property
    def bytes_written(self) -> int:
        return self._bytes_by_kind.get("write", 0)

    def pending_requests(self) -> List[ScheduledRequest]:
        """Snapshot of live (unsettled, uncancelled) requests, FIFO order."""
        return list(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Timeline({self.name!r}, live={len(self._queue)}, "
            f"free_at={self.free_at:.6f})"
        )
