"""Per-graph health: a circuit breaker over consecutive flush failures.

Serving a graph whose simulated devices misbehave has three useful
regimes, and the breaker makes them explicit states on the
:class:`~repro.serve.registry.GraphEntry`:

``healthy``
    Batched flushes are completing; full MS-BFS amortization.
``degraded``
    Recent flushes failed their first run (a multi-ticket flush fell
    back to serial re-runs, or a ticket failed): responses may still flow
    but the shared-scan amortization is lost, and the state says so
    before latency graphs do.
``quarantined``
    :data:`QUARANTINE_AFTER` consecutive flush failures opened the breaker:
    requests are rejected at admission (HTTP 503 + ``Retry-After``)
    **without touching the machine**, for a deterministic cooldown on the
    host clock.
``probing``
    Half-open probation: the cooldown elapsed, one flush is admitted as a
    probe.  Success closes the breaker (``healthy``); failure re-opens it
    with the next, exponentially longer cooldown
    (:func:`~repro.utils.backoff.exponential_backoff` — the same curve as
    the I/O retry schedule).

Determinism: transitions depend only on the sequence of flush
success/failure events plus the injected
:class:`~repro.obs.hostprof.HostClock` readings — same fault plan, same
request sequence, same transition log.  Tests drive a
:class:`~repro.obs.hostprof.ManualHostClock`; the transition log (the
``/debug/health`` endpoint) records ``(at, from, to, reason)`` with
deterministic reason strings.
"""

from __future__ import annotations

from typing import Callable, ContextManager, Dict, List, Optional

from repro.errors import GraphQuarantinedError
from repro.obs.hostprof import HOST_CLOCK, HostClock
from repro.utils.backoff import exponential_backoff

#: The breaker's states, as reported by ``/healthz`` and ``/graphs/*/stats``.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
PROBING = "probing"

#: Stable numeric encoding for the ``breaker_state`` gauge.
STATE_CODES: Dict[str, int] = {
    HEALTHY: 0,
    DEGRADED: 1,
    PROBING: 2,
    QUARANTINED: 3,
}

#: A graph is ready (``/healthz`` readiness) unless the breaker is open.
READY_STATES = frozenset({HEALTHY, DEGRADED, PROBING})

#: Consecutive flush failures that degrade a healthy graph, and that
#: quarantine it.
DEGRADE_AFTER = 1
QUARANTINE_AFTER = 3

#: The ``n``-th quarantine's cooldown is
#: ``COOLDOWN_BASE * COOLDOWN_MULTIPLIER ** (n - 1)`` host seconds:
#: deterministic, no jitter.
COOLDOWN_BASE = 1.0
COOLDOWN_MULTIPLIER = 2.0


class CircuitBreaker:
    """The health state machine for one registered graph.

    Runs under its owner's reentrant ``lock`` (an entry passes its
    monitor, so the breaker shares the admission queue's critical
    section).  The admission layer reports exactly one success or failure
    event per flush (:meth:`record_flush_success` /
    :meth:`record_flush_failure`) and gates new requests through
    :meth:`admit`.  ``on_transition`` (if set) is called, ``lock`` held,
    for every state change — the service wires it to the
    ``breaker_state`` gauge and ``breaker_transitions_total`` counter.
    """

    def __init__(
        self,
        lock: ContextManager,
        name: str = "",
        clock: Optional[HostClock] = None,
        on_transition: Optional[Callable[[str, str, str, str], None]] = None,
    ) -> None:
        self.name = name
        self.clock = clock if clock is not None else HOST_CLOCK
        self.on_transition = on_transition
        self._lock = lock
        self.state = HEALTHY
        self.consecutive_failures = 0
        self.failures_total = 0
        self.successes_total = 0
        #: Lifetime quarantine count — drives the exponential cooldown.
        self.quarantines = 0
        self.reopen_at: Optional[float] = None
        #: Append-only transition log: {"at", "from", "to", "reason"}.
        self.transitions: List[Dict[str, object]] = []

    # ------------------------------------------------------------------
    # event intake (one call per flush, from the admission controller)
    # ------------------------------------------------------------------
    def admit(self) -> None:
        """Gate one request at admission; raise while quarantined.

        An elapsed cooldown flips the breaker to ``probing`` (half-open)
        so the next flush runs as the probe; an active cooldown raises
        :class:`~repro.errors.GraphQuarantinedError` carrying the exact
        remaining ``Retry-After`` — the graph's machine is never touched.
        """
        with self._lock:
            self._maybe_reopen()
            if self.state != QUARANTINED:
                return
            remaining = max(0.0, (self.reopen_at or 0.0) - self.clock.now())
            raise GraphQuarantinedError(
                f"graph {self.name!r} is quarantined "
                f"({self.consecutive_failures} consecutive flush "
                f"failure(s)); probation in {remaining:.3f}s",
                retry_after=remaining,
            )

    def allow_flush(self) -> bool:
        """Whether already-queued tickets may execute a flush now.

        Same reopen logic as :meth:`admit`, without raising — the flush
        path fails its drained tickets with typed quarantine errors when
        this returns False.
        """
        with self._lock:
            self._maybe_reopen()
            return self.state != QUARANTINED

    def record_flush_success(self) -> None:
        """One flush completed in batched mode: close toward healthy."""
        with self._lock:
            self.successes_total += 1
            self.consecutive_failures = 0
            if self.state in (DEGRADED, PROBING):
                self._transition(HEALTHY, "batched flush succeeded")

    def record_flush_failure(self, reason: str = "") -> None:
        """One flush's first run failed (then fell back, or failed its ticket)."""
        with self._lock:
            self.failures_total += 1
            self.consecutive_failures += 1
            why = f": {reason}" if reason else ""
            if self.state == PROBING:
                self._quarantine(f"probe flush failed{why}")
            elif self.consecutive_failures >= QUARANTINE_AFTER:
                self._quarantine(
                    f"{self.consecutive_failures} consecutive flush "
                    f"failures{why}"
                )
            elif (
                self.state == HEALTHY
                and self.consecutive_failures >= DEGRADE_AFTER
            ):
                self._transition(
                    DEGRADED,
                    f"{self.consecutive_failures} consecutive flush "
                    f"failure(s){why}",
                )

    # ------------------------------------------------------------------
    # internals (lock held)
    # ------------------------------------------------------------------
    def _maybe_reopen(self) -> None:
        if (
            self.state == QUARANTINED
            and self.reopen_at is not None
            and self.clock.now() >= self.reopen_at
        ):
            self.reopen_at = None
            self._transition(
                PROBING, "cooldown elapsed; admitting one probe flush"
            )

    def _quarantine(self, reason: str) -> None:
        self.quarantines += 1
        cooldown = self.cooldown_seconds()
        self.reopen_at = self.clock.now() + cooldown
        self._transition(QUARANTINED, f"{reason}; cooldown {cooldown:g}s")

    def _transition(self, to: str, reason: str) -> None:
        frm = self.state
        self.transitions.append(
            {"at": self.clock.now(), "from": frm, "to": to, "reason": reason}
        )
        self.state = to
        if self.on_transition is not None:
            self.on_transition(self.name, frm, to, reason)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def cooldown_seconds(self) -> float:
        """The (next) quarantine cooldown — exponential in quarantine count."""
        return exponential_backoff(
            COOLDOWN_BASE, COOLDOWN_MULTIPLIER, max(1, self.quarantines)
        )

    def retry_after(self) -> float:
        """Suggested client backoff: remaining cooldown, else one flush."""
        with self._lock:
            if self.state == QUARANTINED and self.reopen_at is not None:
                return max(0.0, self.reopen_at - self.clock.now())
            return 1.0

    @property
    def ready(self) -> bool:
        with self._lock:
            return self.state in READY_STATES

    def state_code(self) -> int:
        return STATE_CODES[self.state]

    def snapshot(self, include_transitions: bool = True) -> Dict[str, object]:
        """JSON-safe view for ``/graphs/{name}/stats`` and ``/debug/health``."""
        with self._lock:
            out: Dict[str, object] = {
                "state": self.state,
                "ready": self.state in READY_STATES,
                "consecutive_failures": self.consecutive_failures,
                "failures_total": self.failures_total,
                "successes_total": self.successes_total,
                "quarantines": self.quarantines,
                "cooldown_seconds": self.cooldown_seconds(),
                "reopen_in_seconds": (
                    max(0.0, self.reopen_at - self.clock.now())
                    if self.reopen_at is not None
                    else None
                ),
            }
            if include_transitions:
                out["transitions"] = [dict(t) for t in self.transitions]
            return out


__all__ = [
    "COOLDOWN_BASE",
    "COOLDOWN_MULTIPLIER",
    "CircuitBreaker",
    "DEGRADED",
    "DEGRADE_AFTER",
    "HEALTHY",
    "PROBING",
    "QUARANTINED",
    "QUARANTINE_AFTER",
    "READY_STATES",
    "STATE_CODES",
]
