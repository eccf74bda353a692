"""Admission control: bounded queues coalescing BFS requests into batches.

The serving-side half of the MS-BFS amortization argument: batched
execution (`run_many(mode="batched")`, PR 7) only pays off when many
concurrent root queries share one edge-scan timeline, and it is admission
control that *produces* that sharing.  Each registered graph gets one
:class:`AdmissionController` holding a bounded FIFO of tickets; concurrent
HTTP threads enqueue their roots and then compete for the flush lock
(leader/follower): whichever thread wins drains up to
:data:`~repro.algorithms.streaming.BATCH_WIDTH` tickets and runs them as
**one** batched `run_staged_queries` call, fulfilling every drained
ticket's event; the losers just wait on their tickets.  A full queue
rejects deterministically (:class:`~repro.errors.QueueFullError`, mapped
to HTTP 429 + ``Retry-After``).

The controller's state machine is exposed as synchronous primitives —
:meth:`offer`, :meth:`flush`, :meth:`drain_pending` — so the accept/reject
batching behaviour is testable deterministically, single-threaded, without
any HTTP or thread scheduling in the loop.  :meth:`submit` is the
thread-facing composition the HTTP layer uses.  :meth:`hold` /
:meth:`release` gate flushing (tickets still accumulate) for
drain-on-shutdown tests.

Resilience semantics (entry machines may run fault plans):

* **Flush-level recovery.**  ``run_staged_queries(max_recoveries=...)``
  absorbs crashes via checkpoint-replay inside one attempt; an attempt
  that still fails (``CrashError`` after exhausted recoveries, or an
  ``IOFaultError`` give-up) is retried up to ``flush_retries`` times —
  the machine rewinds to the staging checkpoint between attempts, so a
  success-after-retry response is bit-identical to a fault-free run.
* **Serial fallback.**  When every batched attempt fails the flush
  degrades: each ticket re-runs alone in serial mode (its own delta
  report, its own ``report_id``).  Shared-scan amortization is lost but
  individual requests still complete; only tickets whose serial run
  *also* fails surface a typed :class:`~repro.errors.FlushFailedError`
  (HTTP 503 + ``Retry-After``).  Entering the fallback is what counts as
  a flush *failure* for the entry's circuit breaker.
* **Circuit breaking.**  :meth:`offer` gates through
  ``entry.health.admit()`` — a quarantined graph rejects with
  :class:`~repro.errors.GraphQuarantinedError` before anything touches
  the machine; tickets already queued when the breaker opens are failed
  (typed, never dropped) at their flush.
* **Deadlines.**  Tickets optionally carry an absolute host-clock
  deadline (per-request ``deadline_ms`` or the controller default); it is
  checked at dequeue and again after the flush, and an expired ticket is
  fulfilled with :class:`~repro.errors.DeadlineExceededError` (HTTP 504)
  carrying its queue wait — expired work is never silently dropped.

Every flush attaches a fresh dual-clock
:class:`~repro.obs.tracer.Tracer` to the machine (tracing is
timing/byte-neutral; the bound host clock only annotates spans) and hands
the per-flush delta reports, engine counters, span histograms and fault
counter deltas (``fault_*``, ``io_retries_total``, ...) to a
``metrics_sink`` callback — the service merges them into the long-lived
``/metrics`` registry, preserving the exact-reconciliation invariant (see
docs/serving.md).  The flush id and every drained ticket's request id are
stamped into the batch's ``query`` span attributes (end-to-end request
tracing), and each fulfilled ticket carries the flush's span list for the
service's ``/debug/requests`` ring.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.algorithms.streaming import BATCH_WIDTH
from repro.engines.session import run_staged_queries
from repro.errors import (
    CrashError,
    DeadlineExceededError,
    FlushFailedError,
    GraphQuarantinedError,
    IOFaultError,
    QueueFullError,
    ServeError,
)
from repro.obs.counters import CounterRegistry
from repro.obs.hostprof import HOST_CLOCK, HostClock
from repro.obs.tracer import Tracer
from repro.serve.registry import GraphEntry

#: Bucket bounds for the ``serve_flush_size`` histogram (roots per flush).
FLUSH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, float(BATCH_WIDTH))

#: Crash/resume replays armed inside each ``run_staged_queries`` attempt.
DEFAULT_MAX_RECOVERIES = 4


class Ticket:
    """One admitted request: a root entry waiting for its flush."""

    __slots__ = (
        "request_id", "entry", "enqueued_at", "queue_wait",
        "deadline_at", "deadline_ms",
        "done", "result", "report", "flush_id", "flush_size", "error",
        "report_id", "spans",
    )

    def __init__(
        self,
        request_id: str,
        entry: Union[int, Sequence[int]],
        enqueued_at: float = 0.0,
        deadline_at: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ):
        self.request_id = request_id
        self.entry = entry
        self.enqueued_at = enqueued_at
        self.queue_wait = 0.0
        self.deadline_at = deadline_at    # absolute host-clock expiry
        self.deadline_ms = deadline_ms    # as requested (for the 504 body)
        self.done = threading.Event()
        self.result = None          # EngineResult once fulfilled
        self.report = None          # that flush's delta IOReport
        self.flush_id: Optional[str] = None
        self.flush_size = 0
        self.error: Optional[BaseException] = None
        #: Report identity for metrics dedup: the flush id for batched
        #: execution, ``{flush_id}-sNN`` for a serial-fallback re-run
        #: (each fallback ticket carries its own delta report).
        self.report_id: Optional[str] = None
        self.spans: Optional[list] = None  # the flush's span trace


class FlushRecord:
    """What one flush executed (returned by :meth:`flush` for tests)."""

    __slots__ = ("flush_id", "tickets", "report", "registry", "spans")

    def __init__(self, flush_id, tickets, report, registry, spans=None):
        self.flush_id = flush_id
        self.tickets = tickets
        self.report = report
        self.registry = registry
        self.spans = spans if spans is not None else []

    @property
    def size(self) -> int:
        return len(self.tickets)


class AdmissionController:
    """Bounded, coalescing admission queue for one registered graph."""

    def __init__(
        self,
        entry: GraphEntry,
        capacity: int = 128,
        batch_width: int = BATCH_WIDTH,
        metrics_sink: Optional[Callable[[CounterRegistry], None]] = None,
        clock: Optional[HostClock] = None,
        default_deadline_ms: Optional[float] = None,
        flush_retries: int = 2,
        max_recoveries: int = DEFAULT_MAX_RECOVERIES,
    ) -> None:
        if capacity < 1:
            raise ServeError(f"queue capacity must be >= 1, got {capacity}")
        if not 1 <= batch_width <= BATCH_WIDTH:
            raise ServeError(
                f"batch width must be in [1, {BATCH_WIDTH}], "
                f"got {batch_width}"
            )
        if flush_retries < 1:
            raise ServeError(
                f"flush_retries must be >= 1, got {flush_retries}"
            )
        if max_recoveries < 0:
            raise ServeError(
                f"max_recoveries must be >= 0, got {max_recoveries}"
            )
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise ServeError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}"
            )
        self.entry = entry
        self.capacity = capacity
        self.batch_width = batch_width
        self.metrics_sink = metrics_sink
        # Host time (queue-wait stamps, deadlines, dual-clock flush traces)
        # flows through the sanctioned HostClock choke point — this module
        # never reads the wall clock directly (analyzer rule FB207).
        self.clock = clock if clock is not None else HOST_CLOCK
        self.default_deadline_ms = default_deadline_ms
        self.flush_retries = flush_retries
        self.max_recoveries = max_recoveries
        self._queue: "deque[Ticket]" = deque()
        self._mutex = threading.Lock()     # guards queue + counters
        self._held = False
        self._closed = False
        self._flush_count = 0
        self._accepted = 0
        self._rejected = 0
        self._flush_retries_total = 0
        self._serial_fallbacks = 0
        self._deadline_expired = 0

    # ------------------------------------------------------------------
    # deterministic primitives
    # ------------------------------------------------------------------
    def offer(
        self,
        request_id: str,
        entry: Union[int, Sequence[int]],
        deadline_ms: Optional[float] = None,
    ) -> Ticket:
        """Admit one root entry or raise.

        Deterministic: accepts iff the graph is not quarantined and the
        queue holds fewer than ``capacity`` tickets at the instant of the
        call.  A quarantined breaker raises
        :class:`GraphQuarantinedError` (its ``retry_after`` is the exact
        remaining cooldown) *before* anything touches the queue or the
        machine; a saturated queue raises :class:`QueueFullError` whose
        ``retry_after`` is the (integer) number of full flushes needed to
        drain the backlog.  A closed (shutting-down) controller raises
        :class:`ServeError`.  ``deadline_ms`` (or the controller default)
        stamps an absolute host-clock deadline on the ticket.
        """
        self.entry.health.admit()
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        with self._mutex:
            if self._closed:
                raise ServeError(
                    f"graph {self.entry.name!r} is shutting down"
                )
            pending = len(self._queue)
            if pending >= self.capacity:
                self._rejected += 1
                flushes_needed = -(-pending // self.batch_width)  # ceil
                raise QueueFullError(
                    f"admission queue for {self.entry.name!r} is full "
                    f"({pending}/{self.capacity})",
                    retry_after=float(max(1, flushes_needed)),
                )
            now = self.clock.now()
            ticket = Ticket(
                request_id,
                entry,
                enqueued_at=now,
                deadline_at=(
                    now + deadline_ms / 1000.0
                    if deadline_ms is not None
                    else None
                ),
                deadline_ms=deadline_ms,
            )
            self._queue.append(ticket)
            self._accepted += 1
            return ticket

    def flush(self) -> Optional[FlushRecord]:
        """Drain up to ``batch_width`` tickets and run them as one batch.

        Serialized on the entry lock (the machine rewinds to the staging
        checkpoint around the batch).  Returns None when the queue was
        empty.  Every drained ticket is fulfilled — already-expired
        tickets get :class:`DeadlineExceededError`, tickets drained while
        the breaker is open get :class:`GraphQuarantinedError` (the
        machine is not touched), engine failures that survive retries and
        the serial fallback get :class:`FlushFailedError`; nothing is
        silently dropped.  A post-flush deadline check catches tickets
        whose flush outlived their budget.
        """
        with self.entry.lock:
            with self._mutex:
                if not self._queue:
                    return None
                tickets = [
                    self._queue.popleft()
                    for _ in range(min(self.batch_width, len(self._queue)))
                ]
                self._flush_count += 1
                flush_id = f"{self.entry.name}-flush-{self._flush_count:06d}"
            drained_at = self.clock.now()
            for t in tickets:
                t.queue_wait = drained_at - t.enqueued_at
                t.flush_id = flush_id
                t.flush_size = len(tickets)
            expired = [
                t for t in tickets
                if t.deadline_at is not None and drained_at > t.deadline_at
            ]
            runnable = [t for t in tickets if t not in expired]
            try:
                if expired:
                    self._expire_tickets(expired, "queued")
                if not runnable:
                    record = FlushRecord(flush_id, tickets, None, None, [])
                elif not self.entry.health.allow_flush():
                    self._quarantine_tickets(runnable, flush_id)
                    record = FlushRecord(flush_id, tickets, None, None, [])
                else:
                    executed = self._execute(flush_id, runnable)
                    finished_at = self.clock.now()
                    late = [
                        t for t in runnable
                        if t.deadline_at is not None
                        and finished_at > t.deadline_at
                    ]
                    if late:
                        self._expire_tickets(late, "post-flush")
                    record = FlushRecord(
                        flush_id, tickets,
                        executed.report, executed.registry, executed.spans,
                    )
            except BaseException as exc:
                for t in tickets:
                    if t.error is None:
                        t.error = exc
                    t.done.set()
                raise
            for t in tickets:
                t.done.set()
            return record

    def _execute(self, flush_id: str, tickets: List[Ticket]) -> FlushRecord:
        """Run one drained batch: batched-with-retries, serial fallback.

        Each batched attempt rewinds the machine to the staging checkpoint
        first, so failed attempts leave no residue and a
        success-after-retry result is bit-identical to a fault-free run;
        crashes *inside* an attempt are absorbed by the
        session recovery loop (``max_recoveries``).  Exhausting all
        ``flush_retries`` batched attempts enters the serial fallback and
        reports one flush failure to the entry's circuit breaker.
        """
        entry = self.entry
        injector = entry.machine.fault_injector
        fault_base = (
            injector.counts_snapshot() if injector is not None else None
        )
        roots = [t.entry for t in tickets]
        attempts = 0
        failure: Optional[BaseException] = None
        batch = None
        tracer = Tracer()
        while attempts < self.flush_retries:
            attempts += 1
            tracer = Tracer()
            entry.machine.attach_tracer(tracer)
            # Dual-clock: host stamps on the flush's spans feed the request
            # trace (/debug/requests/{id}); strictly neutral for sim results.
            tracer.bind_host_clock(self.clock)
            try:
                batch = run_staged_queries(
                    entry.engine,
                    entry.staged,
                    entry.checkpoint,
                    roots,
                    mode="batched",
                    span_attrs={
                        "flush_id": flush_id,
                        "request_ids": [t.request_id for t in tickets],
                        "attempt": attempts,
                    },
                    max_recoveries=self.max_recoveries,
                )
                failure = None
                break
            except (CrashError, IOFaultError) as exc:
                failure = FlushFailedError(
                    f"flush {flush_id} batched attempt {attempts}/"
                    f"{self.flush_retries} failed: {type(exc).__name__}",
                    retry_after=1.0,
                )
                failure.__cause__ = exc
        if batch is None:
            return self._serial_fallback(
                flush_id, tickets, failure, fault_base, attempts
            )
        # All queries of one <=BATCH_WIDTH flush share a single batch
        # timeline, hence a single delta report object.
        report = batch.queries[0].report
        registry = CounterRegistry.from_report(report)
        for ticket, result in zip(tickets, batch.queries):
            ticket.result = result
            ticket.report = report
            ticket.report_id = flush_id
            ticket.spans = tracer.spans
            registry.ingest_result(result)
        registry.ingest_spans(tracer)
        registry.inc(
            "serve_flushes_total", 1.0, graph=entry.name
        )
        registry.inc(
            "serve_flushed_queries_total", float(len(tickets)),
            graph=entry.name,
        )
        registry.observe(
            "serve_flush_size", float(len(tickets)),
            buckets=FLUSH_SIZE_BUCKETS, graph=entry.name,
        )
        if attempts > 1:
            registry.inc(
                "flush_retry_total", float(attempts - 1), graph=entry.name
            )
        self._ingest_fault_deltas(registry, fault_base)
        with self._mutex:
            entry.queries_served += len(tickets)
            entry.flushes += 1
            self._flush_retries_total += attempts - 1
        entry.health.record_flush_success()
        if self.metrics_sink is not None:
            self.metrics_sink(registry)
        return FlushRecord(flush_id, tickets, report, registry, tracer.spans)

    def _serial_fallback(
        self,
        flush_id: str,
        tickets: List[Ticket],
        failure: Optional[BaseException],
        fault_base: Optional[Dict],
        attempts: int,
    ) -> FlushRecord:
        """Degraded mode: re-run each ticket alone after batched exhaustion.

        Amortization is lost (one edge-scan timeline per ticket instead of
        one shared) but requests still complete where the fault schedule
        allows; a ticket whose serial run also fails carries a typed
        :class:`FlushFailedError` chaining the underlying fault.  Exactly
        one breaker failure event is recorded for the whole flush.
        """
        entry = self.entry
        cause = getattr(failure, "__cause__", None)
        cause_name = type(cause).__name__ if cause is not None else "unknown"
        registry = CounterRegistry()
        spans: List = []
        succeeded = 0
        for index, t in enumerate(tickets):
            report_id = f"{flush_id}-s{index:02d}"
            tracer = Tracer()
            entry.machine.attach_tracer(tracer)
            tracer.bind_host_clock(self.clock)
            try:
                batch = run_staged_queries(
                    entry.engine,
                    entry.staged,
                    entry.checkpoint,
                    [t.entry],
                    mode="serial",
                    span_attrs={
                        "flush_id": report_id,
                        "request_ids": [t.request_id],
                        "serial_fallback": 1,
                    },
                    max_recoveries=self.max_recoveries,
                )
            except (CrashError, IOFaultError) as exc:
                error = FlushFailedError(
                    f"flush {flush_id} failed for request "
                    f"{t.request_id}: {attempts} batched attempt(s) "
                    f"({cause_name}), then serial fallback "
                    f"({type(exc).__name__})",
                    retry_after=entry.health.cooldown_seconds(),
                )
                error.__cause__ = exc
                t.error = error
                continue
            result = batch.queries[0]
            t.result = result
            t.report = result.report
            t.report_id = report_id
            t.spans = tracer.spans
            spans.extend(tracer.spans)
            sub = CounterRegistry.from_report(result.report)
            sub.ingest_result(result)
            sub.ingest_spans(tracer)
            registry.merge(sub)
            succeeded += 1
        registry.inc("serve_flushes_total", 1.0, graph=entry.name)
        registry.inc(
            "serve_flushed_queries_total", float(succeeded),
            graph=entry.name,
        )
        registry.observe(
            "serve_flush_size", float(len(tickets)),
            buckets=FLUSH_SIZE_BUCKETS, graph=entry.name,
        )
        registry.inc(
            "flush_retry_total", float(attempts - 1), graph=entry.name
        )
        registry.inc(
            "serve_flush_serial_fallback_total", 1.0, graph=entry.name
        )
        if succeeded < len(tickets):
            registry.inc(
                "serve_flush_failed_total",
                float(len(tickets) - succeeded),
                graph=entry.name,
            )
        self._ingest_fault_deltas(registry, fault_base)
        with self._mutex:
            entry.queries_served += succeeded
            entry.flushes += 1
            self._flush_retries_total += attempts - 1
            self._serial_fallbacks += 1
        entry.health.record_flush_failure(cause_name)
        if self.metrics_sink is not None:
            self.metrics_sink(registry)
        return FlushRecord(flush_id, tickets, None, registry, spans)

    def _expire_tickets(self, tickets: List[Ticket], where: str) -> None:
        """Fulfil expired tickets with typed 504s; count, never drop."""
        registry = CounterRegistry()
        for t in tickets:
            budget = t.deadline_ms if t.deadline_ms is not None else 0.0
            t.error = DeadlineExceededError(
                f"request {t.request_id} exceeded its {budget:g}ms "
                f"deadline ({where}; queue wait "
                f"{t.queue_wait * 1000.0:.1f}ms)",
                deadline_ms=budget,
                queue_wait=t.queue_wait,
            )
            registry.inc(
                "deadline_exceeded_total", 1.0,
                graph=self.entry.name, where=where,
            )
        with self._mutex:
            self._deadline_expired += len(tickets)
        if self.metrics_sink is not None:
            self.metrics_sink(registry)

    def _quarantine_tickets(
        self, tickets: List[Ticket], flush_id: str
    ) -> None:
        """Fail tickets drained while the breaker is open (machine untouched)."""
        registry = CounterRegistry()
        for t in tickets:
            t.error = GraphQuarantinedError(
                f"graph {self.entry.name!r} was quarantined while request "
                f"{t.request_id} was queued; flush {flush_id} rejected",
                retry_after=self.entry.health.retry_after(),
            )
        registry.inc(
            "serve_quarantine_rejections_total", float(len(tickets)),
            graph=self.entry.name,
        )
        if self.metrics_sink is not None:
            self.metrics_sink(registry)

    def _ingest_fault_deltas(
        self, registry: CounterRegistry, fault_base: Optional[Dict]
    ) -> None:
        """Fold this flush's fault-counter growth into its metrics delta.

        Injector counters are lifetime (never rewound by restores), so the
        delta against the pre-flush snapshot also captures faults from
        batched attempts that were rolled back — exactly what the chaos
        harness reconciles against the span trace.
        """
        injector = self.entry.machine.fault_injector
        if injector is None or fault_base is None:
            return
        for name, labels, value in injector.delta_samples(fault_base):
            registry.inc(name, value, graph=self.entry.name, **labels)

    def drain_pending(self) -> int:
        """Flush until the queue is empty; returns tickets fulfilled."""
        total = 0
        while True:
            record = self.flush()
            if record is None:
                return total
            total += record.size

    # ------------------------------------------------------------------
    # flush gating (shutdown/drain tests)
    # ------------------------------------------------------------------
    def hold(self) -> None:
        """Stop :meth:`submit` threads from flushing (tickets still queue)."""
        with self._mutex:
            self._held = True

    def release(self) -> None:
        with self._mutex:
            self._held = False

    def stop_accepting(self) -> None:
        """Reject new offers from now on (shutdown)."""
        with self._mutex:
            self._closed = True

    # ------------------------------------------------------------------
    # thread-facing composition
    # ------------------------------------------------------------------
    def submit(
        self,
        request_id: str,
        entry: Union[int, Sequence[int]],
        poll_interval: float = 0.005,
        deadline_ms: Optional[float] = None,
    ) -> Ticket:
        """Admit, then leader-or-wait until the ticket is fulfilled.

        The calling thread loops: if its ticket is already fulfilled it
        returns; otherwise it tries to run a flush itself (becoming this
        round's leader) unless the controller is held.  Each flush retires
        at least one ticket while the queue is non-empty, so the loop
        terminates.  Typed failures recorded on the ticket (engine, flush,
        quarantine, deadline) re-raise here.
        """
        ticket = self.offer(request_id, entry, deadline_ms=deadline_ms)
        while not ticket.done.is_set():
            with self._mutex:
                held = self._held
            if held:
                ticket.done.wait(poll_interval)
                continue
            self.flush()
            ticket.done.wait(poll_interval)
        if ticket.error is not None:
            raise ticket.error
        return ticket

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        with self._mutex:
            return len(self._queue)

    def counters(self) -> dict:
        with self._mutex:
            return {
                "queue_depth": len(self._queue),
                "capacity": self.capacity,
                "accepted": self._accepted,
                "rejected": self._rejected,
                "flushes": self._flush_count,
                "flush_retries": self._flush_retries_total,
                "serial_fallbacks": self._serial_fallbacks,
                "deadline_expired": self._deadline_expired,
                "held": self._held,
                "closed": self._closed,
            }


__all__ = [
    "AdmissionController",
    "DEFAULT_MAX_RECOVERIES",
    "FLUSH_SIZE_BUCKETS",
    "FlushRecord",
    "Ticket",
]
