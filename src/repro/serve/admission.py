"""Admission control: one bounded queue per graph, every query a ticket.

The serving-side half of the MS-BFS amortization argument: batched
execution (`run_many(mode="batched")`, PR 7) only pays off when many
concurrent root queries share one edge-scan timeline, and it is admission
control that *produces* that sharing.  Each registered graph's entry owns
one :class:`AdmissionController` (``entry.admission``, built by
:meth:`~repro.serve.registry.ArtifactRegistry.register`) holding a
bounded FIFO of tickets; a ticket carries what to run (an algorithm
kernel with its own parameters, such as PageRank's rounds; absent = BFS)
and always runs on the entry's engine, so every served algorithm waits in
the same queue under the same rules.  Concurrent HTTP threads enqueue
their tickets and wait on the entry's monitor (leader/follower): when no
flush is running, a thread whose ticket is still queued drains the
longest queue prefix that can share one run — consecutive BFS tickets up
to the controller's ``batch_width`` (at most
:data:`~repro.algorithms.streaming.BATCH_WIDTH`), run as **one** batched
`run_staged_queries` call (a prefix of one BFS ticket runs the serial
kernel there), or exactly one ticket carrying a kernel — runs it with no
lock held, marks every drained ticket done and wakes
the waiters; a thread whose ticket is done returns.  A full queue
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
  absorbs crashes via checkpoint-replay inside one attempt; a batched
  attempt that still fails (``CrashError`` after exhausted recoveries, or
  an ``IOFaultError`` give-up) is retried up to ``flush_retries`` times —
  the machine rewinds to the staging checkpoint between attempts, so a
  success-after-retry response is bit-identical to a fault-free run.
* **Serial runs are tried once.**  When every batched attempt fails the
  flush degrades: each ticket re-runs alone in serial mode (its own delta
  report, its own ``report_id``).  Shared-scan amortization is lost but
  individual requests still complete.  A serial-algorithm ticket runs
  that way from the start.  Only a ticket whose serial run fails surfaces
  a typed :class:`~repro.errors.FlushFailedError` (HTTP 503 +
  ``Retry-After``).
* **Circuit breaking.**  :meth:`offer` gates through
  ``entry.health.admit()`` — a quarantined graph rejects with
  :class:`~repro.errors.GraphQuarantinedError` before anything touches
  the machine; tickets already queued when the breaker opens are failed
  (typed, never dropped) at their flush.  A flush that ran reports one
  event: a *failure* if it entered the fallback or its serial ticket
  failed, else a success.
* **Deadlines.**  Tickets optionally carry an absolute host-clock
  deadline (per-request ``deadline_ms`` or the controller default); it is
  checked at dequeue and again after the flush, and an expired ticket is
  fulfilled with :class:`~repro.errors.DeadlineExceededError` (HTTP 504)
  carrying its queue wait — expired work is never silently dropped.

Every run attaches a fresh dual-clock
:class:`~repro.obs.tracer.Tracer` to the machine (tracing is
timing/byte-neutral; the bound host clock only annotates spans), and
every flush hands its delta reports, engine counters, span histograms and
fault counter deltas (``fault_*``, ``io_retries_total``, ...) to a
``metrics_sink`` callback — the service merges them into the long-lived
``/metrics`` registry, preserving the exact-reconciliation invariant (see
docs/serving.md).  The flush id and every drained ticket's request id are
stamped into the run's ``query`` span attributes (end-to-end request
tracing), and each fulfilled ticket carries its run's span list for the
service's ``/debug/requests`` ring.
"""

from __future__ import annotations

import sys
from collections import deque
from typing import (
    TYPE_CHECKING, Callable, Iterator, List, Optional, Sequence, Tuple, Union,
)

from repro.algorithms.streaming import BATCH_WIDTH, StreamingAlgorithm
from repro.engines.session import run_staged_queries
from repro.errors import (
    ConfigError,
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

if TYPE_CHECKING:  # the registry builds each entry's controller
    from repro.serve.registry import GraphEntry

#: Bucket bounds for the ``serve_flush_size`` histogram (roots per flush).
FLUSH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, float(BATCH_WIDTH))

#: Crash/resume replays armed inside each ``run_staged_queries`` attempt.
DEFAULT_MAX_RECOVERIES = 4


class Ticket:
    """One admitted request: what to run, waiting for its flush."""

    __slots__ = (
        "request_id", "entry", "algorithm",
        "enqueued_at", "queue_wait", "deadline_at", "deadline_ms",
        "done", "result", "report", "flush_id", "flush_size", "flush_mode",
        "error", "report_id", "spans",
    )

    def __init__(
        self,
        request_id: str,
        entry: Union[int, Sequence[int]],
        enqueued_at: float = 0.0,
        deadline_ms: Optional[float] = None,
        algorithm: Optional[StreamingAlgorithm] = None,
    ):
        self.request_id = request_id
        self.entry = entry
        #: The kernel to run; None is BFS, the one algorithm with a batched
        #: kernel, so only such tickets share a flush.
        self.algorithm = algorithm
        self.enqueued_at = enqueued_at
        self.queue_wait = 0.0
        self.deadline_ms = deadline_ms    # as requested (for the 504 body)
        #: Absolute host-clock expiry.
        self.deadline_at = (
            None if deadline_ms is None else enqueued_at + deadline_ms / 1000.0
        )
        self.done = False           # set under the entry's monitor
        self.result = None          # EngineResult once fulfilled
        self.report = None          # its run's delta IOReport
        self.flush_id: Optional[str] = None
        self.flush_size = 0
        #: How the executor ran it: ``batched``, ``serial`` (a serial
        #: algorithm) or ``serial_fallback`` (a degraded batch).
        self.flush_mode: Optional[str] = None
        self.error: Optional[BaseException] = None
        #: Report identity for metrics dedup: the flush id, except
        #: ``{flush_id}-sNN`` for a serial-fallback re-run (each fallback
        #: ticket carries its own delta report).
        self.report_id: Optional[str] = None
        self.spans: Optional[list] = None  # its run's span trace


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


def check_admission_settings(
    capacity: int,
    flush_retries: int,
    default_deadline_ms: Optional[float],
    batch_width: int = BATCH_WIDTH,
) -> None:
    """Refuse settings no admission queue can serve with (ConfigError)."""
    if capacity < 1:
        raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
    if not 1 <= batch_width <= BATCH_WIDTH:
        raise ConfigError(f"batch width must be in [1, {BATCH_WIDTH}], got {batch_width}")
    if flush_retries < 1:
        raise ConfigError(f"flush_retries must be >= 1, got {flush_retries}")
    # The per-request rule (``_extract_deadline``): NaN never expires and
    # fails this comparison, as do the infinities.
    if default_deadline_ms is not None and not (
        0 < default_deadline_ms <= sys.float_info.max
    ):
        raise ConfigError(
            f"default_deadline_ms must be > 0 and finite, got {default_deadline_ms}"
        )


class AdmissionController:
    """Bounded, coalescing admission queue for one registered graph.

    Its queue, counters, flags and tickets' ``done`` live under
    ``entry.monitor``; a flush holds it only to take its prefix and to
    hand the tickets back, never during the run.
    """

    def __init__(
        self,
        entry: GraphEntry,
        capacity: int = 128,
        batch_width: int = BATCH_WIDTH,
        metrics_sink: Optional[Callable[[CounterRegistry], None]] = None,
        clock: Optional[HostClock] = None,
        default_deadline_ms: Optional[float] = None,
        flush_retries: int = 2,
    ) -> None:
        check_admission_settings(
            capacity, flush_retries, default_deadline_ms, batch_width
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
        self._queue: "deque[Ticket]" = deque()
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
        algorithm: Optional[StreamingAlgorithm] = None,
    ) -> Ticket:
        """Admit one query (a root entry and what to run on it) or raise.

        Deterministic: accepts iff the graph is not quarantined and the
        queue holds fewer than ``capacity`` tickets at the instant of the
        call.  A quarantined breaker raises
        :class:`GraphQuarantinedError` (its ``retry_after`` is the exact
        remaining cooldown) *before* anything touches the queue or the
        machine; a saturated queue raises :class:`QueueFullError` whose
        ``retry_after`` is the (integer) number of flushes needed to
        drain the backlog.  A closed (shutting-down) controller raises
        :class:`ServeError`.  ``deadline_ms`` (or the controller default)
        stamps an absolute host-clock deadline on the ticket.
        """
        if deadline_ms is None:
            deadline_ms = self.default_deadline_ms
        with self.entry.monitor:
            self.entry.health.admit()
            if self._closed:
                raise ServeError(
                    f"graph {self.entry.name!r} is shutting down"
                )
            pending = len(self._queue)
            if pending >= self.capacity:
                self._rejected += 1
                flushes_needed = sum(1 for _ in self._flush_sizes())
                raise QueueFullError(
                    f"admission queue for {self.entry.name!r} is full "
                    f"({pending}/{self.capacity})",
                    retry_after=float(max(1, flushes_needed)),
                )
            ticket = Ticket(
                request_id, entry, enqueued_at=self.clock.now(),
                deadline_ms=deadline_ms, algorithm=algorithm,
            )
            self._queue.append(ticket)
            self._accepted += 1
            return ticket

    def _flush_sizes(self) -> Iterator[int]:
        """Sizes of the flushes that would drain the queue (monitor held).

        Each flush takes the longest queue prefix that can share one run:
        consecutive BFS tickets up to ``batch_width``, or exactly one
        ticket carrying a kernel.
        """
        size = 0  # BFS tickets in the run being formed
        for ticket in self._queue:
            if ticket.algorithm is not None:
                if size:
                    yield size
                yield 1
                size = 0
            else:
                size += 1
                if size == self.batch_width:
                    yield size
                    size = 0
        if size:
            yield size

    def flush(self) -> Optional[FlushRecord]:
        """Drain the queue prefix that can share one run, and run it.

        The prefix rule is :meth:`_flush_sizes`'s.  Serialized on the
        entry's ``flushing`` flag (the machine rewinds to the staging
        checkpoint around the run); no lock is held during the run.
        Returns None when the queue was empty.  Every drained ticket is
        fulfilled — already-expired tickets get
        :class:`DeadlineExceededError`, tickets drained while the breaker
        is open get :class:`GraphQuarantinedError` (the machine is not
        touched), engine failures that survive retries and the serial
        fallback get :class:`FlushFailedError`; nothing is silently
        dropped.  A post-flush deadline check catches tickets whose flush
        outlived their budget.
        """
        with self.entry.monitor:
            self.entry.monitor.wait_for(lambda: not self.entry.flushing)
            taken = self._take()
        return None if taken is None else self._run(*taken)

    def _take(self) -> Optional[Tuple[str, List[Ticket]]]:
        """Pop the next prefix and claim the machine (monitor held)."""
        if not self._queue:
            return None
        tickets = [self._queue.popleft() for _ in range(next(self._flush_sizes()))]
        self._flush_count += 1
        self.entry.flushing = True
        return f"{self.entry.name}-flush-{self._flush_count:06d}", tickets

    def _run(self, flush_id: str, tickets: List[Ticket]) -> FlushRecord:
        """Run a taken prefix; then mark it done and wake every waiter."""
        try:
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
            if expired:
                self._expire_tickets(expired, "queued")
            if runnable and not self.entry.health.allow_flush():
                self._quarantine_tickets(runnable, flush_id)
                runnable = []
            if not runnable:
                return FlushRecord(flush_id, tickets, None, None, [])
            executed = self._execute(flush_id, runnable)
            finished_at = self.clock.now()
            late = [
                t for t in runnable
                if t.deadline_at is not None and finished_at > t.deadline_at
            ]
            if late:
                self._expire_tickets(late, "post-flush")
            return FlushRecord(
                flush_id, tickets, executed.report, executed.registry, executed.spans
            )
        except BaseException as exc:
            for t in tickets:
                if t.error is None:
                    t.error = exc
            raise
        finally:
            with self.entry.monitor:
                self.entry.flushing = False
                for t in tickets:
                    t.done = True
                self.entry.monitor.notify_all()

    def _attempt(
        self, tickets: List[Ticket], run_id: str, mode: str, **attrs: object
    ):
        """Rewind the machine and run ``tickets`` as one staged call, once.

        The one place the serving layer touches an entry's machine, always
        through the entry's engine.  ``tickets`` share the head's kernel
        (the flush prefix rule: several tickets are all BFS).  Returns
        ``(batch, tracer)``; a ``CrashError`` that outlived the session
        recovery loop (:data:`DEFAULT_MAX_RECOVERIES`) or an
        ``IOFaultError`` give-up propagates, and leaves no residue: the
        next attempt starts from the staging checkpoint again.
        """
        entry = self.entry
        tracer = Tracer()
        entry.machine.attach_tracer(tracer)
        # Dual-clock: host stamps on the run's spans feed the request
        # trace (/debug/requests/{id}); strictly neutral for sim results.
        tracer.bind_host_clock(self.clock)
        batch = run_staged_queries(
            entry.engine,
            entry.staged,
            entry.checkpoint,
            [t.entry for t in tickets],
            algorithm=tickets[0].algorithm,
            mode=mode,
            span_attrs={
                "flush_id": run_id,
                "request_ids": [t.request_id for t in tickets],
                **attrs,
            },
            max_recoveries=DEFAULT_MAX_RECOVERIES,
        )
        return batch, tracer

    def _execute(self, flush_id: str, tickets: List[Ticket]) -> FlushRecord:
        """Run one drained prefix and account it: the one executor.

        BFS tickets run batched, retried whole up to ``flush_retries``
        times.  Exhausting those attempts enters the serial fallback:
        each ticket runs alone, once, and a serial-algorithm ticket takes
        that last step directly.  A ticket whose serial run fails carries
        a typed :class:`FlushFailedError` chaining the underlying fault.
        Whatever the route, one metrics delta reaches the sink and exactly
        one event the entry's circuit breaker.
        """
        entry = self.entry
        injector = entry.machine.fault_injector
        fault_base = (
            injector.counts_snapshot() if injector is not None else None
        )
        runs = []  # (tickets, batch, tracer, report id) of each run that held
        attempts = 0  # batched attempts made
        # The first typed failure still standing: the breaker's one event.
        failure: Optional[FlushFailedError] = None
        mode = "serial"
        if tickets[0].algorithm is None:
            mode = "batched"
            while not runs and attempts < self.flush_retries:
                attempts += 1
                try:
                    batch, tracer = self._attempt(
                        tickets, flush_id, mode, attempt=attempts
                    )
                except (CrashError, IOFaultError) as exc:
                    failure = FlushFailedError(
                        f"flush {flush_id} batched attempt {attempts}/"
                        f"{self.flush_retries} failed: {type(exc).__name__}",
                        retry_after=1.0,
                    )
                    failure.__cause__ = exc
                else:
                    runs.append((tickets, batch, tracer, flush_id))
                    failure = None
        fallback = failure is not None
        if not runs:
            # No shared run: every ticket runs alone, once.
            attrs, history = {}, "serial run"
            if fallback:
                mode, attrs = "serial_fallback", {"serial_fallback": 1}
                history = (
                    f"{attempts} batched attempt(s) "
                    f"({type(failure.__cause__).__name__}), "
                    "then serial fallback"
                )
            for index, t in enumerate(tickets):
                run_id = f"{flush_id}-s{index:02d}" if fallback else flush_id
                try:
                    batch, tracer = self._attempt(
                        [t], run_id, "serial", **attrs
                    )
                except (CrashError, IOFaultError) as exc:
                    t.error = FlushFailedError(
                        f"flush {flush_id} failed for request "
                        f"{t.request_id}: {history} ({type(exc).__name__})",
                        retry_after=entry.health.cooldown_seconds(),
                    )
                    t.error.__cause__ = exc
                    failure = failure or t.error
                else:
                    runs.append(([t], batch, tracer, run_id))
        registry = CounterRegistry()
        spans: List = []
        report = None
        for run_tickets, batch, tracer, report_id in runs:
            # All queries of one run share a single timeline, hence a
            # single delta report object.
            report = batch.queries[0].report
            registry.merge(CounterRegistry.from_report(report))
            for ticket, result in zip(run_tickets, batch.queries):
                ticket.result = result
                ticket.report = report
                ticket.report_id = report_id
                ticket.flush_mode = mode
                ticket.spans = tracer.spans
            registry.ingest_result(batch)
            registry.ingest_spans(tracer)
            spans.extend(tracer.spans)
        served = sum(len(run_tickets) for run_tickets, *_ in runs)
        retries = max(0, attempts - 1)
        registry.inc("serve_flushes_total", 1.0, graph=entry.name)
        registry.inc(
            "serve_flushed_queries_total", float(served), graph=entry.name
        )
        registry.observe(
            "serve_flush_size", float(len(tickets)),
            buckets=FLUSH_SIZE_BUCKETS, graph=entry.name,
        )
        if retries:
            registry.inc(
                "flush_retry_total", float(retries), graph=entry.name
            )
        if fallback:
            registry.inc(
                "serve_flush_serial_fallback_total", 1.0, graph=entry.name
            )
        if served < len(tickets):
            registry.inc(
                "serve_flush_failed_total", float(len(tickets) - served),
                graph=entry.name,
            )
        if fault_base is not None:
            # Injector counters are lifetime (never rewound by restores),
            # so the delta against the pre-flush snapshot also captures
            # faults from attempts that were rolled back — exactly what
            # the chaos harness reconciles against the span trace.
            for name, labels, value in injector.delta_samples(fault_base):
                registry.inc(name, value, graph=entry.name, **labels)
        with entry.monitor:
            entry.queries_served += served
            entry.flushes += 1
            self._flush_retries_total += retries
            self._serial_fallbacks += fallback
        if failure is None:
            entry.health.record_flush_success()
        else:
            entry.health.record_flush_failure(
                type(failure.__cause__).__name__
            )
        if self.metrics_sink is not None:
            self.metrics_sink(registry)
        # One run is one delta report; fallback tickets each carry theirs.
        shared = report if len(runs) == 1 else None
        return FlushRecord(flush_id, tickets, shared, registry, spans)

    def _expire_tickets(self, tickets: List[Ticket], where: str) -> None:
        """Fulfil expired tickets with typed 504s; count, never drop."""
        for t in tickets:
            budget = t.deadline_ms if t.deadline_ms is not None else 0.0
            t.error = DeadlineExceededError(
                f"request {t.request_id} exceeded its {budget:g}ms "
                f"deadline ({where}; queue wait "
                f"{t.queue_wait * 1000.0:.1f}ms)",
                deadline_ms=budget,
                queue_wait=t.queue_wait,
            )
        with self.entry.monitor:
            self._deadline_expired += len(tickets)
        self._count("deadline_exceeded_total", len(tickets), where=where)

    def _quarantine_tickets(
        self, tickets: List[Ticket], flush_id: str
    ) -> None:
        """Fail tickets drained while the breaker is open (machine untouched)."""
        for t in tickets:
            t.error = GraphQuarantinedError(
                f"graph {self.entry.name!r} was quarantined while request "
                f"{t.request_id} was queued; flush {flush_id} rejected",
                retry_after=self.entry.health.retry_after(),
            )
        self._count("serve_quarantine_rejections_total", len(tickets))

    def _count(self, name: str, count: int, **labels: str) -> None:
        """Hand one counter delta of this graph to the metrics sink."""
        if self.metrics_sink is not None:
            registry = CounterRegistry()
            registry.inc(name, float(count), graph=self.entry.name, **labels)
            self.metrics_sink(registry)

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
        with self.entry.monitor:
            self._held = True

    def release(self) -> None:
        with self.entry.monitor:
            self._held = False
            self.entry.monitor.notify_all()

    def stop_accepting(self) -> None:
        """Reject new offers from now on (shutdown)."""
        with self.entry.monitor:
            self._closed = True

    # ------------------------------------------------------------------
    # thread-facing composition
    # ------------------------------------------------------------------
    def submit(
        self,
        request_id: str,
        entry: Union[int, Sequence[int]],
        deadline_ms: Optional[float] = None,
        algorithm: Optional[StreamingAlgorithm] = None,
    ) -> Ticket:
        """Admit, then lead or wait until the ticket is fulfilled.

        The calling thread waits on the monitor until its ticket is done
        (then it returns: an answered follower never leads) or no flush
        runs and the controller is not held; its ticket is then queued,
        so it takes the next prefix in that critical section and runs it
        (this round's leader).  Each flush retires at least one ticket, so
        the loop terminates.  Only this ticket's own failure re-raises
        here (typed: engine, flush, quarantine, deadline; or whatever a
        flush it rode in raised); a flush it led for others stores its
        error on their tickets, so the loop goes on to its own.
        """
        ticket = self.offer(
            request_id, entry, deadline_ms=deadline_ms, algorithm=algorithm,
        )
        monitor = self.entry.monitor
        while True:
            with monitor:
                monitor.wait_for(
                    lambda: ticket.done or not (self.entry.flushing or self._held)
                )
                if ticket.done:
                    break
                taken = self._take()
            try:
                self._run(*taken)
            except Exception as exc:
                if ticket.error is exc:
                    raise
        if ticket.error is not None:
            raise ticket.error
        return ticket

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        with self.entry.monitor:
            return len(self._queue)

    def counters(self) -> dict:
        with self.entry.monitor:
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
    "check_admission_settings",
]
