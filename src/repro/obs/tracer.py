"""Structured span tracing on the simulated clock.

The reproduction's whole argument is about *where simulated time goes* —
scatter streams vs. asynchronous stay flushes vs. update shuffles across
disks — yet until this subsystem existed only end-of-run totals
(:class:`~repro.storage.machine.IOReport`) were machine-readable.  A
:class:`Tracer` records a tree of :class:`Span` objects whose start/end
times come from the run's :class:`~repro.sim.clock.SimClock`, so a single
trace answers "which partition's stay flush straddled iteration 3?" the
way Buluç & Madduri's per-phase timing breakdowns answer it for
distributed BFS.

Span taxonomy (see docs/observability.md for the full contract):

=============  =====================================================
name           attrs
=============  =====================================================
``stage``      engine, graph, partitions, in_memory, edges
``query``      engine, algorithm, graph, roots
``iteration``  iteration, edges_scanned, updates_generated, ...
``scatter``    partition, edges_streamed, updates_produced
``gather``     partition, updates_gathered, activated
``shuffle``    iteration, updates_persisted, update_bytes
``stay_flush`` partition, iteration, records, bytes  (async span)
``stay_cancel``partition, iteration, end_of_run, reason (async span)
``interval``   partition (GraphChi's PSW unit of work)
``io``         device, role, kind, group, bytes (+ fault): one device request
``io_retry``   device, group, attempt (backoff window; fault injection)
``io_giveup``  device, group, attempts (zero-width; retry exhaustion)
``crash``      device, group, index (zero-width; injected crash point)
``recover``    engine, roots (zero-width; crash/resume replay anchor)
=============  =====================================================

The last four exist only on fault-injected machines (see
:mod:`repro.storage.faults`); their counts reconcile exactly with the
injector's ``io_retries_total``/``io_giveups_total``/``fault_crash_total``/
``crash_recoveries_total`` counters.

Design rules:

* **No globals.**  The tracer is an explicit handle on
  :class:`~repro.storage.machine.Machine`; engines reach it as
  ``machine.tracer``.
* **No clock interaction.**  A tracer only *reads* ``clock.now``; it never
  charges compute, submits I/O or waits.  Tracing on vs. off is therefore
  bit-for-bit identical in simulated timings and byte totals (locked down
  by ``tests/test_obs.py``).
* **No-op by default.**  Machines carry :data:`NULL_TRACER` unless one is
  attached, and the null implementation allocates nothing per span, so the
  hot path stays clean.
* **Async spans.**  Stay flushes outlive the iteration that opened them,
  so they are emitted retroactively (via :meth:`Tracer.emit`) under an
  explicit parent — the enclosing ``query`` span — rather than the span
  stack's top.
* **Requests by reference.**  ``Device.submit`` hands each request to an
  attached tracer (:meth:`Tracer.record_request`, no span allocated);
  :meth:`Tracer.io_spans` builds the ``io`` spans on export or drawing,
  at each request's final placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.sim.timeline import Timeline


class TraceError(ReproError):
    """Raised on tracer misuse (unbalanced spans, missing clock)."""


@dataclass
class Span:
    """One node of the trace tree, timed on the simulated clock.

    When the owning tracer also carries a host clock (dual-clock
    profiling, :mod:`repro.obs.hostprof`), ``host_start``/``host_end``
    record the *wall-clock* side of the same span.  They stay at the
    ``-1.0`` sentinel — and are omitted from :meth:`to_dict` — on
    untraced-host runs, so the JSONL line schema is unchanged unless a
    host clock was explicitly bound.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float = -1.0
    attrs: Dict[str, object] = field(default_factory=dict)
    host_start: float = -1.0
    host_end: float = -1.0

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def finished(self) -> bool:
        return self.end >= self.start

    @property
    def host_timed(self) -> bool:
        """True when both host-side stamps were recorded."""
        return self.host_start >= 0.0 and self.host_end >= self.host_start

    @property
    def host_duration(self) -> float:
        """Host wall-clock seconds this span covered (0.0 if unstamped)."""
        if not self.host_timed:
            return 0.0
        return self.host_end - self.host_start

    def set(self, **attrs: object) -> "Span":
        """Attach attributes (chainable); later calls override earlier."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the JSONL exporter's line schema)."""
        out: Dict[str, object] = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
        }
        if self.host_start >= 0.0:
            out["host_start"] = self.host_start
            out["host_end"] = self.host_end
        return out


class _ActiveSpan:
    """Context manager tying one :class:`Span` to the tracer's stack."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span)


class Tracer:
    """Collects spans for one machine's lifetime (append-only).

    Bound to a clock by :meth:`~repro.storage.machine.Machine.attach_tracer`
    (or explicitly via :meth:`bind_clock`).  ``Machine.restore`` rewinds the
    clock between query sessions but never truncates the trace: a batch run
    produces one ``query`` span per session, and simulated time visibly
    restarting between top-level spans is the recorded signature of the
    checkpoint/restore protocol.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._clock = None
        self._host = None
        self._next_id = 1
        # (device name, ScheduledRequest, id of the span open at submit).
        self._requests: List[tuple] = []

    # ------------------------------------------------------------------
    def bind_clock(self, clock) -> "Tracer":
        """Attach the simulated clock spans read their times from."""
        self._clock = clock
        return self

    def bind_host_clock(self, host_clock) -> "Tracer":
        """Attach a host wall clock (dual-clock profiling).

        Once bound, every nested span additionally records
        ``host_start``/``host_end`` from this clock.  The host clock is
        only ever *read* — it never touches the simulated clock or the
        cost model, so simulated results stay bit-identical with the
        host clock on or off (``tests/test_obs_hostprof.py``).
        """
        self._host = host_clock
        return self

    def _now(self) -> float:
        if self._clock is None:
            raise TraceError(
                "tracer has no clock; attach it to a Machine "
                "(machine.attach_tracer(tracer)) before tracing"
            )
        return self._clock.now

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> _ActiveSpan:
        """Open a child span of the current stack top (context manager)."""
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(
            span_id=self._next_id,
            parent_id=parent,
            name=name,
            start=self._now(),
            attrs=dict(attrs),
        )
        if self._host is not None:
            sp.host_start = self._host.now()
        self._next_id += 1
        self.spans.append(sp)
        self._stack.append(sp)
        return _ActiveSpan(self, sp)

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise TraceError(
                f"span {span.name!r} closed out of order (unbalanced nesting)"
            )
        self._stack.pop()
        span.end = self._now()
        if self._host is not None and span.host_start >= 0.0:
            span.host_end = self._host.now()

    def emit(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        **attrs: object,
    ) -> Span:
        """Record an already-completed span with explicit times.

        The escape hatch for asynchronous work (stay flushes) whose
        lifetime does not nest inside the span that observed it finishing:
        the caller supplies the real start/end and an explicit parent
        (usually the enclosing ``query`` span captured earlier).
        """
        if end < start:
            raise TraceError(f"span {name!r} ends before it starts ({end} < {start})")
        sp = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(sp)
        return sp

    def record_request(self, device: str, request) -> None:
        """Keep a device request, under the span open now, for :meth:`io_spans`."""
        stack = self._stack
        self._requests.append((device, request, stack[-1].span_id if stack else None))

    def io_spans(self) -> List[Span]:
        """The recorded requests as ``io`` spans, numbered after every span
        so far: a cancelled one drops out, a repacked one shows where it ran."""
        out: List[Span] = []
        span_id = self._next_id
        for device, req, parent_id in self._requests:
            if req.cancelled:
                continue
            role, kind = Timeline.lane_of(req)
            attrs: Dict[str, object] = {
                "device": device, "role": role, "kind": kind,
                "group": req.group, "bytes": req.nbytes,
            }
            if req.fault is not None:
                attrs["fault"] = req.fault
            out.append(Span(span_id, parent_id, "io", req.start, req.end, attrs))
            span_id += 1
        return out

    def export(self) -> List[Span]:
        """Every span of the trace: the recorded ones, then the ``io`` spans."""
        return self.spans + self.io_spans()

    # ------------------------------------------------------------------
    @property
    def current_id(self) -> Optional[int]:
        """Span id of the stack top (None outside any span)."""
        return self._stack[-1].span_id if self._stack else None

    @property
    def depth(self) -> int:
        return len(self._stack)

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in emission order."""
        return [s for s in self.spans if s.name == name]

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tracer(spans={len(self.spans)}, depth={len(self._stack)})"


class _NullActiveSpan:
    """Shared no-op context manager; ``set`` swallows attributes."""

    __slots__ = ()

    def __enter__(self) -> "_NullActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: object) -> "_NullActiveSpan":
        return self


_NULL_SPAN = _NullActiveSpan()


class NullTracer(Tracer):
    """The disabled tracer: every operation is a constant-time no-op.

    One shared instance (:data:`NULL_TRACER`) serves every untraced
    machine; it never allocates a span, so code can call
    ``machine.tracer.span(...)`` unconditionally on the hot path.
    """

    enabled = False

    def bind_clock(self, clock) -> "NullTracer":
        return self

    def bind_host_clock(self, host_clock) -> "NullTracer":
        return self

    def span(self, name: str, **attrs: object) -> _NullActiveSpan:  # type: ignore[override]
        return _NULL_SPAN

    def emit(self, name, start, end, parent_id=None, **attrs):  # type: ignore[override]
        return None

    def record_request(self, device, request) -> None:
        return None

    @property
    def current_id(self) -> Optional[int]:
        return None


#: Process-wide disabled tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
