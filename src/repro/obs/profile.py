"""Trace analysis: turn span traces into per-stage time breakdowns.

A span trace records *where simulated time went*; this module answers the
questions the paper's evaluation sections ask of it:

* **Per-iteration stage breakdown** — scatter / gather / shuffle (or
  GraphChi's interval) seconds per BFS level, with the residual inside
  the iteration span reported as ``other`` and the residual inside the
  query span (staging glue, frontier bookkeeping) as ``overhead``, so
  the breakdown of a query sums exactly to its span duration.
* **Critical path** — which stage dominates each query, ranked.
* **Stay-write overlap** — how much ``stay_flush`` time was actually
  hidden under scatter streaming (the paper's core overlap claim), how
  much was exposed, and how often flushes were cancelled mid-run or
  discarded at end of run.
* **I/O attribution** — per-device, per-(role, kind) byte totals joined
  from a :class:`~repro.obs.counters.CounterRegistry`, reconciled
  bit-for-bit against an :class:`~repro.storage.machine.IOReport` when
  one is supplied.
* **Lanes** — the one Gantt renderer: a lane per span name and, from
  the ``io`` spans, a lane per device and (role, kind) — the device view
  ``repro gantt`` draws and the per-query lanes of ``repro profile``.

Every entry point takes any trace source through :func:`load_spans`, so
a live tracer and its exported JSONL give the same report and Gantt.
Everything here is read-only: profiling a trace never touches a clock,
machine, or tracer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ReproError
from repro.obs.counters import CounterRegistry
from repro.obs.tracer import Span, Tracer
from repro.utils.units import format_bytes, format_seconds

#: Child-span names treated as named stages inside an iteration; any
#: remaining iteration time is the ``other`` residual.
STAGE_NAMES = ("scatter", "gather", "shuffle", "interval")

Interval = Tuple[float, float]
#: A labelled Gantt row: (label, intervals).
Lane = Tuple[str, List[Interval]]


class ProfileError(ReproError):
    """Raised when a trace cannot be profiled or drawn (no spans, no tracer...)."""


# ----------------------------------------------------------------------
# span loading
# ----------------------------------------------------------------------
def load_spans(source) -> List[Span]:
    """Normalize any trace source into a span list.

    Accepts a JSONL trace path, a :class:`~repro.obs.tracer.Tracer`, a
    machine with an attached tracer, or an iterable of spans.  A tracer
    yields its ``io`` spans too (:meth:`~repro.obs.tracer.Tracer.export`),
    as its JSONL file does.
    """
    if isinstance(source, (str, os.PathLike)):
        from repro.obs.exporters import read_spans_jsonl

        return read_spans_jsonl(os.fspath(source))
    if isinstance(source, Tracer):
        return source.export()
    tracer = getattr(source, "tracer", None)
    if tracer is not None:
        if not tracer.enabled:
            raise ProfileError(
                "machine has no span tracer attached; call "
                "machine.attach_tracer(Tracer()) before the run"
            )
        return tracer.export()
    return list(source)


# ----------------------------------------------------------------------
# lane rendering: the one Gantt renderer
# ----------------------------------------------------------------------
_FULL = "█"
_PARTIAL = "▒"
_IDLE = "·"

#: Preferred ordering for span-trace rendering (taxonomy order).
SPAN_LANE_ORDER = (
    "stage",
    "query",
    "iteration",
    "scatter",
    "gather",
    "shuffle",
    "stay_flush",
    "stay_cancel",
    "interval",
)


def _coverage_chars(
    intervals: Sequence[Interval], start: float, end: float, width: int
) -> str:
    """Render interval coverage of [start, end) into ``width`` cells."""
    cell = (end - start) / width
    coverage = [0.0] * width
    for lo, hi in intervals:
        lo = max(lo, start)
        hi = min(hi, end)
        if hi <= lo:
            continue
        first = int((lo - start) / cell)
        last = min(int((hi - start) / cell), width - 1)
        for i in range(first, last + 1):
            cell_lo = start + i * cell
            cell_hi = cell_lo + cell
            coverage[i] += max(0.0, min(hi, cell_hi) - max(lo, cell_lo)) / cell
    return "".join(
        _FULL if c >= 0.75 else (_PARTIAL if c > 0.05 else _IDLE)
        for c in coverage
    )


def render_lanes(
    title: str,
    lanes: Sequence[Lane],
    start: float,
    end: float,
    width: int = 80,
) -> str:
    """Shared lane renderer: labelled interval sets on one time axis."""
    if end <= start:
        raise ProfileError(f"empty window [{start}, {end})")
    if width < 10:
        raise ProfileError("width must be >= 10 characters")
    cell = (end - start) / width
    lines = [
        f"{title}: [{format_seconds(start)} .. {format_seconds(end)}]"
        f"  ({format_seconds(cell)}/cell)"
    ]
    label_width = max((len(label) for label, _ in lanes), default=8)
    for label, intervals in lanes:
        chars = _coverage_chars(intervals, start, end, width)
        lines.append(f"  {label.ljust(label_width)} {chars}")
    if len(lines) == 1:
        lines.append("  (no requests in window)")
    return "\n".join(lines)


def _window_end(lanes: Sequence[Lane], start: float) -> float:
    """The latest end over ``lanes``; one second past ``start`` if empty."""
    ends = [hi for _, intervals in lanes for _, hi in intervals]
    return max(ends, default=start + 1.0)


def span_lanes(source, names: Optional[Sequence[str]] = None) -> List[Lane]:
    """One lane per span name in taxonomy order (``io`` spans excepted:
    they are :func:`device_lanes`)."""
    by_name: Dict[str, List[Interval]] = {}
    for sp in load_spans(source):
        if sp.finished and sp.name != "io" and (names is None or sp.name in names):
            by_name.setdefault(sp.name, []).append((sp.start, sp.end))
    order = {name: i for i, name in enumerate(SPAN_LANE_ORDER)}
    return [
        (name, by_name[name])
        for name in sorted(by_name, key=lambda n: (order.get(n, len(order)), n))
    ]


def device_lanes(source) -> Dict[str, List[Lane]]:
    """Per device, one ``role[R|W]`` lane per (role, kind) of its ``io``
    spans, sorted; the keys are those of ``Timeline.bytes_by_role``."""
    by_device: Dict[str, Dict[Tuple[str, str], List[Interval]]] = {}
    for sp in load_spans(source):
        if sp.name == "io":
            device, role, kind = (str(sp.attrs[k]) for k in ("device", "role", "kind"))
            lanes = by_device.setdefault(device, {})
            lanes.setdefault((role, kind), []).append((sp.start, sp.end))
    return {
        device: [
            (f"{role}[{kind[0].upper()}]", intervals)
            for (role, kind), intervals in sorted(lanes.items())
        ]
        for device, lanes in by_device.items()
    }


def render_device_gantt(
    source,
    devices: Optional[Sequence[str]] = None,
    start: float = 0.0,
    end: Optional[float] = None,
    width: int = 80,
) -> str:
    """Draw who held each device when: one block per device, one lane per
    (role, kind) of its ``io`` spans, all on one time axis.

    ``devices`` names the blocks in order (``[d.name for d in
    machine.disks]`` leaves out RAM and keeps an idle disk as "no
    requests"); the default is every device that served a request.
    """
    lanes = device_lanes(source)
    names = sorted(lanes) if devices is None else list(devices)
    blocks = [(name, lanes.get(name, [])) for name in names]
    if end is None:
        end = _window_end([lane for _, block in blocks for lane in block], start)
    return "\n".join(
        render_lanes(name, block, start, end, width) for name, block in blocks
    )


# ----------------------------------------------------------------------
# interval arithmetic
# ----------------------------------------------------------------------
def _merge_intervals(intervals: Sequence[Interval]) -> List[Interval]:
    """Union of possibly-overlapping intervals, sorted and disjoint."""
    merged: List[Interval] = []
    for lo, hi in sorted(intervals):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged

def _overlap_length(lo: float, hi: float, merged: Sequence[Interval]) -> float:
    """Length of [lo, hi) covered by a merged (disjoint) interval union."""
    covered = 0.0
    for mlo, mhi in merged:
        if mhi <= lo:
            continue
        if mlo >= hi:
            break
        covered += min(hi, mhi) - max(lo, mlo)
    return covered

def _union_length(merged: Sequence[Interval]) -> float:
    return sum(hi - lo for lo, hi in merged)


# ----------------------------------------------------------------------
# per-query structures
# ----------------------------------------------------------------------
@dataclass
class IterationBreakdown:
    """Stage timing for one BFS level (one ``iteration`` span)."""

    iteration: int
    span: Span
    #: Stage name -> summed child-span seconds (only stages that ran).
    stages: Dict[str, float] = field(default_factory=dict)
    #: Stage name -> summed child-span *host* seconds (dual-clock traces).
    host_stages: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.span.duration

    @property
    def other(self) -> float:
        """Iteration time not inside any named stage child."""
        return max(0.0, self.duration - sum(self.stages.values()))

    @property
    def host_duration(self) -> float:
        return self.span.host_duration

    @property
    def host_other(self) -> float:
        """Host iteration time not inside any named stage child."""
        return max(0.0, self.host_duration - sum(self.host_stages.values()))

    @property
    def frontier(self) -> int:
        return int(self.span.attrs.get("frontier", 0))

    @property
    def edges_scanned(self) -> int:
        return int(self.span.attrs.get("edges_scanned", 0))

    def breakdown(self) -> Dict[str, float]:
        """Stage seconds including the ``other`` residual; sums to duration."""
        out = dict(self.stages)
        out["other"] = self.other
        return out

    def host_breakdown(self) -> Dict[str, float]:
        """Host stage seconds + ``other``; sums to :attr:`host_duration`."""
        out = dict(self.host_stages)
        out["other"] = self.host_other
        return out


@dataclass
class StayAccounting:
    """What happened to the stay stream over one query."""

    flushes: int = 0
    cancellations: int = 0
    end_of_run_discards: int = 0
    flush_time: float = 0.0
    hidden_time: float = 0.0
    records: int = 0
    bytes: int = 0

    @property
    def cancelled_total(self) -> int:
        return self.cancellations + self.end_of_run_discards

    @property
    def exposed_time(self) -> float:
        """Flush seconds not overlapped by any scatter span."""
        return max(0.0, self.flush_time - self.hidden_time)

    @property
    def hidden_fraction(self) -> float:
        """Share of flush time hidden under scatter (the overlap claim)."""
        if self.flush_time <= 0:
            return 0.0
        return self.hidden_time / self.flush_time


@dataclass
class QueryProfile:
    """One ``query`` span analyzed: iterations, stay stream, lanes."""

    index: int
    span: Span
    iterations: List[IterationBreakdown]
    stay: StayAccounting
    #: Every span belonging to this query (the query span, its subtree,
    #: and the async stay spans anchored to it), for lane rendering.
    spans: List[Span]

    @property
    def engine(self) -> str:
        return str(self.span.attrs.get("engine", "?"))

    @property
    def algorithm(self) -> str:
        return str(self.span.attrs.get("algorithm", "?"))

    @property
    def graph(self) -> str:
        return str(self.span.attrs.get("graph", "?"))

    @property
    def duration(self) -> float:
        return self.span.duration

    @property
    def overhead(self) -> float:
        """Query time outside every iteration span (staging glue, etc.)."""
        return max(
            0.0, self.duration - sum(it.duration for it in self.iterations)
        )

    @property
    def host_timed(self) -> bool:
        """True when this query was traced with a host clock attached."""
        return self.span.host_timed

    @property
    def host_duration(self) -> float:
        return self.span.host_duration

    @property
    def host_overhead(self) -> float:
        """Host query time outside every iteration span."""
        return max(
            0.0,
            self.host_duration - sum(it.host_duration for it in self.iterations),
        )

    @property
    def edges_scanned(self) -> int:
        return sum(it.edges_scanned for it in self.iterations)

    def stage_totals(self) -> Dict[str, float]:
        """Stage seconds over the whole query; sums to the query duration.

        Keys are the stage names that ran, plus ``other`` (time inside an
        iteration but outside named stages) and ``overhead`` (time inside
        the query but outside every iteration).
        """
        totals: Dict[str, float] = {}
        for it in self.iterations:
            for name, secs in it.breakdown().items():
                totals[name] = totals.get(name, 0.0) + secs
        totals["overhead"] = self.overhead
        return totals

    def host_stage_totals(self) -> Dict[str, float]:
        """Host stage seconds over the query; sums to its host duration.

        Same keys and arithmetic as :meth:`stage_totals`, on the host
        clock: ``other`` is host time inside an iteration but outside
        named stages, ``overhead`` host time inside the query but outside
        every iteration — so the totals sum to the query span's host
        duration by construction.  Empty on single-clock traces.
        """
        if not self.host_timed:
            return {}
        totals: Dict[str, float] = {}
        for it in self.iterations:
            for name, secs in it.host_breakdown().items():
                totals[name] = totals.get(name, 0.0) + secs
        totals["overhead"] = self.host_overhead
        return totals

    def critical_path(self) -> List[Tuple[str, float]]:
        """Stages ranked by total seconds, dominant first."""
        return sorted(
            self.stage_totals().items(), key=lambda kv: (-kv[1], kv[0])
        )

    def lanes(self) -> List[Lane]:
        """Span-name lanes (``query`` excepted), then a ``<device>
        <role>[R|W]`` lane per device and (role, kind)."""
        out = [lane for lane in span_lanes(self.spans) if lane[0] != "query"]
        for device, rows in sorted(device_lanes(self.spans).items()):
            out.extend((f"{device} {label}", iv) for label, iv in rows)
        return out

    def lane_utilization(self) -> Dict[str, float]:
        """Per-lane busy fraction of the query window (union time)."""
        if self.duration <= 0:
            return {}
        out: Dict[str, float] = {}
        for name, intervals in self.lanes():
            merged = _merge_intervals(
                [
                    (max(lo, self.span.start), min(hi, self.span.end))
                    for lo, hi in intervals
                    if min(hi, self.span.end) > max(lo, self.span.start)
                ]
            )
            out[name] = _union_length(merged) / self.duration
        return out


# ----------------------------------------------------------------------
# trace assembly
# ----------------------------------------------------------------------
def _build_query_profile(
    index: int, query: Span, children: Dict[Optional[int], List[Span]]
) -> QueryProfile:
    subtree: List[Span] = [query]
    iterations: List[IterationBreakdown] = []
    stay = StayAccounting()
    scatter_intervals: List[Interval] = []

    stack = list(children.get(query.span_id, []))
    direct = list(children.get(query.span_id, []))
    while stack:
        sp = stack.pop()
        subtree.append(sp)
        stack.extend(children.get(sp.span_id, []))

    for sp in subtree:
        if sp.name == "scatter" and sp.finished:
            scatter_intervals.append((sp.start, sp.end))

    scatter_merged = _merge_intervals(scatter_intervals)

    for sp in direct:
        if sp.name == "iteration" and sp.finished:
            stages: Dict[str, float] = {}
            host_stages: Dict[str, float] = {}
            for child in children.get(sp.span_id, []):
                if child.name in STAGE_NAMES and child.finished:
                    stages[child.name] = (
                        stages.get(child.name, 0.0) + child.duration
                    )
                    if child.host_timed:
                        host_stages[child.name] = (
                            host_stages.get(child.name, 0.0)
                            + child.host_duration
                        )
            iterations.append(
                IterationBreakdown(
                    iteration=int(sp.attrs.get("iteration", len(iterations))),
                    span=sp,
                    stages=stages,
                    host_stages=host_stages,
                )
            )
        elif sp.name == "stay_flush" and sp.finished:
            stay.flushes += 1
            stay.flush_time += sp.duration
            stay.hidden_time += _overlap_length(
                sp.start, sp.end, scatter_merged
            )
            stay.records += int(sp.attrs.get("records", 0))
            stay.bytes += int(sp.attrs.get("bytes", 0))
        elif sp.name == "stay_cancel" and sp.finished:
            if sp.attrs.get("end_of_run"):
                stay.end_of_run_discards += 1
            else:
                stay.cancellations += 1

    iterations.sort(key=lambda it: (it.span.start, it.iteration))
    return QueryProfile(
        index=index,
        span=query,
        iterations=iterations,
        stay=stay,
        spans=subtree,
    )


class TraceProfile:
    """A fully-analyzed span trace: queries, stages, I/O attribution."""

    def __init__(
        self,
        spans: Sequence[Span],
        registry: Optional[CounterRegistry] = None,
        report=None,
    ) -> None:
        self.spans = [sp for sp in spans if sp.finished]
        if not self.spans:
            raise ProfileError("trace has no finished spans to profile")
        self.registry = registry
        self.report = report
        if self.registry is None and report is not None:
            self.registry = CounterRegistry.from_report(report)

        children: Dict[Optional[int], List[Span]] = {}
        for sp in self.spans:
            children.setdefault(sp.parent_id, []).append(sp)
        self.stages = [sp for sp in self.spans if sp.name == "stage"]
        query_spans = [sp for sp in self.spans if sp.name == "query"]
        if not query_spans:
            raise ProfileError(
                "trace has no 'query' spans; was the run traced with a "
                "Tracer attached before execution?"
            )
        self.queries = [
            _build_query_profile(i, q, children)
            for i, q in enumerate(query_spans)
        ]

    # ------------------------------------------------------------------
    # dual-clock host breakdown
    # ------------------------------------------------------------------
    @property
    def host_timed(self) -> bool:
        """True when at least one query was traced with a host clock."""
        return any(q.host_timed for q in self.queries)

    def host(self) -> Dict[str, object]:
        """Host wall-clock breakdown of the trace (dual-clock runs).

        The instrument the vectorization ratchet reads: how many host
        seconds each simulated second costs, attributed per stage, plus
        the engine's raw edge throughput on the host clock.  Shape::

            {"host_seconds": ..., "sim_seconds": ...,
             "host_seconds_per_sim_second": ...,
             "edges_scanned": ..., "edges_scanned_per_host_second": ...,
             "stages": {name: {"host_seconds", "sim_seconds",
                               "host_seconds_per_sim_second"}, ...}}

        Stage host seconds sum exactly to ``host_seconds`` (the summed
        host duration of the query spans) because each query's
        :meth:`~QueryProfile.host_stage_totals` sums to its span's host
        duration by construction.  Empty dict on single-clock traces.
        """
        timed = [q for q in self.queries if q.host_timed]
        if not timed:
            return {}
        host_seconds = sum(q.host_duration for q in timed)
        sim_seconds = sum(q.duration for q in timed)
        edges = sum(q.edges_scanned for q in timed)
        stages: Dict[str, Dict[str, float]] = {}
        for q in timed:
            sim_totals = q.stage_totals()
            for name, secs in q.host_stage_totals().items():
                entry = stages.setdefault(
                    name, {"host_seconds": 0.0, "sim_seconds": 0.0}
                )
                entry["host_seconds"] += secs
                entry["sim_seconds"] += sim_totals.get(name, 0.0)
        for entry in stages.values():
            entry["host_seconds_per_sim_second"] = (
                entry["host_seconds"] / entry["sim_seconds"]
                if entry["sim_seconds"] > 0
                else 0.0
            )
        return {
            "host_seconds": host_seconds,
            "sim_seconds": sim_seconds,
            "host_seconds_per_sim_second": (
                host_seconds / sim_seconds if sim_seconds > 0 else 0.0
            ),
            "edges_scanned": edges,
            "edges_scanned_per_host_second": (
                edges / host_seconds if host_seconds > 0 else 0.0
            ),
            "stages": {name: stages[name] for name in sorted(stages)},
        }

    # ------------------------------------------------------------------
    # I/O attribution
    # ------------------------------------------------------------------
    def io_attribution(self) -> List[Dict[str, object]]:
        """Per-device byte attribution from the joined counter registry.

        Each entry: ``device``, ``read``/``write`` byte totals, ``seeks``,
        and ``by_role`` mapping ``(role, kind)`` to bytes.  When an
        :class:`IOReport` was supplied, ``busy_time`` joins in so exposed
        I/O per device is visible next to its byte totals.
        """
        if self.registry is None:
            return []
        devices: Dict[str, Dict[str, object]] = {}
        for name, labels, value in self.registry.items():
            if name == "device_bytes_total":
                dev = devices.setdefault(
                    labels["device"],
                    {"device": labels["device"], "read": 0.0, "write": 0.0,
                     "seeks": 0.0, "by_role": {}},
                )
                dev[labels["kind"]] = (
                    float(dev.get(labels["kind"], 0.0)) + value
                )
                by_role = dev["by_role"]
                key = (labels.get("role", "other"), labels["kind"])
                by_role[key] = by_role.get(key, 0.0) + value  # type: ignore[union-attr]
            elif name == "device_seeks_total":
                dev = devices.setdefault(
                    labels["device"],
                    {"device": labels["device"], "read": 0.0, "write": 0.0,
                     "seeks": 0.0, "by_role": {}},
                )
                dev["seeks"] = float(dev.get("seeks", 0.0)) + value
        if self.report is not None:
            for dr in self.report.devices:
                if dr.name in devices:
                    devices[dr.name]["busy_time"] = dr.busy_time
        return [devices[name] for name in sorted(devices)]

    def reconcile(self, report=None) -> List[str]:
        """Check the joined registry against an IOReport (see Registry)."""
        report = report if report is not None else self.report
        if report is None:
            raise ProfileError("no IOReport supplied to reconcile against")
        if self.registry is None:
            raise ProfileError("no CounterRegistry supplied to reconcile")
        return self.registry.reconcile(report)

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def report_text(self, width: int = 80, host: bool = False) -> str:
        """The text "top" report: breakdowns, stay overlap, lanes, I/O.

        ``host=True`` appends the dual-clock host section (per-stage host
        seconds and ``host_seconds_per_sim_second``) when the trace
        carries host stamps (``repro profile --host``).
        """
        lines: List[str] = []
        for q in self.queries:
            lines.extend(self._query_section(q, width))
        if host:
            lines.extend(self._host_section())
        io = self.io_attribution()
        if io:
            lines.append("")
            lines.append("I/O attribution (from counter registry):")
            for dev in io:
                busy = (
                    f"  busy {format_seconds(dev['busy_time'])}"  # type: ignore[arg-type]
                    if "busy_time" in dev
                    else ""
                )
                lines.append(
                    f"  {dev['device']}: "
                    f"R {format_bytes(dev['read'])} "  # type: ignore[arg-type]
                    f"W {format_bytes(dev['write'])} "  # type: ignore[arg-type]
                    f"seeks {dev['seeks']:.0f}{busy}"  # type: ignore[str-format]
                )
                for (role, kind), nbytes in sorted(dev["by_role"].items()):  # type: ignore[union-attr]
                    lines.append(
                        f"    {role:<10} {kind:<5} {format_bytes(nbytes)}"
                    )
            if self.report is not None:
                problems = self.reconcile()
                lines.append(
                    "  reconciliation: OK (registry == IOReport)"
                    if not problems
                    else "  reconciliation: MISMATCH\n    "
                    + "\n    ".join(problems)
                )
        return "\n".join(lines)

    def _host_section(self) -> List[str]:
        """Per-stage host wall-clock table (dual-clock traces only)."""
        data = self.host()
        if not data:
            return [
                "",
                "host profile: trace carries no host stamps "
                "(run with --host-profile / bind_host_clock)",
            ]
        lines = [
            "",
            "host profile (dual-clock):",
            f"  host total {format_seconds(data['host_seconds'])} for "
            f"{format_seconds(data['sim_seconds'])} simulated "
            f"({data['host_seconds_per_sim_second']:.3e} host s / sim s)",
            f"  edge throughput "
            f"{data['edges_scanned_per_host_second']:,.0f} edges/host s "
            f"({data['edges_scanned']:,} edges scanned)",
            f"  {'stage':<10} {'host':>12} {'sim':>12} {'host s/sim s':>14}",
        ]
        stages: Dict[str, Dict[str, float]] = data["stages"]  # type: ignore[assignment]
        for name, entry in sorted(
            stages.items(), key=lambda kv: (-kv[1]["host_seconds"], kv[0])
        ):
            # A near-zero simulated denominator makes the ratio noise
            # (pure-host work like staging glue); print "-" instead.
            ratio = (
                f"{entry['host_seconds_per_sim_second']:.3e}"
                if entry["sim_seconds"] > 1e-9
                else "-"
            )
            lines.append(
                f"  {name:<10} {format_seconds(entry['host_seconds']):>12} "
                f"{format_seconds(entry['sim_seconds']):>12} "
                f"{ratio:>14}"
            )
        return lines

    def _query_section(self, q: QueryProfile, width: int) -> List[str]:
        lines = [
            f"query #{q.index}: engine={q.engine} algorithm={q.algorithm} "
            f"graph={q.graph} "
            f"duration={format_seconds(q.duration)} "
            f"iterations={len(q.iterations)}",
        ]
        header = (
            f"  {'iter':>4} {'frontier':>10} {'edges':>12} "
            f"{'scatter':>10} {'gather':>10} {'shuffle':>10} "
            f"{'other':>10} {'total':>10}"
        )
        lines.append(header)
        for it in q.iterations:
            b = it.breakdown()
            lines.append(
                f"  {it.iteration:>4} {it.frontier:>10} {it.edges_scanned:>12} "
                f"{format_seconds(b.get('scatter', 0.0)):>10} "
                f"{format_seconds(b.get('gather', 0.0)):>10} "
                f"{format_seconds(b.get('shuffle', 0.0)):>10} "
                f"{format_seconds(b['other']):>10} "
                f"{format_seconds(it.duration):>10}"
            )
        lines.append("  critical path (stage seconds, dominant first):")
        for name, secs in q.critical_path():
            if secs <= 0:
                continue
            share = secs / q.duration if q.duration > 0 else 0.0
            lines.append(
                f"    {name:<10} {format_seconds(secs):>10}  {share:6.1%}"
            )
        st = q.stay
        if st.flushes or st.cancelled_total:
            lines.append(
                f"  stay stream: {st.flushes} flushes "
                f"({format_bytes(st.bytes)}, {st.records} records), "
                f"{st.cancellations} cancelled mid-run, "
                f"{st.end_of_run_discards} discarded at end of run"
            )
            lines.append(
                f"    flush time {format_seconds(st.flush_time)}: "
                f"{format_seconds(st.hidden_time)} hidden under scatter "
                f"({st.hidden_fraction:.1%}), "
                f"{format_seconds(st.exposed_time)} exposed"
            )
        util = q.lane_utilization()
        if util:
            lines.append("  lane utilization (busy share of query window):")
            label_width = max(12, *map(len, util))
            for name, frac in sorted(
                util.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"    {name:<{label_width}} {frac:6.1%}")
        lanes = q.lanes()
        if lanes and q.duration > 0:
            lines.append(
                render_lanes(
                    f"  query #{q.index} lanes",
                    lanes,
                    q.span.start,
                    q.span.end,
                    width=max(10, width - 20),
                )
            )
        return lines


def profile_trace(
    source,
    registry: Optional[CounterRegistry] = None,
    report=None,
) -> TraceProfile:
    """Analyze a span trace from any source (path, tracer, machine, list).

    ``registry`` joins per-device I/O counters into the report;
    ``report`` additionally enables :meth:`TraceProfile.reconcile` (and,
    when no registry is given, rebuilds one from the report itself).
    """
    return TraceProfile(load_spans(source), registry=registry, report=report)


__all__ = [
    "STAGE_NAMES",
    "ProfileError",
    "load_spans",
    "SPAN_LANE_ORDER",
    "render_lanes",
    "span_lanes",
    "device_lanes",
    "render_device_gantt",
    "IterationBreakdown",
    "StayAccounting",
    "QueryProfile",
    "TraceProfile",
    "profile_trace",
]
