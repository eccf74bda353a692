"""Rolling time-series of serving metrics: a fixed-size ring of windows.

``/metrics`` is a point-in-time snapshot — perfect for reconciliation,
useless for "what happened over the last minute".  This module keeps the
operational view: a bounded ring of fixed-width time windows, each
aggregating the per-request and per-flush samples the admission
controller already emits — request rate, error count, queue depth,
queue-wait and (simulated) service-time distributions per graph — ready
to serve as JSON from ``GET /debug/timeseries`` and to render in
``repro top``.

Design rules:

* **Bounded.**  The ring holds at most :data:`CAPACITY` windows
  (:class:`collections.deque` with ``maxlen``); a server that runs for a
  week holds exactly as much telemetry as one that ran for an hour.
* **No lock of its own.**  The ring's owner serializes every call: the
  service records into it and snapshots it under the one lock that
  keeps its books (counters, request ring, time series).
* **No wall-clock reads of its own.**  Window placement needs host time,
  which is taken through a :class:`~repro.obs.hostprof.HostClock` handle
  (default: the shared :data:`~repro.obs.hostprof.HOST_CLOCK`) — the
  sanctioned choke point of analyzer rule FB207.  Tests inject a
  :class:`~repro.obs.hostprof.ManualHostClock` and step windows
  deterministically.
* **Distributions, not averages.**  Queue wait and service time are
  :class:`~repro.obs.counters.Histogram` series per (window, graph);
  :meth:`snapshot` derives p50/p95/p99 via :meth:`Histogram.quantile`
  (:data:`~repro.obs.exporters.SUMMARY_QUANTILES`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.obs.counters import DEFAULT_DURATION_BUCKETS, Histogram
from repro.obs.exporters import SUMMARY_QUANTILES
from repro.obs.hostprof import HOST_CLOCK, HostClock

#: Bucket bounds for host-side queue-wait seconds (sub-millisecond to
#: multi-second backlog under load); +Inf is implicit.
WAIT_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0
)

#: Window width (seconds) and ring capacity: ten minutes of history at
#: five-second resolution.
WINDOW_SECONDS = 5.0
CAPACITY = 120


class _GraphWindow:
    """One graph's aggregates inside one time window."""

    __slots__ = (
        "requests", "errors", "flushes", "flushed_queries",
        "queue_depth_last", "queue_depth_max", "queue_wait", "service_time",
    )

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.flushes = 0
        self.flushed_queries = 0
        self.queue_depth_last = 0
        self.queue_depth_max = 0
        self.queue_wait = Histogram(WAIT_BUCKETS)
        self.service_time = Histogram(DEFAULT_DURATION_BUCKETS)


class _Window:
    """One ring slot: window index plus per-graph aggregates."""

    __slots__ = ("index", "graphs")

    def __init__(self, index: int) -> None:
        self.index = index
        self.graphs: Dict[str, _GraphWindow] = {}

    def graph(self, name: str) -> _GraphWindow:
        gw = self.graphs.get(name)
        if gw is None:
            gw = self.graphs[name] = _GraphWindow()
        return gw


def quantile_summary(hist: Optional[Histogram]) -> Dict[str, float]:
    """count/sum/p50/p95/p99 summary of a histogram (zeros when absent)."""
    if hist is None:
        out: Dict[str, float] = {"count": 0.0, "sum": 0.0}
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = 0.0
        return out
    out = {"count": hist.count, "sum": hist.sum}
    for q in SUMMARY_QUANTILES:
        out[f"p{int(q * 100)}"] = hist.quantile(q)
    return out


class TimeSeries:
    """Bounded ring of windowed serving-metric aggregates.

    Not thread-safe by itself: the HTTP threads and flush leaders that
    record into one ring go through its owner's lock.  Windows are placed
    on a fixed grid anchored at the clock's value when the ring was
    created, so a quiet server simply has gaps (missing indices) rather
    than empty windows.
    """

    def __init__(self, clock: Optional[HostClock] = None) -> None:
        self._clock = clock if clock is not None else HOST_CLOCK
        self._origin = self._clock.now()
        self._ring: "deque[_Window]" = deque(maxlen=CAPACITY)

    # ------------------------------------------------------------------
    def _current(self) -> _Window:
        """The window covering *now*, rolling the ring forward if needed."""
        idx = int((self._clock.now() - self._origin) // WINDOW_SECONDS)
        if not self._ring or self._ring[-1].index != idx:
            self._ring.append(_Window(idx))
        return self._ring[-1]

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record_request(
        self,
        graph: str,
        queue_wait: float = 0.0,
        service_time: float = 0.0,
        error: bool = False,
    ) -> None:
        """Record one finished request.

        ``queue_wait`` is host seconds spent in the admission queue;
        ``service_time`` is the request's *simulated* query seconds (what
        the ``X-Sim-Execution-Seconds`` header reports).  Errors count toward
        ``errors`` but not into the latency histograms (a 429 has no
        meaningful service time).
        """
        gw = self._current().graph(graph)
        gw.requests += 1
        if error:
            gw.errors += 1
            return
        gw.queue_wait.observe(queue_wait)
        gw.service_time.observe(service_time)

    def record_flush(self, graph: str, flushes: int = 1, queries: int = 0) -> None:
        """Record admission flushes (``queries`` = coalesced roots served)."""
        gw = self._current().graph(graph)
        gw.flushes += int(flushes)
        gw.flushed_queries += int(queries)

    def sample_depth(self, graph: str, depth: int) -> None:
        """Record an admission-queue depth observation."""
        gw = self._current().graph(graph)
        gw.queue_depth_last = int(depth)
        gw.queue_depth_max = max(gw.queue_depth_max, int(depth))

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def snapshot(self, windows: Optional[int] = None) -> Dict[str, object]:
        """JSON-serializable view of the ring, oldest window first.

        Each window entry carries its grid ``index``, its ``start``
        offset in seconds since the ring's origin, and per-graph
        aggregates with derived ``rps`` and p50/p95/p99 summaries.
        ``windows`` limits the view to the newest N windows (none for
        N <= 0).
        """
        slots = list(self._ring)
        now = self._clock.now() - self._origin
        if windows is not None:
            slots = slots[-int(windows):] if int(windows) > 0 else []
        out_windows: List[Dict[str, object]] = []
        for slot in slots:
            graphs: Dict[str, object] = {}
            for name in sorted(slot.graphs):
                gw = slot.graphs[name]
                graphs[name] = {
                    "requests": gw.requests,
                    "errors": gw.errors,
                    "rps": gw.requests / WINDOW_SECONDS,
                    "flushes": gw.flushes,
                    "flushed_queries": gw.flushed_queries,
                    "queue_depth_last": gw.queue_depth_last,
                    "queue_depth_max": gw.queue_depth_max,
                    "queue_wait": quantile_summary(gw.queue_wait),
                    "service_time": quantile_summary(gw.service_time),
                }
            out_windows.append(
                {
                    "index": slot.index,
                    "start": slot.index * WINDOW_SECONDS,
                    "graphs": graphs,
                }
            )
        return {
            "window_seconds": WINDOW_SECONDS,
            "capacity": CAPACITY,
            "now": now,
            "windows": out_windows,
        }

    def __len__(self) -> int:
        return len(self._ring)


__all__ = [
    "CAPACITY",
    "quantile_summary",
    "TimeSeries",
    "WAIT_BUCKETS",
    "WINDOW_SECONDS",
]
