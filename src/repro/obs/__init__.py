"""Structured observability: simulated-clock spans, counters, exporters.

The subsystem has three parts, deliberately decoupled:

* :mod:`repro.obs.tracer` — :class:`Tracer`/:class:`Span`, a nested span
  tree timed on the :class:`~repro.sim.clock.SimClock` (with a shared
  no-op :data:`NULL_TRACER` so untraced runs allocate nothing);
* :mod:`repro.obs.counters` — :class:`CounterRegistry`, labelled counters
  sampled from the storage layer and reconciled bit-for-bit against
  :class:`~repro.storage.machine.IOReport`;
* :mod:`repro.obs.exporters` — JSONL span traces and Prometheus-style
  text snapshots, both round-trippable;
* :mod:`repro.obs.profile` — trace analysis (per-iteration stage
  breakdowns, stay-write overlap, per-device I/O attribution) and the
  one Gantt renderer (span lanes, and device lanes from ``io`` spans);
* :mod:`repro.obs.bench` — benchmark snapshots and the regression gate;
* :mod:`repro.obs.hostprof` — the dual-clock host profiler: the one
  sanctioned wall-clock choke point (:class:`HostClock`), bindable to a
  tracer for per-stage ``host_seconds_per_sim_second`` attribution;
* :mod:`repro.obs.timeseries` — bounded ring of windowed serving metrics
  (RPS, queue depth, latency quantiles) behind ``/debug/timeseries``.

See docs/observability.md for the span taxonomy and counter catalogue,
and docs/profiling.md for the profile report and snapshot schema.
"""

from repro.obs.counters import (
    DEFAULT_DURATION_BUCKETS,
    CounterRegistry,
    Histogram,
)
from repro.obs.exporters import (
    SPAN_SCHEMA,
    SUMMARY_QUANTILES,
    ExportError,
    parse_prometheus,
    parse_spans_jsonl,
    read_spans_jsonl,
    spans_to_jsonl,
    to_prometheus,
    write_prometheus,
    write_spans_jsonl,
)
from repro.obs.hostprof import HOST_CLOCK, HostClock, ManualHostClock
from repro.obs.profile import (
    ProfileError,
    QueryProfile,
    TraceProfile,
    load_spans,
    profile_trace,
    render_device_gantt,
)
from repro.obs.timeseries import TimeSeries, quantile_summary
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, TraceError, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "TraceError",
    "CounterRegistry",
    "DEFAULT_DURATION_BUCKETS",
    "Histogram",
    "SPAN_SCHEMA",
    "ExportError",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "parse_spans_jsonl",
    "read_spans_jsonl",
    "to_prometheus",
    "write_prometheus",
    "parse_prometheus",
    "ProfileError",
    "QueryProfile",
    "TraceProfile",
    "load_spans",
    "profile_trace",
    "render_device_gantt",
    "HOST_CLOCK",
    "HostClock",
    "ManualHostClock",
    "SUMMARY_QUANTILES",
    "TimeSeries",
    "quantile_summary",
]
