"""Exporters for traces and counters (JSONL spans, Prometheus text).

Two formats, both plain text, both round-trippable so tests can lock the
schemas down:

* **JSONL span trace** — one JSON object per line, each a
  :meth:`Span.to_dict` payload (``span_id``, ``parent_id``, ``name``,
  ``start``, ``end``, ``attrs``).  Loadable into any trace viewer with a
  ten-line adapter, and greppable as-is.
* **Prometheus-style text snapshot** — ``name{label="v",...} value``
  lines, sorted, with ``# TYPE`` headers.  Values are printed with
  ``repr`` so ``parse_prometheus(to_prometheus(reg)) == reg`` holds
  bit-for-bit for every float the simulation can produce.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Tuple, Union

from repro.errors import ReproError
from repro.obs.counters import CounterRegistry, Histogram
from repro.obs.tracer import Span, Tracer

#: Keys every JSONL trace line must carry, in emission order.
SPAN_SCHEMA = ("span_id", "parent_id", "name", "start", "end", "attrs")

#: Content type of the text exposition format `to_prometheus` emits
#: (what a scraper expects on a ``/metrics`` endpoint).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4"

#: Quantiles summarized alongside every histogram family, both in the
#: exposition text (``name{...,quantile="0.95"}`` lines) and in the
#: serving layer's stats/timeseries payloads.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class ExportError(ReproError):
    """Raised on malformed trace/metrics payloads."""


# ----------------------------------------------------------------------
# JSONL span traces
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: Union[Tracer, Iterable[Span]]) -> str:
    """Serialize spans (or a whole tracer, ``io`` spans last) to JSONL text."""
    if isinstance(spans, Tracer):
        spans = spans.export()
    lines = [json.dumps(sp.to_dict(), sort_keys=True) for sp in spans]
    return "\n".join(lines) + ("\n" if lines else "")


def write_spans_jsonl(spans: Union[Tracer, Iterable[Span]], path: str) -> int:
    """Write a JSONL trace file; returns the number of spans written."""
    text = spans_to_jsonl(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text.count("\n")


def parse_spans_jsonl(text: str) -> List[Span]:
    """Rebuild :class:`Span` objects from JSONL text (schema-checked)."""
    out: List[Span] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ExportError(f"trace line {lineno} is not JSON: {exc}") from None
        missing = [k for k in SPAN_SCHEMA if k not in obj]
        if missing:
            raise ExportError(
                f"trace line {lineno} missing keys {missing} (schema {SPAN_SCHEMA})"
            )
        out.append(
            Span(
                span_id=int(obj["span_id"]),
                parent_id=obj["parent_id"],
                name=str(obj["name"]),
                start=float(obj["start"]),
                end=float(obj["end"]),
                attrs=dict(obj["attrs"]),
                # Host stamps are optional: only dual-clock (hostprof)
                # traces carry them, and they round-trip when present.
                host_start=float(obj.get("host_start", -1.0)),
                host_end=float(obj.get("host_end", -1.0)),
            )
        )
    return out


def read_spans_jsonl(path: str) -> List[Span]:
    """Read a JSONL trace file; an unreadable path is an :class:`ExportError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ExportError(f"cannot read trace {path}: {exc.strerror}") from None
    return parse_spans_jsonl(text)


# ----------------------------------------------------------------------
# Prometheus-style text snapshots
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label(value: str) -> str:
    out: List[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def _format_value(value: float) -> str:
    # repr() round-trips floats exactly; print integral values as ints
    # for readability (they parse back to the same float).
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def _series_line(name: str, labels: dict, value: float) -> str:
    if labels:
        body = ",".join(
            f'{k}="{_escape_label(str(v))}"' for k, v in sorted(labels.items())
        )
        return f"{name}{{{body}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def to_prometheus(registry: CounterRegistry) -> str:
    """Render a registry as Prometheus exposition text (sorted, typed).

    Scalar series come first (``counter`` iff the name ends in ``_total``,
    else ``gauge``), then histogram families: cumulative
    ``<name>_bucket{le="..."}`` lines plus ``<name>_sum``/``<name>_count``
    under a ``# TYPE <name> histogram`` header, followed by derived
    ``<name>{...,quantile="..."}`` summary lines (p50/p95/p99, see
    :data:`SUMMARY_QUANTILES`).  The quantile lines are informational —
    :func:`parse_prometheus` skips them because the bucket lines already
    carry the full distribution — so the round-trip stays exact.
    """
    lines: List[str] = []
    last_name = None
    for name, labels, value in registry.items():
        if name != last_name:
            kind = "counter" if name.endswith("_total") else "gauge"
            lines.append(f"# TYPE {name} {kind}")
            last_name = name
        lines.append(_series_line(name, labels, value))
    last_name = None
    for name, labels, hist in registry.histograms():
        if name != last_name:
            lines.append(f"# TYPE {name} histogram")
            last_name = name
        for bound, cum in hist.cumulative():
            le_labels = dict(labels)
            le_labels["le"] = _format_value(bound)
            lines.append(_series_line(f"{name}_bucket", le_labels, cum))
        lines.append(_series_line(f"{name}_sum", labels, hist.sum))
        lines.append(_series_line(f"{name}_count", labels, hist.count))
        for q in SUMMARY_QUANTILES:
            q_labels = dict(labels)
            q_labels["quantile"] = _format_value(q)
            lines.append(_series_line(name, q_labels, hist.quantile(q)))
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: CounterRegistry, path: str) -> int:
    """Write a metrics snapshot; returns the number of series written."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_prometheus(registry))
    return len(registry)


def parse_prometheus(text: str) -> CounterRegistry:
    """Parse exposition text back into a :class:`CounterRegistry`.

    Inverse of :func:`to_prometheus`; tolerant of any label ordering
    within a series.  Families declared ``# TYPE <name> histogram`` are
    reassembled from their ``_bucket``/``_sum``/``_count`` lines back into
    :class:`Histogram` series (so the round-trip is exact); all other
    ``# TYPE``/comment lines are skipped.
    """
    reg = CounterRegistry()
    hist_names: set = set()
    partial: Dict[Tuple[str, tuple], Dict[str, object]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) == 4 and parts[1] == "TYPE" and parts[3] == "histogram":
                hist_names.add(parts[2])
            continue
        try:
            if "{" in line:
                name, rest = line.split("{", 1)
                body, tail = rest.rsplit("}", 1)
                value = float(tail.strip())
                labels = _parse_labels(body, lineno)
            else:
                name, tail = line.rsplit(" ", 1)
                value = float(tail)
                labels = {}
        except (ValueError, ExportError) as exc:
            raise ExportError(f"metrics line {lineno} malformed: {exc}") from None
        name = name.strip()
        if name in hist_names and "quantile" in labels:
            # Derived p50/p95/p99 summary line for a histogram family;
            # the bucket lines carry the full distribution, so folding
            # these in would double-count.
            continue
        base, part = _histogram_part(name, hist_names)
        if base is None:
            reg.inc(name, value, **labels)
            continue
        if part == "bucket":
            try:
                le = float(labels.pop("le"))
            except KeyError:
                raise ExportError(
                    f"metrics line {lineno}: histogram bucket without le label"
                ) from None
        entry = partial.setdefault(
            (base, tuple(sorted(labels.items()))),
            {"cum": [], "sum": 0.0, "count": 0.0},
        )
        if part == "bucket":
            entry["cum"].append((le, value))  # type: ignore[union-attr]
        else:
            entry[part] = value
    for (base, label_items), entry in partial.items():
        reg.add_histogram(
            base, _rebuild_histogram(base, entry), **dict(label_items)
        )
    return reg


def _histogram_part(name: str, hist_names: set):
    """(family, 'bucket'|'sum'|'count') when ``name`` belongs to one."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[: -len(suffix)] in hist_names:
            return name[: -len(suffix)], suffix[1:]
    return None, None


def _rebuild_histogram(name: str, entry: Dict[str, object]) -> Histogram:
    """Invert :meth:`Histogram.cumulative` for one parsed series."""
    cum = sorted(entry["cum"])  # type: ignore[arg-type]
    if not cum or not math.isinf(cum[-1][0]):
        raise ExportError(f"histogram {name!r} has no +Inf bucket")
    bounds = [le for le, _ in cum[:-1]]
    if not bounds:
        raise ExportError(f"histogram {name!r} has no finite buckets")
    hist = Histogram(bounds)
    counts = []
    prev = 0.0
    for _, running in cum:
        counts.append(running - prev)
        prev = running
    hist.counts = counts
    hist.sum = float(entry["sum"])  # type: ignore[arg-type]
    hist.count = float(entry["count"])  # type: ignore[arg-type]
    return hist


def _parse_labels(body: str, lineno: int) -> dict:
    labels: dict = {}
    i = 0
    n = len(body)
    while i < n:
        eq = body.index("=", i)
        key = body[i:eq].strip().lstrip(",").strip()
        if body[eq + 1] != '"':
            raise ExportError(f'label value for {key!r} not quoted (line {lineno})')
        j = eq + 2
        raw: List[str] = []
        while j < n:
            ch = body[j]
            if ch == "\\":
                raw.append(body[j : j + 2])
                j += 2
                continue
            if ch == '"':
                break
            raw.append(ch)
            j += 1
        else:
            raise ExportError(f"unterminated label value (line {lineno})")
        labels[key] = _unescape_label("".join(raw))
        i = j + 1
    return labels


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "SPAN_SCHEMA",
    "SUMMARY_QUANTILES",
    "ExportError",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "parse_spans_jsonl",
    "read_spans_jsonl",
    "to_prometheus",
    "write_prometheus",
    "parse_prometheus",
]
