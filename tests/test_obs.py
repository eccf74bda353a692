"""Observability subsystem tests (repro.obs).

Four contracts are locked down here:

* the **golden JSONL schema** — every trace line carries exactly
  ``SPAN_SCHEMA`` and round-trips through the parser;
* **span nesting invariants** — children lie inside their parents in
  simulated time, and iteration spans cover their scatter/gather/shuffle
  children;
* **no-op tracer** — an untraced machine holds the shared null tracer
  (that a traced run, serial or batched, is bit-for-bit the untraced one
  is the contract matrix's ``traced`` column, ``tests/test_contracts.py``);
* **Prometheus round-trip** — ``parse_prometheus(to_prometheus(reg))``
  reproduces the registry exactly, including escaped labels and floats.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.api import run_bfs, run_queries
from repro.core.engine import FastBFSEngine
from repro.graph.generators import random_graph
from repro.obs import (
    NULL_TRACER,
    SPAN_SCHEMA,
    CounterRegistry,
    Histogram,
    NullTracer,
    Span,
    TraceError,
    Tracer,
    parse_prometheus,
    parse_spans_jsonl,
    read_spans_jsonl,
    spans_to_jsonl,
    to_prometheus,
    write_prometheus,
    write_spans_jsonl,
)
from repro.sim.clock import SimClock
from tests.helpers import fresh_machine, hub_root, small_fastbfs_config


def traced_run(graph, config=None, num_disks=2):
    """One traced out-of-core run; returns (result, machine, tracer)."""
    machine = fresh_machine(num_disks=num_disks)
    tracer = Tracer()
    machine.attach_tracer(tracer)
    cfg = config if config is not None else small_fastbfs_config()
    result = FastBFSEngine(cfg).run(graph, machine, root=hub_root(graph))
    return result, machine, tracer


@pytest.fixture(scope="module")
def traced():
    graph = random_graph(600, 5000, seed=21)
    return traced_run(graph)


# ----------------------------------------------------------------------
# Tracer unit behaviour
# ----------------------------------------------------------------------
class TestTracer:
    def make(self):
        clock = SimClock()
        return clock, Tracer().bind_clock(clock)

    def test_nested_spans_record_parent_and_times(self):
        clock, tracer = self.make()
        with tracer.span("outer") as outer:
            clock.charge_compute(1.0)
            with tracer.span("inner", k=1) as inner:
                clock.charge_compute(0.5)
        assert outer.span_id == 1 and inner.parent_id == 1
        assert outer.start == 0.0 and inner.start == 1.0
        assert inner.end == 1.5 and outer.end == 1.5
        assert inner.attrs == {"k": 1}
        assert tracer.depth == 0

    def test_unbound_tracer_raises(self):
        with pytest.raises(TraceError):
            Tracer().span("x")

    def test_out_of_order_close_raises(self):
        _, tracer = self.make()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__(), inner.__enter__()
        with pytest.raises(TraceError):
            outer.__exit__(None, None, None)

    def test_emit_rejects_negative_duration(self):
        _, tracer = self.make()
        with pytest.raises(TraceError):
            tracer.emit("bad", start=2.0, end=1.0)

    def test_emit_records_completed_span_under_explicit_parent(self):
        clock, tracer = self.make()
        with tracer.span("query"):
            anchor = tracer.current_id
            clock.charge_compute(3.0)
        sp = tracer.emit("stay_flush", start=0.5, end=2.5, parent_id=anchor, p=3)
        assert sp.parent_id == anchor and sp.finished
        assert [s for s in tracer.spans if s.parent_id == anchor] == [sp]

    def test_null_tracer_is_a_shared_noop(self):
        null = NullTracer()
        assert not null.enabled and not NULL_TRACER.enabled
        ctx = null.span("anything", k=1)
        with ctx as sp:
            assert sp.set(a=2) is sp
        assert null.emit("x", 0.0, 1.0) is None
        null.record_request("hdd0", object())
        assert null.io_spans() == []
        assert null.current_id is None
        assert len(null) == 0
        assert null.span("a") is NULL_TRACER.span("b")  # no per-span alloc


# ----------------------------------------------------------------------
# Golden JSONL schema
# ----------------------------------------------------------------------
class TestJsonlGoldenSchema:
    def test_every_line_carries_exactly_the_schema(self, traced, tmp_path):
        _, _, tracer = traced
        path = tmp_path / "trace.jsonl"
        count = write_spans_jsonl(tracer, str(path))
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.export()) > len(tracer.spans) > 0
        for line in lines:
            obj = json.loads(line)
            assert set(obj) == set(SPAN_SCHEMA)
            assert isinstance(obj["span_id"], int)
            assert obj["parent_id"] is None or isinstance(obj["parent_id"], int)
            assert isinstance(obj["name"], str)
            assert isinstance(obj["attrs"], dict)
            assert float(obj["end"]) >= float(obj["start"]) >= 0.0

    def test_round_trip_preserves_every_span(self, traced, tmp_path):
        _, _, tracer = traced
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(tracer, str(path))
        back = read_spans_jsonl(str(path))
        assert [s.to_dict() for s in back] == [s.to_dict() for s in tracer.export()]

    def test_parse_rejects_missing_keys(self):
        line = json.dumps({"span_id": 1, "name": "x"})
        with pytest.raises(Exception):
            parse_spans_jsonl(line + "\n")

    def test_spans_to_jsonl_accepts_plain_span_lists(self):
        spans = [Span(span_id=1, parent_id=None, name="a", start=0.0, end=1.0)]
        assert parse_spans_jsonl(spans_to_jsonl(spans))[0].to_dict() == spans[0].to_dict()


# ----------------------------------------------------------------------
# Span nesting invariants
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_all_spans_finished(self, traced):
        _, _, tracer = traced
        assert all(s.finished for s in tracer.spans)

    def test_children_lie_inside_their_parents(self, traced):
        _, _, tracer = traced
        by_id = {s.span_id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.parent_id is None:
                continue
            parent = by_id[s.parent_id]
            assert parent.span_id < s.span_id
            assert parent.start <= s.start, (parent.name, s.name)
            assert s.end <= parent.end, (parent.name, s.name)

    def test_expected_taxonomy_present(self, traced):
        _, _, tracer = traced
        names = {s.name for s in tracer.spans}
        assert {"stage", "query", "iteration", "scatter", "gather",
                "shuffle"} <= names

    def test_iteration_spans_cover_scatter_and_gather(self, traced):
        _, _, tracer = traced
        by_id = {s.span_id: s for s in tracer.spans}
        phase_spans = [s for s in tracer.spans
                       if s.name in ("scatter", "gather", "shuffle")]
        assert phase_spans
        for s in phase_spans:
            parent = by_id[s.parent_id]
            assert parent.name == "iteration"
            assert parent.start <= s.start and s.end <= parent.end

    def test_iterations_nest_in_the_query_span(self, traced):
        _, _, tracer = traced
        (query,) = tracer.find("query")
        for it in tracer.find("iteration"):
            assert it.parent_id == query.span_id
        assert query.attrs["iterations"] == len(tracer.find("iteration"))

    def test_stay_spans_anchor_to_the_query_and_match_stats(self):
        graph = random_graph(500, 4000, seed=5)
        result, _, tracer = traced_run(
            graph, small_fastbfs_config(trim_start_iteration=0,
                                        cancellation_grace=0.002),
        )
        (query,) = tracer.find("query")
        flushes = tracer.find("stay_flush")
        cancels = tracer.find("stay_cancel")
        assert len(flushes) == int(result.extras["stay_swaps"])
        assert len(cancels) == (
            int(result.extras["stay_cancellations"])
            + int(result.extras["stay_end_of_run_discards"])
        )
        for s in flushes + cancels:
            assert s.parent_id == query.span_id
            assert query.start <= s.start and s.end <= query.end

    def test_batch_records_one_query_span_per_root(self):
        graph = random_graph(300, 2000, seed=8)
        machine = fresh_machine(num_disks=1)
        tracer = Tracer()
        machine.attach_tracer(tracer)
        FastBFSEngine(small_fastbfs_config()).run_many(
            graph, machine, roots=[0, 7, 19]
        )
        assert len(tracer.find("query")) == 3
        assert len(tracer.find("stage")) == 1


class TestBatchedSpanNesting:
    """Batched mode: one query span per batch with query_slot markers.

    The nesting invariants are *extended* for MS-BFS, not relaxed: every
    iteration span still nests in a query span, and each batch's span
    additionally carries ``batch``/``batch_size`` attributes plus one
    zero-width ``query_slot`` child per packed query.
    """

    @pytest.fixture(scope="class")
    def batched(self):
        graph = random_graph(300, 2000, seed=8)
        machine = fresh_machine(num_disks=1)
        tracer = Tracer()
        machine.attach_tracer(tracer)
        batch = FastBFSEngine(small_fastbfs_config()).run_many(
            graph, machine, roots=[0, 7, 19], mode="batched"
        )
        assert batch.mode == "batched"
        return batch, machine, tracer

    def test_one_query_span_per_batch_with_batch_attrs(self, batched):
        batch, _, tracer = batched
        queries = tracer.find("query")
        assert len(queries) == 1  # 3 roots pack into one 64-wide batch
        (span,) = queries
        assert span.attrs["batch"] == 0
        assert span.attrs["batch_size"] == 3
        assert span.attrs["iterations"] == len(tracer.find("iteration"))

    def test_iterations_nest_in_the_batch_query_span(self, batched):
        _, _, tracer = batched
        (query,) = tracer.find("query")
        iterations = tracer.find("iteration")
        assert iterations
        for it in iterations:
            assert it.parent_id == query.span_id
            assert query.start <= it.start and it.end <= query.end

    def test_one_query_slot_marker_per_packed_query(self, batched):
        batch, _, tracer = batched
        (query,) = tracer.find("query")
        slots = tracer.find("query_slot")
        assert len(slots) == 3
        for q, slot in enumerate(sorted(slots, key=lambda s: s.attrs["query_slot"])):
            assert slot.parent_id == query.span_id
            assert slot.start == slot.end  # zero-width marker
            assert query.start <= slot.start <= query.end
            assert slot.attrs["batch"] == 0
            assert slot.attrs["query_slot"] == q
            assert slot.attrs["iterations"] == batch.queries[q].num_iterations

    def test_children_lie_inside_their_parents(self, batched):
        _, _, tracer = batched
        by_id = {s.span_id: s for s in tracer.spans}
        for s in tracer.spans:
            if s.parent_id is None:
                continue
            parent = by_id[s.parent_id]
            assert parent.start <= s.start and s.end <= parent.end

    def test_counters_reconcile_with_the_report_in_batched_mode(self, batched):
        batch, machine, _ = batched
        registry = CounterRegistry.from_machine(machine)
        errors = registry.reconcile(machine.report())
        assert errors == []
        # Every query of the batch shares the batch's delta report, and a
        # report-derived registry reconciles with it bit-for-bit.
        for q in batch.queries:
            assert CounterRegistry.from_report(q.report).reconcile(q.report) == []


# ----------------------------------------------------------------------
# No-op-tracer equivalence (tracing is free in simulated time)
# ----------------------------------------------------------------------
class TestNoopEquivalence:
    def test_untraced_machine_defaults_to_the_shared_null_tracer(self):
        machine = fresh_machine()
        assert machine.tracer is NULL_TRACER


# ----------------------------------------------------------------------
# Engine counters folded from a result
# ----------------------------------------------------------------------
ITERATION_FIELDS = (
    "edges_scanned",
    "updates_generated",
    "partitions_processed",
    "partitions_skipped",
    "edges_eliminated",
)


class TestIngestResult:
    def test_result_without_iterations_creates_no_iteration_series(self, traced):
        result, _, _ = traced
        empty = dataclasses.replace(result, iterations=[], extras={})
        registry = CounterRegistry().ingest_result(empty)
        expected = CounterRegistry()
        expected.set("engine_iterations_total", 0.0, engine=result.engine)
        assert registry == expected

    def test_totals_are_the_per_iteration_sums(self, traced):
        result, _, _ = traced
        assert len(result.iterations) > 1
        registry = CounterRegistry().ingest_result(result).ingest_result(result)
        per_iteration = CounterRegistry()
        for _ in range(2):
            for it in result.iterations:
                for field in ITERATION_FIELDS:
                    per_iteration.inc(
                        f"engine_{field}_total", getattr(it, field),
                        engine=result.engine,
                    )
        for field in ITERATION_FIELDS:
            name = f"engine_{field}_total"
            want = 2 * sum(getattr(it, field) for it in result.iterations)
            assert registry.get(name, engine=result.engine) == want
            assert registry.get(name, engine=result.engine) == per_iteration.get(
                name, engine=result.engine
            )


# ----------------------------------------------------------------------
# Prometheus snapshot round-trip
# ----------------------------------------------------------------------
class TestPrometheusRoundTrip:
    def test_real_run_round_trips_exactly(self, traced, tmp_path):
        result, machine, _ = traced
        registry = CounterRegistry.from_machine(machine).ingest_result(result)
        assert len(registry) > 0
        assert parse_prometheus(to_prometheus(registry)) == registry

    def test_write_read_file(self, traced, tmp_path):
        _, machine, _ = traced
        registry = CounterRegistry.from_machine(machine)
        path = tmp_path / "metrics.prom"
        assert write_prometheus(registry, str(path)) == len(registry)
        assert parse_prometheus(path.read_text()) == registry

    def test_labels_with_escapes_round_trip(self):
        reg = CounterRegistry()
        reg.inc("weird_total", 1.5, path='a"b\\c', note="line\nbreak")
        reg.set("plain_gauge", 7.0)
        assert parse_prometheus(to_prometheus(reg)) == reg

    def test_awkward_floats_round_trip(self):
        reg = CounterRegistry()
        reg.set("tiny", 0.1 + 0.2)                 # 0.30000000000000004
        reg.set("huge_total", 2.0**53 + 2.0)
        reg.set("negative", -3.75)
        assert parse_prometheus(to_prometheus(reg)) == reg

    def test_type_headers(self):
        reg = CounterRegistry()
        reg.inc("x_total", 2, device="d0")
        reg.set("y_resident", 4.0)
        text = to_prometheus(reg)
        assert "# TYPE x_total counter" in text
        assert "# TYPE y_resident gauge" in text
        assert 'x_total{device="d0"} 2' in text  # integral values print as ints


# ----------------------------------------------------------------------
# Histograms (span-duration distributions) and their Prometheus form
# ----------------------------------------------------------------------
class TestHistograms:
    def test_observe_uses_le_bucketing(self):
        h = Histogram((1.0, 10.0))
        for v in (0.5, 1.0, 2.0, 100.0):
            h.observe(v)
        # le semantics: 1.0 lands in the first bucket, 100.0 overflows.
        assert h.counts == [2.0, 1.0, 1.0]
        assert h.count == 4.0 and h.sum == 103.5
        assert h.cumulative() == [(1.0, 2.0), (10.0, 3.0), (float("inf"), 4.0)]

    def test_bucket_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram((1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(())

    def test_registry_observe_fixes_buckets(self):
        reg = CounterRegistry()
        reg.observe("h", 0.5, buckets=(1.0, 2.0), stage="scatter")
        with pytest.raises(ValueError):
            reg.observe("h", 0.5, buckets=(1.0, 3.0), stage="scatter")
        assert reg.histogram("h", stage="scatter").count == 1.0
        assert len(reg) == 1

    def test_ingest_spans_builds_per_stage_series(self, traced):
        _, _, tracer = traced
        reg = CounterRegistry().ingest_spans(tracer)
        names = {sp.name for sp in tracer.spans}
        for name in names:
            hist = reg.histogram("span_duration_seconds", stage=name)
            assert hist is not None
            assert hist.count == sum(
                1 for sp in tracer.spans if sp.name == name
            )
        total = sum(h.count for _, _, h in reg.histograms())
        assert total == len(tracer.spans)

    def test_prometheus_round_trips_histograms_exactly(self, traced):
        _, _, tracer = traced
        reg = CounterRegistry().ingest_spans(tracer)
        reg.inc("device_bytes_total", 42.0, device="hdd0", kind="read",
                role="edges")
        assert parse_prometheus(to_prometheus(reg)) == reg

    def test_prometheus_histogram_exposition_format(self):
        reg = CounterRegistry()
        reg.observe("lat_seconds", 0.5, buckets=(1.0, 10.0), stage="scatter")
        reg.observe("lat_seconds", 100.0, buckets=(1.0, 10.0), stage="scatter")
        text = to_prometheus(reg)
        assert "# TYPE lat_seconds histogram" in text
        assert 'lat_seconds_bucket{le="1",stage="scatter"} 1' in text
        assert 'lat_seconds_bucket{le="10",stage="scatter"} 1' in text
        assert 'lat_seconds_bucket{le="+Inf",stage="scatter"} 2' in text
        assert 'lat_seconds_sum{stage="scatter"} 100.5' in text
        assert 'lat_seconds_count{stage="scatter"} 2' in text

    def test_quantile_summary_lines_are_emitted_and_parse_clean(self):
        reg = CounterRegistry()
        for v in (0.5, 0.5, 0.5, 100.0):
            reg.observe("lat_seconds", v, buckets=(1.0, 10.0), stage="scatter")
        text = to_prometheus(reg)
        # Informational p50/p95/p99 lines ride along with each histogram…
        assert 'lat_seconds{quantile="0.5",stage="scatter"}' in text
        assert 'lat_seconds{quantile="0.95",stage="scatter"}' in text
        assert 'lat_seconds{quantile="0.99",stage="scatter"}' in text
        # …and the parser skips them, so the round-trip stays exact.
        assert parse_prometheus(text) == reg

    def test_parse_rejects_bucket_without_le(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{stage="x"} 1\n'
        )
        with pytest.raises(Exception):
            parse_prometheus(text)

    def test_run_bfs_metrics_include_span_histograms(self, tmp_path):
        graph = random_graph(250, 1500, seed=9)
        result = run_bfs(
            graph, "fastbfs",
            trace_path=str(tmp_path / "t.jsonl"),
            metrics_path=str(tmp_path / "m.prom"),
        )
        hist = result.metrics.histogram("span_duration_seconds", stage="query")
        assert hist is not None and hist.count >= 1
        back = parse_prometheus((tmp_path / "m.prom").read_text())
        assert back == result.metrics


# ----------------------------------------------------------------------
# Front-door wiring (api.run_bfs / run_queries)
# ----------------------------------------------------------------------
class TestApiSurface:
    def test_run_bfs_exports_and_attaches(self, tmp_path):
        graph = random_graph(300, 2000, seed=2)
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.prom"
        result = run_bfs(graph, "fastbfs", trace_path=str(trace),
                         metrics_path=str(metrics))
        assert result.metrics is not None
        assert result.metrics.reconcile(result.report) == []
        assert len(read_spans_jsonl(str(trace))) > 0
        assert parse_prometheus(metrics.read_text()) == result.metrics

    def test_run_queries_attaches_per_query_registries(self, tmp_path):
        graph = random_graph(300, 2400, seed=4)
        batch = run_queries(graph, roots=[1, 5], engine="fastbfs",
                            trace_path=str(tmp_path / "b.jsonl"))
        assert batch.metrics is not None
        for q in batch.queries:
            assert q.metrics is not None
            assert q.metrics.reconcile(q.report) == []

    def test_run_queries_batched_mode_exports_and_reconciles(self, tmp_path):
        graph = random_graph(300, 2400, seed=4)
        trace = tmp_path / "batched.jsonl"
        batch = run_queries(graph, roots=[1, 5], engine="fastbfs",
                            mode="batched", trace_path=str(trace))
        assert batch.mode == "batched"
        assert batch.metrics is not None
        for q in batch.queries:
            assert q.metrics is not None
            assert q.metrics.reconcile(q.report) == []
        names = {s.name for s in read_spans_jsonl(str(trace))}
        assert {"stage", "query", "query_slot", "iteration"} <= names
        # the shared scan is counted once, not as the demuxed queries' zeros
        assert batch.edges_scanned > 0
        assert batch.metrics.get(
            "engine_edges_scanned_total", engine="fastbfs"
        ) == batch.edges_scanned

    def test_no_export_requested_leaves_metrics_unset(self):
        graph = random_graph(200, 1200, seed=6)
        machine = fresh_machine()
        result = FastBFSEngine(small_fastbfs_config()).run(
            graph, machine, root=0
        )
        assert result.metrics is None
