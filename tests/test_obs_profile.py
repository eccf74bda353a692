"""Tests for the trace-analysis layer (repro.obs.profile).

Golden contracts locked down here:

* **breakdown completeness** — per-query stage totals (stages + ``other``
  + ``overhead``) sum exactly to the query span's duration;
* **stay accounting** — flush/cancel span counts match the engine's own
  :class:`StayStats` counters (``stay_swaps``, ``stay_cancellations``,
  ``stay_end_of_run_discards``), and overlap time is bounded by both the
  flush time and the scatter time;
* **no-trim runs** — with ``trim_enabled=False`` the profile shows zero
  stay lanes;
* **I/O attribution** — the joined registry reconciles bit-for-bit with
  the run's :class:`IOReport`;
* **source polymorphism** — profiling a JSONL file equals profiling the
  live tracer it was written from.
"""

from __future__ import annotations

import pytest

from repro.api import profile_trace as api_profile_trace
from repro.api import run_bfs
from repro.core.engine import FastBFSEngine
from repro.graph.generators import random_graph, rmat_graph
from repro.obs import (
    CounterRegistry,
    Span,
    Tracer,
    write_spans_jsonl,
)
from repro.obs.profile import (
    ProfileError,
    StayAccounting,
    TraceProfile,
    load_spans,
    profile_trace,
)
from tests.helpers import fresh_machine, hub_root, small_fastbfs_config


@pytest.fixture(scope="module")
def traced_run():
    """One trimmed FastBFS run with tracer, counters and report."""
    graph = rmat_graph(scale=10, edge_factor=8, seed=7)
    machine = fresh_machine()
    tracer = Tracer()
    machine.attach_tracer(tracer)
    result = FastBFSEngine(small_fastbfs_config()).run(
        graph, machine, root=hub_root(graph)
    )
    registry = CounterRegistry.from_machine(machine).ingest_result(result)
    return result, machine, tracer, registry


@pytest.fixture(scope="module")
def profile(traced_run):
    result, _, tracer, registry = traced_run
    return profile_trace(tracer, registry=registry, report=result.report)


# ----------------------------------------------------------------------
# hand-built golden trace (exact numbers)
# ----------------------------------------------------------------------
def golden_spans():
    """A tiny trace with known timings.

    query [0, 10]:
      iteration 0 [0, 6]: scatter [0, 3], gather [3, 4], shuffle [4, 5.5]
      iteration 1 [6, 9]: scatter [6, 7]
      stay_flush [1, 4]   (2 s under scatter: [1,3] of scatter [0,3])
      stay_cancel [7.5, 8] (mid-run)
    """
    return [
        Span(1, None, "query", 0.0, 10.0,
             attrs={"engine": "fastbfs", "algorithm": "bfs", "graph": "g"}),
        Span(2, 1, "iteration", 0.0, 6.0,
             attrs={"iteration": 0, "frontier": 3, "edges_scanned": 100}),
        Span(3, 2, "scatter", 0.0, 3.0, attrs={"partition": 0}),
        Span(4, 2, "gather", 3.0, 4.0, attrs={"partition": 0}),
        Span(5, 2, "shuffle", 4.0, 5.5, attrs={"iteration": 0}),
        Span(6, 1, "iteration", 6.0, 9.0,
             attrs={"iteration": 1, "frontier": 7, "edges_scanned": 40}),
        Span(7, 6, "scatter", 6.0, 7.0, attrs={"partition": 0}),
        Span(8, 1, "stay_flush", 1.0, 4.0,
             attrs={"partition": 1, "iteration": 0, "records": 10,
                    "bytes": 80}),
        Span(9, 1, "stay_cancel", 7.5, 8.0,
             attrs={"partition": 2, "iteration": 1, "end_of_run": False}),
    ]


class TestGoldenTrace:
    def test_iteration_breakdowns(self):
        prof = TraceProfile(golden_spans())
        (q,) = prof.queries
        it0, it1 = q.iterations
        assert it0.breakdown() == {
            "scatter": 3.0, "gather": 1.0, "shuffle": 1.5, "other": 0.5
        }
        assert it1.breakdown() == {"scatter": 1.0, "other": 2.0}
        assert it0.frontier == 3 and it0.edges_scanned == 100

    def test_stage_totals_sum_to_query_duration(self):
        prof = TraceProfile(golden_spans())
        (q,) = prof.queries
        totals = q.stage_totals()
        assert totals["overhead"] == pytest.approx(1.0)  # 10 - 6 - 3
        assert sum(totals.values()) == pytest.approx(q.duration)

    def test_critical_path_ranks_scatter_first(self):
        (q,) = TraceProfile(golden_spans()).queries
        assert q.critical_path()[0][0] == "scatter"

    def test_stay_overlap_exact(self):
        (q,) = TraceProfile(golden_spans()).queries
        st = q.stay
        assert st.flushes == 1 and st.cancellations == 1
        assert st.end_of_run_discards == 0
        assert st.flush_time == pytest.approx(3.0)
        assert st.hidden_time == pytest.approx(2.0)  # [1,3] under scatter
        assert st.exposed_time == pytest.approx(1.0)
        assert st.hidden_fraction == pytest.approx(2.0 / 3.0)
        assert st.records == 10 and st.bytes == 80

    def test_lane_utilization(self):
        (q,) = TraceProfile(golden_spans()).queries
        util = q.lane_utilization()
        assert util["iteration"] == pytest.approx(0.9)  # 9 of 10 s
        assert util["scatter"] == pytest.approx(0.4)  # 3 + 1 of 10 s
        assert util["stay_flush"] == pytest.approx(0.3)

    def test_attrs_surface(self):
        (q,) = TraceProfile(golden_spans()).queries
        assert (q.engine, q.algorithm, q.graph) == ("fastbfs", "bfs", "g")


# ----------------------------------------------------------------------
# real traced runs
# ----------------------------------------------------------------------
class TestRealRun:
    def test_breakdown_sums_to_query_duration(self, profile):
        for q in profile.queries:
            assert sum(q.stage_totals().values()) == pytest.approx(
                q.duration, rel=1e-9, abs=1e-9
            )
            total_iter = sum(it.duration for it in q.iterations)
            assert q.overhead == pytest.approx(q.duration - total_iter)

    def test_stay_spans_match_engine_counters(self, traced_run, profile):
        result = traced_run[0]
        (q,) = profile.queries
        assert q.stay.flushes == result.extras["stay_swaps"]
        assert q.stay.cancellations == result.extras["stay_cancellations"]
        assert (
            q.stay.end_of_run_discards
            == result.extras["stay_end_of_run_discards"]
        )

    def test_overlap_bounded_by_flush_and_scatter_time(self, profile):
        (q,) = profile.queries
        scatter_total = q.stage_totals().get("scatter", 0.0)
        assert 0.0 <= q.stay.hidden_time <= q.stay.flush_time + 1e-12
        assert q.stay.hidden_time <= scatter_total + 1e-12

    def test_iterations_ordered_and_complete(self, traced_run, profile):
        result = traced_run[0]
        (q,) = profile.queries
        assert [it.iteration for it in q.iterations] == list(
            range(result.num_iterations)
        )

    def test_io_attribution_reconciles_with_report(self, traced_run, profile):
        result = traced_run[0]
        assert profile.reconcile() == []
        devices = profile.io_attribution()
        by_name = {d["device"]: d for d in devices}
        for dr in result.report.devices:
            assert by_name[dr.name]["read"] == float(dr.bytes_read)
            assert by_name[dr.name]["write"] == float(dr.bytes_written)
            got_roles = by_name[dr.name]["by_role"]
            assert {k: float(v) for k, v in dr.bytes_by_role.items()} == got_roles

    def test_report_text_sections(self, profile):
        text = profile.report_text(width=100)
        assert "critical path" in text
        assert "stay stream:" in text
        assert "hidden under scatter" in text
        assert "lane utilization" in text
        assert "I/O attribution" in text
        assert "reconciliation: OK" in text

    def test_registry_rebuilt_from_report_when_missing(self, traced_run):
        result, _, tracer, _ = traced_run
        prof = profile_trace(tracer, report=result.report)
        assert prof.reconcile() == []


class TestNoTrimRun:
    def test_no_trim_shows_zero_stay_lanes(self):
        graph = random_graph(500, 4000, seed=11)
        machine = fresh_machine()
        tracer = Tracer()
        machine.attach_tracer(tracer)
        FastBFSEngine(small_fastbfs_config(trim_enabled=False)).run(
            graph, machine, root=hub_root(graph)
        )
        (q,) = profile_trace(tracer).queries
        assert q.stay == StayAccounting()
        util = q.lane_utilization()
        assert "stay_flush" not in util and "stay_cancel" not in util
        assert "stay stream:" not in profile_trace(tracer).report_text()


# ----------------------------------------------------------------------
# source polymorphism + error paths
# ----------------------------------------------------------------------
class TestSources:
    def test_jsonl_file_equals_live_tracer(self, traced_run, tmp_path):
        _, _, tracer, _ = traced_run
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(tracer, str(path))
        from_file = profile_trace(str(path))
        from_live = profile_trace(tracer)
        assert len(from_file.queries) == len(from_live.queries)
        for a, b in zip(from_file.queries, from_live.queries):
            assert a.stage_totals() == b.stage_totals()
            assert a.stay == b.stay

    def test_machine_source(self, traced_run):
        _, machine, tracer, _ = traced_run
        assert load_spans(machine) == tracer.spans + tracer.io_spans()

    def test_machine_without_tracer_raises(self):
        with pytest.raises(ProfileError):
            load_spans(fresh_machine())

    def test_empty_trace_raises(self):
        with pytest.raises(ProfileError):
            TraceProfile([])

    def test_trace_without_query_spans_raises(self):
        with pytest.raises(ProfileError):
            TraceProfile([Span(1, None, "stage", 0.0, 1.0)])

    def test_reconcile_without_report_raises(self, traced_run):
        _, _, tracer, _ = traced_run
        with pytest.raises(ProfileError):
            profile_trace(tracer).reconcile()


class TestApiFrontDoor:
    def test_api_profile_trace_on_run_bfs_export(self, tmp_path):
        graph = random_graph(400, 3000, seed=5)
        path = tmp_path / "t.jsonl"
        result = run_bfs(graph, "fastbfs", trace_path=str(path))
        prof = api_profile_trace(
            str(path), registry=result.metrics, report=result.report
        )
        assert prof.reconcile() == []
        assert len(prof.queries) == 1
        assert prof.queries[0].iterations

    def test_cli_profile_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        graph_path = tmp_path / "g.bin"
        from repro.graph.generators import rmat_graph
        from repro.graph.io import save_graph

        save_graph(rmat_graph(scale=8, edge_factor=8, seed=3),
                   str(graph_path))
        trace_path = tmp_path / "t.jsonl"
        assert main(["run", "--graph", str(graph_path),
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["profile", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "query #0" in out and "critical path" in out

    def test_cli_profile_requires_some_input(self, capsys):
        from repro.cli import main

        assert main(["profile"]) == 2
