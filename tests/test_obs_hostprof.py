"""Dual-clock host profiler: the neutrality contract and the clock API.

The load-bearing guarantee of :mod:`repro.obs.hostprof`: binding a host
clock to a tracer changes *nothing* about the simulated world.  Locked
down here:

* **clock API** — ``HostClock`` reads the monotonic clock;
  ``ManualHostClock`` is a deterministic stand-in for tests (advance
  only, never backwards);
* **span stamping** — bound tracers stamp ``host_start``/``host_end``
  on every ``span()``; unbound tracers never do; retroactive ``emit()``
  markers stay unstamped; stamps survive the JSONL round-trip without
  perturbing the exact-schema contract for single-clock traces;
* **neutrality** — the same run with and without a bound host clock
  produces bit-identical levels/parents, an identical ``IOReport``,
  identical simulated span timings, and a counter registry that still
  reconciles exactly;
* **attribution** — ``profile_trace(...).host()`` stage host seconds
  sum exactly to the query spans' host durations, and the ``--host``
  report section renders them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import profile_trace, run_bfs
from repro.core.engine import FastBFSEngine
from repro.graph.generators import rmat_graph
from repro.obs.exporters import parse_spans_jsonl, spans_to_jsonl
from repro.obs.hostprof import (
    HOST_CLOCK,
    HostClock,
    ManualHostClock,
)
from repro.obs.tracer import NULL_TRACER, Tracer
from tests.helpers import fresh_machine, hub_root, small_fastbfs_config


@pytest.fixture(scope="module")
def graph():
    return rmat_graph(scale=10, edge_factor=8, seed=7)


def run_pair(graph, host: bool):
    """One FastBFS run, host-clocked or not, on a fresh machine."""
    machine = fresh_machine()
    tracer = Tracer()
    if host:
        tracer.bind_host_clock(HOST_CLOCK)
    machine.attach_tracer(tracer)
    result = FastBFSEngine(small_fastbfs_config()).run(
        graph, machine, root=hub_root(graph)
    )
    return result, machine, tracer


# ----------------------------------------------------------------------
# the clocks
# ----------------------------------------------------------------------
class TestClocks:
    def test_host_clock_is_monotonic(self):
        clock = HostClock()
        a, b = clock.now(), clock.now()
        assert isinstance(a, float)
        assert b >= a
        assert HOST_CLOCK.now() >= 0.0

    def test_manual_clock_advances_deterministically(self):
        clock = ManualHostClock(start=10.0)
        assert clock.now() == 10.0
        clock.advance(2.5)
        assert clock.now() == 12.5

    def test_manual_clock_rejects_going_backwards(self):
        clock = ManualHostClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_manual_clock_is_a_host_clock(self):
        # Anything taking a HostClock handle accepts the manual one.
        assert isinstance(ManualHostClock(), HostClock)


# ----------------------------------------------------------------------
# span stamping
# ----------------------------------------------------------------------
class TestStamping:
    def test_bound_tracer_stamps_every_span(self):
        clock = ManualHostClock()
        tracer = Tracer().bind_clock(_SimStub()).bind_host_clock(clock)
        with tracer.span("query"):
            clock.advance(1.0)
            with tracer.span("iteration"):
                clock.advance(0.5)
        (query, iteration) = tracer.spans
        assert query.host_timed and iteration.host_timed
        assert query.host_duration == pytest.approx(1.5)
        assert iteration.host_duration == pytest.approx(0.5)

    def test_unbound_tracer_never_stamps(self):
        tracer = Tracer().bind_clock(_SimStub())
        with tracer.span("query"):
            pass
        (span,) = tracer.spans
        assert not span.host_timed
        assert span.host_duration == 0.0
        assert "host_start" not in span.to_dict()

    def test_emit_markers_stay_unstamped(self):
        # emit() records retroactive simulated intervals (flush spans);
        # a host stamp taken at emit time would be a lie.
        tracer = Tracer().bind_clock(_SimStub()).bind_host_clock(ManualHostClock())
        tracer.emit("stay_flush", 1.0, 2.0)
        (span,) = tracer.spans
        assert not span.host_timed

    def test_null_tracer_accepts_binding(self):
        assert NULL_TRACER.bind_host_clock(HOST_CLOCK) is NULL_TRACER

    def test_host_stamps_round_trip_through_jsonl(self):
        clock = ManualHostClock()
        tracer = Tracer().bind_clock(_SimStub()).bind_host_clock(clock)
        with tracer.span("query"):
            clock.advance(3.0)
        (back,) = parse_spans_jsonl(spans_to_jsonl(tracer))
        assert back.host_timed
        assert back.host_duration == pytest.approx(3.0)

    def test_host_timed_spans_filter(self):
        clock = ManualHostClock()
        tracer = Tracer().bind_clock(_SimStub()).bind_host_clock(clock)
        with tracer.span("query"):
            pass
        tracer.emit("stay_flush", 0.0, 1.0)
        timed = [sp for sp in tracer.spans if sp.host_timed]
        assert [sp.name for sp in timed] == ["query"]


class _SimStub:
    """Minimal simulated-clock stand-in for direct tracer tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start


# ----------------------------------------------------------------------
# neutrality: host clock on vs off is invisible to the simulation
# ----------------------------------------------------------------------
class TestNeutrality:
    @pytest.fixture(scope="class")
    def pair(self, graph):
        plain = run_pair(graph, host=False)
        hosted = run_pair(graph, host=True)
        return plain, hosted

    def test_levels_and_parents_bit_identical(self, pair):
        (plain, _, _), (hosted, _, _) = pair
        assert np.array_equal(plain.levels, hosted.levels)
        assert np.array_equal(plain.parents, hosted.parents)

    def test_io_report_identical(self, pair):
        (plain, _, _), (hosted, _, _) = pair
        a, b = plain.report, hosted.report
        assert a.execution_time == b.execution_time
        assert a.bytes_read == b.bytes_read
        assert a.bytes_written == b.bytes_written
        assert a.bytes_total == b.bytes_total
        assert a.iowait_ratio == b.iowait_ratio

    def test_simulated_span_timeline_identical(self, pair):
        (_, _, plain_tracer), (_, _, hosted_tracer) = pair
        plain_view = [
            (sp.name, sp.start, sp.end, sorted(sp.attrs.items()))
            for sp in plain_tracer.spans
        ]
        hosted_view = [
            (sp.name, sp.start, sp.end, sorted(sp.attrs.items()))
            for sp in hosted_tracer.spans
        ]
        assert plain_view == hosted_view

    def test_counters_still_reconcile(self, pair):
        from repro.obs.counters import CounterRegistry

        (_, _, _), (hosted, machine, _) = pair
        registry = CounterRegistry.from_machine(machine).ingest_result(hosted)
        assert registry.reconcile(hosted.report) == []

    def test_api_front_door_is_neutral(self, graph):
        base = run_bfs(graph, "fastbfs", memory="2MB")
        hosted = run_bfs(graph, "fastbfs", memory="2MB", host_profile=True)
        assert np.array_equal(base.levels, hosted.levels)
        assert base.execution_time == hosted.execution_time


# ----------------------------------------------------------------------
# attribution: where did the host seconds go?
# ----------------------------------------------------------------------
class TestAttribution:
    @pytest.fixture(scope="class")
    def hosted_profile(self, graph):
        _, _, tracer = run_pair(graph, host=True)
        return profile_trace(tracer)

    def test_host_breakdown_shape(self, hosted_profile):
        data = hosted_profile.host()
        assert data["host_seconds"] > 0.0
        assert data["sim_seconds"] > 0.0
        assert data["host_seconds_per_sim_second"] == pytest.approx(
            data["host_seconds"] / data["sim_seconds"]
        )
        assert data["edges_scanned"] > 0
        assert data["edges_scanned_per_host_second"] > 0.0
        assert "scatter" in data["stages"]

    def test_stage_host_seconds_sum_exactly(self, hosted_profile):
        # By construction: other = iteration - stages, overhead = query -
        # iterations, so the stage table partitions the query host time.
        data = hosted_profile.host()
        total = sum(e["host_seconds"] for e in data["stages"].values())
        assert total == pytest.approx(data["host_seconds"], rel=1e-9)

    def test_query_host_stage_totals_partition_host_duration(
        self, hosted_profile
    ):
        for q in hosted_profile.queries:
            totals = q.host_stage_totals()
            assert sum(totals.values()) == pytest.approx(
                q.host_duration, rel=1e-9
            )

    def test_single_clock_trace_has_empty_host_view(self, graph):
        _, _, tracer = run_pair(graph, host=False)
        prof = profile_trace(tracer)
        assert prof.host() == {}
        assert not prof.host_timed
        assert "no host stamps" in prof.report_text(host=True)

    def test_report_text_host_section(self, hosted_profile):
        text = hosted_profile.report_text(host=True)
        assert "host profile (dual-clock):" in text
        assert "host s/sim s" in text
        # Host section is opt-in: the default report stays unchanged.
        assert "host profile" not in hosted_profile.report_text()
