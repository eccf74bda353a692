"""Rolling time-series ring: window placement, aggregation, bounds.

Contracts locked down here:

* **window grid** — samples land in the window covering the injected
  clock's *now*; advancing past a window boundary opens a new slot, and
  quiet periods leave gaps (missing indices), not empty windows;
* **bounded ring** — at most ``capacity`` windows are retained, oldest
  evicted first;
* **aggregation** — request/error counts, RPS, flush totals, depth
  last/max, and p50/p95/p99 quantile summaries of queue wait and
  service time, all per graph;
* **quantiles** — ``Histogram.quantile`` interpolates within buckets,
  clamps at the top finite bound, and rejects out-of-range ``q``;
* **determinism** — everything above runs on a ``ManualHostClock``; no
  test here sleeps or reads the real clock.

The ring has no lock of its own; concurrent recording through its owner
is tested at the service level (``tests/test_serve_debug.py``).
"""

from __future__ import annotations

import pytest

from repro.obs.counters import Histogram
from repro.obs.hostprof import ManualHostClock
from repro.obs.timeseries import (
    CAPACITY,
    TimeSeries,
    WAIT_BUCKETS,
    WINDOW_SECONDS,
    quantile_summary,
)


@pytest.fixture()
def clock():
    return ManualHostClock(start=100.0)


@pytest.fixture()
def ts(clock):
    return TimeSeries(clock=clock)


# ----------------------------------------------------------------------
# Histogram.quantile
# ----------------------------------------------------------------------
class TestHistogramQuantile:
    def test_interpolates_within_bucket(self):
        hist = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 3.0, 3.5):
            hist.observe(v)
        # rank 2 of 4 lands at the upper edge of the second bucket.
        assert hist.quantile(0.5) == pytest.approx(2.0)
        assert 0.0 < hist.quantile(0.25) <= 1.0

    def test_empty_histogram_is_zero(self):
        assert Histogram((1.0,)).quantile(0.99) == 0.0

    def test_overflow_clamps_to_top_finite_bound(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(100.0)  # lands in the implicit +Inf bucket
        assert hist.quantile(0.99) == 2.0

    def test_rejects_out_of_range(self):
        hist = Histogram((1.0,))
        for q in (-0.1, 1.1):
            with pytest.raises(ValueError):
                hist.quantile(q)

    def test_summary_shape(self):
        hist = Histogram((1.0, 2.0))
        hist.observe(0.5)
        summary = quantile_summary(hist)
        assert set(summary) == {"count", "sum", "p50", "p95", "p99"}
        assert summary["count"] == 1.0
        assert quantile_summary(None) == {
            "count": 0.0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }


# ----------------------------------------------------------------------
# window placement and the ring bound
# ----------------------------------------------------------------------
class TestWindows:
    def test_samples_land_in_current_window(self, ts, clock):
        ts.record_request("g", queue_wait=0.001, service_time=0.2)
        ts.record_request("g", queue_wait=0.002, service_time=0.3)
        snap = ts.snapshot()
        assert len(snap["windows"]) == 1
        g = snap["windows"][0]["graphs"]["g"]
        assert g["requests"] == 2
        assert g["rps"] == pytest.approx(2 / 5.0)

    def test_boundary_opens_new_window_and_gaps_stay_gaps(self, ts, clock):
        ts.record_request("g")
        clock.advance(5.0)  # next window
        ts.record_request("g")
        clock.advance(15.0)  # skip two windows entirely
        ts.record_request("g")
        snap = ts.snapshot()
        assert [w["index"] for w in snap["windows"]] == [0, 1, 4]
        assert [w["start"] for w in snap["windows"]] == [0.0, 5.0, 20.0]

    def test_ring_is_bounded(self, ts, clock):
        for _ in range(CAPACITY + 6):
            ts.record_request("g")
            clock.advance(WINDOW_SECONDS)
        assert len(ts) == CAPACITY
        snap = ts.snapshot()
        assert [w["index"] for w in snap["windows"]] == list(
            range(6, CAPACITY + 6)
        )

    def test_snapshot_windows_limit(self, ts, clock):
        for _ in range(3):
            ts.record_request("g")
            clock.advance(5.0)
        snap = ts.snapshot(windows=1)
        assert [w["index"] for w in snap["windows"]] == [2]

    @pytest.mark.parametrize("windows,indices", [
        (0, []), (-2, []), (2, [1, 2]), (10, [0, 1, 2]),
    ])
    def test_snapshot_keeps_at_most_the_newest_windows(
        self, ts, clock, windows, indices
    ):
        for _ in range(3):
            ts.record_request("g")
            clock.advance(5.0)
        snap = ts.snapshot(windows=windows)
        assert [w["index"] for w in snap["windows"]] == indices



# ----------------------------------------------------------------------
# aggregation semantics
# ----------------------------------------------------------------------
class TestAggregation:
    def test_errors_counted_but_not_in_latency(self, ts):
        ts.record_request("g", queue_wait=0.01, service_time=0.5)
        ts.record_request("g", error=True)
        g = ts.snapshot()["windows"][0]["graphs"]["g"]
        assert g["requests"] == 2
        assert g["errors"] == 1
        assert g["queue_wait"]["count"] == 1.0
        assert g["service_time"]["count"] == 1.0

    def test_flush_accounting(self, ts):
        ts.record_flush("g", flushes=1, queries=4)
        ts.record_flush("g", flushes=0, queries=2)
        g = ts.snapshot()["windows"][0]["graphs"]["g"]
        assert g["flushes"] == 1
        assert g["flushed_queries"] == 6

    def test_depth_last_and_max(self, ts):
        for depth in (3, 7, 2):
            ts.sample_depth("g", depth)
        g = ts.snapshot()["windows"][0]["graphs"]["g"]
        assert g["queue_depth_last"] == 2
        assert g["queue_depth_max"] == 7

    def test_graphs_are_independent(self, ts):
        ts.record_request("a")
        ts.record_request("b")
        ts.record_request("b")
        graphs = ts.snapshot()["windows"][0]["graphs"]
        assert graphs["a"]["requests"] == 1
        assert graphs["b"]["requests"] == 2

    def test_quantiles_reflect_observed_waits(self, ts):
        for _ in range(100):
            ts.record_request("g", queue_wait=0.002, service_time=0.1)
        g = ts.snapshot()["windows"][0]["graphs"]["g"]
        # 2ms waits fall in the (0.001, 0.005] bucket.
        assert 0.001 < g["queue_wait"]["p50"] <= 0.005
        assert 0.001 < g["queue_wait"]["p99"] <= 0.005

    def test_wait_buckets_cover_sub_millisecond(self):
        assert WAIT_BUCKETS[0] <= 0.0005
        assert WAIT_BUCKETS == tuple(sorted(WAIT_BUCKETS))

    def test_snapshot_is_json_serializable(self, ts):
        import json

        ts.record_request("g", queue_wait=0.001, service_time=0.2)
        ts.record_flush("g", queries=1)
        ts.sample_depth("g", 1)
        json.dumps(ts.snapshot())  # must not raise
