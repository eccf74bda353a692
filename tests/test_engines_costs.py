"""Unit tests for the CPU cost model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.engines.costs import CostModel
from repro.errors import ConfigError
from repro.sim.clock import SimClock


class TestValidation:
    def test_defaults_valid(self):
        CostModel()

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            CostModel(scatter_per_edge=-1e-9)


class TestEffectiveParallelism:
    @pytest.mark.parametrize(
        "threads,cores,expected",
        [(1, 4, 1), (4, 4, 4), (8, 4, 4), (2, 1, 1), (3, 8, 3)],
    )
    def test_min_of_threads_and_cores(self, threads, cores, expected):
        assert CostModel().effective_parallelism(threads, cores) == expected


def buffer_time(cm, per_item, count, threads, cores):
    """What ``charge`` charges, as the engines call it."""
    return cm.charge(SimClock(), "compute", per_item, count, threads, cores)


def reference_buffer_time(cm, per_item, count, threads, cores):
    """The cost formula written out with ``effective_parallelism``."""
    if count <= 0:
        return 0.0
    par = cm.effective_parallelism(threads, cores)
    sync = cm.thread_sync_per_buffer * threads if threads > 1 else 0.0
    return per_item * count / par + sync + cm.buffer_overhead


class TestBufferTime:
    def test_zero_items_free(self):
        assert buffer_time(CostModel(), 1e-8, 0, 4, 4) == 0.0

    def test_scales_with_items(self):
        cm = CostModel()
        t1 = buffer_time(cm, 1e-8, 1000, 1, 4)
        t2 = buffer_time(cm, 1e-8, 2000, 1, 4)
        assert t2 > t1

    def test_parallelism_divides_work(self):
        cm = CostModel(thread_sync_per_buffer=0.0, buffer_overhead=0.0)
        t1 = buffer_time(cm, 1e-6, 1000, 1, 4)
        t4 = buffer_time(cm, 1e-6, 1000, 4, 4)
        assert t4 == pytest.approx(t1 / 4)

    def test_single_thread_pays_no_sync(self):
        cm = CostModel(thread_sync_per_buffer=1.0, buffer_overhead=0.0)
        assert buffer_time(cm, 0.0, 10, 1, 4) == 0.0

    def test_oversubscription_adds_sync(self):
        cm = CostModel()
        t4 = buffer_time(cm, 1e-8, 100, 4, 4)
        t8 = buffer_time(cm, 1e-8, 100, 8, 4)
        assert t8 > t4  # same parallelism, more sync

    @given(
        per_item=st.floats(min_value=0, max_value=1e-6),
        count=st.integers(min_value=0, max_value=10**6),
        threads=st.integers(min_value=1, max_value=16),
        cores=st.integers(min_value=1, max_value=16),
    )
    def test_never_negative(self, per_item, count, threads, cores):
        assert buffer_time(CostModel(), per_item, count, threads, cores) >= 0.0


class TestCharging:
    def test_charge_advances_clock(self):
        clock = SimClock()
        cm = CostModel()
        dt = cm.charge(clock, "scatter", 1e-8, 1000, 4, 4)
        assert clock.now == pytest.approx(dt)
        assert clock.compute_breakdown()["scatter"] == pytest.approx(dt)

    def test_zero_count_no_charge(self):
        clock = SimClock()
        CostModel().charge(clock, "scatter", 1e-8, 0, 4, 4)
        assert clock.now == 0.0

    @pytest.mark.parametrize("count", [0, 1, 257])
    @pytest.mark.parametrize("threads", [1, 2, 4, 8])
    @pytest.mark.parametrize("cores", [1, 4])
    def test_charge_is_buffer_time_to_the_bit(self, count, threads, cores):
        """``charge`` computes in its own frame what ``buffer_time`` does:
        the returned and the charged float are ``buffer_time``'s exactly."""
        cm = CostModel()
        for per_item in (cm.scatter_per_edge, cm.gather_per_update,
                         cm.trim_per_edge, 1.0 / 3.0):
            charged = []

            class Recorder(SimClock):
                def charge_compute(self, seconds, category="compute"):
                    charged.append((seconds, category))
                    super().charge_compute(seconds, category=category)

            expected = reference_buffer_time(cm, per_item, count, threads, cores)
            assert cm.charge(
                Recorder(), "gather", per_item, count, threads, cores
            ) == expected
            assert charged == ([(expected, "gather")] if count else [])

    def test_charge_phase_single_thread_free(self):
        clock = SimClock()
        assert CostModel().charge_phase(clock, 1) == 0.0
        assert clock.now == 0.0

    def test_charge_phase_scales_with_threads(self):
        clock = SimClock()
        cm = CostModel()
        d4 = cm.charge_phase(clock, 4)
        d8 = cm.charge_phase(clock, 8)
        assert d8 == pytest.approx(2 * d4)
        assert clock.compute_breakdown()["thread-sync"] == pytest.approx(d4 + d8)
