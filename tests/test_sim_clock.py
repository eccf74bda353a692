"""Tests for the simulated engine clock."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.clock import SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.elapsed == 0.0
        assert clock.compute_time == 0.0
        assert clock.iowait_time == 0.0

    def test_custom_start(self):
        clock = SimClock(start=5.0)
        assert clock.now == 5.0
        assert clock.elapsed == 0.0

    def test_negative_start_rejected(self):
        with pytest.raises(SimulationError):
            SimClock(start=-1.0)

    def test_charge_compute_advances(self):
        clock = SimClock()
        clock.charge_compute(0.5)
        assert clock.now == 0.5
        assert clock.compute_time == 0.5
        assert clock.iowait_time == 0.0

    def test_charge_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(SimulationError):
            clock.charge_compute(-0.1)

    def test_wait_until_future_accounts_iowait(self):
        clock = SimClock()
        waited = clock.wait_until(2.0)
        assert waited == 2.0
        assert clock.now == 2.0
        assert clock.iowait_time == 2.0
        assert clock.compute_time == 0.0

    def test_wait_until_past_is_noop(self):
        clock = SimClock()
        clock.charge_compute(3.0)
        waited = clock.wait_until(1.0)
        assert waited == 0.0
        assert clock.now == 3.0
        assert clock.iowait_time == 0.0

    def test_wait_until_negative_rejected(self):
        clock = SimClock()
        clock.charge_compute(1.0)
        with pytest.raises(SimulationError, match="negative time"):
            clock.wait_until(-1.0)
        assert clock.now == 1.0
        assert clock.iowait_time == 0.0

    def test_iowait_ratio(self):
        clock = SimClock()
        clock.charge_compute(1.0)
        clock.wait_until(4.0)
        assert clock.iowait_ratio == pytest.approx(3.0 / 4.0)

    def test_iowait_ratio_empty_clock(self):
        assert SimClock().iowait_ratio == 0.0

    def test_compute_categories(self):
        clock = SimClock()
        clock.charge_compute(1.0, category="scatter")
        clock.charge_compute(0.5, category="gather")
        clock.charge_compute(0.25, category="scatter")
        breakdown = clock.compute_breakdown()
        assert breakdown["scatter"] == pytest.approx(1.25)
        assert breakdown["gather"] == pytest.approx(0.5)

    def test_breakdown_is_copy(self):
        clock = SimClock()
        clock.charge_compute(1.0, category="a")
        clock.compute_breakdown()["a"] = 99.0
        assert clock.compute_breakdown()["a"] == 1.0

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["compute", "wait"]),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            max_size=50,
        )
    )
    def test_accounting_identity(self, ops):
        """elapsed == compute + iowait, always, and the clock is monotone."""
        clock = SimClock()
        last = clock.now
        for kind, amount in ops:
            if kind == "compute":
                clock.charge_compute(amount)
            else:
                clock.wait_until(clock.now + amount)
            assert clock.now >= last
            last = clock.now
        assert clock.elapsed == pytest.approx(
            clock.compute_time + clock.iowait_time
        )
