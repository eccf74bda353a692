"""Exact-value tests for the shared exponential-backoff schedule.

One curve feeds two mechanisms: the stream layer's simulated I/O retry
waits (:meth:`repro.storage.faults.RetryPolicy.backoff`) and the serving
circuit breaker's host-clock quarantine cooldowns
(:meth:`repro.serve.health.CircuitBreaker.cooldown_seconds`).  The
contract is bit-exact determinism — no jitter, no clamping — so both
timelines replay identically under a fixed seed.
"""

import threading

import pytest

from repro.serve.health import CircuitBreaker
from repro.storage.faults import RetryPolicy
from repro.utils.backoff import exponential_backoff


class TestExponentialBackoff:
    def test_first_attempt_is_exactly_base(self):
        assert exponential_backoff(0.01, 2.0, 1) == 0.01
        assert exponential_backoff(1.5, 7.0, 1) == 1.5

    def test_growth_is_exact_powers_of_the_multiplier(self):
        assert exponential_backoff(0.01, 2.0, 2) == 0.02
        assert exponential_backoff(0.01, 2.0, 3) == 0.04
        assert exponential_backoff(0.01, 2.0, 4) == 0.08
        assert exponential_backoff(2.0, 3.0, 3) == 18.0

    def test_multiplier_one_is_constant(self):
        assert [exponential_backoff(0.5, 1.0, n) for n in (1, 2, 5)] == [
            0.5, 0.5, 0.5,
        ]

    def test_non_positive_attempt_raises(self):
        with pytest.raises(ValueError):
            exponential_backoff(0.01, 2.0, 0)
        with pytest.raises(ValueError):
            exponential_backoff(0.01, 2.0, -3)

    def test_retry_policy_backoff_matches_the_shared_curve(self):
        policy = RetryPolicy()  # RETRY_BACKOFF_BASE 0.002, _MULTIPLIER 2.0
        for attempt in (1, 2, 3):
            assert policy.backoff(attempt) == exponential_backoff(
                0.002, 2.0, attempt
            )
        assert policy.backoff(1) == 0.002
        assert policy.backoff(3) == 0.008

    def test_breaker_cooldown_matches_the_shared_curve(self):
        # COOLDOWN_BASE 1.0, COOLDOWN_MULTIPLIER 2.0
        breaker = CircuitBreaker(threading.RLock(), "g")
        # Before any quarantine the schedule is the first-attempt value.
        assert breaker.cooldown_seconds() == 1.0
        breaker.quarantines = 2
        assert breaker.cooldown_seconds() == 2.0
        breaker.quarantines = 3
        assert breaker.cooldown_seconds() == 4.0
