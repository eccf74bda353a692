"""Exponential backoff: the one shared growth-schedule computation.

Two unrelated-looking mechanisms use exactly the same curve:

* :func:`repro.storage.faults.retry_backoff` — how long the stream
  layer waits (in *simulated* seconds, charged to the iowait ledger)
  before resubmitting a transiently failed device request;
* the serving circuit breaker's quarantine cooldown
  (:class:`repro.serve.health.CircuitBreaker`) — how long a quarantined
  graph sits out (in *host* seconds on a
  :class:`~repro.obs.hostprof.HostClock`) before probation re-entry.

Keeping the arithmetic in one place means the exact-value contract is
tested once: ``exponential_backoff(base, multiplier, n)`` is
``base * multiplier ** (n - 1)`` with no jitter, so retry schedules and
breaker cooldowns are bit-deterministic.
"""

from __future__ import annotations


def exponential_backoff(base: float, multiplier: float, attempt: int) -> float:
    """Delay before the ``attempt``-th try (1-based): ``base * m**(n-1)``.

    ``attempt=1`` returns ``base`` exactly; each further attempt scales by
    ``multiplier``.  Deterministic on purpose — no jitter, no clamping —
    so simulated retry timelines and breaker cooldown transitions replay
    bit-for-bit.  Raises :class:`ValueError` on a non-positive attempt
    number (the schedule has no zeroth wait).
    """
    if attempt < 1:
        raise ValueError(f"backoff attempt is 1-based, got {attempt}")
    return base * multiplier ** (attempt - 1)


__all__ = ["exponential_backoff"]
