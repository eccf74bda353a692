"""Simulated engine clock with compute/iowait accounting.

A single engine run owns one :class:`SimClock`.  The clock only moves
forward; it distinguishes three kinds of elapsed time:

* **compute** — CPU work charged explicitly (per-edge scatter cost, sorting
  cost, ...), optionally labeled by category for breakdown reports;
* **iowait** — time the engine spent blocked waiting for a device request to
  complete (``wait_until`` past the current time);
* the remainder of the makespan is bookkeeping-free (there is none in
  practice: every advance goes through one of the two methods above).

This mirrors how the paper measures things: total execution time from the
wall clock and the iowait *ratio* from ``iostat`` (Fig. 6).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict

from repro.errors import SimulationError


@dataclass(frozen=True)
class ClockState:
    """Opaque snapshot of a :class:`SimClock` (checkpoint protocol)."""

    now: float
    start: float
    compute_time: float
    iowait_time: float
    compute_by_category: Dict[str, float] = field(default_factory=dict)


class SimClock:
    """Monotonic simulated clock for one engine execution."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start}")
        self._now = float(start)
        self._start = float(start)
        self._compute_time = 0.0
        self._iowait_time = 0.0
        self._compute_by_category: Dict[str, float] = defaultdict(float)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def elapsed(self) -> float:
        """Simulated seconds since the clock was created."""
        return self._now - self._start

    @property
    def compute_time(self) -> float:
        """Total seconds charged as CPU work."""
        return self._compute_time

    @property
    def iowait_time(self) -> float:
        """Total seconds the engine spent blocked on device completions."""
        return self._iowait_time

    @property
    def iowait_ratio(self) -> float:
        """iowait as a fraction of elapsed time (0.0 when nothing ran)."""
        if self.elapsed <= 0.0:
            return 0.0
        return self._iowait_time / self.elapsed

    def compute_breakdown(self) -> Dict[str, float]:
        """Copy of the per-category compute-time totals."""
        return dict(self._compute_by_category)

    def charge_compute(self, seconds: float, category: str = "compute") -> None:
        """Advance the clock by ``seconds`` of CPU work."""
        if seconds < 0:
            raise SimulationError(f"cannot charge negative compute time {seconds}")
        self._now += seconds
        self._compute_time += seconds
        self._compute_by_category[category] += seconds

    def wait_until(self, t: float) -> float:
        """Block (account iowait) until simulated time ``t``.

        Returns the waited duration.  Waiting for a time already in the past
        is a no-op — the request completed while the engine was computing;
        a negative target is an impossible time.
        """
        if t > self._now:
            waited = t - self._now
            self._iowait_time += waited
            self._now = t
            return waited
        if t < 0:
            raise SimulationError(f"cannot wait until negative time {t}")
        return 0.0

    def snapshot(self) -> ClockState:
        """Capture the clock's full state for a later :meth:`restore`."""
        return ClockState(
            now=self._now,
            start=self._start,
            compute_time=self._compute_time,
            iowait_time=self._iowait_time,
            compute_by_category=dict(self._compute_by_category),
        )

    def restore(self, state: ClockState) -> None:
        """Roll the clock back to a snapshot.

        This is the one sanctioned violation of forward-only time: the
        Machine checkpoint/restore protocol resets the clock between query
        sessions so every query starts from the identical post-staging
        instant.  Outside that protocol the clock never moves backwards.
        """
        if state.now > self._now:
            raise SimulationError(
                f"cannot restore the clock forward ({self._now} -> {state.now})"
            )
        self._now = state.now
        self._start = state.start
        self._compute_time = state.compute_time
        self._iowait_time = state.iowait_time
        self._compute_by_category = defaultdict(float, state.compute_by_category)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimClock(now={self._now:.6f}, compute={self._compute_time:.6f}, "
            f"iowait={self._iowait_time:.6f})"
        )
