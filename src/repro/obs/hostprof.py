"""Dual-clock host profiling: the sanctioned wall-clock choke point.

Everything else in this repository observes *simulated* time — the
:class:`~repro.sim.clock.SimClock` the cost model advances — and the
tooling enforces it: analyzer rule FB207 restricts direct wall-clock
reads (``time.monotonic`` and friends, the WALLCLOCK pattern sites), in
every subsystem, to this one module.  Host time is still a real quantity
we need: the vectorized data path on the roadmap is gated on *host seconds per simulated
second*, attributed per stage, so we can prove the pure-Python
scatter/shuffle/gather loops are the bottleneck and ratchet the scale
divisor down as the kernels get faster.

:class:`HostClock` is the choke point — a monotonic reader with no
other behaviour.  Bind one to a :class:`~repro.obs.tracer.Tracer` via
``tracer.bind_host_clock(HostClock())`` and every span the tracer
records is annotated with host-side start/end stamps *next to* its
simulated times.  The annotation is strictly neutral for simulated
results: the host clock is never read by the simulation, never charged
to the :class:`~repro.sim.clock.SimClock`, and never changes a span's
simulated ``start``/``end`` — hostprof on vs. off is bit-identical in
levels/parents, ``IOReport`` totals, simulated span timings and counter
reconciliation (locked down by ``tests/test_obs_hostprof.py``).

:class:`ManualHostClock` is the deterministic stand-in for tests: it
only moves when ``advance()`` is called, so host-duration arithmetic can
be asserted exactly.

The derived metrics — ``host_seconds_per_sim_second`` per stage and
``edges_scanned_per_host_second`` — are computed by
:mod:`repro.obs.profile` (``TraceProfile.host``) and recorded into
``BENCH_<seq>.json`` snapshots as an *informational* section (schema
v3) that the byte-determinism view and the regression gate both
exclude; see :mod:`repro.obs.bench`.
"""

from __future__ import annotations

# The ONE sanctioned wall-clock import (analyzer rule FB207): every
# other module takes host time through a HostClock handle.
import time


class HostClock:
    """Monotonic host-time reader; the repo's only wall-clock source.

    ``now()`` returns seconds from an arbitrary origin (only differences
    are meaningful, exactly like ``time.monotonic``).  Instances carry no
    state, so one clock may be shared freely across threads.
    """

    def now(self) -> float:
        return time.monotonic()


class ManualHostClock(HostClock):
    """Deterministic host clock for tests: moves only on ``advance()``."""

    def __init__(self, start: float = 0.0) -> None:
        self._reading = float(start)

    def now(self) -> float:
        return self._reading

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError(f"host time is monotonic; got advance({seconds})")
        self._reading += float(seconds)
        return self._reading


#: Shared process-wide clock for callers that don't need their own handle
#: (the admission controller's queue-wait stamps, the bench harness).
HOST_CLOCK = HostClock()


__all__ = ["HOST_CLOCK", "HostClock", "ManualHostClock"]
