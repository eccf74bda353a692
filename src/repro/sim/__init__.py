"""Discrete-event time substrate for the storage simulator.

The engines in this package do *real* data-path work (every edge is actually
streamed through numpy buffers) but charge their time to a simulated clock:

* :class:`~repro.sim.clock.SimClock` — the single engine-side clock.  Compute
  is charged with :meth:`~repro.sim.clock.SimClock.charge_compute`; waiting
  on a device advances the clock via
  :meth:`~repro.sim.clock.SimClock.wait_until` and is accounted as iowait.
* :class:`~repro.sim.timeline.Timeline` — one per block device.  Requests are
  served FIFO; each request occupies the device for a service time computed
  by the device model (seek + transfer).  Queued-but-not-started requests can
  be cancelled, which is how FastBFS's stay-write cancellation is modeled.
"""

from repro.sim.clock import SimClock
from repro.sim.timeline import ScheduledRequest, Timeline

__all__ = [
    "SimClock",
    "Timeline",
    "ScheduledRequest",
]
