"""The FastBFS engine: edge-centric traversal with asynchronous trimming.

FastBFS is X-Stream's edge-centric loop with the paper's additions, and
:class:`~repro.engines.base.EdgeCentricEngine` runs them inline, each as
far as the :class:`~repro.core.config.FastBFSConfig` turns it on:

* the cross-iteration swap: scatter takes the stay file written during
  the *previous* iteration as its input, or cancels it if it isn't
  durable yet (§II-C2);
* the stay-out stream: where the trim policy says so, each host run's
  surviving edges go to the dedicated asynchronous writer (§III);
* selective scheduling: converged partitions (no updates received) are
  skipped entirely (§II-C3);
* stream rotation across two disks (Fig. 10).

Running a non-trimmable algorithm (e.g. WCC) degrades gracefully: the trim
policy disables stay streams and only selective scheduling remains.
"""

from __future__ import annotations

from repro.engines.base import EdgeCentricEngine


class FastBFSEngine(EdgeCentricEngine):
    """FastBFS (paper §II-§III): the edge-centric loop under its config."""

    name = "fastbfs"
