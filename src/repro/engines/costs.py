"""CPU cost model shared by the engines.

The paper's BFS is I/O bound (Fig. 6, Fig. 8); the role of the compute model
is to get the compute:I/O *ratio* right so that iowait ratios, thread
scaling, and GraphChi's extra computation come out with the paper's shape.
Constants are per-item service times on one core of the test bed's Xeon
X5472 class machine; see ``repro.analysis.calibration`` for how they were
chosen and how to re-derive them.

Threading: a buffer's work is divided across ``min(threads, cores)`` cores,
then a synchronization overhead *linear in the number of threads* is added
per buffer.  That reproduces Fig. 8: flat scaling while I/O-bound, mild
degradation once threads exceed cores.

Batched (MS-BFS) charging: a batched update record carries one liveness
mask bit per query it serves, so the serial-equivalent work of a buffer is
the *popcount* of its masks, not its record count.  The engines obtain that
weight from the algorithm (``update_weights``: per-record popcounts summed
over each modeled buffer of a run) and pass it to :meth:`CostModel.charge`
as the item count — per-update shuffle and gather costs therefore scale with
mask width while the edge-scan cost is paid once per batch, keeping the
compute:I/O ratio comparable between serial and batched modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.sim.clock import SimClock

__all__ = ["COST_MODEL", "CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Per-item CPU service times (seconds)."""

    #: Locate source vertex, test the frontier bit, branch (scatter).
    scatter_per_edge: float = 1.0e-8
    #: Apply one update in the gather phase.
    gather_per_update: float = 1.5e-8
    #: Route one update into its destination partition's stream buffer.
    shuffle_per_update: float = 1.0e-8
    #: Copy one surviving edge into a stay stream buffer (trimming).
    trim_per_edge: float = 0.3e-8
    #: Route one edge while building the initial streaming partitions.
    partition_per_edge: float = 0.6e-8
    #: GraphChi vertex-centric work per in/out edge touched (PSW bookkeeping).
    graphchi_per_edge: float = 2.5e-8
    #: GraphChi shard-sort comparison cost (n log n, charged per memory-shard
    #: load and during preprocessing).
    graphchi_sort_per_edge: float = 1.2e-8
    #: Per-thread synchronization overhead charged once per buffer.
    thread_sync_per_buffer: float = 3.0e-6
    #: Per-thread team start/join + work-queue contention, charged once per
    #: partition phase when running multithreaded.  Unlike the per-buffer
    #: sync this is not hidden by prefetch, which is what makes
    #: oversubscription (8 threads on 4 cores) visibly worse (Fig. 8).
    thread_phase_overhead: float = 1.0e-4
    #: Fixed request-issue overhead per buffer (syscall, bookkeeping).
    buffer_overhead: float = 2.0e-6

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            if getattr(self, name) < 0:
                raise ConfigError(f"cost {name} must be >= 0")

    # ------------------------------------------------------------------
    def effective_parallelism(self, threads: int, cores: int) -> int:
        return max(1, min(threads, cores))

    def charge(
        self,
        clock: SimClock,
        category: str,
        per_item: float,
        count: int,
        threads: int,
        cores: int,
    ) -> float:
        """Charge the CPU time of ``count`` items of one buffer processed
        by ``threads`` to the clock; returns the time.

        The engines call this thousands of times per query, so it is one
        frame: ``per_item * count / parallelism + sync + overhead``.
        """
        if count <= 0:
            return 0.0
        # effective_parallelism's max(1, min(threads, cores)) without the
        # two builtin calls; each branch picks the object max/min would.
        par = cores if cores < threads else threads
        if not par > 1:
            par = 1
        sync = self.thread_sync_per_buffer * threads if threads > 1 else 0.0
        dt = per_item * count / par + sync + self.buffer_overhead
        if dt > 0.0:
            clock.charge_compute(dt, category)
        return dt

    def charges(
        self, per_item: float, counts: np.ndarray, threads: int, cores: int
    ) -> np.ndarray:
        """What :meth:`charge` would charge for each buffer's ``counts[b]``
        items, 0.0 where it charges nothing: the same operands in the same
        order, so the same floats."""
        par = cores if cores < threads else threads
        if not par > 1:
            par = 1
        sync = self.thread_sync_per_buffer * threads if threads > 1 else 0.0
        dt = per_item * counts / par + sync + self.buffer_overhead
        dt[(counts <= 0) | ~(dt > 0.0)] = 0.0
        return dt

    def charge_phase(self, clock: SimClock, threads: int) -> float:
        """Charge the thread-team overhead of one partition phase."""
        if threads <= 1:
            return 0.0
        dt = self.thread_phase_overhead * threads
        clock.charge_compute(dt, category="thread-sync")
        return dt


#: The service times every engine charges.
COST_MODEL = CostModel()
