"""Host-speed correction: what a run would have read on an undisturbed host.

The sandboxes this benchmark runs in change speed under it: the same code,
same inputs, runs up to 1.5x slower for seconds to minutes at a time, in
CPU time as much as in wall time.  A 300 s recording of one repeated
traversal, cut into 10 s windows, read a median latency whose quartiles
were 24% of it apart; no statistic of the window alone (minimum, quietest
fifth) came under 7%.  Dividing each operation by a small fixed kernel
timed next to it brought that to 3.6%, so that is what is reported.

The model is deliberately small.  CPU seconds scale with host speed, so a
block of operations that used ``cpu_s`` while the kernel ran ``f`` times
slower than on the reference host would have used ``cpu_s / f`` there, and
its wall time would have been shorter by the difference (shared between
the connections when there are several).  Time spent waiting on timers or
sockets is not scaled, so a latency that is mostly a delayed ACK stays put.
The reference is this sandbox when quiet; on another host the correction
is a constant factor and cancels between two commits measured there.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

#: Seconds :func:`speed_probe` takes on the reference host.
REFERENCE_S = 0.0058

_DATA = np.random.default_rng(0).random(200_000)
_INDEX = np.random.default_rng(1).integers(0, len(_DATA), len(_DATA))


def speed_probe() -> float:
    """Time a fixed mix of interpreter and numpy work (about 6 ms).

    The mix follows what the engines do per buffer: bytecode, a gather
    through an index array, and a sort.
    """
    start = time.perf_counter()
    total = 0
    for value in range(60_000):
        total += value
    for _ in range(4):
        _DATA[_INDEX]
    np.sort(_DATA)
    return time.perf_counter() - start


class Block(NamedTuple):
    """A slice of a timed phase, with the host speed seen around it."""

    wall_s: float
    queries: int
    cpu_s: float       # of the process under test
    probe_s: float     # mean of speed_probe() just before and just after

    @property
    def slowdown(self) -> float:
        return self.probe_s / REFERENCE_S

    @property
    def excess_cpu_s(self) -> float:
        """CPU seconds the block spent only because the host was slow."""
        return self.cpu_s * (1.0 - 1.0 / self.slowdown)

    def corrected(self, connections: int = 1) -> "Block":
        excess = self.excess_cpu_s
        return Block(
            self.wall_s - excess / connections, self.queries,
            self.cpu_s - excess, REFERENCE_S,
        )
