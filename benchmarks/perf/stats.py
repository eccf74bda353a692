"""The few statistics the benchmark reports, in one place."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9)

#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung has too few (under 100 samples):
    the sample then supports a median and nothing further out.
    """
    best = None
    for p in TAIL_LADDER:
        # In whole per-mille, so that 10000 samples do reach p99.9.
        if count * (1000 - round(p * 10)) >= MIN_BEYOND * 1000:
            best = p
    return best


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` of the reportable tail; ``(0, median)`` if none."""
    p = tail_percentile(len(values))
    if p is None:
        return 0.0, statistics.median(values)
    return p, percentile(values, p)


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
