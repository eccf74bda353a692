"""The paper's reported numbers, as data (IPDPS 2016, §IV).

The evaluation section quotes *ranges* across the four big datasets rather
than per-dataset values (the figures are bar charts without data labels),
so claims are stored as (low, high) ranges.  The qualitative statements
(who wins, what stays flat) and the check of each range against measured
values live with their figure in :mod:`repro.analysis.figures`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

Range = Tuple[float, float]


@dataclass(frozen=True)
class Claim:
    """One quantitative claim: a measured quantity must land in a range."""

    figure: str
    description: str
    low: float
    high: float

    def contains(self, value: float, slack: float = 0.0) -> bool:
        """Is ``value`` inside the claimed range, with relative slack?

        ``slack=0.25`` accepts values within 25% outside either end —
        reproduction bands for this paper flag the absolute numbers as
        non-portable; the *shape* obligations (who wins, roughly by how
        much) use generous slack.
        """
        lo = self.low * (1.0 - slack)
        hi = self.high * (1.0 + slack)
        return lo <= value <= hi


#: §IV-B1 / Fig. 4 — HDD execution time speedups of FastBFS.
HDD_SPEEDUP_VS_XSTREAM = Claim("fig4", "FastBFS vs X-Stream, HDD", 1.6, 2.1)
HDD_SPEEDUP_VS_GRAPHCHI = Claim("fig4", "FastBFS vs GraphChi, HDD", 2.4, 3.9)

#: §IV-B1 / Fig. 5 — input data amount reduction vs X-Stream.
INPUT_REDUCTION_VS_XSTREAM = Claim(
    "fig5", "input data reduction vs X-Stream", 0.652, 0.781
)
#: §IV-B1 — overall (read+write) data reduction vs X-Stream.
TOTAL_REDUCTION_VS_XSTREAM = Claim(
    "fig5", "overall data reduction vs X-Stream", 0.477, 0.604
)

#: §IV-B2 / Fig. 7 — SSD speedups.
SSD_SPEEDUP_VS_XSTREAM = Claim("fig7", "FastBFS vs X-Stream, SSD", 1.6, 2.3)
SSD_SPEEDUP_VS_GRAPHCHI = Claim("fig7", "FastBFS vs GraphChi, SSD", 3.7, 5.2)

#: §IV-B2 — per-system gain from moving HDD -> SSD.
SSD_GAIN: Dict[str, Claim] = {
    "graphchi": Claim("fig7", "GraphChi SSD/HDD gain", 1.2, 1.5),
    "x-stream": Claim("fig7", "X-Stream SSD/HDD gain", 1.7, 1.9),
    "fastbfs": Claim("fig7", "FastBFS SSD/HDD gain", 1.8, 2.1),
}

#: §IV-C3 / Fig. 10 — two-disk FastBFS speedups.
TWO_DISK_SPEEDUP_VS_SINGLE = Claim("fig10", "FastBFS 2 disks vs 1 disk", 1.6, 1.7)
TWO_DISK_SPEEDUP_VS_XSTREAM = Claim("fig10", "FastBFS 2 disks vs X-Stream", 2.5, 3.6)

#: Table II — dataset characteristics as published.
TABLE2 = {
    "rmat22": {"vertices": 4.2e6, "edges": 67.1e6, "size_bytes": 768 * 2**20},
    "rmat25": {"vertices": 33.6e6, "edges": 536.8e6, "size_bytes": 6 * 2**30},
    "rmat27": {"vertices": 134.2e6, "edges": 2.1e9, "size_bytes": 24 * 2**30},
    "twitter_rv": {"vertices": 61.62e6, "edges": 1.5e9, "size_bytes": 11 * 2**30},
    "friendster": {"vertices": 124.8e6, "edges": 1.8e9, "size_bytes": 14 * 2**30},
}

#: Fig. 1 — the motivating convergence example: useful edges 100% -> <88% ->
#: <55% over the first three levels of a toy 33-edge graph.
FIG1_EXAMPLE = {"total_edges": 33, "useful_after": [33, 29, 18]}
