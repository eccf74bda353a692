"""GraphChi shard construction.

A sharded graph = execution intervals (contiguous vertex ranges balanced by
*in-edge* count, per the GraphChi paper) + one shard per interval holding
the in-edges of that interval sorted by source vertex.  Sorting by source is
what makes the sliding window work: the edges any other interval needs from
this shard form one contiguous block.

Preprocessing is the expensive part the paper holds against GraphChi; we
build shards on the data path for free and report an estimated
preprocessing time separately (the evaluation excludes it, §IV-B1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.graph.graph import Graph


@dataclass
class Shard:
    """In-edges of one interval, sorted by source."""

    interval: int
    src: np.ndarray  # int64, sorted ascending
    dst: np.ndarray  # int64, parallel to src

    def __len__(self) -> int:
        return len(self.src)


@dataclass
class ShardedGraph:
    """Intervals + shards + the window-size matrix used for I/O accounting."""

    num_vertices: int
    boundaries: np.ndarray  # int64, len P+1
    shards: List[Shard]

    @property
    def num_intervals(self) -> int:
        return len(self.shards)

    def interval_range(self, j: int) -> tuple:
        return int(self.boundaries[j]), int(self.boundaries[j + 1])

    def window_counts(self) -> np.ndarray:
        """Matrix W[k, j] = edges of shard k with source in interval j."""
        p = self.num_intervals
        counts = np.zeros((p, p), dtype=np.int64)
        for k, shard in enumerate(self.shards):
            if len(shard) == 0:
                continue
            counts[k] = np.diff(
                np.searchsorted(shard.src, self.boundaries, side="left")
            )
        return counts


def build_shards(graph: Graph, num_intervals: int) -> ShardedGraph:
    """Split ``graph`` into intervals balanced by in-edge count."""
    if num_intervals < 1:
        raise PartitionError(f"num_intervals must be >= 1, got {num_intervals}")
    n = graph.num_vertices
    num_intervals = min(num_intervals, n)
    dst = graph.edges["dst"].astype(np.int64)
    src = graph.edges["src"].astype(np.int64)
    in_cumulative = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dst, minlength=n), out=in_cumulative[1:])
    total = in_cumulative[-1]
    # Boundary v_j: smallest vertex with cumulative in-degree >= j * total / P.
    targets = (np.arange(1, num_intervals) * total) // num_intervals
    inner = np.searchsorted(in_cumulative[1:], targets, side="left") + 1
    boundaries = np.concatenate(([0], inner, [n])).astype(np.int64)
    boundaries = np.maximum.accumulate(boundaries)  # guard degenerate splits

    interval_of_dst = np.searchsorted(boundaries[1:], dst, side="right")
    shards: List[Shard] = []
    order = np.argsort(interval_of_dst, kind="stable")
    sorted_intervals = interval_of_dst[order]
    cuts = np.searchsorted(sorted_intervals, np.arange(num_intervals + 1))
    for j in range(num_intervals):
        sel = order[cuts[j] : cuts[j + 1]]
        s_src = src[sel]
        s_dst = dst[sel]
        by_src = np.argsort(s_src, kind="stable")
        shards.append(Shard(interval=j, src=s_src[by_src], dst=s_dst[by_src]))
    return ShardedGraph(num_vertices=n, boundaries=boundaries, shards=shards)
