"""Weighted single-source shortest paths (streaming Bellman-Ford).

The paper frames BFS as the building block of shortest-path computations
(§I) and promises "more algorithms based on graph traversals" as future
work.  This module supplies the weighted case for the scatter/gather
engines: label-correcting distance relaxation, where a vertex re-activates
whenever its distance improves.

Edges on disk are unweighted (src, dst) records; weights come from a
deterministic *weight function* evaluated on the fly (the same trick
Graph500 SSSP uses for synthetic weights), so the engines' 8-byte edge
streams — and FastBFS's stay files — need no format change.  Because a
distance can improve repeatedly, no edge is ever provably dead:
``supports_trimming`` is False and FastBFS degrades gracefully, exactly as
for WCC.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.algorithms.streaming import (
    StreamingAlgorithm,
    VertexState,
    _make_updates,
    check_roots,
)
from repro.errors import EngineError
from repro.graph.graph import Graph

#: Distances ride in the u4 update payload; reserve the top value.
UNREACHED = np.uint32(0xFFFFFFFF)

WeightFn = Callable[[np.ndarray, np.ndarray], np.ndarray]


def hash_weights(max_weight: int = 8) -> WeightFn:
    """Deterministic per-edge integer weights in [1, max_weight].

    Knuth-style multiplicative hash of (src, dst) — stable across runs,
    engines and the in-memory reference, with no storage cost.
    """
    if max_weight < 1:
        raise EngineError(f"max_weight must be >= 1, got {max_weight}")

    def weights(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        mixed = (
            src.astype(np.uint64) * np.uint64(2654435761)
            ^ dst.astype(np.uint64) * np.uint64(40503)
        )
        return (mixed % np.uint64(max_weight)).astype(np.uint32) + np.uint32(1)

    return weights


class WeightedSSSPAlgorithm(StreamingAlgorithm):
    """Bellman-Ford over the streaming engines."""

    name = "sssp"
    supports_trimming = False
    state_dtype = np.dtype([("dist", "<u4"), ("active", "u1")])
    # gather_run_invariant stays False: a vertex whose distance improves in
    # two buffers is counted in each.

    def __init__(self, weight_fn: Optional[WeightFn] = None) -> None:
        self.weight_fn = weight_fn if weight_fn is not None else hash_weights()

    def init_state(self, num_vertices: int, roots) -> VertexState:
        roots = check_roots(num_vertices, roots)
        state = VertexState.zeros(self.state_dtype, num_vertices)
        state["dist"][:] = UNREACHED
        state["dist"][roots] = 0
        state["active"][roots] = 1
        return state

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        sel = np.flatnonzero(state["active"].take(src_local) == 1)
        src_sel = src_global[sel]
        dst_sel = dst_global[sel]
        dist = state["dist"].take(src_local.take(sel))
        new_dist = dist + self.weight_fn(src_sel, dst_sel)
        # Saturate instead of wrapping (paths longer than u4 are unreal
        # here, but property tests feed adversarial graphs).
        new_dist = np.where(new_dist < dist, UNREACHED - 1, new_dist)
        return _make_updates(dst_sel, new_dist), sel, None

    def gather(self, ctx, state, dst_local, payload) -> int:
        before = state["dist"][dst_local].copy()
        np.minimum.at(state["dist"], dst_local, payload)
        improved = np.unique(dst_local[state["dist"][dst_local] < before])
        state["active"][improved] = 1
        return len(improved)

    def result(self, state) -> Dict[str, np.ndarray]:
        return {"distance": state["dist"].copy()}


def reference_sssp(
    graph: Graph, root: int, weight_fn: Optional[WeightFn] = None
) -> np.ndarray:
    """In-memory Bellman-Ford oracle with the same weight function.

    Returns u4 distances with UNREACHED for unreachable vertices.  O(V*E)
    worst case; intended for test-sized graphs.
    """
    if not 0 <= root < graph.num_vertices:
        raise EngineError(f"root {root} out of range")
    weight_fn = weight_fn if weight_fn is not None else hash_weights()
    src = graph.edges["src"].astype(np.int64)
    dst = graph.edges["dst"].astype(np.int64)
    w = weight_fn(graph.edges["src"], graph.edges["dst"]).astype(np.uint64)
    dist = np.full(graph.num_vertices, np.uint64(UNREACHED), dtype=np.uint64)
    dist[root] = 0
    for _ in range(graph.num_vertices):
        candidate = dist[src] + w
        candidate[dist[src] == np.uint64(UNREACHED)] = np.uint64(UNREACHED)
        before = dist.copy()
        np.minimum.at(dist, dst, candidate)
        if np.array_equal(before, dist):
            break
    return dist.astype(np.uint32)
