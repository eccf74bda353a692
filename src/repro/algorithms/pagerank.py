"""PageRank on the streaming engines (X-Stream's flagship workload).

FastBFS inherits a *general* scatter/gather engine from X-Stream; BFS
trimming is one algorithm-specific optimization on top of it.  PageRank
demonstrates the generic machinery end to end: a fixed number of dense
rounds, float payloads riding in the 8-byte update records (the f4 bit
pattern is viewed as u4 — no format change), per-partition round
finalization through the ``after_gather`` hook, and the kernel's own
round count (:attr:`StreamingAlgorithm.rounds`) for termination.

The variant implemented is the classic damped iteration without dangling-
mass redistribution (each round: ``rank' = (1-d)/N + d * sum of incoming
rank/out_degree``); :func:`reference_pagerank` is the bit-equivalent dense
oracle used by the tests, and rankings are additionally cross-checked
against networkx.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.algorithms.streaming import (
    StreamingAlgorithm,
    VertexState,
    _make_updates,
)
from repro.errors import EngineError
from repro.graph.graph import Graph


class PageRankAlgorithm(StreamingAlgorithm):
    """Damped PageRank for a fixed number of rounds.

    The constructor needs the graph's out-degrees (scatter divides each
    vertex's rank among its out-edges) — pass ``graph.out_degrees()`` —
    and the number of ``rounds`` to run.  Every vertex stays active every
    round (PageRank has no discrete convergence event), so the round count
    is what ends a run: ``rounds`` scatter passes, then the final gather.
    """

    name = "pagerank"
    supports_trimming = False
    state_dtype = np.dtype(
        [("rank", "<f4"), ("accum", "<f4"), ("active", "u1")]
    )
    #: ``np.add.at`` accumulates in index order, so float32 sums over a run
    #: are bit-equal to the same updates applied buffer by buffer.
    gather_run_invariant = True

    def __init__(
        self, out_degrees: np.ndarray, rounds: int, damping: float = 0.85
    ) -> None:
        # An int: None or infinity would never end the run.
        if not isinstance(rounds, (int, np.integer)) or rounds < 1:
            raise EngineError(f"rounds must be an int >= 1, got {rounds!r}")
        self.rounds = int(rounds)
        if not 0.0 < damping < 1.0:
            raise EngineError(f"damping must be in (0, 1), got {damping}")
        self.out_degrees = np.asarray(out_degrees, dtype=np.float32)
        if (self.out_degrees < 0).any():
            raise EngineError("out_degrees must be non-negative")
        self.damping = np.float32(damping)
        self.num_vertices = len(self.out_degrees)

    def init_state(self, num_vertices: int, roots=None) -> VertexState:
        if num_vertices != self.num_vertices:
            raise EngineError(
                f"out_degrees were built for {self.num_vertices} vertices, "
                f"graph has {num_vertices}"
            )
        state = VertexState.zeros(self.state_dtype, num_vertices)
        state["rank"][:] = np.float32(1.0 / num_vertices)
        state["active"][:] = 1
        return state

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        sel = np.flatnonzero(state["active"].take(src_local) == 1)
        contribution = (
            state["rank"].take(src_local.take(sel))
            / self.out_degrees[src_global[sel]]
        ).astype(np.float32)
        # Ship the f4 bit pattern inside the u4 payload field.
        updates = _make_updates(dst_global[sel], contribution.view(np.uint32))
        return updates, sel, None

    def gather(self, ctx, state, dst_local, payload) -> int:
        np.add.at(state["accum"], dst_local, payload.view(np.float32))
        return len(dst_local)

    def after_gather(self, ctx, state) -> None:
        base = np.float32(1.0 - self.damping) / np.float32(self.num_vertices)
        state["rank"][:] = base + self.damping * state["accum"]
        state["accum"][:] = 0.0
        state["active"][:] = 1  # every vertex participates every round

    def result(self, state) -> Dict[str, np.ndarray]:
        return {"rank": state["rank"].copy()}


def reference_pagerank(
    graph: Graph, rounds: int, damping: float = 0.85
) -> np.ndarray:
    """Dense oracle with the exact update rule of :class:`PageRankAlgorithm`.

    Float32 throughout so results are comparable to the streaming runs to
    within accumulation-order noise.
    """
    if rounds < 1:
        raise EngineError(f"rounds must be >= 1, got {rounds}")
    n = graph.num_vertices
    out_deg = graph.out_degrees().astype(np.float32)
    src = graph.edges["src"].astype(np.int64)
    dst = graph.edges["dst"].astype(np.int64)
    rank = np.full(n, np.float32(1.0 / n), dtype=np.float32)
    base = np.float32(1.0 - damping) / np.float32(n)
    for _ in range(rounds):
        accum = np.zeros(n, dtype=np.float32)
        contribution = (rank[src] / out_deg[src]).astype(np.float32)
        np.add.at(accum, dst, contribution)
        rank = base + np.float32(damping) * accum
    return rank
