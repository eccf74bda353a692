"""Graph500-style validation of BFS results, and TEPS.

BFS is the Graph500 kernel (paper §I), so we validate engine output the way
the benchmark does: the (parent, level) pair must describe a genuine BFS
tree of the input graph, and every vertex reachable from the root must be in
it.  ``teps`` computes the benchmark's traversed-edges-per-second figure
from a result and a (simulated) execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from repro.errors import ValidationError
from repro.graph.csr import CSRGraph
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, UNVISITED


@dataclass
class ValidationReport:
    """Outcome of a BFS validation pass."""

    ok: bool
    errors: List[str] = field(default_factory=list)
    visited: int = 0
    depth: int = 0

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationError("; ".join(self.errors[:5]))


def _edge_keys(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    return src.astype(np.uint64) * np.uint64(n) + dst.astype(np.uint64)


def validate_bfs_result(
    graph: Graph,
    root: int,
    levels: np.ndarray,
    parents: Optional[np.ndarray] = None,
    reference_levels: Optional[np.ndarray] = None,
) -> ValidationReport:
    """Check a BFS (levels, parents) result against the input graph.

    Rules (Graph500 spec, adapted to directed graphs):

    1. the root has level 0;
    2. a vertex is visited iff its level >= 0; visited non-roots have a
       visited parent exactly one level shallower;
    3. every claimed tree edge (parent[v] -> v) exists in the graph;
    4. no edge skips a level: for every graph edge (u -> v) with u visited,
       v is visited with level[v] <= level[u] + 1;
    5. if ``reference_levels`` is given, levels match it exactly.
    """
    errors: List[str] = []
    n = graph.num_vertices
    levels = np.asarray(levels)
    if levels.shape != (n,):
        return ValidationReport(False, [f"levels shape {levels.shape} != ({n},)"])
    if not 0 <= root < n:
        return ValidationReport(False, [f"root {root} out of range"])

    if levels[root] != 0:
        errors.append(f"root level is {levels[root]}, expected 0")

    visited = levels != UNVISITED
    if (levels[visited] < 0).any():
        errors.append("negative level other than the UNVISITED sentinel")

    src = graph.edges["src"]
    dst = graph.edges["dst"]
    # Rule 4: levels never skip along an edge.
    u_visited = visited[src]
    if u_visited.any():
        lv_src = levels[src[u_visited]].astype(np.int64)
        lv_dst = levels[dst[u_visited]].astype(np.int64)
        unreached_dst = lv_dst == UNVISITED
        if unreached_dst.any():
            errors.append(
                f"{int(unreached_dst.sum())} edges lead from visited vertices "
                "to unvisited ones"
            )
        skip = (~unreached_dst) & (lv_dst > lv_src + 1)
        if skip.any():
            errors.append(f"{int(skip.sum())} edges skip a BFS level")

    if parents is not None:
        parents = np.asarray(parents)
        if parents.shape != (n,):
            errors.append(f"parents shape {parents.shape} != ({n},)")
        else:
            is_root = np.zeros(n, dtype=bool)
            is_root[root] = True
            tree = visited & ~is_root
            no_parent = parents == NO_PARENT
            if (no_parent & tree).any():
                errors.append("visited non-root vertex without a parent")
            if (~no_parent & ~visited).any():
                errors.append("unvisited vertex claims a parent")
            tv = np.flatnonzero(tree & ~no_parent)
            if len(tv):
                p = parents[tv].astype(np.int64)
                if (p >= n).any():
                    errors.append("parent id out of range")
                else:
                    if (levels[p] != levels[tv] - 1).any():
                        bad = int((levels[p] != levels[tv] - 1).sum())
                        errors.append(f"{bad} tree edges don't descend one level")
                    # Rule 3: tree edges exist in the graph.
                    graph_keys = np.sort(_edge_keys(src, dst, n))
                    tree_keys = _edge_keys(p.astype(np.uint32), tv.astype(np.uint32), n)
                    pos = np.searchsorted(graph_keys, tree_keys)
                    pos = np.minimum(pos, len(graph_keys) - 1) if len(graph_keys) else pos
                    present = (
                        graph_keys[pos] == tree_keys if len(graph_keys) else
                        np.zeros(len(tree_keys), dtype=bool)
                    )
                    if not present.all():
                        errors.append(
                            f"{int((~present).sum())} claimed tree edges are not "
                            "graph edges"
                        )

    if reference_levels is not None:
        reference_levels = np.asarray(reference_levels)
        if not np.array_equal(levels, reference_levels):
            diff = int((levels != reference_levels).sum())
            errors.append(f"levels differ from reference at {diff} vertices")

    depth = int(levels[visited].max()) if visited.any() else 0
    return ValidationReport(
        ok=not errors, errors=errors, visited=int(visited.sum()), depth=depth
    )


def traversed_edges(graph: Graph, levels: np.ndarray) -> int:
    """Edges considered traversed by Graph500: those leaving visited vertices."""
    visited = np.asarray(levels) != UNVISITED
    return int(visited[graph.edges["src"]].sum())


def teps(graph: Graph, levels: np.ndarray, seconds: float) -> float:
    """Graph500 traversed-edges-per-second for one BFS run."""
    if seconds <= 0:
        raise ValidationError(f"seconds must be positive, got {seconds}")
    return traversed_edges(graph, levels) / seconds
