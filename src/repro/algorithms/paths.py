"""Path extraction and checking over BFS parent arrays.

Small utilities downstream users always end up writing: walk a parent array
back to the root, verify a claimed path against the graph, batch-extract
paths for many targets.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, UNVISITED


def extract_path(
    parents: np.ndarray,
    root: int,
    target: int,
    max_length: Optional[int] = None,
) -> Optional[List[int]]:
    """Walk ``parents`` from ``target`` back to ``root``.

    Returns the vertex path root->...->target, or None when the target was
    not reached.  Raises if the parent chain is cyclic or does not reach the
    root within ``max_length`` hops (default: number of vertices) — a
    corrupt tree, not a reachability matter.
    """
    parents = np.asarray(parents)
    n = len(parents)
    if not 0 <= target < n or not 0 <= root < n:
        raise ValidationError("root/target out of range")
    if target != root and parents[target] == NO_PARENT:
        return None
    limit = max_length if max_length is not None else n
    path = [target]
    current = target
    while current != root:
        parent = int(parents[current])
        if parent == int(NO_PARENT) or parent >= n:
            raise ValidationError(
                f"broken parent chain at vertex {current} (parent {parent})"
            )
        path.append(parent)
        if len(path) > limit:
            raise ValidationError(
                f"parent chain from {target} exceeds {limit} hops "
                "(cycle or corrupt tree)"
            )
        current = parent
    path.reverse()
    return path


def path_exists_in_graph(graph: Graph, path: List[int]) -> bool:
    """True when every consecutive pair of ``path`` is a graph edge."""
    if len(path) < 2:
        return True
    src = graph.edges["src"].astype(np.uint64)
    dst = graph.edges["dst"].astype(np.uint64)
    keys = np.sort(src * np.uint64(graph.num_vertices) + dst)
    hops_src = np.asarray(path[:-1], dtype=np.uint64)
    hops_dst = np.asarray(path[1:], dtype=np.uint64)
    hop_keys = hops_src * np.uint64(graph.num_vertices) + hops_dst
    pos = np.searchsorted(keys, hop_keys)
    pos = np.minimum(pos, len(keys) - 1)
    return bool((keys[pos] == hop_keys).all())


def hop_distances_from_paths(
    parents: np.ndarray, levels: np.ndarray, root: int, targets
) -> List[Optional[int]]:
    """Path length per target (None if unreached), cross-checked to levels."""
    out: List[Optional[int]] = []
    for t in np.atleast_1d(np.asarray(targets, dtype=np.int64)):
        path = extract_path(parents, root, int(t))
        if path is None:
            out.append(None)
            continue
        hops = len(path) - 1
        if levels[t] != UNVISITED and hops != int(levels[t]):
            raise ValidationError(
                f"path length {hops} to {t} contradicts level {levels[t]}"
            )
        out.append(hops)
    return out
