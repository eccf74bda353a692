"""On-disk record layouts shared by every engine.

FastBFS stores graphs as raw binary edge lists (paper §III) — 8 bytes per
edge, two little-endian u32s.  Updates are the same size (destination +
payload, where the payload is the BFS parent, a WCC label, or an SSSP
distance).  These dtypes define both the data path (numpy structured arrays)
and the byte accounting (``arr.nbytes`` is what devices charge for).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError

#: Unweighted directed edge: (source, destination), 8 bytes.
EDGE_DTYPE = np.dtype([("src", "<u4"), ("dst", "<u4")])

#: Weighted edge for the SSSP extension, 12 bytes.
WEIGHTED_EDGE_DTYPE = np.dtype([("src", "<u4"), ("dst", "<u4"), ("weight", "<f4")])

#: Update record: destination vertex + algorithm payload, 8 bytes.
UPDATE_DTYPE = np.dtype([("dst", "<u4"), ("payload", "<u4")])

#: Sentinel parent for roots / unreached vertices.
NO_PARENT = np.uint32(0xFFFFFFFF)

#: Sentinel level for unreached vertices.
UNVISITED = np.int32(-1)


def make_edges(src, dst) -> np.ndarray:
    """Build an EDGE_DTYPE array from two integer sequences."""
    src = np.asarray(src, dtype=np.uint32)
    dst = np.asarray(dst, dtype=np.uint32)
    if src.shape != dst.shape or src.ndim != 1:
        raise GraphError(
            f"src/dst must be equal-length 1-D arrays, got {src.shape} and {dst.shape}"
        )
    edges = np.empty(len(src), dtype=EDGE_DTYPE)
    edges["src"] = src
    edges["dst"] = dst
    return edges
