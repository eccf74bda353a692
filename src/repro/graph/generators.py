"""Synthetic graph generators for the paper's workloads.

* :func:`rmat_graph` — the Graph500 R-MAT/Kronecker generator (the paper's
  rmat22/25/27 datasets), fully vectorized: one pass over ``scale`` bit
  positions instead of a per-edge recursion.
* :func:`powerlaw_graph` — directed graph with Zipf-like in-degrees, the
  stand-in for the twitter follower graph.
* :func:`random_graph` — uniform G(n, m) with replacement.
* :func:`grid_graph` / :func:`path_graph` — high-diameter graphs, the
  regime where the paper says eager trimming wastes effort (§II-C3).
* :func:`star_graph` — degenerate hub graph for edge-case tests.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.types import NO_PARENT, make_edges
from repro.utils.rng import SeedLike, rng_from_seed


#: Largest R-MAT scale :func:`rmat_graph` builds (vertex ids are uint32).
RMAT_MAX_SCALE = 31

#: Most vertices a generated graph holds: ids are uint32 and the all-ones
#: id means "no parent".
_MAX_VERTICES = int(NO_PARENT)


def _check_sizes(num_vertices: int, num_edges: int, least: int = 1) -> None:
    """Refuse a vertex count outside [least, u4 ids] or a negative edge count."""
    if not least <= num_vertices <= _MAX_VERTICES:
        raise GraphError(
            f"num_vertices must be in [{least}, {_MAX_VERTICES}], got {num_vertices}"
        )
    if num_edges < 0:
        raise GraphError(f"num_edges must be >= 0, got {num_edges}")


def _seeded(seed: SeedLike) -> np.random.Generator:
    """The generator's rng; a negative integer seed is refused."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise GraphError(f"seed must be >= 0, got {seed}")
    return rng_from_seed(seed)


def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    d: float = 0.05,
    seed: SeedLike = 0,
    permute: bool = True,
    name: Optional[str] = None,
) -> Graph:
    """Graph500-specification R-MAT generator.

    ``2**scale`` vertices, ``edge_factor * 2**scale`` directed edges drawn by
    recursively descending a 2x2 probability matrix ``[[a, b], [c, d]]``
    (each in [0, 1], summing to 1).
    Graph500 defaults (a=0.57, b=c=0.19, d=0.05) give the heavy-tailed degree
    distribution that makes BFS converge sharply — the effect FastBFS
    exploits.  ``permute`` relabels vertices randomly (Graph500 requires it
    so locality can't be gamed); multi-edges and self-loops are kept, as the
    benchmark specifies.
    """
    if scale < 0 or scale > RMAT_MAX_SCALE:
        raise GraphError(f"scale must be in [0, {RMAT_MAX_SCALE}], got {scale}")
    if edge_factor <= 0:
        raise GraphError(f"edge_factor must be positive, got {edge_factor}")
    for label, p in (("a", a), ("b", b), ("c", c), ("d", d)):
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"R-MAT {label} must be in [0, 1], got {p}")
    total = a + b + c + d
    if abs(total - 1.0) > 1e-6:
        raise GraphError(f"R-MAT probabilities must sum to 1, got {total}")
    rng = _seeded(seed)
    n = 1 << scale
    m = edge_factor * n
    src = np.zeros(m, dtype=np.uint32)
    dst = np.zeros(m, dtype=np.uint32)
    # Descend one bit position at a time across all edges simultaneously.
    # The dst bit is 1 with probability d/(c+d) where the src bit is 1 and
    # b/(a+b) where it is 0: a draw below the lower of the two sets it on
    # either side, one below only the higher sets it where that one applies.
    p_src1 = c + d  # probability the source bit is 1
    p_dst_if1 = d / (c + d) if c + d > 0 else 0.0
    p_dst_if0 = b / (a + b) if a + b > 0 else 0.0
    low, high = min(p_dst_if1, p_dst_if0), max(p_dst_if1, p_dst_if0)
    draw = np.empty(m, dtype=np.float64)
    src_bit = np.empty(m, dtype=bool)
    dst_bit = np.empty(m, dtype=bool)
    below_high = np.empty(m, dtype=bool)
    for _ in range(scale):
        rng.random(out=draw)
        np.less(draw, p_src1, out=src_bit)
        rng.random(out=draw)
        np.less(draw, low, out=dst_bit)
        if high > low:
            np.less(draw, high, out=below_high)
            if p_dst_if1 > p_dst_if0:
                below_high &= src_bit
            else:  # below the higher and src bit 0, with no temporary
                np.greater(below_high, src_bit, out=below_high)
            dst_bit |= below_high
        src <<= np.uint32(1)
        src |= src_bit
        dst <<= np.uint32(1)
        dst |= dst_bit
    if permute and scale > 0:
        relabel = rng.permutation(n).astype(np.uint32)
        src = relabel[src]
        dst = relabel[dst]
    return Graph(
        num_vertices=n,
        edges=make_edges(src, dst),
        name=name or f"rmat{scale}",
        meta={"generator": "rmat", "scale": scale, "edge_factor": edge_factor},
    )


def random_graph(
    num_vertices: int,
    num_edges: int,
    seed: SeedLike = 0,
    name: Optional[str] = None,
) -> Graph:
    """Uniform directed multigraph: each edge endpoint drawn independently."""
    _check_sizes(num_vertices, num_edges)
    rng = _seeded(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.uint32)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.uint32)
    return Graph(
        num_vertices,
        make_edges(src, dst),
        name=name or f"random-{num_vertices}",
        meta={"generator": "random"},
    )


def _lomax_ranks(
    rng: np.random.Generator,
    count: int,
    exponent: float,
    shift: float,
    num_vertices: int,
) -> np.ndarray:
    """Vertex ranks from a shifted-Pareto (Lomax) inverse transform.

    CCDF(x) = (1 + x/shift)^-(exponent-1): pmf decays like rank^-exponent
    beyond a ~``shift``-vertex flattened head.
    """
    u = rng.random(count)
    lomax = shift * (u ** (-1.0 / (exponent - 1.0)) - 1.0)
    return np.minimum(np.floor(lomax).astype(np.int64), num_vertices - 1)


def powerlaw_graph(
    num_vertices: int,
    num_edges: int,
    exponent: float = 1.8,
    head_shift: Optional[float] = None,
    out_exponent: Optional[float] = None,
    out_shift: Optional[float] = None,
    seed: SeedLike = 0,
    name: Optional[str] = None,
) -> Graph:
    """Directed graph with power-law in-degree (twitter-follower shape).

    Destinations are drawn by vertex rank from a shifted-Pareto (Lomax)
    distribution — tail pmf ~ ``rank^-exponent`` but with the head flattened
    over roughly ``head_shift`` hub vertices, matching real follower graphs
    where the top account holds ~0.1% of all edges, not ~50% as an
    unshifted Zipf head would.  Sources are uniform unless ``out_exponent``
    is given, in which case out-degrees follow their own (rank-correlated)
    Lomax law.  ``exponent`` ~1.5-2.2 covers social networks; ``head_shift``
    defaults to ``num_vertices/64``.
    """
    _check_sizes(num_vertices, num_edges, least=2)
    if exponent <= 1.0:
        raise GraphError(f"exponent must be > 1, got {exponent}")
    if head_shift is None:
        head_shift = max(1.0, num_vertices / 64.0)
    if head_shift <= 0:
        raise GraphError(f"head_shift must be positive, got {head_shift}")
    rng = _seeded(seed)
    relabel = rng.permutation(num_vertices).astype(np.uint32)
    dst = relabel[_lomax_ranks(rng, num_edges, exponent, head_shift, num_vertices)]
    if out_exponent is None:
        src = rng.integers(0, num_vertices, size=num_edges, dtype=np.uint32)
    else:
        if out_exponent <= 1.0:
            raise GraphError(f"out_exponent must be > 1, got {out_exponent}")
        shift = out_shift if out_shift is not None else max(1.0, num_vertices / 8.0)
        # Same relabel for src and dst ranks: popular accounts also follow
        # more, so edges concentrate inside the reachable core (real
        # follower graphs are rank-correlated; without this, a large share
        # of edges would originate from never-visited vertices).
        src = relabel[_lomax_ranks(rng, num_edges, out_exponent, shift, num_vertices)]
    return Graph(
        num_vertices,
        make_edges(src, dst),
        name=name or f"powerlaw-{num_vertices}",
        meta={"generator": "powerlaw", "exponent": exponent},
    )


def grid_graph(width: int, height: int, name: Optional[str] = None) -> Graph:
    """2-D grid with edges in both directions; diameter = width+height-2.

    The canonical high-diameter workload: the frontier is always tiny, so
    per-iteration trimming gains little — the regime motivating the paper's
    trim-threshold policy.
    """
    if width <= 0 or height <= 0:
        raise GraphError("grid dimensions must be positive")
    n = width * height
    ids = np.arange(n, dtype=np.uint32).reshape(height, width)
    horiz_src = ids[:, :-1].ravel()
    horiz_dst = ids[:, 1:].ravel()
    vert_src = ids[:-1, :].ravel()
    vert_dst = ids[1:, :].ravel()
    src = np.concatenate([horiz_src, horiz_dst, vert_src, vert_dst])
    dst = np.concatenate([horiz_dst, horiz_src, vert_dst, vert_src])
    return Graph(
        n,
        make_edges(src, dst),
        name=name or f"grid-{width}x{height}",
        directed=False,
        meta={"generator": "grid", "width": width, "height": height},
    )


def path_graph(num_vertices: int, name: Optional[str] = None) -> Graph:
    """Directed path 0 -> 1 -> ... -> n-1 (maximum-diameter worst case)."""
    if num_vertices <= 0:
        raise GraphError("num_vertices must be positive")
    src = np.arange(num_vertices - 1, dtype=np.uint32)
    return Graph(
        num_vertices,
        make_edges(src, src + 1),
        name=name or f"path-{num_vertices}",
        meta={"generator": "path"},
    )


def star_graph(num_leaves: int, out: bool = True, name: Optional[str] = None) -> Graph:
    """Hub vertex 0 connected to ``num_leaves`` leaves (direction per ``out``)."""
    if num_leaves < 0:
        raise GraphError("num_leaves must be >= 0")
    leaves = np.arange(1, num_leaves + 1, dtype=np.uint32)
    hub = np.zeros(num_leaves, dtype=np.uint32)
    src, dst = (hub, leaves) if out else (leaves, hub)
    return Graph(
        num_leaves + 1,
        make_edges(src, dst),
        name=name or f"star-{num_leaves}",
        meta={"generator": "star"},
    )


def attach_whiskers(
    graph: Graph,
    num_whiskers: int,
    min_length: int = 3,
    max_length: int = 10,
    bidirectional: Optional[bool] = None,
    relabel: bool = True,
    seed: SeedLike = 0,
    name: Optional[str] = None,
) -> Graph:
    """Attach sparse path "whiskers" to random vertices of ``graph``.

    Real web/social graphs are core-periphery: a dense core plus long
    sparse chains ("whiskers") hanging off it, which is what gives their
    BFS a long thin tail of levels after the core converges.  Uniformly
    down-scaling a graph shrinks that tail logarithmically, under-stating
    how many nearly-empty iterations a non-trimming engine must pay for.
    Attaching whiskers restores the full-scale BFS depth while adding only
    a few percent of vertices/edges; the scaled dataset stand-ins use it
    (parameters recorded in graph metadata).

    Each whisker is a directed path ``anchor -> w1 -> ... -> wk`` with
    ``k`` uniform in [min_length, max_length]; ``bidirectional`` (default:
    follow ``graph.directed == False``) adds the reverse arcs.  ``relabel``
    randomly permutes all vertex ids so whisker vertices spread across
    engine partitions instead of clustering at the end of the id space.
    """
    if num_whiskers < 0:
        raise GraphError("num_whiskers must be >= 0")
    if not 1 <= min_length <= max_length:
        raise GraphError(
            f"need 1 <= min_length <= max_length, got {min_length}, {max_length}"
        )
    if bidirectional is None:
        bidirectional = not graph.directed
    rng = rng_from_seed(seed)
    if num_whiskers == 0:
        return graph
    lengths = rng.integers(min_length, max_length + 1, size=num_whiskers)
    anchors = rng.integers(0, graph.num_vertices, size=num_whiskers, dtype=np.int64)
    total_new = int(lengths.sum())
    n_new = graph.num_vertices + total_new
    # Vectorized path construction: new vertex ids are consecutive per
    # whisker; each path edge goes id-1 -> id except the first (anchor -> id).
    new_ids = graph.num_vertices + np.arange(total_new, dtype=np.int64)
    starts = np.zeros(num_whiskers, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    is_first = np.zeros(total_new, dtype=bool)
    is_first[starts] = True
    src_new = new_ids - 1
    src_new[is_first] = anchors
    dst_new = new_ids
    if bidirectional:
        src_all = np.concatenate([graph.edges["src"], src_new, dst_new])
        dst_all = np.concatenate([graph.edges["dst"], dst_new, src_new])
    else:
        src_all = np.concatenate([graph.edges["src"], src_new])
        dst_all = np.concatenate([graph.edges["dst"], dst_new])
    if relabel:
        perm = rng.permutation(n_new).astype(np.uint32)
        src_all = perm[src_all]
        dst_all = perm[dst_all]
    out = Graph(
        n_new,
        make_edges(src_all, dst_all),
        name=name or f"{graph.name}+whiskers",
        directed=graph.directed,
        meta=dict(graph.meta),
    )
    out.meta.update(
        {
            "whiskers": num_whiskers,
            "whisker_min_length": min_length,
            "whisker_max_length": max_length,
        }
    )
    return out
