"""Scatter/gather algorithm kernels for the edge-centric engines.

The engines (X-Stream, FastBFS) are generic BSP scatter/gather machines; an
algorithm object supplies the per-edge and per-update semantics:

* ``state`` — a :class:`VertexState`, one contiguous column per field of
  the kernel's ``state_dtype``.  The ``active`` column marks vertices
  updated in the previous gather (the current frontier); the engine clears
  a partition's flags after scattering it.
* ``scatter`` — given the active flags and an edge buffer, produce update
  records and (optionally) the eliminate mask that drives FastBFS trimming.
* ``gather`` — apply a partition's update stream, activating newly changed
  vertices; returns how many were activated (global termination = zero
  updates generated in a scatter pass).

The engines call a kernel once per *host run* (many modeled stream buffers
at a time; see ``repro.engines.base``), so ``scatter`` must be a per-edge
function of the partition's state, and a kernel whose ``gather`` is not
invariant under concatenating buffers says so (``gather_run_invariant``).

``supports_trimming`` is True only when "edge generated an update" implies
"edge is useless forever" — true for BFS-like monotone visits (paper §II-C1:
vertices are marked once and never revisited), false for label-correcting
algorithms like WCC/weighted SSSP, where the engines fall back to plain
streaming.  This is exactly the BFS-specific nature of the paper's
optimization, kept explicit in the API.  Every engine's rescans rely on it
too: a rescan of the same edge records hands a trimming kernel only the
edges it has not eliminated (``repro.engines.base``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import EngineError
from repro.graph.types import NO_PARENT, UNVISITED, UPDATE_DTYPE
from repro.utils.bits import earlier_bits_in_run, mask_bit_counts, mask_bit_pairs

#: Width of one MS-BFS batch: one query per bit of a ``uint64`` mask word.
BATCH_WIDTH = 64

#: Update record for batched traversals: destination, parent payload, and
#: the liveness mask naming which queries of the batch this update serves.
BATCH_UPDATE_DTYPE = np.dtype(
    [("dst", "<u4"), ("payload", "<u4"), ("mask", "<u8")]
)


@dataclass
class AlgoContext:
    """Per-iteration context handed to scatter/gather."""

    iteration: int


class StreamingAlgorithm:
    """Base class; subclasses define state layout and kernels."""

    name: str = "abstract"
    #: True when update-generating edges can be eliminated (BFS pattern):
    #: an edge the eliminate mask marks in one pass is never selected in a
    #: later one.  FastBFS's stay files rely on it, and so do the engines'
    #: rescans, which stop handing such an edge to ``scatter``.
    supports_trimming: bool = False
    #: Per-vertex fields, held as one column each (:class:`VertexState`).
    #: Must contain an ``active`` u1 field.
    state_dtype: np.dtype = np.dtype([("active", "u1")])
    #: Bytes per vertex as charged for on-disk vertex-set I/O.
    disk_record_bytes: int = 8
    #: On-disk layout of one update record (batched kernels widen this).
    update_dtype: np.dtype = UPDATE_DTYPE
    #: True when ``gather`` over the concatenation of consecutive update
    #: buffers leaves the same state *and returns the same count* as
    #: gathering them one by one.  The engines then gather a whole host run
    #: in one call; otherwise they call once per modeled buffer.
    gather_run_invariant: bool = False
    #: Scatter passes a run makes before it stops (the final gather still
    #: runs), for kernels with no convergence event; None runs until a
    #: pass generates no update.
    rounds: Optional[int] = None

    def init_state(self, num_vertices: int, roots) -> "VertexState":
        raise NotImplementedError

    def init_state_validated(self, num_vertices: int, roots) -> "VertexState":
        """Build state from roots the engine boundary already validated.

        ``engine.run()``/``run_many()`` validate every root entry before
        staging (so a bad query fails without touching the machine) and
        hand the validated arrays through the session to this entry point,
        avoiding a second validation pass.  The default simply defers to
        :meth:`init_state`; algorithms with non-trivial root checks
        override both and share the body.
        """
        return self.init_state(num_vertices, roots)

    def scatter(
        self,
        ctx: AlgoContext,
        state: np.ndarray,
        src_local: np.ndarray,
        src_global: np.ndarray,
        dst_global: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Return ``(updates, sources, eliminate_mask or None)`` for edges
        of a run: ``sources[k]`` is the position, within the edges passed,
        of the edge that produced ``updates[k]`` (ascending), and the mask
        has one entry per edge passed.  The engine maps ``sources`` to the
        run's modeled buffers.

        The edges passed may be a subset of the run, in stream order: on a
        rescan of the same edge records a trimming kernel gets only the
        edges it has not eliminated (see ``supports_trimming``).  On a
        rescan ``src_local`` is read-only, a view of an array the engine
        holds across passes, so a kernel that writes to it raises instead
        of corrupting the next pass."""
        raise NotImplementedError

    def gather(
        self,
        ctx: AlgoContext,
        state: np.ndarray,
        dst_local: np.ndarray,
        payload: np.ndarray,
    ) -> int:
        """Apply updates to the partition state; return #newly activated."""
        raise NotImplementedError

    def after_gather(self, ctx: AlgoContext, state: np.ndarray) -> None:
        """Called once per partition after its update stream is consumed
        (and before that partition's next scatter).  Iterative numeric
        algorithms (e.g. PageRank) finalize the round's values here; the
        traversal algorithms need nothing."""

    def after_partition_scatter(
        self, ctx: AlgoContext, state: np.ndarray
    ) -> None:
        """Called right after the engine clears a partition's ``active``
        flags at the end of its scatter.  Batched kernels clear their
        frontier mask words here; the serial algorithms need nothing."""

    def gather_payload(self, buf: np.ndarray) -> np.ndarray:
        """Extract what :meth:`gather` consumes from one update buffer.

        The serial kernels take the ``payload`` column; batched kernels
        take the whole record (payload plus liveness mask).
        """
        return buf["payload"]

    def update_weights(self, updates: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """Serial-equivalent work units of routing (shuffle) or applying
        (gather) each modeled buffer ``updates[cuts[b]:cuts[b + 1]]`` of a
        run of update records.

        One per record for serial kernels; the liveness-mask popcount for
        batched kernels, so per-update cost scales with how many queries
        each record serves (see ``repro.engines.costs``).
        """
        return np.diff(cuts)

    def batched(self, num_queries: int) -> Optional["StreamingAlgorithm"]:
        """A batched (MS-BFS style) kernel advancing ``num_queries``
        traversals per edge scan, or None when this algorithm cannot be
        batched (label-correcting algorithms); the scheduler then falls
        back to the serial checkpoint/restore path."""
        return None

    def result(self, state: np.ndarray) -> Dict[str, np.ndarray]:
        """Extract the user-facing output arrays from the final state."""
        raise NotImplementedError

    def extended_eliminate(
        self, state: np.ndarray, src_local: np.ndarray, base_mask: np.ndarray
    ) -> np.ndarray:
        """Widen the eliminate mask beyond the paper's generate=>eliminate rule.

        Used by the ``extended_trim`` ablation; the default adds nothing.
        """
        return base_mask


def check_roots(num_vertices: int, roots) -> np.ndarray:
    """The one root rule: a non-empty set of integer vertex ids in range.

    ``roots`` is one vertex id or a sequence (or array) of them.  Every
    query front door calls this before staging, so a bad root set is an
    :class:`~repro.errors.EngineError` that leaves the machine untouched.
    Returns the roots as an ``int64`` array.
    """
    if isinstance(roots, np.ndarray):
        roots = np.atleast_1d(roots)
    elif not isinstance(roots, (list, tuple)):
        roots = [roots]
    if not (isinstance(roots, np.ndarray) and roots.dtype.kind in "iu"):
        for r in roots:  # a bool is an int to Python, not here
            if isinstance(r, bool) or not isinstance(r, (int, np.integer)):
                raise EngineError(f"a root must be an integer, got {r!r}")
    # Range-check before the int64 conversion: a Python int past int64
    # (an object array here) would make that raise OverflowError.
    roots = np.asarray(roots)
    if len(roots) == 0:
        raise EngineError("a query needs at least one root vertex")
    if roots.min() < 0 or roots.max() >= num_vertices:
        raise EngineError(
            f"root out of range [0, {num_vertices}): {roots.tolist()}"
        )
    return np.asarray(roots, dtype=np.int64)


class VertexState:
    """A query's per-vertex state: one contiguous array per field.

    ``state[name]`` is field ``name``'s column, and any other index (a
    partition's ``state[lo:hi]``) gives a state over those rows of every
    column: a slice is a view, so a kernel's writes through it land in the
    query's columns.  Kernels index the columns directly, so a per-element
    lookup never strides over the other fields and clearing a column is one
    contiguous fill.  ``dtype`` is the record the columns make up (what the
    vertex files charge per vertex is ``disk_record_bytes``, not this).
    """

    __slots__ = ("_columns",)

    def __init__(self, columns: Dict[str, np.ndarray]) -> None:
        self._columns = columns

    @classmethod
    def zeros(cls, dtype: np.dtype, num_vertices: int) -> "VertexState":
        return cls({
            name: np.zeros(num_vertices, dtype=dtype.fields[name][0])
            for name in dtype.names
        })

    def __getitem__(self, key):
        if isinstance(key, str):
            return self._columns[key]
        return VertexState(
            {name: column[key] for name, column in self._columns.items()}
        )

    def __setitem__(self, name: str, value) -> None:
        self._columns[name][...] = value

    def __len__(self) -> int:
        return len(next(iter(self._columns.values())))

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(
            [(name, column.dtype) for name, column in self._columns.items()]
        )

    def copy(self) -> "VertexState":
        return VertexState(
            {name: column.copy() for name, column in self._columns.items()}
        )

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The state as one record array (a copy), e.g. to compare two."""
        records = np.empty(len(self), dtype=self.dtype)
        for name, column in self._columns.items():
            records[name] = column
        return records if dtype is None else records.astype(dtype)


def _make_updates(dst: np.ndarray, payload: np.ndarray) -> np.ndarray:
    updates = np.empty(len(dst), dtype=UPDATE_DTYPE)
    updates["dst"] = dst
    updates["payload"] = payload
    return updates


def _by_destination(
    dst_local: np.ndarray, keep: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable-sort the records at positions ``keep`` by destination.

    Returns ``(dst, order, is_start)``: the sorted destinations, the stream
    position of each sorted record, and a flag on the first record of every
    run of equal destinations, which is the first of them to arrive.
    Sorting the unique keys (destination, stream position) with the default
    sort gives the stable order several times faster than ``kind="stable"``
    (and than ``np.unique``, which sorts stably inside); vertex ids are
    32-bit and a run holds under 2**31 records, so a key fits an int64.
    """
    shift = len(dst_local).bit_length()
    keys = (dst_local.take(keep).astype(np.int64, copy=False) << shift) | keep
    keys.sort()
    dst = keys >> shift
    order = keys & ((1 << shift) - 1)
    is_start = np.empty(len(dst), dtype=bool)
    is_start[0] = True
    np.not_equal(dst[1:], dst[:-1], out=is_start[1:])
    return dst, order, is_start


class BFSAlgorithm(StreamingAlgorithm):
    """Breadth-first search: level + parent per vertex, visited exactly once.

    Scatter: every out-edge of an active (just-visited) vertex emits an
    update carrying the parent id, and — the FastBFS insight — is thereby
    dead and eliminable.  Gather: the first update to reach an unvisited
    vertex claims it at level ``iteration + 1``.
    """

    name = "bfs"
    supports_trimming = True
    state_dtype = np.dtype([("level", "<i4"), ("parent", "<u4"), ("active", "u1")])
    #: Key the per-query hop-count array is published under in ``result()``
    #: (also used when demultiplexing a batched run).
    level_output_key = "level"
    #: The first update in stream order wins and a vertex is claimed once,
    #: so where the buffer boundaries fall changes nothing.
    gather_run_invariant = True

    def init_state(self, num_vertices: int, roots) -> VertexState:
        return self.init_state_validated(
            num_vertices, check_roots(num_vertices, roots)
        )

    def init_state_validated(self, num_vertices: int, roots) -> VertexState:
        roots = np.atleast_1d(np.asarray(roots, dtype=np.int64))
        state = VertexState.zeros(self.state_dtype, num_vertices)
        state["level"][:] = UNVISITED
        state["parent"][:] = NO_PARENT
        state["level"][roots] = 0
        state["active"][roots] = 1
        return state

    def batched(self, num_queries: int) -> "BatchedBFSAlgorithm":
        return BatchedBFSAlgorithm(num_queries, serial=self)

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        mask = state["active"].take(src_local) == 1
        sel = np.flatnonzero(mask)
        return _make_updates(dst_global[sel], src_global[sel]), sel, mask

    def gather(self, ctx, state, dst_local, payload) -> int:
        level = state["level"]
        fresh = np.flatnonzero(level.take(dst_local) == UNVISITED)
        if len(fresh) == 0:
            return 0
        # First update to arrive wins (stream order), matching the paper's
        # "marks the corresponding destination vertices as visited": the
        # least position offered to each destination, found in one pass
        # over the fresh updates, no sort.  The scratch is the destinations'
        # own parent entries: an unvisited vertex holds NO_PARENT, above any
        # position of a run (under 2**32 records), and every entry the pass
        # lowers is claimed, so it is overwritten with the parent next.
        dst = dst_local.take(fresh)
        pos = fresh.astype(np.uint32)  # one dtype keeps ufunc.at's fast loop
        parent = state["parent"]
        np.minimum.at(parent, dst, pos)
        won = parent.take(dst) == pos
        uniq = dst[won]
        parent[uniq] = payload[pos[won]]
        level[uniq] = ctx.iteration + 1
        state["active"][uniq] = 1
        return len(uniq)

    def result(self, state):
        return {
            "level": state["level"].copy(),
            "parent": state["parent"].copy(),
        }

    def extended_eliminate(self, state, src_local, base_mask):
        """Also drop edges whose source was visited in an *earlier* level.

        Such edges already sent their updates (or entered the graph after
        their source converged, e.g. when an earlier stay write was
        cancelled) and can never contribute again.  Stricter than the
        paper's rule; exercised by the trimming ablation bench.
        """
        return base_mask | (state["level"][src_local] != UNVISITED)


class UnitSSSPAlgorithm(BFSAlgorithm):
    """Single-source shortest paths with unit weights.

    Identical traversal to BFS (hop counts *are* the distances); exposed as
    its own algorithm because the paper positions BFS as the building block
    for shortest-path computations, and it gives the engines' "more
    traversal algorithms" future-work hook a second trimming-capable client.
    """

    name = "unit-sssp"
    level_output_key = "distance"

    def result(self, state):
        out = super().result(state)
        out["distance"] = out.pop("level")
        return out


class WCCAlgorithm(StreamingAlgorithm):
    """Weakly connected components by min-label propagation.

    Label-correcting: a vertex may improve many times, so no edge is ever
    provably useless and ``supports_trimming`` stays False — running this on
    FastBFS exercises its graceful fallback to X-Stream behaviour.  Input
    must contain both directions of each edge (``Graph.symmetrized``).
    """

    name = "wcc"
    supports_trimming = False
    state_dtype = np.dtype([("label", "<u4"), ("active", "u1")])
    # gather_run_invariant stays False: a vertex that improves in two
    # buffers is counted in each, so the count depends on the boundaries.

    def init_state(self, num_vertices: int, roots=None) -> VertexState:
        state = VertexState.zeros(self.state_dtype, num_vertices)
        state["label"][:] = np.arange(num_vertices, dtype=np.uint32)
        state["active"][:] = 1  # every vertex broadcasts its label once
        return state

    def scatter(self, ctx, state, src_local, src_global, dst_global):
        sel = np.flatnonzero(state["active"].take(src_local) == 1)
        labels = state["label"].take(src_local.take(sel))
        return _make_updates(dst_global[sel], labels), sel, None

    def gather(self, ctx, state, dst_local, payload) -> int:
        before = state["label"][dst_local].copy()
        np.minimum.at(state["label"], dst_local, payload)
        improved_positions = state["label"][dst_local] < before
        improved = np.unique(dst_local[improved_positions])
        state["active"][improved] = 1
        return len(improved)

    def result(self, state):
        return {"label": state["label"].copy()}


class BatchedBFSAlgorithm(StreamingAlgorithm):
    """MS-BFS: up to :data:`BATCH_WIDTH` concurrent BFS traversals per scan.

    Per-vertex state packs one frontier bit and one visited bit per query
    into ``uint64`` mask words; the shared ``active`` flag (any frontier
    bit set) keeps the engines' selective scheduling working unchanged.
    Per-query levels and parents are outputs, not state every pass scans:
    the kernel holds them as ``(Q, V)`` arrays, one row per query slot.
    Scatter emits one update record per frontier edge carrying the *mask*
    of queries it serves; gather claims each destination per query bit
    with the same first-update-wins stream order as the serial kernel, so
    demultiplexed levels/parents are bit-identical to Q serial runs.

    Trimming generalizes the paper's rule to the batch: an edge is dead
    only when its source is visited for **every live query** (queries that
    stopped generating updates leave the liveness mask, re-arming the
    trim).  Liveness for pass *i* is exactly the OR of masks generated in
    pass *i-1*, tracked here per pass so interleaved gather(i-1)/scatter(i)
    contexts never race.
    """

    name = "batched-bfs"
    supports_trimming = True
    #: Per pass the two mask words round-trip through the vertex-set files
    #: (16 bytes); per-query levels/parents are written once at visit time
    #: into the kernel's output rows, like the serial kernel's ``active``.
    disk_record_bytes = 16
    update_dtype = BATCH_UPDATE_DTYPE
    #: Sorting by (destination, stream position) gives first-wins per
    #: (vertex, query) across a whole run, as it does within one buffer.
    gather_run_invariant = True

    def __init__(
        self, num_queries: int, serial: Optional[BFSAlgorithm] = None
    ) -> None:
        if not 1 <= num_queries <= BATCH_WIDTH:
            raise EngineError(
                f"batch width must be in [1, {BATCH_WIDTH}], got {num_queries}"
            )
        self.num_queries = num_queries
        self.serial = serial if serial is not None else BFSAlgorithm()
        self.level_output_key = self.serial.level_output_key
        self.state_dtype = np.dtype(
            [("frontier", "<u8"), ("visited", "<u8"), ("active", "u1")]
        )
        self._full_mask = np.uint64((1 << num_queries) - 1 if num_queries < 64
                                    else 0xFFFFFFFFFFFFFFFF)
        self.reset()

    def reset(self) -> None:
        """Clear per-run bookkeeping (a crash replay starts from scratch)."""
        #: OR of the masks of all updates generated during pass i.
        self._generated_mask: Dict[int, int] = {}
        #: Per-query update counts generated during pass i.
        self._updates_by_pass: Dict[int, np.ndarray] = {}
        #: Per-query vertices newly claimed at level i (gather of pass i).
        self._activated_by_pass: Dict[int, np.ndarray] = {}
        #: Row q is slot q's level / parent of every vertex (built by
        #: ``init_state_validated``, written through flat indices).
        self._levels = np.empty((self.num_queries, 0), dtype=np.int32)
        self._parents = np.empty((self.num_queries, 0), dtype=np.uint32)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def init_state(self, num_vertices: int, roots) -> VertexState:
        entries = [check_roots(num_vertices, r) for r in roots]
        return self.init_state_validated(num_vertices, entries)

    def init_state_validated(self, num_vertices: int, roots) -> VertexState:
        """``roots`` is one entry per query slot: a root vertex or a root
        set for a multi-source slot (already validated at the boundary)."""
        slots = [np.atleast_1d(np.asarray(r, dtype=np.int64)) for r in roots]
        if len(slots) != self.num_queries:
            raise EngineError(
                f"batched kernel of width {self.num_queries} got "
                f"{len(slots)} root entries"
            )
        self.reset()
        shape = (self.num_queries, num_vertices)
        self._levels = np.full(shape, UNVISITED, dtype=np.int32)
        self._parents = np.full(shape, NO_PARENT, dtype=np.uint32)
        state = VertexState.zeros(self.state_dtype, num_vertices)
        frontier = state["frontier"]
        for q, slot_roots in enumerate(slots):
            bit = np.uint64(1 << q)
            frontier[slot_roots] |= bit
            self._levels[q, slot_roots] = 0
            state["active"][slot_roots] = 1
        state["visited"][:] = frontier
        return state

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    def live_mask(self, iteration: int) -> np.uint64:
        """Queries that may still generate updates in pass ``iteration``:
        everyone at pass 0, afterwards whoever generated in the previous
        pass (a query that went silent has converged and drops out)."""
        if iteration <= 0:
            return self._full_mask
        return np.uint64(self._generated_mask.get(iteration - 1, 0))

    # ------------------------------------------------------------------
    # kernels
    # ------------------------------------------------------------------
    def scatter(self, ctx, state, src_local, src_global, dst_global):
        frontier = state["frontier"]
        fmask = frontier.take(src_local)
        sel = fmask.nonzero()[0]
        updates = np.empty(len(sel), dtype=BATCH_UPDATE_DTYPE)
        updates["dst"] = dst_global[sel]
        updates["payload"] = src_global[sel]
        updates["mask"] = fmask.take(sel)
        if len(sel):
            # Every update carries its source's frontier word, so the pass's
            # bookkeeping needs each distinct source once, with the number
            # of updates it emitted.
            emitted = np.bincount(src_local.take(sel))
            srcs = np.flatnonzero(emitted)
            masks = frontier.take(srcs)
            gen = self._generated_mask.get(ctx.iteration, 0)
            self._generated_mask[ctx.iteration] = gen | int(
                np.bitwise_or.reduce(masks)
            )
            counts = self._updates_by_pass.setdefault(
                ctx.iteration, np.zeros(self.num_queries, dtype=np.int64)
            )
            counts += mask_bit_counts(
                masks, self.num_queries, weights=emitted.take(srcs)
            )
        live = self.live_mask(ctx.iteration)
        if live == 0:
            eliminate = np.zeros(len(src_local), dtype=bool)
        else:
            eliminate = (state["visited"].take(src_local) & live) == live
        return updates, sel, eliminate

    def gather(self, ctx, state, dst_local, payload) -> int:
        buf = payload  # full records (see gather_payload)
        # Bits the destination has not been claimed for yet; a record left
        # with none is stale for every query it serves.
        fresh = buf["mask"] & ~state["visited"].take(dst_local)
        keep = fresh.nonzero()[0]
        if len(keep) == 0:
            return 0
        dst, order, is_start = _by_destination(dst_local, keep)
        fresh = fresh.take(order)
        # Strip from every record the bits an earlier record of the same
        # destination carries: what is left is the first update to arrive
        # per (vertex, query), exactly the serial kernel's tie-break.
        claim = fresh & ~earlier_bits_in_run(fresh, is_start)

        starts = is_start.nonzero()[0]
        reached = dst[starts]
        claimed = np.bitwise_or.reduceat(fresh, starts)
        state["visited"][reached] |= claimed
        state["frontier"][reached] |= claimed
        state["active"][reached] = 1

        level = ctx.iteration + 1
        winners, queries = mask_bit_pairs(claim, self.num_queries)
        # ``dst`` is partition-relative; the records carry global ids,
        # which index the (Q, V) output rows as one flat position each.
        rows = order.take(winners)
        at = queries * self._levels.shape[1] + buf["dst"].take(rows)
        self._levels.put(at, level)
        self._parents.put(at, buf["payload"].take(rows))
        per_q = self._activated_by_pass.setdefault(
            level, np.zeros(self.num_queries, dtype=np.int64)
        )
        per_q += np.bincount(queries, minlength=self.num_queries)
        return len(queries)

    def after_partition_scatter(self, ctx, state) -> None:
        state["frontier"][:] = 0

    def extended_eliminate(self, state, src_local, base_mask):
        """The batch rule is already liveness-aware; nothing to widen."""
        return base_mask

    def gather_payload(self, buf: np.ndarray) -> np.ndarray:
        return buf

    def update_weights(self, updates: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """Set bits per buffer: one bit is one serial-equivalent update.

        ``np.add.reduceat`` sums each non-empty buffer's counts.  It would
        give an empty buffer (equal cuts) the next record's count, so those
        keep their zero, and it sums the last buffer to the end of its
        input, so that ends at ``cuts[-1]``.
        """
        counts = np.bitwise_count(updates["mask"][: cuts[-1]])
        weights = np.zeros(len(cuts) - 1, dtype=np.int64)
        full = np.flatnonzero(cuts[1:] > cuts[:-1])
        if len(full):
            weights[full] = np.add.reduceat(counts, cuts.take(full), dtype=np.int64)
        return weights

    # ------------------------------------------------------------------
    # per-query demultiplexing (consumed by BatchedQuerySession)
    # ------------------------------------------------------------------
    def per_query_updates(self, iteration: int) -> np.ndarray:
        """Updates generated for each query during ``iteration``."""
        counts = self._updates_by_pass.get(iteration)
        if counts is None:
            return np.zeros(self.num_queries, dtype=np.int64)
        return counts

    def per_query_activated(self, iteration: int) -> np.ndarray:
        """Vertices newly claimed at level ``iteration`` for each query."""
        counts = self._activated_by_pass.get(iteration)
        if counts is None:
            return np.zeros(self.num_queries, dtype=np.int64)
        return counts

    def query_iterations(self, q: int, num_passes: int) -> int:
        """How many passes a serial run of slot ``q`` would have executed:
        its last generating pass plus the draining gather pass, or the
        single silent scatter pass when the slot never generated."""
        last = -1
        for i in range(num_passes):
            if self.per_query_updates(i)[q] > 0:
                last = i
        return last + 2 if last >= 0 else 1

    def query_output(self, q: int) -> Dict[str, np.ndarray]:
        """Demultiplex slot ``q``'s result arrays (serial key names)."""
        return {
            self.level_output_key: self._levels[q].copy(),
            "parent": self._parents[q].copy(),
        }
