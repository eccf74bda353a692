"""Unit tests for the scatter/gather algorithm kernels."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.pagerank import PageRankAlgorithm
from repro.algorithms.sssp import WeightedSSSPAlgorithm
from repro.algorithms.streaming import (
    BATCH_UPDATE_DTYPE,
    AlgoContext,
    BatchedBFSAlgorithm,
    BFSAlgorithm,
    UnitSSSPAlgorithm,
    WCCAlgorithm,
    _by_destination,
    check_roots,
)
from repro.core.engine import FastBFSEngine
from repro.engines.base import HOST_RUN_RECORDS
from repro.engines.xstream import XStreamEngine
from repro.errors import EngineError
from repro.graph.graph import Graph
from repro.graph.partition import VertexPartitioning
from repro.graph.types import NO_PARENT, UNVISITED, UPDATE_DTYPE
from repro.storage.device import Device
from repro.utils.bits import mask_bit_counts
from tests.helpers import (
    fresh_machine,
    hub_root,
    small_engine_config,
    small_fastbfs_config,
)


class TestBFSInit:
    def test_init_state(self):
        algo = BFSAlgorithm()
        state = algo.init_state(5, [2])
        assert state["level"].tolist() == [-1, -1, 0, -1, -1]
        assert state["active"].tolist() == [0, 0, 1, 0, 0]
        assert state["parent"][2] == NO_PARENT

    def test_multiple_roots(self):
        state = BFSAlgorithm().init_state(4, [0, 3])
        assert state["active"].sum() == 2

    def test_root_out_of_range(self):
        with pytest.raises(EngineError):
            BFSAlgorithm().init_state(3, [3])

    def test_no_roots(self):
        with pytest.raises(EngineError):
            BFSAlgorithm().init_state(3, [])

    def test_trimming_supported(self):
        assert BFSAlgorithm.supports_trimming is True


class TestVertexState:
    def test_a_write_through_a_slice_lands_in_the_parent_column(self):
        state = BFSAlgorithm().init_state(8, [0])
        part = state[2:6]
        assert len(part) == 4
        part["level"][1] = 7
        part["active"][:] = 1
        assert state["level"][3] == 7
        assert state["active"].tolist() == [1, 0, 1, 1, 1, 1, 0, 0]
        # A kernel handed the slice writes the query's columns too.
        claimed = BFSAlgorithm().gather(
            AlgoContext(4), part, np.array([0, 2, 0]),
            np.array([9, 8, 7], dtype=np.uint32),
        )
        assert claimed == 2
        assert state["level"][[2, 4]].tolist() == [5, 5]
        assert state["parent"][[2, 4]].tolist() == [9, 8]

    def test_columns_are_contiguous_and_the_record_is_their_fields(self):
        state = BFSAlgorithm().init_state(5, [2])
        assert state.dtype == BFSAlgorithm.state_dtype
        for name in state.dtype.names:
            assert state[name].flags.c_contiguous
        records = np.asarray(state)
        assert records.dtype == BFSAlgorithm.state_dtype
        assert records["level"].tolist() == [-1, -1, 0, -1, -1]


class TestCheckRoots:
    @pytest.mark.parametrize("roots", [
        2, np.int32(2), [0, np.uint64(4)], (1, 2),
        np.array([1, 4]), np.array(3, dtype=np.uint8),
    ])
    def test_integers_accepted_as_int64(self, roots):
        out = check_roots(5, roots)
        assert out.dtype == np.int64
        assert out.tolist() == np.atleast_1d(np.asarray(roots)).tolist()

    @pytest.mark.parametrize("roots", [
        True, 2.0, np.float64(1.0), "3", None, [1, False], [1.5],
        np.array([1.0]), np.array([True]), [[1, 2]],
    ], ids=repr)
    def test_non_integers_refused(self, roots):
        with pytest.raises(EngineError, match="must be an integer"):
            check_roots(5, roots)

    @pytest.mark.parametrize("roots", [[], np.array([], dtype=np.int64)])
    def test_empty_refused(self, roots):
        with pytest.raises(EngineError, match="at least one root"):
            check_roots(5, roots)

    @pytest.mark.parametrize("roots", [5, -1, [0, 2 ** 70], -(2 ** 70)])
    def test_out_of_range_refused(self, roots):
        with pytest.raises(EngineError, match="out of range"):
            check_roots(5, roots)


class TestBFSScatter:
    def test_only_active_sources_generate(self):
        algo = BFSAlgorithm()
        state = algo.init_state(4, [1])
        src_local = np.array([0, 1, 1, 2])
        src_global = np.array([0, 1, 1, 2], dtype=np.uint32)
        dst_global = np.array([9, 5, 6, 7], dtype=np.uint32)
        updates, sources, eliminate = algo.scatter(
            AlgoContext(0), state, src_local, src_global, dst_global
        )
        assert updates["dst"].tolist() == [5, 6]
        assert updates["payload"].tolist() == [1, 1]  # parent = source
        assert eliminate.tolist() == [False, True, True, False]

    def test_generate_implies_eliminate(self):
        """Paper §II-C1: an edge that generates an update is dead."""
        algo = BFSAlgorithm()
        state = algo.init_state(8, [0])
        src_local = np.arange(8)
        src_global = src_local.astype(np.uint32)
        dst_global = ((src_local + 1) % 8).astype(np.uint32)
        updates, sources, eliminate = algo.scatter(
            AlgoContext(0), state, src_local, src_global, dst_global
        )
        assert int(eliminate.sum()) == len(updates)

    def test_extended_eliminate_drops_visited_sources(self):
        algo = BFSAlgorithm()
        state = algo.init_state(4, [0])
        state["level"][1] = 3  # visited earlier, not active
        src_local = np.array([0, 1, 2])
        base = np.array([True, False, False])
        extended = algo.extended_eliminate(state, src_local, base)
        assert extended.tolist() == [True, True, False]


class TestBFSGather:
    def test_first_update_wins(self):
        algo = BFSAlgorithm()
        state = algo.init_state(4, [0])
        state["active"][:] = 0
        dst_local = np.array([2, 2, 3])
        payload = np.array([7, 8, 9], dtype=np.uint32)
        activated = algo.gather(AlgoContext(1), state, dst_local, payload)
        assert activated == 2
        assert state["level"][2] == 2  # iteration + 1
        assert state["parent"][2] == 7  # stream order: first wins
        assert state["parent"][3] == 9
        assert state["active"][2] == 1

    def test_first_update_wins_across_a_run(self):
        """The engines gather a host run of many modeled buffers in one
        call.  A destination offered in what would have been two different
        buffers keeps the earlier parent, exactly as when the first buffer
        claimed it and the second found it visited."""
        per_buffer = 4
        dst_local = np.array([5, 1, 5, 2,   2, 5, 3, 1,   3, 6])
        payload = np.arange(10, 20, dtype=np.uint32)
        whole, split = BFSAlgorithm(), BFSAlgorithm()
        whole_state = whole.init_state(8, [0])
        split_state = split.init_state(8, [0])
        claimed = whole.gather(AlgoContext(0), whole_state, dst_local, payload)
        by_buffer = sum(
            split.gather(
                AlgoContext(0), split_state,
                dst_local[at:at + per_buffer], payload[at:at + per_buffer],
            )
            for at in range(0, len(dst_local), per_buffer)
        )
        assert claimed == by_buffer == 5
        assert np.array_equal(whole_state, split_state)
        # 2 is offered by records 3 and 4 (buffers 0 and 1), 3 by records 6
        # and 8 (buffers 1 and 2): the earlier record is the parent.
        assert whole_state["parent"][[1, 2, 3, 5, 6]].tolist() == [11, 13, 16, 10, 19]

    def test_visited_vertices_ignored(self):
        algo = BFSAlgorithm()
        state = algo.init_state(3, [0])
        activated = algo.gather(
            AlgoContext(4), state, np.array([0]), np.array([2], dtype=np.uint32)
        )
        assert activated == 0
        assert state["level"][0] == 0  # unchanged
        assert state["parent"][0] == NO_PARENT

    def test_empty_updates(self):
        algo = BFSAlgorithm()
        state = algo.init_state(3, [0])
        assert algo.gather(
            AlgoContext(0), state, np.array([], dtype=np.int64),
            np.array([], dtype=np.uint32),
        ) == 0

    def test_result_copies(self):
        algo = BFSAlgorithm()
        state = algo.init_state(3, [0])
        out = algo.result(state)
        out["level"][0] = 99
        assert state["level"][0] == 0


def gather_by_sort(ctx, state, dst_local, payload) -> int:
    """The sort rule ``BFSAlgorithm.gather`` is held to: stable-sort the
    fresh updates by destination and let the first of each run of equal
    destinations claim it."""
    fresh = np.flatnonzero(state["level"][dst_local] == UNVISITED)
    if len(fresh) == 0:
        return 0
    dst, order, is_start = _by_destination(dst_local, fresh)
    uniq = dst[is_start]
    state["level"][uniq] = ctx.iteration + 1
    state["parent"][uniq] = payload[order[is_start]]
    state["active"][uniq] = 1
    return len(uniq)


@st.composite
def gather_inputs(draw):
    """``(state, dst_local, payload, cuts)``: few vertices, so destinations
    repeat; a random visited set (levels 0-3, any parent) and active set;
    and random cuts of the updates into the runs gathered one by one."""
    n = draw(st.integers(min_value=1, max_value=24))
    state = BFSAlgorithm().init_state(n, [0])
    visited = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    for v in np.flatnonzero(visited):
        state["level"][v] = draw(st.integers(min_value=0, max_value=3))
        state["parent"][v] = draw(st.integers(min_value=0, max_value=2**32 - 2))
    state["active"][:] = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    count = draw(st.integers(min_value=0, max_value=60))
    dst = draw(st.lists(
        st.integers(min_value=0, max_value=n - 1), min_size=count, max_size=count
    ))
    payload = draw(st.lists(
        st.integers(min_value=0, max_value=2**32 - 2), min_size=count, max_size=count
    ))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=count), max_size=4
    )))
    return (
        state, np.array(dst, dtype=np.int64),
        np.array(payload, dtype=np.uint32), [0, *cuts, count],
    )


class TestFirstArrivalProperty:
    """``BFSAlgorithm.gather`` finds each destination's first fresh update
    in one pass (``np.minimum.at``); the sort it replaced is the rule."""

    @settings(derandomize=True, deadline=None)
    @given(gather_inputs(), st.integers(min_value=0, max_value=5))
    def test_matches_the_sort_rule_run_by_run(self, inputs, iteration):
        state, dst_local, payload, cuts = inputs
        expected = state.copy()
        ctx = AlgoContext(iteration)
        for start, stop in zip(cuts, cuts[1:]):
            run = slice(start, stop)
            claimed = BFSAlgorithm().gather(ctx, state, dst_local[run], payload[run])
            assert claimed == gather_by_sort(
                ctx, expected, dst_local[run], payload[run]
            )
            for field in ("level", "parent", "active"):
                assert np.array_equal(state[field], expected[field]), field


class TestUnitSSSP:
    def test_result_key_is_distance(self):
        algo = UnitSSSPAlgorithm()
        state = algo.init_state(3, [0])
        out = algo.result(state)
        assert "distance" in out and "level" not in out

    def test_same_traversal_as_bfs(self):
        assert UnitSSSPAlgorithm.supports_trimming is True


class TestWCC:
    def test_init_all_active_own_label(self):
        algo = WCCAlgorithm()
        state = algo.init_state(4)
        assert state["label"].tolist() == [0, 1, 2, 3]
        assert state["active"].all()

    def test_no_trimming(self):
        assert WCCAlgorithm.supports_trimming is False

    def test_scatter_broadcasts_labels(self):
        algo = WCCAlgorithm()
        state = algo.init_state(3)
        updates, sources, eliminate = algo.scatter(
            AlgoContext(0),
            state,
            np.array([0, 2]),
            np.array([0, 2], dtype=np.uint32),
            np.array([1, 1], dtype=np.uint32),
        )
        assert eliminate is None
        assert updates["payload"].tolist() == [0, 2]

    def test_gather_takes_min(self):
        algo = WCCAlgorithm()
        state = algo.init_state(4)
        state["active"][:] = 0
        activated = algo.gather(
            AlgoContext(0),
            state,
            np.array([3, 3, 2]),
            np.array([1, 0, 5], dtype=np.uint32),
        )
        assert state["label"][3] == 0
        assert state["label"][2] == 2  # 5 is not an improvement
        assert activated == 1
        assert state["active"][3] == 1
        assert state["active"][2] == 0

    def test_gather_duplicate_improvements_counted_once(self):
        algo = WCCAlgorithm()
        state = algo.init_state(3)
        state["active"][:] = 0
        activated = algo.gather(
            AlgoContext(0),
            state,
            np.array([2, 2]),
            np.array([0, 1], dtype=np.uint32),
        )
        assert activated == 1
        assert state["label"][2] == 0


def gather_per_bit_oracle(algo, ctx, state, dst_local, buf) -> int:
    """The reference ``BatchedBFSAlgorithm.gather``: one serial-kernel
    first-wins claim (``np.unique``) per query bit present in the buffer.
    Host work grows with batch width, which is why the kernel no longer
    runs it; the semantics are the contract the kernel is held to."""
    masks = buf["mask"]
    level = ctx.iteration + 1
    activated = 0
    present = int(np.bitwise_or.reduce(masks)) if len(masks) else 0
    for q in range(algo.num_queries):
        bit = np.uint64(1 << q)
        if not present & (1 << q):
            continue
        has = (masks & bit) != 0
        dst = dst_local[has]
        fresh = (state["visited"][dst] & bit) == 0
        if not fresh.any():
            continue
        dst = dst[fresh]
        vertices = buf["dst"][has][fresh]  # global ids: the output columns
        parents = buf["payload"][has][fresh]
        uniq, first_idx = np.unique(dst, return_index=True)
        state["visited"][uniq] |= bit
        state["frontier"][uniq] |= bit
        algo._levels[q, vertices[first_idx]] = level
        algo._parents[q, vertices[first_idx]] = parents[first_idx]
        state["active"][uniq] = 1
        claimed = len(uniq)
        activated += claimed
        per_q = algo._activated_by_pass.setdefault(
            level, np.zeros(algo.num_queries, dtype=np.int64)
        )
        per_q[q] += claimed
    return activated


def _batch_buffer(dst, payload, mask) -> np.ndarray:
    buf = np.empty(len(dst), dtype=BATCH_UPDATE_DTYPE)
    buf["dst"] = dst
    buf["payload"] = payload
    buf["mask"] = mask
    return buf


def _full_mask(width: int) -> int:
    return (1 << width) - 1


def _outputs(algo) -> dict:
    """Every slot's level and parent outputs, each as one ``[vertex, query]``
    table."""
    return {
        key: np.stack(
            [algo.query_output(q)[key] for q in range(algo.num_queries)], axis=1
        )
        for key in ("level", "parent")
    }


class TestBatchedState:
    @pytest.mark.parametrize("width", [1, 2, 63, 64])
    def test_record_is_two_mask_words_and_the_active_byte(self, width):
        """Levels and parents are outputs, not per-vertex state: the record
        every pass scans is 17 bytes at any width."""
        algo = BatchedBFSAlgorithm(width)
        assert algo.state_dtype.names == ("frontier", "visited", "active")
        assert algo.state_dtype.itemsize == 17
        state = algo.init_state(5, [[q % 5] for q in range(width)])
        assert state.dtype.itemsize == 17
        level, parent = _outputs(algo).values()
        assert level.shape == (5, width)
        assert level[[q % 5 for q in range(width)], range(width)].tolist() == [0] * width
        assert int((level == 0).sum()) == width
        assert (parent == NO_PARENT).all()


class TestBatchedGather:
    """The sort + segmented-claim gather against the per-bit oracle."""

    NUM_VERTICES = 40

    def _pair(self, width, rng):
        """Two kernels over identical state: a root per slot, plus random
        visited bits so some destinations are stale for some bits only."""
        roots = [[int(rng.integers(self.NUM_VERTICES))] for _ in range(width)]
        pair = []
        for _ in range(2):
            algo = BatchedBFSAlgorithm(width)
            pair.append((algo, algo.init_state(self.NUM_VERTICES, roots)))
        extra = rng.integers(
            0, 1 << 63, size=self.NUM_VERTICES, dtype=np.uint64
        ) & np.uint64(_full_mask(width))
        extra[rng.random(self.NUM_VERTICES) < 0.5] = 0
        for _, state in pair:
            state["visited"] |= extra
        return pair

    def _random_buffer(self, width, rng, lo, hi, n):
        """Few distinct destinations (long duplicate runs) and a mix of
        sparse, dense and single-bit masks, some sharing bits and some
        disjoint; the top bit of the width is always exercised."""
        dst = rng.integers(lo, hi, size=n)
        mask = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        mask &= rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        single = rng.random(n) < 0.3
        mask[single] = np.uint64(1) << rng.integers(
            0, width, size=int(single.sum()), dtype=np.uint64
        )
        mask[rng.random(n) < 0.1] = np.uint64(_full_mask(width))
        mask[rng.random(n) < 0.2] |= np.uint64(1 << (width - 1))
        mask &= np.uint64(_full_mask(width))
        payload = rng.integers(0, 1 << 32, size=n, dtype=np.uint32)
        return _batch_buffer(dst, payload, mask)

    def _assert_same(self, new, ref, level, returned, expected):
        (algo, state), (ref_algo, ref_state) = new, ref
        assert returned == expected
        for field in ("frontier", "visited", "active"):
            assert np.array_equal(state[field], ref_state[field]), field
        theirs = _outputs(ref_algo)
        for key, table in _outputs(algo).items():
            assert np.array_equal(table, theirs[key]), key
        assert np.array_equal(
            algo.per_query_activated(level), ref_algo.per_query_activated(level)
        )

    def _gather_both(self, new, ref, ctx, buf, lo=0, hi=None):
        hi = self.NUM_VERTICES if hi is None else hi
        dst_local = buf["dst"].astype(np.int64) - lo
        (algo, state), (ref_algo, ref_state) = new, ref
        returned = algo.gather(
            ctx, state[lo:hi], dst_local, algo.gather_payload(buf)
        )
        expected = gather_per_bit_oracle(
            ref_algo, ctx, ref_state[lo:hi], dst_local, buf
        )
        self._assert_same(new, ref, ctx.iteration + 1, returned, expected)
        return returned

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 63, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_oracle_over_consecutive_buffers(self, width, seed):
        """Several buffers in a row over few destinations: later buffers
        re-offer vertices an earlier one claimed (first buffer wins), and
        the per-pass counts accumulate across them."""
        rng = np.random.default_rng([width, seed])
        new, ref = self._pair(width, rng)
        total = 0
        for n in (60, 17, 1, 200):
            buf = self._random_buffer(width, rng, 0, self.NUM_VERTICES, n)
            total += self._gather_both(new, ref, AlgoContext(2), buf)
        assert int(new[0].per_query_activated(3).sum()) == total

    @pytest.mark.parametrize("width", [1, 9, 64])
    def test_partition_slice_with_nonzero_lo(self, width):
        rng = np.random.default_rng([width, 99])
        new, ref = self._pair(width, rng)
        lo, hi = 13, 31
        buf = self._random_buffer(width, rng, lo, hi, 120)
        untouched = new[1].copy()
        outputs = _outputs(new[0])
        self._gather_both(new, ref, AlgoContext(0), buf, lo=lo, hi=hi)
        outside = np.r_[0:lo, hi:self.NUM_VERTICES]
        assert np.array_equal(new[1][outside], untouched[outside])
        for key, table in _outputs(new[0]).items():  # every query's row
            assert np.array_equal(table[outside], outputs[key][outside]), key

    def test_overlapping_masks_first_record_wins_each_bit(self):
        algo = BatchedBFSAlgorithm(64)
        state = algo.init_state(6, [[0]] * 64)
        top = 1 << 63
        buf = _batch_buffer(
            dst=[4, 2, 4, 4, 2],
            payload=[10, 11, 12, 13, 14],
            mask=[0b0110, 0b0001, 0b0011 | top, 0b1111 | top, 0b0001],
        )
        claims = algo.gather(
            AlgoContext(5), state, buf["dst"].astype(np.int64), buf
        )
        # vertex 4: bits 1,2 <- record 0; bits 0,63 <- record 2; bit 3 <-
        # record 3.  vertex 2: bit 0 <- record 1.
        assert claims == 6
        level, parent = _outputs(algo).values()
        assert parent[4, [0, 1, 2, 3, 63]].tolist() == [12, 10, 10, 13, 12]
        assert parent[2, 0] == 11
        assert level[4, [0, 1, 2, 3, 63]].tolist() == [6] * 5
        assert level[4, 4] == UNVISITED
        assert int(state["visited"][4]) == 0b1111 | top
        assert int(state["frontier"][4]) == 0b1111 | top
        assert int(state["frontier"][2]) == 0b0001
        assert state["active"].tolist() == [1, 0, 1, 0, 1, 0]
        per_q = algo.per_query_activated(6)
        assert per_q[[0, 1, 2, 3, 63]].tolist() == [2, 1, 1, 1, 1]
        assert int(per_q.sum()) == 6

    def test_disjoint_masks_all_claim(self):
        algo = BatchedBFSAlgorithm(8)
        state = algo.init_state(3, [[0]] * 8)
        buf = _batch_buffer([1, 1, 1], [5, 6, 7], [0b001, 0b010, 0b100])
        assert algo.gather(AlgoContext(0), state, np.array([1, 1, 1]), buf) == 3
        assert _outputs(algo)["parent"][1, :3].tolist() == [5, 6, 7]

    def test_second_buffer_cannot_reclaim(self):
        algo = BatchedBFSAlgorithm(2)
        state = algo.init_state(3, [[0], [0]])
        first = _batch_buffer([2], [7], [0b01])
        second = _batch_buffer([2, 2], [8, 9], [0b11, 0b11])
        dst = np.array([2])
        assert algo.gather(AlgoContext(0), state, dst, first) == 1
        assert algo.gather(AlgoContext(0), state, np.array([2, 2]), second) == 1
        assert _outputs(algo)["parent"][2].tolist() == [7, 8]
        assert algo.per_query_activated(1).tolist() == [1, 1]

    def test_all_stale_buffer_changes_nothing(self):
        algo = BatchedBFSAlgorithm(64)
        state = algo.init_state(4, [[0]] * 64)
        state["visited"][:] = np.uint64(_full_mask(64))
        before = state.copy()
        outputs = _outputs(algo)
        buf = _batch_buffer([1, 3, 1], [5, 6, 7], [1 << 63, 0b1, _full_mask(64)])
        assert algo.gather(
            AlgoContext(0), state, buf["dst"].astype(np.int64), buf
        ) == 0
        assert np.array_equal(state, before)
        for key, table in _outputs(algo).items():
            assert np.array_equal(table, outputs[key]), key
        assert not algo.per_query_activated(1).any()

    def test_empty_buffer(self):
        algo = BatchedBFSAlgorithm(9)
        state = algo.init_state(4, [[0]] * 9)
        before = state.copy()
        outputs = _outputs(algo)
        buf = np.empty(0, dtype=BATCH_UPDATE_DTYPE)
        assert algo.gather(
            AlgoContext(0), state, np.empty(0, dtype=np.int64), buf
        ) == 0
        assert np.array_equal(state, before)
        for key, table in _outputs(algo).items():
            assert np.array_equal(table, outputs[key]), key


class TestBatchedScatter:
    def test_masks_weights_and_per_query_counts(self):
        algo = BatchedBFSAlgorithm(9)
        state = algo.init_state(4, [[0], [0], [1]] + [[3]] * 6)
        src = np.array([0, 1, 2, 0])
        updates, sources, eliminate = algo.scatter(
            AlgoContext(0), state, src, src.astype(np.uint32),
            np.array([2, 2, 3, 1], dtype=np.uint32),
        )
        assert updates["dst"].tolist() == [2, 2, 1]
        assert updates["payload"].tolist() == [0, 1, 0]
        assert updates["mask"].tolist() == [0b011, 0b100, 0b011]
        assert not eliminate.any()  # no source is visited for all 9 queries
        assert algo.per_query_updates(0).tolist() == [2, 2, 1] + [0] * 6
        assert int(algo.live_mask(1)) == 0b111
        assert sources.tolist() == [0, 1, 3]
        # Per modeled buffer of the run: records [0, 2) and [2, 3).
        assert algo.update_weights(updates, np.array([0, 2, 3])).tolist() == [3, 2]

    @pytest.mark.parametrize("width", [1, 7, 64])
    @pytest.mark.parametrize("seed", range(3))
    def test_pass_bookkeeping_matches_a_per_update_count(self, width, seed):
        """The scatter counts each distinct source once, weighted by the
        updates it emitted; summing every update's own mask over the runs
        of a pass must give the same per-query counts and liveness."""
        rng = np.random.default_rng([width, seed])
        num_vertices = 30
        algo = BatchedBFSAlgorithm(width)
        state = algo.init_state(num_vertices, [[0]] * width)
        for iteration in range(3):
            frontier = rng.integers(
                0, 1 << 63, size=num_vertices, dtype=np.uint64
            ) & np.uint64(_full_mask(width))
            frontier[rng.random(num_vertices) < 0.4] = 0
            state["frontier"] = frontier
            counts = np.zeros(width, dtype=np.int64)
            generated = 0
            for edges in (0, 1, 40, 300):  # runs of a pass; sources repeat
                src = rng.integers(0, num_vertices, size=edges)
                dst = rng.integers(0, num_vertices, size=edges, dtype=np.uint32)
                updates, _, _ = algo.scatter(
                    AlgoContext(iteration), state, src, src.astype(np.uint32), dst
                )
                for mask in updates["mask"]:
                    counts += mask_bit_counts(np.array([mask]), width)
                    generated |= int(mask)
            assert algo.per_query_updates(iteration).tolist() == counts.tolist()
            assert int(algo.live_mask(iteration + 1)) == generated


class TestKernelGranularity:
    """What the engines may and may not batch into one kernel call."""

    def _one_record_update_buffers(self):
        # One partition, every edge in one modeled edge buffer, one update
        # record per modeled update buffer.
        return XStreamEngine(
            small_engine_config(
                num_partitions=1, edge_buffer_bytes=64 * 1024,
                update_buffer_bytes=UPDATE_DTYPE.itemsize,
            )
        )

    def test_declared_invariance(self):
        assert BFSAlgorithm.gather_run_invariant
        assert UnitSSSPAlgorithm.gather_run_invariant
        assert BatchedBFSAlgorithm.gather_run_invariant
        assert PageRankAlgorithm.gather_run_invariant
        assert not WCCAlgorithm.gather_run_invariant
        assert not WeightedSSSPAlgorithm.gather_run_invariant

    def test_wcc_counts_an_improvement_per_modeled_buffer(self):
        """Vertex 3 improves 3 -> 2 -> 1 -> 0 in three consecutive modeled
        update buffers of one gather: ``activated`` counts it in each (a
        gather over the whole run would count it once)."""
        graph = Graph.from_arrays(4, [2, 1, 0], [3, 3, 3])
        result = self._one_record_update_buffers().run(
            graph, fresh_machine(), algorithm=WCCAlgorithm()
        )
        assert result.output["label"].tolist() == [0, 1, 2, 0]
        assert [it.activated for it in result.iterations] == [0, 3]

    def test_weighted_sssp_counts_an_improvement_per_modeled_buffer(self):
        """Two roots reach vertex 3 at distance 7 then 2, in two consecutive
        modeled update buffers: two activations, not one."""
        graph = Graph.from_arrays(4, [0, 1], [3, 3])
        weights = lambda src, dst: np.where(src == 0, 7, 2).astype(np.uint32)
        result = self._one_record_update_buffers().run(
            graph, fresh_machine(),
            algorithm=WeightedSSSPAlgorithm(weights), roots=[0, 1],
        )
        assert result.output["distance"][3] == 2
        assert [it.activated for it in result.iterations] == [0, 2]

    @pytest.mark.parametrize(
        "make_engine",
        [
            lambda **kw: FastBFSEngine(small_fastbfs_config(**kw)),
            lambda **kw: XStreamEngine(small_engine_config(**kw)),
        ],
        ids=["fastbfs", "x-stream"],
    )
    def test_kernel_calls_do_not_scale_with_the_modeled_buffer(
        self, monkeypatch, rmat10, make_engine
    ):
        """Regression guard: kernels and the partition split run once per
        host run.  When every file fits one run, a 16 times smaller modeled
        buffer makes more device requests and not one more kernel call."""
        calls = Counter()

        def counted(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(BFSAlgorithm, "scatter")
        counted(BFSAlgorithm, "gather")
        counted(VertexPartitioning, "split_by_partition")
        counted(Device, "submit")

        def traverse(buffer_bytes):
            calls.clear()
            result = make_engine(
                edge_buffer_bytes=buffer_bytes, update_buffer_bytes=buffer_bytes
            ).run(rmat10, fresh_machine(), root=hub_root(rmat10))
            return result, dict(calls)

        assert rmat10.num_edges < HOST_RUN_RECORDS
        large, large_calls = traverse(64 * 1024)
        small, small_calls = traverse(4 * 1024)
        assert np.array_equal(large.levels, small.levels)
        assert small_calls.pop("submit") > large_calls.pop("submit")
        assert small_calls == large_calls
        # One scatter per partition file streamed, one split per scatter
        # plus one for staging, one gather per partition update file.
        passes = large.num_iterations
        assert 0 < large_calls["scatter"] <= 4 * passes
        assert large_calls["split_by_partition"] == large_calls["scatter"] + 1
        assert 0 < large_calls["gather"] <= 4 * (passes - 1)
