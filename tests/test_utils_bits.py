"""Tests for repro.utils.bits against plain-Python bit arithmetic.

The Hypothesis properties run derandomized at the loaded profile's example
budget (CI reruns this file with ``--hypothesis-profile=ci``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.streaming import BATCH_UPDATE_DTYPE, BatchedBFSAlgorithm
from repro.utils.bits import (
    _low_bytes,
    earlier_bits_in_run,
    mask_bit_counts,
    mask_bit_pairs,
)

TOP = 1 << 63
ALL = (1 << 64) - 1


def py_popcount(values) -> int:
    return sum(bin(int(v)).count("1") for v in values)


def py_bit_counts(values, width):
    return [sum((int(v) >> q) & 1 for v in values) for q in range(width)]


def random_masks(seed, n):
    rng = np.random.default_rng(seed)
    lo = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    hi = rng.integers(0, 1 << 32, size=n, dtype=np.uint64)
    return (hi << np.uint64(32)) | lo


WIDTHS = st.sampled_from([1, 7, 64])
PROPERTY = settings(derandomize=True, deadline=None)


def uint64s(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


@st.composite
def weighted_masks(draw):
    """``(masks, width, weights)``: any 64-bit masks, so bits at or above
    the width occur too, each with a multiplicity that may be zero."""
    n = draw(st.integers(min_value=0, max_value=40))
    masks = draw(st.lists(
        st.integers(min_value=0, max_value=ALL), min_size=n, max_size=n
    ))
    weights = draw(st.lists(
        st.integers(min_value=0, max_value=30), min_size=n, max_size=n
    ))
    return uint64s(masks), draw(WIDTHS), np.array(weights, dtype=np.int64)


@st.composite
def mostly_zero_masks(draw):
    """``(masks, width)``: masks within the width, about three in four of
    them zero, like the claims a gather expands."""
    width = draw(WIDTHS)
    mask = st.integers(min_value=1, max_value=(1 << width) - 1)
    zero = st.just(0)
    masks = draw(st.lists(st.one_of(zero, zero, zero, mask), max_size=60))
    return uint64s(masks), width


def update_records(masks, step=1) -> np.ndarray:
    """Update records carrying ``masks``: every ``step``-th record of a
    larger array, whose ``dst`` and ``payload`` are all ones so that a
    neighbouring field leaking into a count would show."""
    records = np.zeros(len(masks) * step, dtype=BATCH_UPDATE_DTYPE)
    records["dst"] = 0xFFFFFFFF
    records["payload"] = 0xFFFFFFFF
    updates = records[::step]
    updates["mask"] = masks
    return updates


def assert_weights_are_set_bits(updates, cuts) -> list:
    """``update_weights`` gives each buffer ``[cuts[i], cuts[i+1])`` the
    set bits of its masks, counted in plain Python; returns the weights."""
    cuts = np.asarray(cuts, dtype=np.int64)
    got = BatchedBFSAlgorithm(64).update_weights(updates, cuts)
    masks = updates["mask"]
    want = [py_popcount(masks[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert got.dtype == np.int64
    assert got.tolist() == want
    return want


@st.composite
def cut_updates(draw):
    """``(updates, cuts)``: any 64-bit masks, as contiguous records or as
    every third record, cut at ascending positions from 0 to the end;
    equal neighbouring cuts are empty buffers."""
    masks = draw(st.lists(st.integers(min_value=0, max_value=ALL), max_size=40))
    inner = draw(st.lists(
        st.integers(min_value=0, max_value=len(masks)), max_size=6
    ))
    step = draw(st.sampled_from([1, 3]))
    cuts = [0] + sorted(inner) + [len(masks)]
    return update_records(uint64s(masks), step), cuts


class TestPopcount64:
    """The charge weights: ``BatchedBFSAlgorithm.update_weights`` sums the
    set bits of each buffer's masks (one bit, one serial update)."""

    def test_empty(self):
        assert assert_weights_are_set_bits(update_records(uint64s([])), [0, 0]) == [0]

    def test_known_values(self):
        masks = np.array([0, 1, TOP, ALL, TOP | 1, 0xFFFF0000], dtype=np.uint64)
        cuts = range(len(masks) + 1)  # one buffer per record
        weights = assert_weights_are_set_bits(update_records(masks), cuts)
        assert weights == [0, 1, 1, 64, 2, 16]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_python(self, seed):
        masks = random_masks(seed, 300)
        assert_weights_are_set_bits(update_records(masks), [0, 300])

    def test_strided_structured_field_view(self):
        updates = update_records(random_masks(7, 50))
        assert not updates["mask"].flags["C_CONTIGUOUS"]
        assert_weights_are_set_bits(updates, [0, 50])
        assert_weights_are_set_bits(update_records(random_masks(7, 17), 3), [0, 17])

    @PROPERTY
    @example(case=(update_records(uint64s([])), [0, 0, 0]))
    @example(case=(update_records(uint64s([0, 1, TOP, ALL, TOP | 1, 0xFFFF0000])),
                   [0, 1, 2, 3, 4, 5, 6]))
    @example(case=(update_records(uint64s([ALL, ALL, ALL]), 3), [0, 0, 2, 2, 3]))
    @given(case=cut_updates())
    def test_weights_are_python_bit_counts(self, case):
        """Every buffer's weight is the plain-Python count of its masks'
        set bits, whatever the cuts, empty buffers and record stride."""
        assert_weights_are_set_bits(*case)


class TestMaskBitCounts:
    def test_empty(self):
        counts = mask_bit_counts(np.empty(0, dtype=np.uint64), 9)
        assert counts.dtype == np.int64
        assert counts.tolist() == [0] * 9

    def test_bit_63(self):
        masks = np.array([TOP, TOP | 1, 1], dtype=np.uint64)
        counts = mask_bit_counts(masks, 64)
        assert counts.shape == (64,) and counts.dtype == np.int64
        assert counts[63] == 2 and counts[0] == 2
        assert int(counts.sum()) == 4

    @pytest.mark.parametrize("width", [1, 7, 8, 9, 33, 63, 64])
    def test_width_truncation_matches_python(self, width):
        """Bits at or above ``width`` are not reported, whether they sit
        in a byte the width reaches or in one it does not."""
        masks = random_masks(width, 200)
        counts = mask_bit_counts(masks, width)
        assert counts.shape == (width,)
        assert counts.tolist() == py_bit_counts(masks, width)

    def test_strided_structured_field_view(self):
        updates = np.zeros(40, dtype=BATCH_UPDATE_DTYPE)
        updates["dst"] = 0xFFFFFFFF
        updates["payload"] = 0xFFFFFFFF
        updates["mask"] = random_masks(3, 40)
        assert mask_bit_counts(updates["mask"], 64).tolist() == py_bit_counts(
            updates["mask"], 64
        )

    def test_column_sum_is_popcount(self):
        masks = random_masks(5, 128)
        assert int(mask_bit_counts(masks, 64).sum()) == py_popcount(masks)

    @PROPERTY
    @example(case=(uint64s([]), 7, np.array([], dtype=np.int64)))
    @example(case=(uint64s([ALL, TOP, 5]), 64, np.array([0, 3, 0])))
    @given(case=weighted_masks())
    def test_weights_count_like_repeated_masks(self, case):
        """A mask of weight ``w`` counts as ``w`` copies of it: the scatter
        counts each distinct source once, weighted by its updates."""
        masks, width, weights = case
        got = mask_bit_counts(masks, width, weights=weights)
        want = mask_bit_counts(np.repeat(masks, weights), width)
        assert got.dtype == np.int64 and got.shape == (width,)
        assert np.array_equal(got, want)


class TestMaskBitPairs:
    @pytest.mark.parametrize("width", [1, 8, 9, 64])
    def test_pairs_are_the_set_bits_row_major(self, width):
        masks = random_masks(width, 60) & np.uint64((1 << width) - 1)
        rows, bits = mask_bit_pairs(masks, width)
        expected = [
            (i, q) for i, m in enumerate(masks) for q in range(width)
            if (int(m) >> q) & 1
        ]
        assert list(zip(rows.tolist(), bits.tolist())) == expected

    def test_empty(self):
        rows, bits = mask_bit_pairs(np.empty(0, dtype=np.uint64), 64)
        assert len(rows) == 0 and len(bits) == 0

    @staticmethod
    def nonzero_oracle(masks, width):
        """The expansion as first written: a 2-D ``nonzero`` of the
        unpacked low bytes."""
        return np.nonzero(
            np.unpackbits(_low_bytes(masks, width), axis=1, bitorder="little")
        )

    def assert_same_as_oracle(self, masks, width):
        rows, bits = mask_bit_pairs(masks, width)
        want_rows, want_bits = self.nonzero_oracle(masks, width)
        assert rows.dtype == want_rows.dtype == np.intp
        assert bits.dtype == want_bits.dtype == np.intp
        assert np.array_equal(rows, want_rows)
        assert np.array_equal(bits, want_bits)

    @pytest.mark.parametrize("width", range(1, 65))
    def test_flat_expansion_matches_the_2d_nonzero(self, width):
        masks = random_masks(width + 100, 80) & np.uint64((1 << width) - 1)
        masks[::7] = 0  # rows with no bit at all
        self.assert_same_as_oracle(masks, width)

    @pytest.mark.parametrize("masks", [
        [ALL, ALL, 0, ALL],
        [TOP, 0, TOP, TOP],
        [],
    ], ids=["all-ones", "top-bit-only", "empty"])
    def test_edge_masks_match_the_2d_nonzero(self, masks):
        self.assert_same_as_oracle(np.array(masks, dtype=np.uint64), 64)

    @PROPERTY
    @example(case=(uint64s([0] * 9), 64))
    @example(case=(uint64s([0, 0, TOP, 0, 1]), 64))
    @given(case=mostly_zero_masks())
    def test_mostly_zero_masks_match_the_2d_nonzero(self, case):
        """Zero rows are skipped before unpacking and the surviving rows
        mapped back: same pairs, same order as expanding every row."""
        self.assert_same_as_oracle(*case)


class TestEarlierBitsInRun:
    def py_reference(self, masks, pos):
        out, acc = [], 0
        for m, p in zip(masks, pos):
            if p == 0:
                acc = 0
            out.append(acc)
            acc |= int(m)
        return out

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_python_scan(self, seed):
        """Run lengths 1..37 cover every doubling-round boundary."""
        rng = np.random.default_rng(seed)
        lengths = rng.integers(1, 38, size=25)
        pos = np.concatenate([np.arange(n) for n in lengths])
        masks = random_masks(seed, len(pos)) & random_masks(seed + 50, len(pos))
        masks &= random_masks(seed + 100, len(pos))  # sparse: ORs keep growing
        got = earlier_bits_in_run(masks, pos == 0)
        assert got.tolist() == self.py_reference(masks, pos)

    def test_runs_of_one_and_empty(self):
        masks = np.array([5, TOP, 9], dtype=np.uint64)
        assert earlier_bits_in_run(masks, np.ones(3, dtype=bool)).tolist() \
            == [0, 0, 0]
        assert masks.tolist() == [5, TOP, 9]  # input not modified
        empty = np.empty(0, dtype=np.uint64)
        assert len(earlier_bits_in_run(empty, np.empty(0, dtype=bool))) == 0
