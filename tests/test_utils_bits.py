"""Tests for repro.utils.bits against plain-Python bit arithmetic.

The Hypothesis properties run derandomized at the loaded profile's example
budget (CI reruns this file with ``--hypothesis-profile=ci``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.streaming import BATCH_UPDATE_DTYPE
from repro.utils.bits import (
    _low_bytes,
    earlier_bits_in_run,
    mask_bit_counts,
    mask_bit_pairs,
    popcounts64,
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


class TestPopcount64:
    """``popcounts64`` per mask, summed: the total set bits."""

    def test_empty(self):
        assert int(popcounts64(np.empty(0, dtype=np.uint64)).sum()) == 0

    def test_known_values(self):
        masks = np.array([0, 1, TOP, ALL, TOP | 1, 0xFFFF0000], dtype=np.uint64)
        assert popcounts64(masks).tolist() == [0, 1, 1, 64, 2, 16]

    @pytest.mark.parametrize("seed", range(3))
    def test_random_matches_python(self, seed):
        masks = random_masks(seed, 300)
        assert int(popcounts64(masks).sum()) == py_popcount(masks)

    def test_strided_structured_field_view(self):
        updates = np.zeros(50, dtype=BATCH_UPDATE_DTYPE)
        updates["dst"] = 0xFFFFFFFF  # neighbouring fields must not leak in
        updates["payload"] = 0xFFFFFFFF
        updates["mask"] = random_masks(7, 50)
        view = updates["mask"]
        assert not view.flags["C_CONTIGUOUS"]
        assert int(popcounts64(view).sum()) == py_popcount(view)
        assert int(popcounts64(view[::3]).sum()) == py_popcount(view[::3])


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
        assert int(mask_bit_counts(masks, 64).sum()) == int(popcounts64(masks).sum())

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
