"""Tests for vertex-interval partitioning (paper §II-B invariants)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.graph.partition import VertexPartitioning, plan_partition_count
from repro.utils.units import MB


class TestPartitioning:
    def test_ranges_cover_disjointly(self):
        part = VertexPartitioning(100, 7)
        seen = []
        for p in part:
            lo, hi = part.range_of(p)
            seen.extend(range(lo, hi))
        assert seen == list(range(100))

    def test_balanced_sizes(self):
        part = VertexPartitioning(100, 7)
        sizes = [part.size_of(p) for p in part]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 100

    def test_single_partition(self):
        part = VertexPartitioning(10, 1)
        assert part.range_of(0) == (0, 10)

    def test_count_clamped_to_vertices(self):
        part = VertexPartitioning(3, 10)
        assert part.count == 3

    def test_partition_of_matches_ranges(self):
        part = VertexPartitioning(50, 4)
        ids = np.arange(50)
        owners = part.partition_of(ids)
        for p in part:
            lo, hi = part.range_of(p)
            assert (owners[lo:hi] == p).all()

    def test_partition_of_boundaries(self):
        part = VertexPartitioning(10, 2)
        assert part.partition_of(np.array([0])).tolist() == [0]
        assert part.partition_of(np.array([4])).tolist() == [0]
        assert part.partition_of(np.array([5])).tolist() == [1]
        assert part.partition_of(np.array([9])).tolist() == [1]

    @given(
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=1, max_value=5_000),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_owner_table_is_the_interval_search(self, n, count, seed):
        """The table lookup answers what a search of the boundaries does,
        for one partition, for more than 256 (a uint16 table) and for one
        vertex per partition."""
        part = VertexPartitioning(n, count)
        ids = np.random.default_rng(seed).integers(0, n, 300)
        owners = part.partition_of(ids)
        searched = np.searchsorted(part.boundaries[1:], ids, side="right")
        assert owners.tolist() == searched.tolist()
        assert owners.dtype == np.min_scalar_type(part.count - 1)
        assert part.partition_of(np.arange(n)).tolist() == [
            p for p in part for _ in range(part.size_of(p))
        ]

    def test_owner_table_dtypes(self):
        assert VertexPartitioning(10, 1).partition_of(np.arange(10)).dtype == np.uint8
        assert VertexPartitioning(300, 256).partition_of(np.arange(3)).dtype == np.uint8
        wide = VertexPartitioning(300, 257)
        assert wide.partition_of(np.arange(300)).dtype == np.uint16
        assert wide.partition_of(np.array([299])).tolist() == [256]
        every = VertexPartitioning(300, 300)
        assert every.partition_of(np.arange(300)).tolist() == list(range(300))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32, np.uint64])
    def test_ids_past_the_last_vertex_are_refused(self, dtype):
        part = VertexPartitioning(100, 4)
        ids = np.array([5, 130, 60, 99, 100], dtype=dtype)
        with pytest.raises(PartitionError, match=r"\[0, 100\)"):
            part.partition_of(ids)
        with pytest.raises(PartitionError):
            list(part.split_by_partition(ids))
        assert part.partition_of(ids[[0, 2, 3]]).tolist() == [0, 2, 3]

    @pytest.mark.parametrize("dtype", [np.int64, np.int8])
    def test_negative_ids_are_refused_not_wrapped(self, dtype):
        part = VertexPartitioning(100, 4)
        with pytest.raises(PartitionError):
            part.partition_of(np.array([3, -1], dtype=dtype))
        with pytest.raises(PartitionError):
            list(part.split_by_partition(np.array([-100], dtype=dtype)))

    def test_empty_lookup(self):
        part = VertexPartitioning(100, 4)
        assert part.partition_of(np.array([], dtype=np.int64)).tolist() == []

    def test_single_partition_split_does_no_lookup(self):
        """One partition owns everything: nothing is looked up or checked."""
        part = VertexPartitioning(100, 1)
        ids = np.array([5, 130, -1])
        ((p, (got,)),) = part.split_by_partition(ids)
        assert p == 0 and got is ids
        with pytest.raises(PartitionError):
            part.partition_of(ids)

    def test_bad_args(self):
        with pytest.raises(PartitionError):
            VertexPartitioning(0, 1)
        with pytest.raises(PartitionError):
            VertexPartitioning(10, 0)
        with pytest.raises(PartitionError):
            VertexPartitioning(10, 2).range_of(2)

    @given(
        st.integers(min_value=1, max_value=10_000),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_disjoint_cover(self, n, count):
        part = VertexPartitioning(n, count)
        boundaries = part.boundaries
        assert boundaries[0] == 0
        assert boundaries[-1] == n
        assert (np.diff(boundaries) >= 1).all()


class TestSplitByPartition:
    def test_groups_updates_by_owner(self):
        part = VertexPartitioning(100, 4)
        rng = np.random.default_rng(1)
        dst = rng.integers(0, 100, 1000)
        payload = rng.integers(0, 100, 1000).astype(np.uint32)
        total = 0
        for p, (dst_p, payload_p) in part.split_by_partition(dst, payload):
            lo, hi = part.range_of(p)
            assert ((dst_p >= lo) & (dst_p < hi)).all()
            assert len(dst_p) == len(payload_p)
            total += len(dst_p)
        assert total == 1000

    def test_stable_within_partition(self):
        """Update order within a partition must follow stream order (the
        first update to reach a vertex claims it)."""
        part = VertexPartitioning(10, 2)
        dst = np.array([1, 6, 2, 1, 7, 0])
        tag = np.arange(6)
        groups = dict(part.split_by_partition(dst, tag))
        assert groups[0][1].tolist() == [0, 2, 3, 5]  # original order kept
        assert groups[1][1].tolist() == [1, 4]

    def test_empty_partitions_skipped(self):
        part = VertexPartitioning(100, 10)
        dst = np.array([5, 5, 5])
        groups = list(part.split_by_partition(dst))
        assert len(groups) == 1
        assert groups[0][0] == 0

    def test_empty_input(self):
        part = VertexPartitioning(10, 2)
        assert list(part.split_by_partition(np.array([], dtype=np.int64))) == []


class TestPlanPartitionCount:
    def test_fits_in_budget(self):
        # 1M vertices * 8B = 8MB of vertex state; 25% of 16MB = 4MB budget.
        count = plan_partition_count(10**6, 8, 16 * MB)
        assert count == 2

    def test_minimum_one(self):
        assert plan_partition_count(10, 8, 16 * MB) == 1

    def test_scales_inversely_with_memory(self):
        big = plan_partition_count(10**6, 8, 32 * MB)
        small = plan_partition_count(10**6, 8, 8 * MB)
        assert small > big

    def test_rejects_infeasible(self):
        with pytest.raises(PartitionError):
            plan_partition_count(10**9, 8, 1024, max_partitions=100)

    def test_rejects_bad_budget(self):
        with pytest.raises(PartitionError):
            plan_partition_count(10, 8, 0)
