"""Disjoint vertex-interval partitioning (paper §II-B, Fig. 3).

FastBFS and X-Stream split the vertex id space into contiguous, balanced,
mutually disjoint intervals; partition *p* owns the vertices in
``[boundary[p], boundary[p+1])`` and the out-edges whose *source* falls in
that interval.  "The balance of the vertices becomes the priority" — edges
are streamed, only the vertex set must fit in memory.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

import numpy as np

from repro.errors import PartitionError


class VertexPartitioning:
    """Balanced contiguous split of ``[0, num_vertices)`` into ``count`` parts."""

    def __init__(self, num_vertices: int, count: int) -> None:
        if num_vertices <= 0:
            raise PartitionError(f"num_vertices must be positive, got {num_vertices}")
        if count <= 0:
            raise PartitionError(f"partition count must be positive, got {count}")
        if count > num_vertices:
            count = num_vertices  # no point in empty partitions
        self.num_vertices = num_vertices
        self.count = count
        # Balanced boundaries: sizes differ by at most one vertex.
        self.boundaries = np.linspace(0, num_vertices, count + 1).astype(np.int64)
        self.boundaries[0] = 0
        self.boundaries[-1] = num_vertices
        # Owner of every vertex, in the narrowest dtype: numpy's stable sort
        # is a radix sort for 8- and 16-bit keys, several times the merge
        # sort it runs on int64, and a lookup is one ``take``.
        self._owner = np.repeat(
            np.arange(count, dtype=np.min_scalar_type(count - 1)),
            np.diff(self.boundaries),
        )

    def range_of(self, p: int) -> Tuple[int, int]:
        """Half-open vertex range ``[lo, hi)`` of partition ``p``."""
        if not 0 <= p < self.count:
            raise PartitionError(f"partition {p} out of range [0, {self.count})")
        return int(self.boundaries[p]), int(self.boundaries[p + 1])

    def size_of(self, p: int) -> int:
        lo, hi = self.range_of(p)
        return hi - lo

    def partition_of(self, vertices: np.ndarray) -> np.ndarray:
        """Owning partition of each vertex id, in the narrowest unsigned dtype.

        Raises :class:`PartitionError` for an id outside
        ``[0, num_vertices)``.
        """
        vertices = np.asarray(vertices)
        try:
            if vertices.dtype.kind == "i" and vertices.size and vertices.min() < 0:
                raise IndexError
            return self._owner.take(vertices)
        except IndexError:
            raise PartitionError(
                f"vertex ids must lie in [0, {self.num_vertices}); got "
                f"{vertices.min()} to {vertices.max()}"
            ) from None

    def split_by_partition(self, vertices: np.ndarray, *arrays) -> List[Tuple[int, tuple]]:
        """Group ``vertices`` (and parallel arrays) by owning partition.

        Returns ``(p, (vertices_p, *arrays_p))`` for partitions that received
        at least one element, in partition order, every group built before
        it returns.  One stable argsort — this is the scatter phase's update
        shuffle.  The engines call it once per host run with the records'
        stream positions as a parallel array, and cut each group back into
        modeled buffers with one ``searchsorted``.  An id outside
        ``[0, num_vertices)`` raises :class:`PartitionError`
        (:meth:`partition_of`), except on a single partition: that owns
        everything, so no lookup runs and the inputs are returned as they
        are, unchecked, unsorted and uncopied.
        """
        if self.count == 1:
            return [(0, (vertices, *arrays))] if len(vertices) else []
        parts = self.partition_of(vertices)  # narrow keys: a radix sort
        order = np.argsort(parts, kind="stable")
        sorted_parts = parts[order]
        cut = np.searchsorted(sorted_parts, np.arange(self.count + 1))
        groups = []
        for p in range(self.count):
            lo, hi = cut[p], cut[p + 1]
            if lo == hi:
                continue
            sel = order[lo:hi]
            groups.append((p, (vertices[sel], *(a[sel] for a in arrays))))
        return groups

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.count))

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return f"VertexPartitioning(V={self.num_vertices}, P={self.count})"


#: Fraction of working memory available for one partition's vertex set
#: (the rest holds stream buffers).
VERTEX_MEMORY_FRACTION = 0.25


def plan_partition_count(
    num_vertices: int,
    vertex_record_bytes: int,
    memory_bytes: int,
    max_partitions: int = 4096,
) -> int:
    """Number of partitions so one partition's vertex state fits the budget.

    Mirrors X-Stream's rule: vertices (not edges) drive the split, and only
    :data:`VERTEX_MEMORY_FRACTION` of working memory is available for them.
    """
    if memory_bytes <= 0:
        raise PartitionError("memory budget must be positive")
    budget = memory_bytes * VERTEX_MEMORY_FRACTION
    total = num_vertices * vertex_record_bytes
    count = max(1, int(np.ceil(total / budget)))
    if count > max_partitions:
        raise PartitionError(
            f"graph needs {count} partitions (> {max_partitions}); "
            "memory budget too small for its vertex set"
        )
    return count
