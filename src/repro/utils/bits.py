"""Bit-manipulation primitives for the MS-BFS batched kernels.

Lives in ``utils`` (not ``engines``) so both the algorithm kernels and the
cost model can use it without an import cycle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

#: Row ``v`` holds the eight bits of byte value ``v``, lowest first.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)

#: Where byte ``b`` of a mask starts in a histogram over all byte values.
_BYTE_OFFSETS = np.arange(8) * 256


def _low_bytes(masks: np.ndarray, width: int) -> np.ndarray:
    """One row per mask holding its low ``ceil(width / 8)`` bytes: every
    byte a batch of ``width`` queries can set, and no others."""
    flat = np.ascontiguousarray(masks, dtype="<u8")
    return flat.view(np.uint8).reshape(-1, 8)[:, : (width + 7) // 8]


def mask_bit_counts(
    masks: np.ndarray, width: int, weights: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-bit set counts over ``uint64`` masks, for bits ``0..width-1``.

    Column ``q`` is how many masks carry query ``q``'s bit — the per-query
    update counts a batched scatter pass generated.  Counted from one
    histogram of byte values per mask byte, so the masks are never expanded
    into one element per bit.

    With ``weights``, mask ``k`` counts ``weights[k]`` times: the same
    ``int64`` counts as ``mask_bit_counts(np.repeat(masks, weights),
    width)``, for a caller that holds each distinct mask once with its
    multiplicity.  Those few masks are unpacked and weighted in integer
    arithmetic.
    """
    low = _low_bytes(masks, width)
    if weights is not None:
        bits = np.unpackbits(low, axis=1, bitorder="little")[:, :width]
        return np.asarray(weights, dtype=np.int64) @ bits.astype(np.int64)
    nbytes = low.shape[1]
    hist = np.bincount(
        (low + _BYTE_OFFSETS[:nbytes]).ravel(), minlength=256 * nbytes
    )
    return (hist.reshape(nbytes, 256) @ _BYTE_BITS).ravel()[:width]


def mask_bit_pairs(masks: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Expand masks into their set bits: ``(rows, bits)`` with one entry
    per set bit, ordered by row then bit, so that mask ``rows[k]`` carries
    bit ``bits[k]``.  The masks must carry no bit at or above ``width``
    (a batch of that width cannot set one).

    Only the nonzero masks are unpacked; one flat ``flatnonzero`` over
    their bits read as ``bool``, split into row and bit by ``divmod``, with
    rows mapped back through the nonzero index: the same ``intp`` arrays,
    in the same row-major order, as a 2-D ``nonzero`` of all the unpacked
    rows, at a fraction of its cost when most masks are zero.
    """
    nonzero = np.flatnonzero(masks)
    low = _low_bytes(masks.take(nonzero), width)
    bits = np.unpackbits(low, axis=1, bitorder="little")
    rows, bit = np.divmod(np.flatnonzero(bits.view(bool)), bits.shape[1])
    return nonzero.take(rows), bit


def earlier_bits_in_run(masks: np.ndarray, is_start: np.ndarray) -> np.ndarray:
    """Segmented exclusive prefix-OR: for each record, the OR of the masks
    of the records before it in its run.

    ``is_start`` flags the first record of every run of consecutive
    records (so ``is_start[0]`` is set).  A doubling scan: round ``d`` ORs
    in the partial result ``d`` records back, which only records at offset
    ``>= d`` inside their run still need, so the rounds number
    ``log2(longest run)`` and each touches only the runs that long.
    """
    earlier = np.zeros(len(masks), dtype=masks.dtype)
    later = tail = (~is_start).nonzero()[0]
    if len(later) == 0:  # every run is one record long
        return earlier
    pos = np.arange(len(masks))
    pos -= np.maximum.accumulate(pos * is_start)
    acc = masks.copy()
    step = 1
    while len(tail):
        acc[tail] |= acc[tail - step]
        step *= 2
        tail = tail[pos[tail] >= step]
    earlier[later] = acc[later - 1]
    return earlier
