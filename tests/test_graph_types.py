"""Tests for record dtypes and constructors."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.types import (
    EDGE_DTYPE,
    NO_PARENT,
    UNVISITED,
    UPDATE_DTYPE,
    WEIGHTED_EDGE_DTYPE,
    make_edges,
)


class TestDtypes:
    def test_edge_record_is_8_bytes(self):
        """The paper's raw binary edge list: two little-endian u32s."""
        assert EDGE_DTYPE.itemsize == 8

    def test_update_record_is_8_bytes(self):
        assert UPDATE_DTYPE.itemsize == 8

    def test_weighted_edge_is_12_bytes(self):
        assert WEIGHTED_EDGE_DTYPE.itemsize == 12

    def test_little_endian(self):
        assert EDGE_DTYPE["src"].byteorder in ("<", "=")

    def test_sentinels(self):
        assert NO_PARENT == 0xFFFFFFFF
        assert UNVISITED == -1


class TestMakeEdges:
    def test_basic(self):
        e = make_edges([0, 1], [1, 2])
        assert e.dtype == EDGE_DTYPE
        assert e["src"].tolist() == [0, 1]
        assert e["dst"].tolist() == [1, 2]

    def test_empty(self):
        assert len(make_edges([], [])) == 0

    def test_length_mismatch(self):
        with pytest.raises(GraphError):
            make_edges([0, 1], [1])

    def test_2d_rejected(self):
        with pytest.raises(GraphError):
            make_edges(np.zeros((2, 2)), np.zeros((2, 2)))
