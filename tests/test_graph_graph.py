"""Tests for the Graph container."""

import numpy as np
import pytest

from tests.helpers import graph_from_pairs

from repro.errors import GraphError
from repro.graph.graph import Graph
from repro.graph.types import EDGE_DTYPE


class TestConstruction:
    def test_from_arrays(self):
        g = Graph.from_arrays(4, [0, 1, 2], [1, 2, 3])
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert g.nbytes == 3 * EDGE_DTYPE.itemsize

    def test_from_edge_pairs(self):
        """Tuples unzipped from (src, dst) pairs keep the stream order."""
        g = Graph.from_arrays(3, *zip(*[(0, 1), (1, 2)]))
        assert g.num_edges == 2
        assert g.edges["src"].tolist() == [0, 1]
        assert g.edges["dst"].tolist() == [1, 2]

    def test_from_empty_pairs(self):
        g = Graph.from_arrays(2, (), ())
        assert g.num_edges == 0

    def test_endpoint_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_arrays(2, [0], [5])

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_arrays(0, [], [])

    def test_wrong_dtype_rejected(self):
        with pytest.raises(GraphError):
            Graph(3, np.zeros(3, dtype=np.int64))


class TestDegrees:
    def test_out_degrees(self):
        g = graph_from_pairs(4, [(0, 1), (0, 2), (1, 2)])
        assert g.out_degrees().tolist() == [2, 1, 0, 0]

    def test_degrees_cover_all_vertices(self):
        g = graph_from_pairs(10, [(0, 1)])
        assert len(g.out_degrees()) == 10


class TestTransforms:
    def test_symmetrized_doubles_edges(self):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        s = g.symmetrized()
        assert s.num_edges == 4
        assert not s.directed
        pairs = {(int(e["src"]), int(e["dst"])) for e in s.edges}
        assert (1, 0) in pairs and (2, 1) in pairs

    def test_repr(self):
        g = graph_from_pairs(3, [(0, 1)], name="tiny")
        assert "tiny" in repr(g)
        assert "V=3" in repr(g)
