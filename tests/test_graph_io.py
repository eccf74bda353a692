"""Tests for binary edge-list save/load (format + sidecar validation)."""

import json

import numpy as np
import pytest

from tests.helpers import graph_from_pairs

from repro.errors import GraphFormatError
from repro.graph.generators import rmat_graph
from repro.graph.io import load_graph, save_graph


class TestRoundTrip:
    def test_roundtrip(self, tmp_path):
        g = rmat_graph(scale=8, edge_factor=4, seed=1)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        loaded = load_graph(path)
        assert loaded.num_vertices == g.num_vertices
        assert loaded.name == g.name
        assert loaded.directed == g.directed
        assert np.array_equal(loaded.edges, g.edges)

    def test_metadata_roundtrip(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1)], name="meta-test")
        g.meta["scale_divisor"] = np.int64(256)
        g.meta["note"] = "hello"
        save_graph(g, tmp_path / "g.bin")
        loaded = load_graph(tmp_path / "g.bin")
        assert loaded.meta["scale_divisor"] == 256
        assert loaded.meta["note"] == "hello"

    def test_empty_graph(self, tmp_path):
        g = graph_from_pairs(5, [])
        save_graph(g, tmp_path / "e.bin")
        loaded = load_graph(tmp_path / "e.bin")
        assert loaded.num_edges == 0
        assert loaded.num_vertices == 5

    def test_file_size_is_8_bytes_per_edge(self, tmp_path):
        """The binary format matches the paper's raw edge list."""
        g = rmat_graph(scale=6, edge_factor=4, seed=1)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        assert path.stat().st_size == g.num_edges * 8


class TestValidation:
    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "g.bin"
        path.write_bytes(b"\0" * 16)
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_corrupt_sidecar(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1)])
        path = tmp_path / "g.bin"
        save_graph(g, path)
        (tmp_path / "g.bin.json").write_text("{not json")
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_missing_key(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1)])
        path = tmp_path / "g.bin"
        save_graph(g, path)
        config = json.loads((tmp_path / "g.bin.json").read_text())
        del config["num_vertices"]
        (tmp_path / "g.bin.json").write_text(json.dumps(config))
        with pytest.raises(GraphFormatError):
            load_graph(path)

    def test_truncated_data_detected(self, tmp_path):
        g = graph_from_pairs(3, [(0, 1), (1, 2)])
        path = tmp_path / "g.bin"
        save_graph(g, path)
        path.write_bytes(path.read_bytes()[:8])  # drop one edge
        with pytest.raises(GraphFormatError):
            load_graph(path)
