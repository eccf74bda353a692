"""Tests for the scaled dataset registry (Table II stand-ins)."""

import hashlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.graph.datasets import (
    BIG_DATASETS,
    DATASETS,
    build_dataset,
    scale_divisor,
)

DIV = 2048  # keep tests fast; benchmarks use the default divisor


class TestRegistry:
    def test_all_paper_datasets_present(self):
        assert set(DATASETS) == {
            "rmat22", "rmat25", "rmat27", "twitter_rv", "friendster",
        }

    def test_big_datasets_subset(self):
        assert set(BIG_DATASETS) <= set(DATASETS)

    def test_paper_sizes_recorded(self):
        spec = DATASETS["twitter_rv"]
        assert spec.paper_vertices == 61_620_000
        assert spec.paper_edges > 1.4e9


class TestBuild:
    def test_scaled_size_tracks_divisor(self):
        g = build_dataset("rmat22", divisor=DIV, cache=False)
        spec = DATASETS["rmat22"]
        # Core edges scale as paper/divisor; whiskers add a small overhead.
        expected = spec.paper_edges / DIV
        assert 0.8 * expected <= g.num_edges <= 1.3 * expected

    def test_metadata(self):
        g = build_dataset("rmat25", divisor=DIV, cache=False)
        assert g.meta["dataset"] == "rmat25"
        assert g.meta["scale_divisor"] == DIV
        assert g.meta["whiskers"] > 0
        assert g.name == "rmat25"

    def test_friendster_is_symmetrized(self):
        g = build_dataset("friendster", divisor=DIV, cache=False)
        assert not g.directed
        # Every edge has its reverse (whiskers included, bidirectional).
        keys = set(
            zip(g.edges["src"].tolist()[:500], g.edges["dst"].tolist()[:500])
        )
        rev_ok = sum(
            1 for (s, d) in keys
            if ((g.edges["src"] == d) & (g.edges["dst"] == s)).any()
        )
        assert rev_ok == len(keys)

    def test_twitter_is_directed_powerlaw(self):
        g = build_dataset("twitter_rv", divisor=DIV, cache=False)
        assert g.directed
        deg = np.bincount(g.edges["dst"], minlength=g.num_vertices)
        assert deg.max() > 20 * deg.mean()

    def test_deterministic(self):
        a = build_dataset("rmat22", divisor=DIV, seed=3, cache=False)
        b = build_dataset("rmat22", divisor=DIV, seed=3, cache=False)
        assert np.array_equal(a.edges, b.edges)

    def test_cache_returns_same_object(self):
        a = build_dataset("rmat22", divisor=DIV, seed=99)
        b = build_dataset("rmat22", divisor=DIV, seed=99)
        assert a is b

    def test_unknown_dataset(self):
        with pytest.raises(ConfigError):
            build_dataset("orkut")

    def test_divisor_too_large_for_small_rmat(self):
        with pytest.raises(ConfigError):
            build_dataset("rmat22", divisor=2**20, cache=False)


#: sha256 of ``build_dataset(name, divisor=1024, cache=False).edges``: a
#: change to a generator must leave every byte of every dataset as it was
#: (rmat27 at 1024 is also rmat25 at 256, the traverse workloads' graph).
EDGE_SHA256 = {
    "rmat22": "a877990a8587ce0f1d254b5077a90c55d8800adc9ec2ad832d84e7bd36132581",
    "rmat25": "04065123ad7ed4ad7dde8b1143a122520a3629061d9de696c38aa82005626dba",
    "rmat27": "5fd8a37fa39e016da562ecbfc389aca642adc14a6e657e27fa6d3c5885b947f0",
    "twitter_rv": "42b4be9632f1e84a4f7e09996d82ea82ab4ac35cf7dc2ac7888f4a415454d9fd",
    "friendster": "178291e16425dfd2ba3d21c0c9e1116ce41ebfe48c080309688b2bbb911eda3b",
}


class TestPinnedBytes:
    def test_every_dataset_is_pinned(self):
        assert set(EDGE_SHA256) == set(DATASETS)

    @pytest.mark.parametrize("name", sorted(EDGE_SHA256))
    def test_edges_are_byte_identical(self, name):
        graph = build_dataset(name, divisor=1024, cache=False)
        assert hashlib.sha256(graph.edges.tobytes()).hexdigest() == EDGE_SHA256[name]


class TestScaleDivisor:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE_DIVISOR", raising=False)
        assert scale_divisor() == 256

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_DIVISOR", "1024")
        assert scale_divisor() == 1024

    def test_env_rejects_non_power_of_two(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_DIVISOR", "100")
        with pytest.raises(ConfigError):
            scale_divisor()

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_DIVISOR", "lots")
        with pytest.raises(ConfigError):
            scale_divisor()

    def test_env_rejects_tiny(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE_DIVISOR", "8")
        with pytest.raises(ConfigError):
            scale_divisor()
