"""Tests for the scaled dataset registry (Table II stand-ins)."""

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
