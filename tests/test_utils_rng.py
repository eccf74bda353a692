"""Tests for deterministic RNG helpers."""

import numpy as np
import pytest

from repro.utils.rng import rng_from_seed


class TestRngFromSeed:
    def test_same_seed_same_stream(self):
        a = rng_from_seed(42).integers(0, 1000, 50)
        b = rng_from_seed(42).integers(0, 1000, 50)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = rng_from_seed(1).integers(0, 10**9, 20)
        b = rng_from_seed(2).integers(0, 10**9, 20)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert rng_from_seed(gen) is gen

    def test_none_gives_generator(self):
        assert isinstance(rng_from_seed(None), np.random.Generator)

    def test_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        a = rng_from_seed(seq).random(4)
        b = rng_from_seed(np.random.SeedSequence(5)).random(4)
        assert np.array_equal(a, b)
