"""Shared fixtures for the test suite (helpers live in tests/helpers.py)."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.graph.generators import (
    grid_graph,
    path_graph,
    powerlaw_graph,
    random_graph,
    rmat_graph,
    star_graph,
)

# A larger example budget, for CI's `pytest tests/test_model_properties.py
# tests/test_utils_bits.py tests/test_fuzz_storage.py ...
# --hypothesis-profile=ci`; tier-1 keeps Hypothesis's default profile.
settings.register_profile("ci", max_examples=800)


@pytest.fixture
def rmat12():
    return rmat_graph(scale=12, edge_factor=8, seed=11)


@pytest.fixture
def rmat10():
    return rmat_graph(scale=10, edge_factor=8, seed=5)


@pytest.fixture
def grid():
    return grid_graph(30, 20)


@pytest.fixture
def path():
    return path_graph(64)


@pytest.fixture
def star():
    return star_graph(100)


@pytest.fixture
def random_small():
    return random_graph(500, 3000, seed=9)


@pytest.fixture
def powerlaw_small():
    return powerlaw_graph(2000, 20000, exponent=1.9, out_exponent=2.0, seed=13)
