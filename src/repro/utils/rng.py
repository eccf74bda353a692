"""Deterministic random-number helpers.

Every stochastic component (graph generators, workload samplers) takes an
explicit seed and turns it into a :class:`numpy.random.Generator` here, so
experiments replay bit-for-bit.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def rng_from_seed(seed: SeedLike = None) -> np.random.Generator:
    """Return a Generator from an int seed, SeedSequence, Generator, or None."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
