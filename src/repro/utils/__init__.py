"""Shared small utilities: byte-size/time formatting and RNG helpers."""

from repro.utils.units import (
    KB,
    MB,
    GB,
    TB,
    format_bytes,
    format_seconds,
    parse_bytes,
)
from repro.utils.backoff import exponential_backoff
from repro.utils.rng import rng_from_seed

__all__ = [
    "KB",
    "exponential_backoff",
    "MB",
    "GB",
    "TB",
    "format_bytes",
    "format_seconds",
    "parse_bytes",
    "rng_from_seed",
]
