"""Shared infrastructure for the benchmark suite.

The paper's tables and figures are the parametrized cases of
``bench_figures.py`` (one per entry of ``repro.analysis.figures.FIGURES``);
the ablations and the multi-query cell have a bench file each.  A single
session-scoped :class:`ExperimentRunner` memoizes engine runs, so Figs. 4,
5 and 6 — which report different metrics of the same executions — share
one set of runs, exactly like the paper's methodology.

Rendered tables are printed and also written to ``benchmarks/results/`` so
`EXPERIMENTS.md` can reference them.  Set ``REPRO_SCALE_DIVISOR`` (e.g.
1024) for a faster, lower-fidelity pass; the default 256 matches
EXPERIMENTS.md.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.harness import ExperimentRunner


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner()


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    path = pathlib.Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def emit(results_dir):
    """Print a rendered table and persist it under benchmarks/results/."""

    def _emit(name: str, text: str) -> None:
        print(f"\n{text}\n")
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit


def once(benchmark, func):
    """Run a deterministic simulation exactly once under pytest-benchmark.

    The interesting output is the *simulated* metrics; wall time of the
    simulator itself is measured but repetition adds nothing (runs are
    bit-for-bit deterministic).
    """
    return benchmark.pedantic(func, rounds=1, iterations=1)
