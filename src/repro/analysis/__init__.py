"""Experiment infrastructure: calibration, paper claims, harness, tables, figures.

* :mod:`repro.analysis.calibration` — the single scale divisor that maps
  the paper's test bed onto the reduced-scale reproduction, plus factories
  for scaled machines and engine configs;
* :mod:`repro.analysis.paper` — every quantitative claim from the paper's
  evaluation section, as data;
* :mod:`repro.analysis.harness` — run + memoize the engine comparisons the
  figures share, pick roots, compute speedups;
* :mod:`repro.analysis.tables` — render paper-style tables;
* :mod:`repro.analysis.figures` — the one table of the paper's tables and
  figures: what each runs, how it prints and which claims must hold of it
  (imported on demand by ``repro shapes`` / ``repro reproduce`` and the
  benches, not from here).
"""

from repro.analysis.calibration import (
    SCALE_DIVISOR,
    scaled_fastbfs_config,
    scaled_graphchi_config,
    scaled_machine,
)
from repro.analysis.harness import ComparisonRow, ExperimentRunner, default_root
from repro.analysis import paper

__all__ = [
    "SCALE_DIVISOR",
    "scaled_machine",
    "scaled_fastbfs_config",
    "scaled_graphchi_config",
    "ExperimentRunner",
    "ComparisonRow",
    "default_root",
    "paper",
]
