"""Differential suite: the contract matrix's BFS ``run`` column on every
seeded graph/config/placement scenario (``tests/test_contracts.py``).

Each case runs every :data:`~repro.analysis.calibration.ENGINES` row on
the same input and checks that

* its levels equal the in-memory reference BFS;
* its parent tree is valid under the Graph500 rules;
* the :class:`~repro.obs.CounterRegistry` sampled from its machine
  reconciles bit-for-bit with the run's :class:`IOReport`.
"""

from __future__ import annotations

import pytest

from tests.test_contracts import ENGINE_ROWS, NUM_SCENARIOS, Cell


@pytest.mark.parametrize("case", range(NUM_SCENARIOS))
def test_differential_case(case):
    for engine_name in ENGINE_ROWS:
        Cell(engine_name, "bfs", case).run()
