"""Correctness tooling: runtime sanitizer, static analyzer, chaos harness.

Three layers guard the invariants ordinary tests cannot see:

* :mod:`repro.tooling.sanitizer` — the runtime checks every engine report
  passes (no switch): VFS leaks, I/O the cost model never charged or
  attributed, and stay writers that never reached swap, cancel or discard.
  The clock guards itself (:class:`~repro.sim.clock.SimClock`).
* :mod:`repro.tooling.analyzer` — the one static rule engine
  (``repro analyze``): module-local source rules such as "no bare assert"
  and whole-program effect contracts such as "no wall-clock read outside
  ``obs/hostprof.py``", all stdlib ``ast``.
* :mod:`repro.tooling.chaos` — the chaos harness (``repro chaos``):
  seeded fault schedules swept across engines and disk placements, every
  surviving run held to bit-identical BFS levels.

See ``docs/correctness_tooling.md`` for the sanitizer's checks,
``docs/static_analysis.md`` for the rule catalogue and
``docs/fault_injection.md`` for the chaos regimen.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ChaosReport",
    "ChaosTrial",
    "run_chaos",
]

_CHAOS_EXPORTS = {"ChaosReport", "ChaosTrial", "run_chaos"}


def __getattr__(name: str) -> Any:
    # Lazy: the chaos harness imports the engines, which import the
    # sanitizer from this package, so an eager export would be a cycle.
    if name in _CHAOS_EXPORTS:
        from repro.tooling import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
