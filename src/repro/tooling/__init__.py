"""Correctness tooling: runtime sanitizer, static analyzer, chaos harness.

Three layers guard the invariants ordinary tests cannot see:

* :mod:`repro.tooling.sanitizer` — opt-in runtime checkers (``sanitize=True``
  on a :class:`~repro.storage.machine.Machine`) that
  watch a live run for VFS leaks, clock regressions, stay-writer
  state-machine violations, and device I/O that bypasses the cost model.
* :mod:`repro.tooling.analyzer` — the one static rule engine
  (``repro analyze``): module-local source rules such as "no bare assert"
  and whole-program effect contracts such as "no wall-clock read outside
  ``obs/hostprof.py``", all stdlib ``ast``.
* :mod:`repro.tooling.chaos` — the chaos harness (``repro chaos``):
  seeded fault schedules swept across engines and disk placements, every
  surviving run held to bit-identical BFS levels.

See ``docs/correctness_tooling.md`` for the sanitizer's checkers,
``docs/static_analysis.md`` for the rule catalogue and
``docs/fault_injection.md`` for the chaos regimen.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "ChaosReport",
    "ChaosTrial",
    "Sanitizer",
    "Violation",
    "run_chaos",
]

_SANITIZER_EXPORTS = {"Sanitizer", "Violation"}
_CHAOS_EXPORTS = {"ChaosReport", "ChaosTrial", "run_chaos"}


def __getattr__(name: str) -> Any:
    # Lazy: the engines import the sanitizer and the chaos harness imports
    # the engines, so eager exports here would be an import cycle.
    if name in _SANITIZER_EXPORTS:
        from repro.tooling import sanitizer

        return getattr(sanitizer, name)
    if name in _CHAOS_EXPORTS:
        from repro.tooling import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
