"""The static analyzer: the repo's one rule engine (``--list-rules``).

Module-local source rules and whole-program effect & determinism
contracts, judged over three layers of stdlib ``ast`` — no analyzed code
is executed:

1. **Symbols** (:mod:`.symbols`) — project symbol table: modules,
   classes, functions, import maps.
2. **Call graph** (:mod:`.callgraph`) — conservative interprocedural
   edges with typed-receiver inference and a name-match fallback.
3. **Effects** (:mod:`.effects`) — seed facts (``SimClock.charge_compute``
   is ``CLOCK_ADVANCE``, ``Device.submit`` is ``DEVICE_IO``, ...)
   propagated transitively, then judged by the effect contracts in
   :mod:`.rules`.

Run it standalone::

    PYTHONPATH=src python -m repro.tooling.analyzer src/repro

or as ``repro analyze``.  Findings support ``# noqa: FBxxx`` line
suppressions and a committed baseline file (``analyzer_baseline.json``)
for grandfathered, justified cases; output formats are text, JSON and
SARIF (what CI uploads for annotations).  See ``docs/static_analysis.md``.
"""

from repro.tooling.analyzer.effects import (
    ALL_EFFECTS,
    CLOCK_ADVANCE,
    DEVICE_IO,
    FAULT_EVAL,
    RNG,
    TRACE_EMIT,
    VFS_MUTATE,
    WALLCLOCK,
    format_effect_table,
)
from repro.tooling.analyzer.rules import RULES
from repro.tooling.analyzer.runner import (
    AnalysisResult,
    analyze_paths,
    analyze_sources,
    main,
)

__all__ = [
    "ALL_EFFECTS",
    "CLOCK_ADVANCE",
    "DEVICE_IO",
    "FAULT_EVAL",
    "RNG",
    "TRACE_EMIT",
    "VFS_MUTATE",
    "WALLCLOCK",
    "RULES",
    "AnalysisResult",
    "analyze_paths",
    "analyze_sources",
    "format_effect_table",
    "main",
]
