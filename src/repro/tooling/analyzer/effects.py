"""Effect inference: seed facts + transitive propagation over the call graph.

Every function gets an inferred *effect set* — which of the simulation's
guarded capabilities it can reach, directly or through any call chain:

* ``CLOCK_ADVANCE`` — moves the simulated clock (``SimClock.charge_compute``,
  ``wait_until``, the sanctioned ``restore`` rewind);
* ``DEVICE_IO``     — schedules device requests (``Device.submit``,
  ``Timeline.schedule``);
* ``VFS_MUTATE``    — changes the virtual filesystem namespace or file
  contents (``VFS.create/delete/replace/restore``,
  ``VirtualFile.append_records/corrupt_at``, and
  ``AsyncStreamWriter.take_survivors``, which writes the buffer a stay
  file holds by reference);
* ``RNG``           — consumes randomness (seeded sources in
  ``repro.utils.rng``, plus any direct ``numpy.random``/``random`` call);
* ``WALLCLOCK``     — reads host wall-clock time (``time.time`` and
  friends, ``datetime.now``);
* ``TRACE_EMIT``    — emits observability spans (``Tracer.span/emit``);
* ``FAULT_EVAL``    — evaluates the fault plan (``FaultInjector.on_submit``).

Seeds come in two kinds: *named seeds* matched against the analyzed
tree's own symbol table (so fixture mini-packages exercise the same
machinery as ``src/repro``), and *pattern seeds* found by scanning call
expressions (wall-clock and raw-RNG primitives, which live outside the
project).  Propagation is a worklist fixpoint: ``effects(f) = seeds(f) |
union(effects(callee))``, optionally stopping at *barrier* functions —
the sanctioned choke points (engine entry protocols) through which a
front-end layer is allowed to reach an effect.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.tooling.analyzer.callgraph import CallGraph
from repro.tooling.analyzer.symbols import SymbolTable

CLOCK_ADVANCE = "CLOCK_ADVANCE"
DEVICE_IO = "DEVICE_IO"
VFS_MUTATE = "VFS_MUTATE"
RNG = "RNG"
WALLCLOCK = "WALLCLOCK"
TRACE_EMIT = "TRACE_EMIT"
FAULT_EVAL = "FAULT_EVAL"

ALL_EFFECTS = (
    CLOCK_ADVANCE, DEVICE_IO, FAULT_EVAL, RNG, TRACE_EMIT, VFS_MUTATE, WALLCLOCK,
)

#: Named seed facts: (module suffix, class name or None, function name) ->
#: effect.  Matched against the analyzed tree's own symbols, so the seeds
#: bind to whatever tree (real or fixture) defines those qualnames.
NAMED_SEEDS: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("sim.clock", "SimClock", "charge_compute", CLOCK_ADVANCE),
    ("sim.clock", "SimClock", "wait_until", CLOCK_ADVANCE),
    ("sim.clock", "SimClock", "restore", CLOCK_ADVANCE),
    ("sim.timeline", "Timeline", "schedule", DEVICE_IO),
    ("storage.device", "Device", "submit", DEVICE_IO),
    ("storage.vfs", "VFS", "create", VFS_MUTATE),
    ("storage.vfs", "VFS", "delete", VFS_MUTATE),
    ("storage.vfs", "VFS", "delete_if_exists", VFS_MUTATE),
    ("storage.vfs", "VFS", "replace", VFS_MUTATE),
    ("storage.vfs", "VFS", "restore", VFS_MUTATE),
    ("storage.vfs", "VirtualFile", "append_records", VFS_MUTATE),
    ("storage.vfs", "VirtualFile", "corrupt_at", VFS_MUTATE),
    ("storage.streams", "AsyncStreamWriter", "take_survivors", VFS_MUTATE),
    ("utils.rng", None, "rng_from_seed", RNG),
    ("obs.tracer", "Tracer", "span", TRACE_EMIT),
    ("obs.tracer", "Tracer", "emit", TRACE_EMIT),
    ("storage.faults", "FaultInjector", "on_submit", FAULT_EVAL),
)

#: ``time`` module functions whose call is a wall-clock read.
WALLCLOCK_TIME_FUNCS = frozenset(
    {"time", "perf_counter", "monotonic", "process_time", "clock"}
)
#: ``datetime`` class methods whose call is a wall-clock read.
WALLCLOCK_DATETIME_FUNCS = frozenset({"now", "utcnow", "today"})

#: ``numpy.random`` / stdlib ``random`` entry points that create or
#: consume randomness outside the seeded ``repro.utils.rng`` choke point.
RAW_RNG_FUNCS = frozenset(
    {
        "default_rng", "seed", "random", "rand", "randn", "randint",
        "random_sample", "choice", "shuffle", "permutation", "randrange",
        "uniform", "normal", "sample", "getrandbits",
    }
)


@dataclass(frozen=True)
class PatternSite:
    """One pattern-seed call site (wall-clock or raw-RNG primitive)."""

    function: str  # qualname of the containing function ("" at module level)
    module: str
    path: str
    line: int
    col: int
    effect: str
    detail: str  # e.g. "time.perf_counter" or "numpy.random.default_rng"


EffectTable = Dict[str, FrozenSet[str]]


def named_seed_table(table: SymbolTable) -> Dict[str, Set[str]]:
    """Seed effects bound to the analyzed tree's own qualnames."""
    seeds: Dict[str, Set[str]] = {}
    for module_suffix, cls_name, func_name, effect in NAMED_SEEDS:
        if cls_name is None:
            qualname = f"repro.{module_suffix}.{func_name}"
        else:
            qualname = f"repro.{module_suffix}.{cls_name}.{func_name}"
        if qualname in table.functions:
            seeds.setdefault(qualname, set()).add(effect)
    return seeds


def scan_pattern_sites(table: SymbolTable) -> List[PatternSite]:
    """Find wall-clock and raw-RNG call sites in every module."""
    sites: List[PatternSite] = []
    for module_name in sorted(table.modules):
        module = table.modules[module_name]
        scanner = _PatternScanner(table, module_name)
        sites.extend(scanner.scan())
    return sites


class _PatternScanner:
    def __init__(self, table: SymbolTable, module_name: str) -> None:
        self.table = table
        self.module = table.modules[module_name]
        # Containing-function index: function qualname per statement id.
        self._func_of: Dict[int, str] = {}
        for qualname in sorted(table.functions):
            func = table.functions[qualname]
            if func.module != module_name:
                continue
            for node in ast.walk(func.node):
                self._func_of[id(node)] = qualname

    def scan(self) -> List[PatternSite]:
        sites: List[PatternSite] = []
        for node in ast.walk(self.module.tree):
            if not isinstance(node, ast.Call):
                continue
            hit = self._classify(node)
            if hit is None:
                continue
            effect, detail = hit
            sites.append(
                PatternSite(
                    function=self._func_of.get(id(node), ""),
                    module=self.module.name,
                    path=self.module.path,
                    line=getattr(node, "lineno", 1),
                    col=getattr(node, "col_offset", 0) + 1,
                    effect=effect,
                    detail=detail,
                )
            )
        return sites

    def _classify(self, node: ast.Call) -> Optional[Tuple[str, str]]:
        func = node.func
        imports = self.module.imports
        if isinstance(func, ast.Name):
            target = imports.get(func.id)
            if target is not None:
                if target.startswith("time.") and target[5:] in WALLCLOCK_TIME_FUNCS:
                    return WALLCLOCK, target
                if target.startswith("random.") and target[7:] in RAW_RNG_FUNCS:
                    return RNG, target
                if (
                    target.startswith("numpy.random.")
                    and target.rsplit(".", 1)[-1] in RAW_RNG_FUNCS
                ):
                    return RNG, target
            return None
        if not isinstance(func, ast.Attribute):
            return None
        chain = _attr_chain(func)
        if chain is None:
            return None
        root, rest = chain[0], chain[1:]
        resolved_root = imports.get(root)
        dotted = ".".join([resolved_root or root, *rest])
        if dotted.startswith("time.") and func.attr in WALLCLOCK_TIME_FUNCS:
            return WALLCLOCK, dotted
        if (
            func.attr in WALLCLOCK_DATETIME_FUNCS
            and resolved_root in ("datetime", "datetime.datetime")
        ):
            return WALLCLOCK, dotted
        if func.attr in RAW_RNG_FUNCS:
            if dotted.startswith("numpy.random.") or dotted.startswith(
                "random."
            ):
                return RNG, dotted
        return None


def _attr_chain(expr: ast.Attribute) -> Optional[List[str]]:
    """``np.random.default_rng`` -> ["np", "random", "default_rng"]."""
    parts: List[str] = []
    node: ast.expr = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return parts[::-1]


def propagate_effects(
    table: SymbolTable,
    graph: CallGraph,
    seeds: Dict[str, Set[str]],
    barriers: FrozenSet[str] = frozenset(),
) -> EffectTable:
    """Fixpoint: each function's effects include every callee's effects.

    ``barriers`` are functions whose effects do **not** leak to their
    callers — the sanctioned entry points (``Engine.run`` and friends)
    through which front-end layers are allowed to reach the simulation.
    """
    effects: Dict[str, Set[str]] = {
        q: set(seeds.get(q, ())) for q in table.functions
    }
    # Reverse adjacency for the worklist.
    callers: Dict[str, List[str]] = {}
    for caller, callees in graph.edges.items():
        for callee in callees:
            callers.setdefault(callee, []).append(caller)
    worklist = sorted(q for q in effects if effects[q])
    while worklist:
        current = worklist.pop()
        if current in barriers:
            continue
        current_effects = effects[current]
        for caller in callers.get(current, ()):  # propagate upward
            before = len(effects[caller])
            effects[caller] |= current_effects
            if len(effects[caller]) != before:
                worklist.append(caller)
    return {q: frozenset(v) for q, v in effects.items()}


def witness_path(
    graph: CallGraph,
    effects: EffectTable,
    seeds: Dict[str, Set[str]],
    start: str,
    effect: str,
    barriers: FrozenSet[str] = frozenset(),
) -> List[str]:
    """Shortest call chain from ``start`` to a seed of ``effect``.

    Deterministic (callees are visited in sorted order); used to turn an
    abstract "reaches CLOCK_ADVANCE" into an actionable chain like
    ``bench.collect -> run_traced -> SimClock.charge_compute``.
    """
    if effect in seeds.get(start, ()):
        return [start]
    parent: Dict[str, str] = {}
    queue = [start]
    seen = {start}
    while queue:
        current = queue.pop(0)
        for callee in graph.callees(current):
            if callee in seen or callee in barriers:
                continue  # barriers are sanctioned; do not walk through
            if effect not in effects.get(callee, frozenset()):
                continue
            seen.add(callee)
            parent[callee] = current
            if effect in seeds.get(callee, ()):
                chain = [callee]
                while chain[-1] != start:
                    chain.append(parent[chain[-1]])
                return chain[::-1]
            queue.append(callee)
    return [start]


def format_effect_table(effects: EffectTable) -> str:
    """Byte-deterministic dump of the inferred effect table."""
    lines = []
    for qualname in sorted(effects):
        effect_set = effects[qualname]
        if effect_set:
            lines.append(f"{qualname}: {','.join(sorted(effect_set))}")
    return "\n".join(lines) + "\n"
