"""The rule catalogue: module-local source rules and whole-program contracts.

Two kinds of rule share one table (:data:`RULES`), one dispatcher
(:func:`run_all_rules`) and one finding type.  The *local* rules
(FB102, FB104-FB110, FB205, FB208) walk one module's AST, scoped by the
module's subsystem; the *whole-program* rules consume the symbol table /
call graph / effect tables and judge *reach*.  ``docs/static_analysis.md`` has
the one catalogue table with scopes.

FB102  bare-assert
    No ``assert`` in library code: it vanishes under ``python -O``.  Raise
    a :class:`~repro.errors.ReproError` subclass instead.
FB104  direct-virtualfile
    ``VirtualFile`` is constructed only inside ``storage/vfs.py``; files
    built elsewhere bypass the namespace and the leak tracking.
FB105  clock-private-mutation
    No assignment to ``._now`` / ``._compute_time`` / ``._iowait_time``
    outside ``sim/clock.py``: it bypasses the monotonicity guarantee.
FB106  timeline-direct-schedule
    No ``*.timeline.schedule(...)`` outside ``storage/device.py`` and
    ``sim/``: requests go through ``Device.submit`` so seeks, bytes and
    the page cache are accounted.
FB107  runstate-outside-engine
    No ``_RunState(...)`` construction outside ``engines/`` and ``core/``:
    per-query state is owned by
    :class:`~repro.engines.session.QuerySession`.
FB108  engine-print
    No ``print(...)`` inside ``engines/`` or ``core/``: engines report
    through ``EngineResult``, spans and counters (``repro.obs``).
FB109  broad-except-in-engine
    No bare ``except:`` / ``except Exception:`` / ``except BaseException:``
    inside ``engines/`` or ``core/``: fault injection signals through
    typed :class:`~repro.errors.ReproError` subclasses, and a broad
    handler turns a recoverable fault into wrong output.
FB110  serve-single-executor
    Under ``serve/``, no ``run_staged_queries(...)`` or
    ``*.attach_tracer(...)`` call outside ``serve/admission.py``: every
    served query is a ticket of the admission queue, whose executor is the
    one place a registered graph's machine runs anything.  A second call
    site is a second path that deadlines, capacity, quarantine and drain
    never see.
FB201  obs-timing-neutrality
    Observability code (``repro/obs/``, except the benchmark driver
    ``obs/bench.py``) must not reach ``CLOCK_ADVANCE`` or ``DEVICE_IO``.
    Tracing is timing-neutral by construction, not just by test: a span
    emitter that can advance the clock or touch a device would perturb
    the very timeline it observes.
FB202  frontend-vfs-mutation
    Analysis/front-end layers (``analysis/``, ``cli.py``, ``api.py``)
    must not reach ``VFS_MUTATE`` except through the engine entry
    points (``Engine.run/stage/run_many/session``, the machine
    checkpoint protocol).  Every byte moves through one accounted choke
    point — the property the whole cost model rests on.
FB203  fault-eval-choke-point
    ``FaultInjector.on_submit`` (effect ``FAULT_EVAL``) may be invoked
    only from ``Device.submit``.  Faults evaluated anywhere else would
    desynchronize the per-device request ordinals that make fault
    schedules replayable.
FB204  unseeded-rng
    No direct ``numpy.random``/``random`` primitive outside
    ``repro/utils/rng.py``.  Randomness must be traceable to a seeded
    ``rng_from_seed`` source or reruns stop being
    bit-identical.
FB205  order-sensitive-iteration
    No iteration over ``set``/``frozenset`` values and no unsorted
    ``os.listdir``/``glob``/``Path.iterdir`` results: both orders are
    runtime-dependent, and once they flow into emitted output or
    on-disk bytes, byte-determinism is gone.  Wrap the iterable in
    ``sorted(...)``.  (``dict`` iteration is insertion-ordered and
    exempt — unless the keys came from a set, which this rule catches
    at the set.)
FB206  snapshot-completeness
    Every class participating in the checkpoint protocol (defines
    ``snapshot``/``checkpoint`` + ``restore``) must cover each mutable
    instance attribute: an attribute assigned outside ``__init__`` that
    the snapshot/restore pair never references is state that silently
    escapes the rewind protocol.
FB208  serve-typed-errors
    Every ``except`` handler in the serving subsystem (``repro/serve/``)
    must surface a *typed* failure: re-raise, construct a
    ``...Error`` (the :class:`~repro.errors.ServeError` family), or call
    one of the sanctioned error funnels (``_problem_for`` /
    ``_send_problem`` / ``count_disconnect``).  A bare ``except: pass``
    (or log-and-return) in the serving path silently drops a client's
    request — the resilience contract is that every failure a client
    sees is a typed, machine-readable error.
FB207  wallclock-choke-point
    No direct wall-clock read (``time.time``/``perf_counter``/
    ``monotonic``/..., ``datetime.now``) outside ``repro/obs/hostprof.py``
    — the one sanctioned host-clock module.  Everything else takes a
    :class:`~repro.obs.hostprof.HostClock` handle, so host time stays
    injectable (tests pass a ``ManualHostClock``) and grep-ably absent
    from the simulation.  It holds in every subsystem, so the sim and
    engine layers need no wall-clock rule of their own.
FB209  unreached-public-code
    Every public function, class and method must be reachable from a
    front door (:data:`FRONT_DOORS`, every module's import-time code and
    every script under :data:`FRONT_DOOR_DIRS`) by calls or references:
    callbacks, dispatch-table values, ``partial(...)`` arguments and
    property reads count.  Code only tests reach is code to delete.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from repro.tooling.analyzer.callgraph import CallGraph, build_reference_map
from repro.tooling.analyzer.effects import (
    CLOCK_ADVANCE,
    DEVICE_IO,
    EffectTable,
    PatternSite,
    RNG,
    VFS_MUTATE,
    WALLCLOCK,
    witness_path,
)
from repro.tooling.analyzer.symbols import (
    PACKAGE_NAME,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    collect_imports,
    dotted_name,
    last_name,
    module_name_for,
    subsystem_of,
)
from repro.tooling.report import Finding

RULES: Dict[str, str] = {
    "FB102": "bare assert in library code (stripped under python -O)",
    "FB104": "direct VirtualFile construction outside storage/vfs.py",
    "FB105": "mutation of SimClock internals outside sim/clock.py",
    "FB106": "Timeline.schedule call outside Device.submit",
    "FB107": "_RunState construction outside engines/core",
    "FB108": "print() call inside engines/core",
    "FB109": "bare/broad except inside engines/core (catch ReproError subclasses)",
    "FB110": "serve-layer query execution outside the admission executor",
    "FB200": "file failed to parse (syntax error)",
    "FB201": "observability code reaches CLOCK_ADVANCE/DEVICE_IO",
    "FB202": "front-end layer reaches VFS_MUTATE outside engine entry points",
    "FB203": "fault evaluation invoked outside the Device.submit choke point",
    "FB204": "direct numpy.random/random primitive outside repro.utils.rng",
    "FB205": "order-sensitive iteration (set / unsorted listdir-glob)",
    "FB206": "mutable attribute not covered by the snapshot/restore protocol",
    "FB207": "direct wall-clock read outside repro.obs.hostprof",
    "FB208": "serve-layer except handler swallows the failure untyped",
    "FB209": "public code that no front door reaches",
}

#: Method names that mutate a container in place (FB206 mutation scan).
_MUTATOR_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "move_to_end", "pop", "popitem", "popleft", "remove",
        "reverse", "setdefault", "sort", "update",
    }
)

#: Filesystem-listing callables whose result order is OS-dependent.
_FS_LISTING_MODULE_FUNCS = {
    "os.listdir", "os.scandir", "glob.glob", "glob.iglob",
}
_FS_LISTING_METHODS = frozenset({"iterdir", "glob", "rglob"})


@dataclass
class Project:
    """Everything the rule checks consume, bundled."""

    table: SymbolTable
    graph: CallGraph
    effects: EffectTable  # full propagation, no barriers
    frontdoor_effects: EffectTable  # propagation stopping at engine entries
    seeds: Dict[str, Set[str]]
    pattern_sites: List[PatternSite]
    barriers: FrozenSet[str] = frozenset()


def engine_entry_points(table: SymbolTable) -> FrozenSet[str]:
    """The sanctioned choke points front-end layers may call.

    Methods named ``run``/``run_many``/``stage``/``session``/``recover``
    on classes under ``engines/`` or ``core/``, plus the machine
    checkpoint protocol (``Machine.checkpoint``/``restore``) — the
    entries through which an effect reach is accounted, traced, and
    rewindable.
    """
    entries: Set[str] = set()
    entry_methods = {"run", "run_many", "stage", "session", "recover"}
    for qualname in sorted(table.functions):
        func = table.functions[qualname]
        if func.class_qualname is None:
            continue
        subsystem = subsystem_of(func.module)
        if subsystem in ("engines", "core") and func.name in entry_methods:
            entries.add(qualname)
        if (
            subsystem == "storage"
            and func.class_qualname.endswith(".Machine")
            and func.name in ("checkpoint", "restore")
        ):
            entries.add(qualname)
    return frozenset(entries)


def run_all_rules(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for path, line, message in project.table.parse_errors:
        findings.append(
            Finding(path=path, line=line, col=1, code="FB200",
                    message=f"syntax error: {message}")
        )
    findings.extend(check_local_rules(project))
    findings.extend(check_obs_neutrality(project))
    findings.extend(check_frontend_vfs(project))
    findings.extend(check_fault_choke_point(project))
    findings.extend(check_unseeded_rng(project))
    findings.extend(check_order_sensitivity(project))
    findings.extend(check_snapshot_completeness(project))
    findings.extend(check_wallclock_choke_point(project))
    findings.extend(check_serve_typed_errors(project))
    findings.extend(check_unreached(project))
    return findings


# ----------------------------------------------------------------------
# FB102, FB104-FB110
# ----------------------------------------------------------------------

#: Subsystems that own per-query run state and run under injected faults.
_ENGINE_SUBSYSTEMS = frozenset({"engines", "core"})
_CLOCK_PRIVATE_ATTRS = frozenset({"_now", "_compute_time", "_iowait_time"})
_BROAD_EXCEPTION_NAMES = frozenset({"Exception", "BaseException"})
#: What running a query on a registered graph's machine takes.
_SERVE_EXECUTION_CALLS = frozenset({"run_staged_queries", "attach_tracer"})


def check_local_rules(project: Project) -> List[Finding]:
    """FB102 and FB104-FB110, one AST pass per module of the ``repro`` package.

    Modules outside the package are exempt, so a ``tests/`` tree handed
    to the analyzer may assert and build fixtures by hand.
    """
    findings = []
    for module_name in sorted(project.table.modules):
        if module_name.split(".")[0] != PACKAGE_NAME:
            continue
        module = project.table.modules[module_name]
        visitor = _LocalRulesVisitor(module)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


class _LocalRulesVisitor(ast.NodeVisitor):
    """All nine rules in one walk; each is scoped by the module's name."""

    def __init__(self, module: ModuleInfo) -> None:
        self.path = module.path
        self.module = module.name
        self.imports = module.imports
        self.subsystem = subsystem_of(module.name)
        self.in_engine_layer = self.subsystem in _ENGINE_SUBSYSTEMS
        self.findings: List[Finding] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(_finding_at(self.path, node, code, message))

    # -- FB102 ---------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._flag(
            node,
            "FB102",
            "bare assert is stripped under python -O; raise a ReproError "
            "subclass instead",
        )
        self.generic_visit(node)

    # -- FB104 / FB106 / FB107 / FB108 / FB110 -------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        callee = last_name(func, self.imports)
        if callee == "VirtualFile" and self.module != "repro.storage.vfs":
            self._flag(
                node,
                "FB104",
                "construct files through VFS.create(), not VirtualFile() "
                "(bypasses the namespace and leak tracking)",
            )
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "schedule"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "timeline"
            and self.subsystem != "sim"
            and self.module != "repro.storage.device"
        ):
            self._flag(
                node,
                "FB106",
                "submit requests through Device.submit(), not "
                "timeline.schedule() (bypasses seek/byte accounting)",
            )
        if callee == "_RunState" and not self.in_engine_layer:
            self._flag(
                node,
                "FB107",
                "per-query state is owned by QuerySession; do not construct "
                "_RunState outside engines/ or core/",
            )
        if (
            self.in_engine_layer
            and isinstance(func, ast.Name)
            and func.id == "print"
        ):
            self._flag(
                node,
                "FB108",
                f"print() in {self.subsystem}/ — engines report through "
                "EngineResult, spans and counters (repro.obs), never stdout",
            )
        if (
            callee in _SERVE_EXECUTION_CALLS
            and self.subsystem == "serve"
            and self.module != "repro.serve.admission"
        ):
            self._flag(
                node,
                "FB110",
                f"{callee}() in serve/ outside admission.py — submit a "
                "ticket to the graph's AdmissionController instead (a "
                "second executor bypasses deadlines, capacity, quarantine "
                "and drain)",
            )
        self.generic_visit(node)

    # -- FB105 ---------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_clock_mutation(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_clock_mutation(node.target)
        self.generic_visit(node)

    def _check_clock_mutation(self, target: ast.expr) -> None:
        if (
            isinstance(target, ast.Attribute)
            and target.attr in _CLOCK_PRIVATE_ATTRS
            and self.module != "repro.sim.clock"
        ):
            self._flag(
                target,
                "FB105",
                f"assignment to {target.attr} outside sim/clock.py breaks "
                "the clock's monotonicity guarantee",
            )

    # -- FB109 ---------------------------------------------------------
    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.in_engine_layer:
            if node.type is None:
                caught = ["bare except"]
            else:
                items = (
                    node.type.elts
                    if isinstance(node.type, ast.Tuple)
                    else [node.type]
                )
                caught = [
                    f"except {name}"
                    for name in map(last_name, items)
                    if name in _BROAD_EXCEPTION_NAMES
                ]
            for clause in caught:
                self._flag(
                    node,
                    "FB109",
                    f"{clause} in {self.subsystem}/ swallows injected "
                    "faults (CrashError, corruption signals); catch the "
                    "specific ReproError subclass this layer can handle",
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# FB201
# ----------------------------------------------------------------------
def check_obs_neutrality(project: Project) -> List[Finding]:
    findings = []
    for func in project.table.sorted_functions():
        if not func.module.startswith("repro.obs."):
            continue
        if func.module == "repro.obs.bench":
            # The bench harness *drives* engine runs on purpose; it is a
            # benchmark front door, not passive observation.
            continue
        reached = project.effects.get(func.qualname, frozenset())
        for effect in (CLOCK_ADVANCE, DEVICE_IO):
            if effect in reached:
                chain = witness_path(
                    project.graph, project.effects, project.seeds,
                    func.qualname, effect,
                )
                findings.append(
                    Finding(
                        path=func.path,
                        line=func.lineno,
                        col=func.col,
                        code="FB201",
                        symbol=func.qualname,
                        message=(
                            f"observability code reaches {effect} via "
                            f"{' -> '.join(_short(chain))}; tracing must be "
                            "timing-neutral by construction"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# FB202
# ----------------------------------------------------------------------
def _is_frontend(module: str) -> bool:
    return (
        module in ("repro.cli", "repro.api")
        or module.startswith("repro.analysis.")
        or module == "repro.analysis"
    )


def check_frontend_vfs(project: Project) -> List[Finding]:
    findings = []
    for func in project.table.sorted_functions():
        if not _is_frontend(func.module):
            continue
        reached = project.frontdoor_effects.get(func.qualname, frozenset())
        if VFS_MUTATE in reached:
            chain = witness_path(
                project.graph, project.frontdoor_effects, project.seeds,
                func.qualname, VFS_MUTATE, barriers=project.barriers,
            )
            findings.append(
                Finding(
                    path=func.path,
                    line=func.lineno,
                    col=func.col,
                    code="FB202",
                    symbol=func.qualname,
                    message=(
                        "front-end layer reaches VFS_MUTATE via "
                        f"{' -> '.join(_short(chain))}; route the mutation "
                        "through an engine entry point (run/stage/session)"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# FB203
# ----------------------------------------------------------------------
def check_fault_choke_point(project: Project) -> List[Finding]:
    findings = []
    targets = [
        q for q in sorted(project.table.functions)
        if q.endswith(".FaultInjector.on_submit")
    ]
    for target in targets:
        for site in project.graph.callers_of(target):
            caller = project.table.functions.get(site.caller)
            if caller is None:
                continue
            if caller.module.endswith("storage.faults"):
                continue
            if caller.qualname.endswith(".Device.submit"):
                continue
            findings.append(
                Finding(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    code="FB203",
                    symbol=caller.qualname,
                    message=(
                        "fault plans are evaluated once per request at "
                        "Device.submit; calling on_submit from "
                        f"{_short([caller.qualname])[0]} desynchronizes the "
                        "replayable request ordinals"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# FB204
# ----------------------------------------------------------------------
def check_unseeded_rng(project: Project) -> List[Finding]:
    findings = []
    for site in project.pattern_sites:
        if site.effect != RNG:
            continue
        if site.module == "repro.utils.rng":
            continue
        findings.append(
            Finding(
                path=site.path,
                line=site.line,
                col=site.col,
                code="FB204",
                symbol=site.function,
                message=(
                    f"direct {site.detail}() call; take randomness from "
                    "repro.utils.rng.rng_from_seed so reruns "
                    "stay bit-identical"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# FB205
# ----------------------------------------------------------------------
def check_order_sensitivity(project: Project) -> List[Finding]:
    findings = []
    for module_name in sorted(project.table.modules):
        module = project.table.modules[module_name]
        visitor = _OrderVisitor(module.path, module.imports)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


class _OrderVisitor(ast.NodeVisitor):
    """Flags set iteration and unsorted filesystem listings.

    A first pass marks every node inside a ``sorted(...)`` (or
    ``min``/``max``/``sum``/``len``, which are order-insensitive) call as
    sanctioned; the main pass then flags iteration contexts over set-ish
    expressions and raw listing calls outside those subtrees.
    """

    _ORDER_INSENSITIVE_WRAPPERS = frozenset(
        {"sorted", "len", "sum", "min", "max", "set", "frozenset", "any", "all"}
    )

    def __init__(self, path: str, imports: Dict[str, str]) -> None:
        self.path = path
        self.imports = imports
        self.findings: List[Finding] = []
        self._sanctioned: Set[int] = set()
        #: local names bound to set-ish values, per visitor (module+funcs).
        self._set_names: Set[str] = set()

    # -- pass 1: sanctioned subtrees -----------------------------------
    def visit_Module(self, node: ast.Module) -> None:
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in self._ORDER_INSENSITIVE_WRAPPERS
            ):
                for inner in ast.walk(sub):
                    # set(...)/frozenset(...) sanction what they consume,
                    # but the set they *produce* is still hash-ordered —
                    # iterating it directly must stay flaggable.
                    if inner is sub and sub.func.id in ("set", "frozenset"):
                        continue
                    self._sanctioned.add(id(inner))
            elif isinstance(sub, (ast.Compare, ast.Subscript)):
                # Membership tests / indexing do not iterate.
                for inner in ast.walk(sub):
                    if inner is not sub:
                        self._sanctioned.add(id(inner))
        self.generic_visit(node)

    # -- set tracking ---------------------------------------------------
    def _is_setish(self, expr: ast.expr) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.Name) and expr.id in self._set_names:
            return True
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setish(expr.left) or self._is_setish(expr.right)
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if self._is_setish(node.value):
                self._set_names.add(name)
            else:
                self._set_names.discard(name)
        self.generic_visit(node)

    # -- iteration contexts ---------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST) -> None:
        for gen in node.generators:  # type: ignore[attr-defined]
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension
    visit_DictComp = _visit_comprehension

    def visit_Call(self, node: ast.Call) -> None:
        # list(...)/tuple(...)/enumerate(...)/"".join(...) materialize order.
        materializer = False
        if isinstance(node.func, ast.Name) and node.func.id in (
            "list", "tuple", "enumerate", "iter",
        ):
            materializer = True
        elif (
            isinstance(node.func, ast.Attribute) and node.func.attr == "join"
        ):
            materializer = True
        if materializer and node.args:
            self._check_iter(node.args[0])
        self._check_listing_call(node)
        self.generic_visit(node)

    def _check_iter(self, expr: ast.expr) -> None:
        if id(expr) in self._sanctioned:
            return
        if self._is_setish(expr):
            self._flag(
                expr,
                "iteration over a set is hash-order dependent; wrap it in "
                "sorted(...) before the order can reach output bytes",
            )

    def _check_listing_call(self, node: ast.Call) -> None:
        if id(node) in self._sanctioned:
            return
        dotted = None
        if isinstance(node.func, ast.Attribute):
            if isinstance(node.func.value, ast.Name):
                root = self.imports.get(node.func.value.id, node.func.value.id)
                dotted = f"{root}.{node.func.attr}"
            if dotted not in _FS_LISTING_MODULE_FUNCS:
                dotted = None
            if dotted is None and node.func.attr in _FS_LISTING_METHODS:
                # Path.iterdir / .glob / .rglob — method-name heuristic.
                dotted = f"<path>.{node.func.attr}"
        elif isinstance(node.func, ast.Name):
            target = self.imports.get(node.func.id)
            if target in _FS_LISTING_MODULE_FUNCS:
                dotted = target
        if dotted is None:
            return
        self._flag(
            node,
            f"{dotted}() returns entries in OS-dependent order; wrap the "
            "call in sorted(...) before iterating",
        )

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(_finding_at(self.path, node, "FB205", message))


# ----------------------------------------------------------------------
# FB206
# ----------------------------------------------------------------------
@dataclass
class _SnapshotClass:
    qualname: str
    snapshot_methods: List[str] = field(default_factory=list)


def check_snapshot_completeness(project: Project) -> List[Finding]:
    findings = []
    table = project.table
    for cls_qual in sorted(table.classes):
        cls = table.classes[cls_qual]
        snap_names = [
            n for n in ("snapshot", "checkpoint") if n in cls.methods
        ]
        if not snap_names or "restore" not in cls.methods:
            continue
        protocol_methods = {*snap_names, "restore"}
        covered = _covered_attrs(project, cls_qual, protocol_methods)
        mutated = _mutated_attrs(project, cls_qual, protocol_methods)
        for attr in sorted(mutated):
            if attr in covered:
                continue
            line, col, path = mutated[attr]
            findings.append(
                Finding(
                    path=path,
                    line=line,
                    col=col,
                    code="FB206",
                    symbol=f"{cls_qual}.{attr}",
                    message=(
                        f"attribute {attr!r} of {cls.name} is mutated at "
                        f"runtime but never referenced by "
                        f"{'/'.join(sorted(protocol_methods))}(); this state "
                        "silently escapes the checkpoint/rewind protocol"
                    ),
                )
            )
    return findings


def _covered_attrs(
    project: Project, cls_qual: str, protocol_methods: Set[str]
) -> Set[str]:
    """self-attrs referenced by snapshot/restore, one helper level deep."""
    table = project.table
    cls = table.classes[cls_qual]
    covered: Set[str] = set()
    helper_names: Set[str] = set()
    for method_name in sorted(protocol_methods):
        func = table.functions.get(cls.methods[method_name])
        if func is None:
            continue
        for node in ast.walk(func.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                covered.add(node.attr)
                if node.attr in cls.methods:
                    helper_names.add(node.attr)
    # One level of expansion: snapshot() delegating to self.all_devices()
    # covers the attributes that helper reads.
    for helper in sorted(helper_names):
        func = table.functions.get(cls.methods.get(helper, ""))
        if func is None:
            continue
        for node in ast.walk(func.node):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                covered.add(node.attr)
    return covered


def _mutated_attrs(
    project: Project, cls_qual: str, protocol_methods: Set[str]
) -> Dict[str, Tuple[int, int, str]]:
    """attr -> first mutation site, over every method except __init__."""
    table = project.table
    cls = table.classes[cls_qual]
    mutated: Dict[str, Tuple[int, int, str]] = {}

    def record(attr: str, node: ast.AST, path: str) -> None:
        site = (getattr(node, "lineno", 1), getattr(node, "col_offset", 0) + 1, path)
        if attr not in mutated or site < mutated[attr]:
            mutated[attr] = site

    for method_name in sorted(cls.methods):
        if method_name == "__init__" or method_name in protocol_methods:
            continue
        func = table.functions.get(cls.methods[method_name])
        if func is None:
            continue
        for node in ast.walk(func.node):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            elif isinstance(node, ast.Call):
                attr = _mutator_call_attr(node)
                if attr is not None:
                    record(attr, node, func.path)
                continue
            for target in targets:
                attr = _self_attr_target(target)
                if attr is not None:
                    record(attr, node, func.path)
    return mutated


def _self_attr_target(target: ast.expr) -> Optional[str]:
    """``self.X`` / ``self.X[...]`` assignment target -> ``X``."""
    if isinstance(target, ast.Subscript):
        target = target.value
    if (
        isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    ):
        return target.attr
    return None


def _mutator_call_attr(node: ast.Call) -> Optional[str]:
    """``self.X.append(...)``-style in-place mutation -> ``X``."""
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _MUTATOR_METHODS:
        return None
    owner = func.value
    if (
        isinstance(owner, ast.Attribute)
        and isinstance(owner.value, ast.Name)
        and owner.value.id == "self"
    ):
        return owner.attr
    return None


# ----------------------------------------------------------------------
# FB207
# ----------------------------------------------------------------------
def check_wallclock_choke_point(project: Project) -> List[Finding]:
    findings = []
    for site in project.pattern_sites:
        if site.effect != WALLCLOCK:
            continue
        if site.module == "repro.obs.hostprof":
            # The one sanctioned host-clock module: HostClock.now() wraps
            # time.monotonic() so everything else takes a clock handle.
            continue
        findings.append(
            Finding(
                path=site.path,
                line=site.line,
                col=site.col,
                code="FB207",
                symbol=site.function,
                message=(
                    f"direct {site.detail}() wall-clock read; take a "
                    "repro.obs.hostprof.HostClock handle (HOST_CLOCK by "
                    "default) so host time stays injectable and the "
                    "simulation provably never sees it"
                ),
            )
        )
    return findings


# ----------------------------------------------------------------------
# FB208
# ----------------------------------------------------------------------

#: Calls that funnel a caught exception into the typed-error response
#: path of :mod:`repro.serve.app` (and so satisfy FB208 on their own).
_SERVE_ERROR_FUNNELS = frozenset(
    {"_problem_for", "_send_problem", "count_disconnect"}
)


def check_serve_typed_errors(project: Project) -> List[Finding]:
    """Every serve-layer ``except`` must raise/build a typed error.

    The handler body must contain at least one of: a ``raise`` (typed
    construction or bare re-raise), a call to a ``...Error`` class (the
    typed error is being built for a later raise/ticket assignment), or
    a call to one of :data:`_SERVE_ERROR_FUNNELS`.
    """
    findings = []
    for module_name in sorted(project.table.modules):
        if subsystem_of(module_name) != "serve":
            continue
        module = project.table.modules[module_name]
        visitor = _ServeExceptVisitor(module.path)
        visitor.visit(module.tree)
        findings.extend(visitor.findings)
    return findings


class _ServeExceptVisitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []
        self._function: Optional[str] = None

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self._function = self._function, node.name
        self.generic_visit(node)
        self._function = outer

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if not self._handler_is_typed(node):
            caught = (
                ast.unparse(node.type) if node.type is not None else "Exception"
            )
            self.findings.append(
                Finding(
                    path=self.path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    code="FB208",
                    symbol=self._function,
                    message=(
                        f"except {caught}: handler neither raises, builds "
                        "a typed ...Error, nor calls an error funnel "
                        f"({'/'.join(sorted(_SERVE_ERROR_FUNNELS))}) — a "
                        "serve-layer failure must surface as a typed error, "
                        "never be swallowed"
                    ),
                )
            )
        self.generic_visit(node)

    @staticmethod
    def _handler_is_typed(node: ast.ExceptHandler) -> bool:
        for child in ast.walk(ast.Module(body=node.body, type_ignores=[])):
            if isinstance(child, ast.Raise):
                return True
            if isinstance(child, ast.Call):
                name = last_name(child.func)
                if name is not None and (
                    name in _SERVE_ERROR_FUNNELS or name.endswith("Error")
                ):
                    return True
        return False


# ----------------------------------------------------------------------
# FB209
# ----------------------------------------------------------------------

#: What a user of the repo calls.  A module stands for its ``__all__``, a
#: class for all its methods.  The module-level tables (``cli.COMMANDS``,
#: ``calibration.ENGINES``, ``serve.app._QUERIES``) need no entry: they
#: are import-time code, which is a root in every module.  A tree that
#: holds none of these is not a whole program: FB209 skips it.
FRONT_DOORS = ("repro.api", "repro.serve.GraphService")
#: Script directories beside the package; every file in them is a front
#: door, read only for the references it makes.
FRONT_DOOR_DIRS = ("benchmarks", "examples")


def check_unreached(project: Project) -> List[Finding]:
    table = project.table
    roots: Set[str] = set()
    for door in FRONT_DOORS:
        roots.update(_door_targets(table, door))
    if not roots:
        return []
    scripts = _front_door_scripts(table)
    refs = build_reference_map(table, scripts)
    roots.update(table.modules)
    roots.update(script.path for script in scripts)
    live = _reach(table, refs, roots)
    infos: List[Union[ClassInfo, FunctionInfo]] = [
        *(table.classes[q] for q in sorted(table.classes)),
        *table.sorted_functions(),
    ]
    findings = []
    for info in infos:
        owner = getattr(info, "class_qualname", None)
        if (
            info.qualname not in live
            and not any(part.startswith("_") for part in info.qualname.split("."))
            and (owner is None or owner in live)
        ):
            findings.append(
                Finding(
                    path=info.path,
                    line=info.lineno,
                    col=info.node.col_offset + 1,  # type: ignore[attr-defined]
                    code="FB209",
                    symbol=info.qualname,
                    message=(
                        f"{_short([info.qualname])[0]} is public but no front "
                        "door reaches it; delete it, or baseline it with the "
                        "reason it stays"
                    ),
                )
            )
    return findings


def _door_targets(table: SymbolTable, dotted: str) -> Set[str]:
    """Roots one front door stands for (empty when the tree lacks it)."""
    dotted = table.resolve_export(dotted)
    module = table.modules.get(dotted)
    if module is not None:
        return {dotted}.union(*(
            _door_targets(table, f"{dotted}.{name}") for name in _exported(module)
        ))
    if dotted in table.classes:
        return {dotted, *table.classes[dotted].methods.values()}
    return {dotted} if dotted in table.functions else set()


def _exported(module: ModuleInfo) -> List[str]:
    """The names a module's ``__all__`` lists."""
    for stmt in module.tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return [
                e.value for e in getattr(stmt.value, "elts", ())
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
    return []


def _front_door_scripts(table: SymbolTable) -> List[ModuleInfo]:
    """Parsed scripts under :data:`FRONT_DOOR_DIRS` beside the package.

    The package's directory is found from any module's path; the script
    directories are looked for in the directory holding it and, in a
    ``src/`` layout, in that one's parent (the repo root).  A script that
    cannot be read, decoded or parsed is skipped.
    """
    homes: Set[Path] = set()
    for module in table.modules.values():
        if module.name.split(".")[0] == PACKAGE_NAME:
            depth = module.name.count(".") + module.path.endswith("__init__.py")
            home = Path(module.path).parents[depth]
            homes.update((home, home.parent) if home.name == "src" else (home,))
    scripts = []
    for home in sorted(homes):
        for directory in FRONT_DOOR_DIRS:
            for path in sorted((home / directory).rglob("*.py")):
                try:
                    source = path.read_text(encoding="utf-8")
                    tree = ast.parse(source, filename=str(path))
                except (OSError, UnicodeDecodeError, SyntaxError, ValueError):
                    continue
                script = ModuleInfo(
                    name=module_name_for(str(path)), path=str(path),
                    source=source, tree=tree,
                )
                collect_imports(script)
                scripts.append(script)
    return scripts


def _reach(
    table: SymbolTable, refs: Dict[str, Set[str]], roots: Set[str]
) -> Set[str]:
    """Everything the roots name, transitively.

    A method counts once its class does: named methods wait for their
    class, and a live class brings its dunders and its project bases.  A
    live class with a base outside the project brings all its methods,
    since that base may call any of them (``do_GET``, ``visit_If``).  A
    live method brings the overrides of it in every subclass (a call
    through the base may dispatch to them).
    """
    subclasses: Dict[str, List[str]] = {}
    for qualname in sorted(table.classes):
        for base in table.project_bases(qualname):
            subclasses.setdefault(base, []).append(qualname)
    live: Set[str] = set()
    waiting: Set[str] = set()
    todo = sorted(roots)
    while todo:
        qualname = todo.pop()
        if qualname in live:
            continue
        func = table.functions.get(qualname)
        owner = func.class_qualname if func is not None else None
        if owner is not None and owner not in live:
            waiting.add(qualname)
            continue
        live.add(qualname)
        todo.extend(sorted(refs.get(qualname, ())))
        if owner is not None:
            stack = list(subclasses.get(owner, ()))
            while stack:
                sub = stack.pop()
                override = table.classes[sub].methods.get(func.name)  # type: ignore[union-attr]
                if override is not None:
                    todo.append(override)
                stack.extend(subclasses.get(sub, ()))
        cls = table.classes.get(qualname)
        if cls is not None:
            todo.extend(table.project_bases(qualname))
            foreign = _has_foreign_base(table, qualname)
            for name in sorted(cls.methods):
                method = cls.methods[name]
                if (
                    foreign
                    or method in waiting
                    or (name.startswith("__") and name.endswith("__"))
                ):
                    todo.append(method)
    return live


def _has_foreign_base(table: SymbolTable, class_qualname: str) -> bool:
    """Whether the class or a project ancestor of it derives from a class
    outside the project (``object`` aside)."""
    seen: Set[str] = set()
    todo = [class_qualname]
    while todo:
        qualname = todo.pop()
        if qualname in seen:
            continue
        seen.add(qualname)
        cls = table.classes[qualname]
        imports = table.modules[cls.module].imports
        for base in cls.node.bases:  # type: ignore[attr-defined]
            if isinstance(base, ast.Subscript):  # Generic[T]
                base = base.value
            dotted = dotted_name(base, imports)
            if dotted is None and isinstance(base, ast.Name):
                local = f"{cls.module}.{base.id}"
                dotted = local if local in table.classes else f"builtins.{base.id}"
            if dotted in table.classes:
                todo.append(dotted)
            elif dotted != "builtins.object":
                return True
    return False


def _finding_at(path: str, node: ast.AST, code: str, message: str) -> Finding:
    """A positional finding at ``node`` (1-based column)."""
    return Finding(
        path=path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        message=message,
    )


def _short(chain: List[str]) -> List[str]:
    """Strip the ``repro.`` prefix from qualnames for readable messages."""
    return [q[len("repro."):] if q.startswith("repro.") else q for q in chain]
