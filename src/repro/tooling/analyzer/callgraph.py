"""Conservative call graph over the project symbol table.

Resolution is tiered, most-precise first:

1. **Typed receivers** — ``self`` calls, locals assigned from a project
   class constructor, parameters annotated with a project class, and
   ``self.attr`` / ``x.attr`` receivers whose type is known from an
   ``__init__`` assignment anywhere in the project (``self.clock =
   SimClock()`` teaches the analyzer that any ``.clock`` attribute is a
   ``SimClock``).
2. **Module-qualified calls** — ``mod.func(...)`` through an import alias;
   a name a package ``__init__`` re-exports resolves to its definition.
3. **Class-qualified calls** — ``Device.submit(instance, ...)``.
4. **Name-match fallback** — an attribute call whose receiver type is
   unknown resolves to *every* project method of that name, unless the
   name collides with a common builtin-container/str method (``.get``,
   ``.replace``, ``.items``, ...), where matching everything would drown
   the graph in false edges.  The fallback over-approximates (sound for
   the effect rules) at the cost of precision; the typed tiers keep the
   noise low where it matters.

Calls inside nested functions are attributed to the enclosing
module-level function or method — a deliberate over-approximation that
keeps closures from hiding effects.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.tooling.analyzer.symbols import (
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    dotted_name,
)

#: Attribute-call names too generic for the name-match fallback: they are
#: methods of builtin str/dict/list/set types, so an untyped receiver is
#: far more likely a builtin than a project class.  Typed receivers still
#: resolve these precisely (e.g. ``machine.vfs.replace`` via attr types).
COMMON_METHOD_NAMES = frozenset(
    {
        "add", "append", "clear", "copy", "count", "extend", "format", "get",
        "index", "insert", "items", "join", "keys", "pop", "popitem",
        "read", "remove", "replace", "set", "sort", "split", "strip",
        "update", "values", "write",
    }
)


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at a location."""

    caller: str
    callee: str
    path: str
    line: int
    col: int
    via: str  # "typed" | "module" | "class" | "name-match" | "direct"


@dataclass
class CallGraph:
    """Edges and call sites over function qualnames."""

    edges: Dict[str, List[str]] = field(default_factory=dict)
    sites: List[CallSite] = field(default_factory=list)

    def callees(self, qualname: str) -> List[str]:
        return self.edges.get(qualname, [])

    def callers_of(self, callee: str) -> List[CallSite]:
        return sorted(
            (s for s in self.sites if s.callee == callee),
            key=lambda s: (s.path, s.line, s.col, s.caller),
        )


def build_call_graph(table: SymbolTable) -> CallGraph:
    attr_types = _collect_attr_types(table)
    graph = CallGraph()
    for func in table.sorted_functions():
        resolver = _CallResolver(table, attr_types, func)
        callees: Set[str] = set()
        for site in resolver.resolve_calls():
            graph.sites.append(site)
            callees.add(site.callee)
        graph.edges[func.qualname] = sorted(callees)
    graph.sites.sort(key=lambda s: (s.path, s.line, s.col, s.caller, s.callee))
    return graph


def build_reference_map(
    table: SymbolTable, scripts: Sequence[ModuleInfo] = ()
) -> Dict[str, Set[str]]:
    """What each piece of code names (:meth:`_CallResolver.resolve_references`).

    Keys are function qualnames, module names and script paths.  A
    module's entry is its import-time code: everything outside the bodies
    of its functions and methods, so class bodies, dispatch tables and
    ``if __name__ == "__main__":`` blocks.  A script (a file outside the
    analyzed tree) is read whole.

    Receivers are typed only from what holds at the site (``self``, a
    local built from a class, an annotated parameter): the project-wide
    attribute types of the call graph are a guess that an assignment
    outside ``__init__`` can break, and a wrong guess here would report
    live code.
    """
    attr_types: Dict[str, Set[str]] = {}
    refs: Dict[str, Set[str]] = {}
    for func in table.sorted_functions():
        resolver = _CallResolver(table, attr_types, func)
        refs[func.qualname] = resolver.resolve_references(ast.walk(func.node))
    bodies = {id(func.node) for func in table.functions.values()}
    for key, module in [
        *((m.name, m) for m in table.modules.values()),
        *((s.path, s) for s in scripts),
    ]:
        scope = FunctionInfo(
            qualname=key, module=module.name, name="<module>",
            path=module.path, lineno=1, col=1, node=module.tree,
        )
        resolver = _CallResolver(table, attr_types, scope, module)
        refs[key] = resolver.resolve_references(_outside(module.tree, bodies))
    return refs


def _outside(tree: ast.AST, skipped: Set[int]) -> Iterator[ast.AST]:
    """``ast.walk`` that does not enter the nodes whose ids are ``skipped``."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(c for c in ast.iter_child_nodes(node) if id(c) not in skipped)


def _collect_attr_types(table: SymbolTable) -> Dict[str, Set[str]]:
    """attr name -> class qualnames it is known to hold, project-wide.

    Three sources teach the analyzer what an attribute is:

    * ``self.clock = SimClock()`` in any ``__init__`` (constructor call);
    * ``machine: Machine`` annotated class fields (dataclasses);
    * ``self.machine = machine`` in ``__init__`` where the parameter is
      annotated with a project class.

    Receivers reached through an attribute of that name then resolve
    methods against those classes (only when the name is unambiguous).
    """
    attr_types: Dict[str, Set[str]] = {}
    # Annotated class fields (dataclass style).
    for cls_qual in sorted(table.classes):
        cls = table.classes[cls_qual]
        module = table.modules.get(cls.module)
        if module is None:
            continue
        for stmt in cls.node.body:  # type: ignore[attr-defined]
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                target_cls = _annotation_class_expr(table, module, stmt.annotation)
                if target_cls is not None:
                    attr_types.setdefault(stmt.target.id, set()).add(target_cls)
    # __init__ assignments.
    for qualname in sorted(table.functions):
        func = table.functions[qualname]
        if func.name != "__init__" or func.class_qualname is None:
            continue
        module = table.modules.get(func.module)
        if module is None:
            continue
        param_types: Dict[str, str] = {}
        args = getattr(func.node, "args", None)
        if args is not None:
            for param in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                if param.annotation is None:
                    continue
                cls_qual = _annotation_class_expr(table, module, param.annotation)
                if cls_qual is not None:
                    param_types[param.arg] = cls_qual
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Assign):
                continue
            cls_qual = None
            if isinstance(node.value, ast.Call):
                cls_qual = _resolve_class_expr(table, module, node.value.func)
            elif isinstance(node.value, ast.Name):
                cls_qual = param_types.get(node.value.id)
            if cls_qual is None:
                continue
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    attr_types.setdefault(target.attr, set()).add(cls_qual)
    return attr_types


def _annotation_class_expr(
    table: SymbolTable, module: ModuleInfo, ann: ast.expr
) -> Optional[str]:
    """Project class named by an annotation (unwraps Optional/str forms)."""
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        name = ann.value.split(".")[-1].strip()
        matches = table.classes_by_name(name)
        return matches[0].qualname if len(matches) == 1 else None
    if isinstance(ann, (ast.Name, ast.Attribute)):
        return _resolve_class_expr(table, module, ann)
    if isinstance(ann, ast.Subscript):
        return _annotation_class_expr(table, module, ann.slice)
    return None


def _resolve_class_expr(
    table: SymbolTable, module: ModuleInfo, expr: ast.expr
) -> Optional[str]:
    """Qualname of the project class an expression names, if any."""
    if isinstance(expr, ast.Name):
        target = module.imports.get(expr.id, f"{module.name}.{expr.id}")
        return target if target in table.classes else None
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        base = module.imports.get(expr.value.id)
        if base is not None:
            target = f"{base}.{expr.attr}"
            return target if target in table.classes else None
    return None


class _CallResolver:
    """Resolves every call inside one function body."""

    def __init__(
        self,
        table: SymbolTable,
        attr_types: Dict[str, Set[str]],
        func: FunctionInfo,
        module: Optional[ModuleInfo] = None,
    ) -> None:
        self.table = table
        self.attr_types = attr_types
        self.func = func
        self.module = module or table.modules.get(func.module)
        #: local variable -> class qualname (flow-insensitive, last wins)
        self.local_types: Dict[str, str] = {}
        if func.class_qualname is not None:
            self.local_types["self"] = func.class_qualname
        self._seed_param_types()

    def _seed_param_types(self) -> None:
        args = getattr(self.func.node, "args", None)
        if args is None or self.module is None:
            return
        all_params = [
            *args.posonlyargs, *args.args, *args.kwonlyargs,
        ]
        for param in all_params:
            if param.annotation is None:
                continue
            cls_qual = self._annotation_class(param.annotation)
            if cls_qual is not None:
                self.local_types[param.arg] = cls_qual

    def _annotation_class(self, ann: ast.expr) -> Optional[str]:
        if self.module is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            # String annotation: match by simple class name, unambiguous only.
            name = ann.value.split(".")[-1].strip()
            matches = self.table.classes_by_name(name)
            return matches[0].qualname if len(matches) == 1 else None
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return _resolve_class_expr(self.table, self.module, ann)
        if isinstance(ann, ast.Subscript):  # Optional[X] / List[X]
            return self._annotation_class(ann.slice)
        return None

    # ------------------------------------------------------------------
    def resolve_calls(self) -> List[CallSite]:
        body = getattr(self.func.node, "body", [])
        self._infer_local_types(ast.walk(self.func.node))
        sites: List[CallSite] = []
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    sites.extend(self._resolve_call(node))
        return sites

    def _infer_local_types(self, nodes: Iterable[ast.AST]) -> None:
        """Local constructor/typed assignments anywhere (flow-insensitive)."""
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    inferred = self._infer_expr_type(node.value)
                    if inferred is not None:
                        self.local_types[target.id] = inferred

    def _infer_expr_type(self, expr: ast.expr) -> Optional[str]:
        if self.module is None:
            return None
        if isinstance(expr, ast.Call):
            return _resolve_class_expr(self.table, self.module, expr.func)
        if isinstance(expr, ast.Attribute):
            classes = self.attr_types.get(expr.attr)
            if classes is not None and len(classes) == 1:
                return next(iter(classes))
        return None

    def _receiver_type(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.local_types.get(expr.id)
        if isinstance(expr, ast.Attribute):
            # Attribute chains resolve through the project-wide attr-name
            # map (``self.clock = SimClock()`` => any ``.clock`` receiver
            # is a SimClock), but only when the name is unambiguous.
            classes = self.attr_types.get(expr.attr, set())
            if len(classes) == 1:
                return next(iter(classes))
        if isinstance(expr, ast.Call):
            return self._infer_expr_type(expr)
        return None

    def _site(self, node: ast.Call, callee: str, via: str) -> CallSite:
        return CallSite(
            caller=self.func.qualname,
            callee=callee,
            path=self.func.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            via=via,
        )

    def _resolve_call(self, node: ast.Call) -> List[CallSite]:
        func = node.func
        if isinstance(func, ast.Name):
            targets, via = self._name_targets(func.id), "direct"
        elif isinstance(func, ast.Attribute):
            targets, via = self._attr_targets(func)
            if via == "name-match" and func.attr in COMMON_METHOD_NAMES:
                return []
        else:
            return []
        sites = []
        for target in targets:
            # Calling a class runs its constructor.
            callee = (
                self.table.resolve_method(target, "__init__")
                if target in self.table.classes else target
            )
            if callee is not None:
                sites.append(self._site(node, callee, via))
        return sites

    def _name_targets(self, name: str) -> List[str]:
        """The project function or class a bare name refers to, if any."""
        if self.module is None:
            return []
        target = self.table.resolve_export(
            self.module.imports.get(name, f"{self.func.module}.{name}")
        )
        return [target] if self.table.defines(target) else []

    def _attr_targets(self, func: ast.Attribute) -> Tuple[List[str], str]:
        """The project symbols ``x.attr`` may name, and the tier that said so."""
        method = func.attr
        # Tier 1: typed receiver.
        recv_type = self._receiver_type(func.value)
        if recv_type is not None:
            resolved = self.table.resolve_method(recv_type, method)
            # A known type without that method: a builtin/ndarray op.
            return ([resolved] if resolved is not None else []), "typed"
        if self.module is not None:
            # Tier 2: module-qualified function or class (``mod.f``,
            # ``pkg.mod.f``) through an import alias.
            base = dotted_name(func.value, self.module.imports)
            if base is not None:
                target = self.table.resolve_export(f"{base}.{method}")
                if self.table.defines(target):
                    return [target], "module"
            # Tier 3: class-qualified method, imported (``Device.submit``)
            # or defined in the same module.
            if isinstance(func.value, ast.Name):
                for cls in (base, f"{self.func.module}.{func.value.id}"):
                    if cls in self.table.classes:
                        resolved = self.table.resolve_method(cls, method)
                        if resolved is not None:
                            return [resolved], "class"
        # Tier 4: name-match fallback over all project methods.
        return list(self.table.methods_by_name.get(method, [])), "name-match"

    def resolve_references(self, nodes: Iterable[ast.AST]) -> Set[str]:
        """Project functions, classes and methods named anywhere in ``nodes``.

        Calls are a subset: a callback, a dispatch-table value, a
        ``partial(f)`` argument or a property read names its target the
        same way a call does, and ``getattr(x, "name")`` names ``name``.
        Unlike calls, common builtin method names still match by name, so
        the set over-approximates what the code can reach.
        """
        nodes = list(nodes)
        self._infer_local_types(nodes)
        found: Set[str] = set()
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                found.update(self._name_targets(node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.update(self._attr_targets(node)[0])
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                found.update(self.table.methods_by_name.get(node.args[1].value, []))
        return found

