"""Project symbol table: modules, classes, functions, import maps.

The first of the analyzer's three layers (symbols -> call graph ->
effects).  Everything is stdlib ``ast``; no imports of the analyzed code
are executed.  Module names are derived from the path's position under
the ``repro`` package directory, so the same seed facts match both the
real tree (``src/repro/...``) and test fixture mini-packages
(``tests/analyzer_fixtures/<case>/repro/...``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import PurePosixPath
from typing import Dict, List, Mapping, Optional, Tuple

#: The package anchor used to turn file paths into dotted module names.
PACKAGE_NAME = "repro"


def module_name_for(path: str, package: str = PACKAGE_NAME) -> str:
    """Dotted module name for ``path``, anchored at the package directory.

    ``src/repro/storage/vfs.py`` -> ``repro.storage.vfs``;
    ``.../fixtures/case/repro/obs/bad.py`` -> ``repro.obs.bad``.  Paths
    outside any ``repro`` directory fall back to their stem, so loose
    files can still be analyzed.
    """
    parts = list(PurePosixPath(path.replace("\\", "/")).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if package in parts:
        idx = len(parts) - 1 - parts[::-1].index(package)
        parts = parts[idx:]
    else:
        parts = parts[-1:]
    return ".".join(parts) if parts else "<unknown>"


def subsystem_of(module: str) -> str:
    """First package component below ``repro`` ("" for top-level modules)."""
    parts = module.split(".")
    if len(parts) >= 3 and parts[0] == PACKAGE_NAME:
        return parts[1]
    return ""


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str  # e.g. repro.storage.device.Device.submit
    module: str
    name: str
    path: str
    lineno: int
    col: int
    node: ast.AST = field(repr=False)
    class_qualname: Optional[str] = None  # owning class, if a method


@dataclass
class ClassInfo:
    """One class definition with its method map and raw base names."""

    qualname: str  # e.g. repro.storage.device.Device
    module: str
    name: str
    path: str
    lineno: int
    node: ast.AST = field(repr=False)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> func qualname
    bases: List[str] = field(default_factory=list)  # raw base identifiers


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str
    path: str
    source: str = field(repr=False)
    tree: ast.Module = field(repr=False, default=None)  # type: ignore[assignment]
    #: local alias -> dotted target ("np" -> "numpy", "VFS" -> "repro.storage.vfs.VFS")
    imports: Dict[str, str] = field(default_factory=dict)


def collect_imports(info: ModuleInfo) -> None:
    """Fill ``info.imports`` (local alias -> dotted target) from its tree."""
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                info.imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_from(info.name, node)
            if base is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports[local] = f"{base}.{alias.name}" if base else alias.name


def _resolve_from(module_name: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted base for a ``from X import ...`` statement."""
    if node.level == 0:
        return node.module or ""
    # Relative import: climb from the importing module's package.
    parts = module_name.split(".")
    if len(parts) < node.level:
        return None
    base_parts = parts[: len(parts) - node.level]
    if node.module:
        base_parts.append(node.module)
    return ".".join(base_parts)


class SymbolTable:
    """All modules/classes/functions of the analyzed tree, by qualname."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        #: method name -> sorted list of function qualnames defining it
        self.methods_by_name: Dict[str, List[str]] = {}
        #: syntax errors encountered while parsing: (path, line, message)
        self.parse_errors: List[Tuple[str, int, str]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "SymbolTable":
        """Build from in-memory ``{path: source}`` (tests use this)."""
        table = cls()
        for path in sorted(sources):
            table._add_module(path, sources[path])
        for name in sorted(table.methods_by_name):
            table.methods_by_name[name].sort()
        return table

    def _add_module(self, path: str, source: str) -> None:
        module_name = module_name_for(path)
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            self.parse_errors.append((path, exc.lineno or 1, exc.msg or "syntax error"))
            return
        info = ModuleInfo(name=module_name, path=path, source=source, tree=tree)
        collect_imports(info)
        self.modules[module_name] = info
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, class_info=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(info, stmt)

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        qualname = f"{module.name}.{node.name}"
        cls_info = ClassInfo(
            qualname=qualname,
            module=module.name,
            name=node.name,
            path=module.path,
            lineno=node.lineno,
            node=node,
            bases=[name for name in map(last_name, node.bases) if name],
        )
        self.classes[qualname] = cls_info
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(module, stmt, class_info=cls_info)

    def _add_function(
        self,
        module: ModuleInfo,
        node: ast.AST,
        class_info: Optional[ClassInfo],
    ) -> None:
        name = node.name  # type: ignore[attr-defined]
        if class_info is not None:
            qualname = f"{class_info.qualname}.{name}"
            class_info.methods[name] = qualname
            self.methods_by_name.setdefault(name, []).append(qualname)
        else:
            qualname = f"{module.name}.{name}"
        self.functions[qualname] = FunctionInfo(
            qualname=qualname,
            module=module.name,
            name=name,
            path=module.path,
            lineno=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            node=node,
            class_qualname=class_info.qualname if class_info else None,
        )

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def defines(self, qualname: str) -> bool:
        """True for a project function, method or class."""
        return qualname in self.functions or qualname in self.classes

    def resolve_export(self, dotted: str) -> str:
        """Follow package re-exports: ``repro.obs.Tracer`` (imported into
        ``repro/obs/__init__.py``) -> ``repro.obs.tracer.Tracer``."""
        for _ in range(len(self.modules)):
            module_name, _, name = dotted.rpartition(".")
            module = self.modules.get(module_name)
            if self.defines(dotted) or module is None or name not in module.imports:
                break
            dotted = module.imports[name]
        return dotted

    def project_bases(self, class_qualname: str) -> List[str]:
        """Qualnames the class's bases resolve to (project classes or not)."""
        cls = self.classes[class_qualname]
        module = self.modules.get(cls.module)
        resolved = []
        for base in cls.bases:
            if module is not None and base in module.imports:
                resolved.append(module.imports[base])
            elif f"{cls.module}.{base}" in self.classes:
                resolved.append(f"{cls.module}.{base}")
        return resolved

    def resolve_method(self, class_qualname: str, method: str) -> Optional[str]:
        """Find ``method`` on a class or (project-local) ancestors."""
        seen = set()
        queue = [class_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            cls = self.classes[current]
            if method in cls.methods:
                return cls.methods[method]
            queue.extend(self.project_bases(current))
        return None

    def classes_by_name(self, name: str) -> List[ClassInfo]:
        """All project classes with simple name ``name`` (sorted)."""
        return [
            self.classes[q]
            for q in sorted(self.classes)
            if self.classes[q].name == name
        ]

    def sorted_functions(self) -> List[FunctionInfo]:
        return [self.functions[q] for q in sorted(self.functions)]


def last_name(
    expr: ast.expr, imports: Optional[Mapping[str, str]] = None
) -> Optional[str]:
    """Final identifier of a ``Name``/``Attribute`` reference, else None.

    With ``imports`` a bare name is first resolved through the module's
    import aliases, so ``from ...vfs import VirtualFile as VF`` does not
    hide ``VF(...)``.
    """
    if isinstance(expr, ast.Name):
        target = imports.get(expr.id, expr.id) if imports else expr.id
        return target.rsplit(".", 1)[-1]
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def dotted_name(expr: ast.expr, imports: Mapping[str, str]) -> Optional[str]:
    """``a.b.c`` with its head resolved through the import map, else None."""
    if isinstance(expr, ast.Name):
        return imports.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = dotted_name(expr.value, imports)
        return None if base is None else f"{base}.{expr.attr}"
    return None
