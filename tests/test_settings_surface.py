"""The settings surface: docs/architecture.md's "Settings" table equals the
code, and every knob in it has a caller outside the tests.

The table lists every field of the engine configs and the retry policy and
every defaulted constructor parameter of the machine and the serve layer.
A row names the files that set its value (a keyword argument or a string
constant of that name, found by walking the file's AST), or marks the value
a test seam and says what tests drive through it.  A value no row can tie
to a caller is a module constant, not a setting.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
import re
from functools import lru_cache
from pathlib import Path

import pytest

from repro.core.config import FastBFSConfig
from repro.engines.base import EngineConfig
from repro.engines.graphchi.engine import GraphChiConfig
from repro.serve.admission import AdmissionController
from repro.serve.app import GraphService
from repro.serve.registry import ArtifactRegistry
from repro.storage.faults import RetryPolicy
from repro.storage.machine import Machine

REPO_ROOT = Path(__file__).resolve().parents[1]

OWNERS = (
    EngineConfig, FastBFSConfig, GraphChiConfig, RetryPolicy,
    Machine, GraphService, ArtifactRegistry, AdmissionController,
)

#: Where a setting may be set for its row to count as used.
CALLER_DIRS = ("src", "benchmarks", "examples")

SEAM = "test seam: "

_ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| (.+) \|$", re.MULTILINE)
_PATH = re.compile(r"`((?:src|benchmarks|examples)/[\w/]+\.py)`")


def settings(owner) -> list:
    """The owner's settable names, in declaration order."""
    if dataclasses.is_dataclass(owner):
        names = [f.name for f in dataclasses.fields(owner)]
        if owner is FastBFSConfig:  # only the fields it adds
            inherited = {f.name for f in dataclasses.fields(EngineConfig)}
            names = [n for n in names if n not in inherited]
        return names
    params = inspect.signature(owner.__init__).parameters.values()
    return [p.name for p in params if p.default is not p.empty]


def table_rows() -> list:
    doc = (REPO_ROOT / "docs" / "architecture.md").read_text("utf-8")
    section = doc.split("\n## Settings\n", 1)[1].split("\n## ", 1)[0]
    return _ROW.findall(section)


@lru_cache(maxsize=None)
def names_set_in(relpath: str) -> frozenset:
    """Keyword-argument names and string constants of one source file."""
    tree = ast.parse((REPO_ROOT / relpath).read_text("utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.keyword) and node.arg is not None:
            found.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return frozenset(found)


def defining_module(owner) -> str:
    return Path(inspect.getsourcefile(owner)).relative_to(REPO_ROOT).as_posix()


def test_table_equals_the_code():
    """A row per setting of every owner, in declaration order, and no row
    for a setting that is gone."""
    documented = [(owner, name) for owner, name, _ in table_rows()]
    expected = [(o.__name__, n) for o in OWNERS for n in settings(o)]
    assert documented == expected


@pytest.mark.parametrize("owner, name, set_by", [
    pytest.param(*row, id=f"{row[0]}.{row[1]}") for row in table_rows()
])
def test_every_knob_has_a_real_caller(owner, name, set_by):
    """A row that is not a test seam names the files outside ``tests/``
    that set the value, and each of them does; a seam row names the
    behaviour tests drive through it, and some test sets it."""
    if set_by.startswith(SEAM):
        assert len(set_by) > len(SEAM) + 20, "a seam names its behaviour"
        assert any(
            name in names_set_in(path.relative_to(REPO_ROOT).as_posix())
            for path in (REPO_ROOT / "tests").glob("test_*.py")
        ), f"{owner}.{name}: no test sets it"
        return
    paths = _PATH.findall(set_by)
    assert paths, f"{owner}.{name}: no caller named in {set_by!r}"
    home = defining_module(next(o for o in OWNERS if o.__name__ == owner))
    for path in paths:
        assert path.split("/", 1)[0] in CALLER_DIRS
        assert path != home, f"{owner}.{name}: {path} defines it"
        assert name in names_set_in(path), f"{path} does not set {name!r}"
