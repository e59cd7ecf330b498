"""Every name a module imports is used in that module, and every private
module-level name of the package is used somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names to re-export them.
MODULES = sorted(p for p in (ROOT / "src" / "ccsm").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "ccsm").glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import json\nfrom math import comb, prod\n\nprint(comb(4, 2))\n"
    assert _unused_imports(source) == ["json (line 1)", "prod (line 2)"]


def _names_in(stmt: ast.stmt):
    """The names a statement reads, writes, imports or takes as attributes."""
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` definitions (functions, classes, assigned
    names) that no statement of any of ``sources`` refers to, leaving out
    the defining statement itself, so a helper that only calls itself or
    is only named by a test is reported."""
    statements = [
        (module, stmt) for module, text in sources.items() for stmt in ast.parse(text).body
    ]
    referenced = [set(_names_in(stmt)) for _, stmt in statements]
    unused = []
    for i, (module, stmt) in enumerate(statements):
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            private = name.startswith("_") and not name.startswith("__")
            if private and not any(name in refs for j, refs in enumerate(referenced) if j != i):
                unused.append(f"{module}: {name} (line {stmt.lineno})")
    return unused


def test_package_uses_every_private_module_level_name():
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert _unreferenced_private_names(sources) == []


def test_the_check_sees_an_unused_private_helper():
    source = "def _used():\n    return 1\n\n\ndef _unused():\n    return _unused()\n\n\nprint(_used())\n"
    assert _unreferenced_private_names({"m.py": source}) == ["m.py: _unused (line 5)"]
