"""Source hygiene that a linter would check: no unused import, no dangling export.

Every module under ``src/``, ``tests/`` and ``demos/`` is parsed with ``ast``.
An imported name must be referenced somewhere else in its module, or be
listed in the module's ``__all__``, or sit on an import marked ``# noqa``.
Package ``__init__.py`` files re-export by importing and are skipped.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import kernelgraphs

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src", "tests", "demos")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _referenced(tree: ast.Module) -> set[str]:
    """Every name read in the module, including inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for a in annotations:
            if isinstance(a, ast.Constant) and isinstance(a.value, str):
                names |= _referenced(ast.parse(a.value, mode="eval"))
    return names


def unused_imports(path: Path) -> list[str]:
    """Each imported name that the module at ``path`` never uses."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    kept = _exported(tree) | _referenced(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in kept:
                unused.append(name)
    return unused


def test_no_unused_imports():
    unused = []
    for top in CHECKED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                rel = path.relative_to(ROOT)
                unused.extend(f"{rel}: {name}" for name in unused_imports(path))
    assert unused == []


def test_the_checker_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "import sys  # noqa: F401\n"
        "from typing import Any, List\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Any') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == ["os", "List"]


def test_every_exported_name_resolves():
    modules = [kernelgraphs] + [
        importlib.import_module(f"kernelgraphs.{info.name}")
        for info in pkgutil.iter_modules(kernelgraphs.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
