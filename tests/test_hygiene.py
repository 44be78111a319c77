"""Source hygiene that a linter would check: no unused import, no dangling export.

Every module under ``src/``, ``tests/`` and ``demos/`` is parsed with ``ast``.
An imported name must be referenced somewhere else in its module, or be
listed in the module's literal ``__all__``, or sit on an import marked
``# noqa``. A ``*`` import counts as used. A module-level ``_name`` function
or class under ``src/`` must be referenced by some module there outside its
own definition. The package exports exactly the names its modules list in
their ``__all__``.
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
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List) and any(
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
    kept = _exported(tree) | _referenced(tree) | {"*"}
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
        "from math import *\n"
        "__all__ = ['dumps']\n"
        "def f(x: 'Any') -> None:\n"
        "    pass\n"
    )
    assert unused_imports(module) == ["os", "List"]


def dead_helpers(paths) -> list[str]:
    """Each module-level ``_name`` function or class that no module in ``paths`` references.

    A reference inside the helper's own definition, such as a recursive call,
    does not count; a read of it as an attribute (``module._name``) does.
    """
    tops = [(path, node) for path in paths for node in ast.parse(path.read_text()).body]
    reads = [
        _referenced(node) | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        for _, node in tops
    ]
    dead = []
    for i, (path, node) in enumerate(tops):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
            and not any(node.name in names for j, names in enumerate(reads) if j != i)
        ):
            dead.append(f"{path.name}: {node.name}")
    return dead


def test_no_dead_private_helpers():
    assert dead_helpers(sorted((ROOT / "src").rglob("*.py"))) == []


def test_the_checker_sees_a_dead_helper(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(
        "def _used():\n"
        "    pass\n"
        "def _recursive(n):\n"
        "    return _recursive(n - 1) if n else 0\n"
        "class _Gone:\n"
        "    pass\n"
        "def _imported():\n"
        "    pass\n"
        "def _annotated():\n"
        "    pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def public(x: '_annotated') -> None:\n"
        "    return _used()\n"
    )
    b.write_text("from a import _imported\n_imported()\n")
    assert dead_helpers([a, b]) == ["a.py: _recursive", "a.py: _Gone"]


def _modules():
    return [
        importlib.import_module(f"kernelgraphs.{info.name}")
        for info in pkgutil.iter_modules(kernelgraphs.__path__)
    ]


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in [kernelgraphs] + _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_the_package_exports_exactly_the_module_lists():
    modules = _modules()
    declaring = [module for module in modules if hasattr(module, "__all__")]
    assert [module.__name__ for module in modules if module not in declaring] == ["kernelgraphs.cli"]
    names = [name for module in declaring for name in module.__all__]
    assert kernelgraphs.__all__ == names
    assert len(set(names)) == len(names)
    namespace = {}
    exec("from kernelgraphs import *", namespace)
    unbound = [
        f"{module.__name__}.{name}"
        for module in declaring
        for name in module.__all__
        if namespace.get(name) is not getattr(module, name)
    ]
    assert unbound == []
