"""Every name a module of the package exports through ``__all__`` is bound and used.

A name that is retired from a module but left in its ``__all__`` breaks
``from relu_prism import *`` only when someone runs it; this checks the
package and each of its modules that declares ``__all__``. A public name
also needs a caller outside the unit tests: the package's own modules, the
benchmark, the acceptance checks or the README's library tour. A name a
module defines but does not export needs a use in the package itself, so a
helper that is folded into another is not left behind.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from collections import defaultdict
from pathlib import Path

import pytest

import relu_prism

MODULES = ["relu_prism"] + [
    f"relu_prism.{info.name}" for info in pkgutil.iter_modules(relu_prism.__path__)
]

ROOT = Path(__file__).resolve().parent.parent


def _used_names() -> set:
    """Names loaded and attributes read outside the unit tests.

    The benchmark's tracer names the functions it wraps as strings, so string
    constants count there too.
    """
    package = ROOT / "src" / "relu_prism"
    (tour,) = re.findall(
        r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S
    )
    # (source, whether its string constants count)
    sources = [
        *((path.read_text(), False) for path in sorted(package.glob("*.py"))
          if path.name != "__init__.py"),
        *((path.read_text(), True) for path in sorted((ROOT / "perfbench").glob("*.py"))),
        ((ROOT / "tests" / "test_acceptance.py").read_text(), False),
        (tour, False),
    ]
    names = set()
    for source, strings in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    unbound = [n for n in exported if not hasattr(module, n)]
    assert not unbound, f"{name}.__all__ names unbound {unbound}"


def test_every_exported_name_has_a_caller_outside_the_unit_tests():
    used = _used_names()
    unused = sorted(
        f"{name}.{n}"
        for name in MODULES
        for n in getattr(importlib.import_module(name), "__all__", ())
        if n not in used
    )
    assert not unused, f"exported but called only by the unit tests: {unused}"


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from relu_prism import *", namespace)
    assert set(relu_prism.__all__) <= namespace.keys()


def _defined_names(statement) -> list:
    """The names a module-level statement defines: a def, a class or an assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def _referenced_names(node) -> set:
    """Names loaded, attributes read and names imported under ``node``; strings do not count."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_unexported_name_has_a_use_in_the_package():
    """A module-level name outside ``__all__`` is used in ``src`` beyond its own definition."""
    statements, exported = [], {}  # [(module, statement)], module -> its __all__
    for path in sorted((ROOT / "src" / "relu_prism").glob("*.py")):
        name = "relu_prism" if path.stem == "__init__" else f"relu_prism.{path.stem}"
        exported[path.stem] = set(getattr(importlib.import_module(name), "__all__", ()))
        statements += [(path.stem, s) for s in ast.parse(path.read_text()).body]
    # The index of every statement that refers to each name.
    users = defaultdict(set)
    for at, (_, statement) in enumerate(statements):
        for name in _referenced_names(statement):
            users[name].add(at)
    unused = sorted(
        f"{module}.{name}"
        for at, (module, statement) in enumerate(statements)
        for name in _defined_names(statement)
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported[module]
        and not users[name] - {at}
    )
    assert not unused, f"defined but used nowhere else in the package: {unused}"
