"""The package runs on numpy and the standard library alone, and reads no
environment variable.

Every import in ``src/relu_prism`` is read with ``ast``, so an import behind
a branch or inside a function is caught too, and the declared runtime
dependencies in ``pyproject.toml`` are checked to be numpy alone.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relu_prism"


def imported_modules(path: Path):
    """(line, top-level module) for each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = [
        f"{path.name}:{line} imports {module}"
        for path in sources
        for line, module in imported_modules(path)
        if module != "numpy" and module not in sys.stdlib_module_names
    ]
    assert not foreign, foreign


def test_numpy_is_the_only_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == ["numpy>=2.0"]


# The names through which ``os`` reads the environment.
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variable():
    """A run follows from its command line and its files: no module reads os.environ."""
    reads = [
        f"{path.name}:{node.lineno} reads {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        for name in (
            [node.attr] if isinstance(node, ast.Attribute)
            else [node.id] if isinstance(node, ast.Name)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        if name in ENVIRONMENT_READERS
    ]
    assert not reads, reads
