"""The benchmark calls the package by name; each name it uses must stay bound.

``perfbench/tracer.py`` lists, per package module, the functions whose
spans make up that layer, and counts some calls by their arguments' names.
``perfbench/worker.py`` calls the package through its module attributes. A
rename in the package would silently drop a layer from the benchmark's
per-layer metrics, or break a workload, so the names are checked here. The
files are only read, never imported, so nothing is written beside them.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKER = PERFBENCH / "worker.py"


def assigned(path: Path, name: str) -> ast.expr:
    """The value of the module-level assignment to ``name`` in ``path``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"no {name} assignment in {path}")


def tracer_layers() -> dict:
    return ast.literal_eval(assigned(TRACER, "LAYERS"))


def test_every_traced_name_is_bound_in_its_module():
    layers = tracer_layers()
    assert layers
    for layer, funcs in layers.items():
        module = importlib.import_module(f"relu_prism.{layer}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"relu_prism.{layer}.{func}"


def worker_modules(tree: ast.Module) -> dict:
    """Each worker name bound to a package module: ``a, b = (import_module(...) for ...)``."""
    for node in tree.body:
        if (
            isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
            and isinstance(node.value, ast.GeneratorExp)
        ):
            names = ast.literal_eval(node.value.generators[0].iter)
            assert ast.unparse(node.value.elt) == "import_module(f'relu_prism.{name}')"
            return {t.id: f"relu_prism.{name}" for t, name in zip(node.targets[0].elts, names)}
    raise AssertionError(f"no package modules bound in {WORKER}")


def test_every_name_the_worker_reads_from_the_package_is_bound():
    tree = ast.parse(WORKER.read_text())
    modules = worker_modules(tree)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                read.add((modules[node.value.id], node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "relu_prism":
            read.update(("relu_prism", alias.name) for alias in node.names)
    assert {("relu_prism.cli", "main"), ("relu_prism.partition", "partition"),
            ("relu_prism.train", "init_network"), ("relu_prism", "Dataset")} <= read
    for module, attr in sorted(read):
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_every_argument_a_counter_reads_is_a_parameter_of_its_function():
    tree = ast.parse(TRACER.read_text())
    counters = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    home = {func: layer for layer, funcs in tracer_layers().items() for func in funcs}
    read = set()
    table = assigned(TRACER, "COUNTERS")
    for key, value in zip(table.keys, table.values):
        func, counter = ast.literal_eval(key), counters[value.id]
        args = counter.args.args[1].arg  # counter(counts, args, result)
        params = inspect.signature(
            getattr(importlib.import_module(f"relu_prism.{home[func]}"), func)
        ).parameters
        for node in ast.walk(counter):
            if (
                isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id == args
            ):
                name = ast.literal_eval(node.slice)
                read.add((func, name))
                assert name in params, f"{value.id} reads {name!r}, not a parameter of {func}"
    assert {("read_dataset_csv", "path"), ("train", "config"), ("train", "dataset"),
            ("partition", "dataset")} <= read
