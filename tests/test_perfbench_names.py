"""The benchmark's tracer wraps functions by name; each name must stay bound.

``perfbench/tracer.py`` lists, per package module, the functions whose
spans make up that layer. A rename in the package would silently drop a
layer from the benchmark's per-layer metrics, so the names are checked here.
The file is only read, never imported, so nothing is written beside it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_layers() -> dict:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {TRACER}")


def test_every_traced_name_is_bound_in_its_module():
    layers = tracer_layers()
    assert layers
    for layer, funcs in layers.items():
        module = importlib.import_module(f"relu_prism.{layer}")
        for func in funcs:
            assert callable(getattr(module, func, None)), f"relu_prism.{layer}.{func}"
