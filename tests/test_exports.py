"""Every name a module of the package exports through ``__all__`` is bound.

A name that is retired from a module but left in its ``__all__`` breaks
``from relu_prism import *`` only when someone runs it; this checks the
package and each of its modules that declares ``__all__``.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import relu_prism

MODULES = ["relu_prism"] + [
    f"relu_prism.{info.name}" for info in pkgutil.iter_modules(relu_prism.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_bound(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    unbound = [n for n in exported if not hasattr(module, n)]
    assert not unbound, f"{name}.__all__ names unbound {unbound}"


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from relu_prism import *", namespace)
    assert set(relu_prism.__all__) <= namespace.keys()
