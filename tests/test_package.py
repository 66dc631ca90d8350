"""Package-level guarantees that span every module."""

import importlib
import pkgutil

import pytest

import ialex

MODULES = ["ialex"] + [f"ialex.{info.name}"
                       for info in pkgutil.iter_modules(ialex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    """A stale `__all__` entry breaks `from ialex.x import *` and every tool
    that walks the public names with getattr."""
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
