"""The public names of every bindkit module resolve.

A star import reads a module's __all__ and fails on a name the module no
longer defines, so an entry left behind when a function is deleted shows up
here; the package import checks the re-exports of bindkit/__init__.py.
"""
import importlib
import pkgutil

import pytest

import bindkit

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(bindkit.__path__))


def test_submodules_found():
    assert "gbdt" in SUBMODULES and "ligand_features" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_star_import_resolves_all(name):
    namespace = {}
    exec(f"from bindkit.{name} import *", namespace)
    module = importlib.import_module(f"bindkit.{name}")
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


@pytest.mark.parametrize("name", ["affinity_histogram", "graph_record",
                                  "write_ligand_graphs"])
def test_removed_names_are_not_exported(name):
    assert not hasattr(bindkit, name)
    for sub in SUBMODULES:
        assert name not in getattr(importlib.import_module(f"bindkit.{sub}"),
                                   "__all__", ())
