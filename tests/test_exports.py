"""Every name a trk module exports resolves."""

import importlib
import pkgutil

import pytest

import trk

MODULES = ["trk"] + [f"trk.{info.name}" for info in pkgutil.iter_modules(trk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
