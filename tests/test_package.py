"""Every public name a module exports resolves, and star imports work."""

import importlib
import pkgutil

import pytest

import masterfield

MODULES = ["masterfield"] + [
    f"masterfield.{m.name}" for m in pkgutil.iter_modules(masterfield.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
