"""Every public name a module exports resolves, star imports work, and the
package imports nothing outside numpy and the standard library."""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_src_imports_only_numpy_and_the_standard_library():
    # scipy, hypothesis and pytest are test-only dependencies
    allowed = set(sys.stdlib_module_names) | {"numpy", "masterfield"}
    foreign = []
    for path in sorted(Path(masterfield.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [(path.name, n) for n in names if n.split(".")[0] not in allowed]
    assert foreign == []
