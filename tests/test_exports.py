import importlib
import pkgutil

import pytest

import condcl

MODULES = ["condcl", *(f"condcl.{m.name}" for m in pkgutil.iter_modules(condcl.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # cli and errors export by name only
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"
