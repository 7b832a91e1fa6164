import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import condcl

MODULES = ["condcl", *(f"condcl.{m.name}" for m in pkgutil.iter_modules(condcl.__path__))]
SOURCES = sorted(Path(condcl.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])  # cli and errors export by name only
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_is_an_assert_statement(path):
    # ``python -O`` strips assert statements, and with them any check written as one.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"
