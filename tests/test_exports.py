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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_hypernet_reads_an_operators_arrays_by_key(path):
    # A mode's array layout stays behind hypernet; other modules go through its
    # functions (iterating ``.arrays.values()`` to count bytes is layout-free).
    if path.name == "hypernet.py":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "arrays"
    ]
    assert not lines, f"{path.name} subscripts an operator's .arrays at lines {lines}"


def _scoped(tree):
    """(enclosing function name or None, node) of each node in tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            found.append((scope, child))
            visit(child, scope)

    visit(tree, None)
    return found


def _calls_of(tree, name):
    """(enclosing function name or None, line) of each call of ``name`` in tree."""
    return [
        (scope, node.lineno)
        for scope, node in _scoped(tree)
        if isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_generate_stack_makes_a_condition_operator(path):
    # One formula: every operator the package uses comes out of generate_stack, or is
    # restacked by generate_blocks' memo from arrays that generate_stack made.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    calls = _calls_of(tree, "ConditionOperator")
    owners = {("hypernet.py", "generate_stack"), ("hypernet.py", "_memoised_stack")}
    others = [(scope, line) for scope, line in calls if (path.name, scope) not in owners]
    assert not others, f"{path.name} makes a ConditionOperator outside generate_stack: {others}"
    if path.name == "hypernet.py":
        assert any(scope == "generate_stack" for scope, _ in calls)
        generating = {scope for scope, _ in _calls_of(tree, "generate_stack")}
        assert "_memoised_stack" in generating


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_load_checkpoint_gives_params_a_memo(path):
    # The generation memo stays behind hypernet: no other module reads or sets
    # ``._memo``, and within hypernet only load_checkpoint makes one (others may drop it).
    nodes = _scoped(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    if path.name != "hypernet.py":
        uses = [
            node.lineno
            for _, node in nodes
            if (isinstance(node, ast.Attribute) and node.attr == "_memo")
            or (isinstance(node, ast.Constant) and node.value == "_memo")
        ]
        assert not uses, f"{path.name} reaches a params memo at lines {uses}"
        return

    def sets_memo(node):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return any(
            isinstance(t, ast.Attribute) and t.attr == "_memo"
            for target in targets
            for t in ast.walk(target)
        )

    makers = [
        (scope, node.lineno)
        for scope, node in nodes
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and sets_memo(node)
        and not (isinstance(node.value, ast.Constant) and node.value.value is None)
    ]
    assert makers, "hypernet.py makes no memo"
    others = [(scope, line) for scope, line in makers if scope != "load_checkpoint"]
    assert not others, f"hypernet.py makes a memo outside load_checkpoint: {others}"
