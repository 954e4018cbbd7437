"""No float enters a decision or a record: a source check of the exact
layers.

The modules that decide root positions, mesh bounds and class
membership, and those that build verdicts, search records and
certificates, may not call float() or write a float literal, except at
the display sites listed in ALLOWED, which turn finished exact results
into approximations for people to read.
"""

import ast
from pathlib import Path

import meshpoly

SRC = Path(meshpoly.__file__).resolve().parent
MODULES = ("intpoly.py", "roots.py", "interlace.py", "operators.py",
           "fixtures.py", "poly.py", "verify.py", "harness.py", "serialize.py")
ALLOWED = {
    ("poly.py", ""),  # NEG_INF, the degree of the zero polynomial
    ("roots.py", "_midpoints"),  # approximations for display
}


def _float_sites(tree):
    """(enclosing qualified name, line) of every float() call and float
    literal."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            found.append((scope, node.lineno))
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_no_float_outside_display_sites():
    offending = []
    used = set()
    for name in MODULES:
        tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
        for scope, line in _float_sites(tree):
            if (name, scope) in ALLOWED:
                used.add((name, scope))
            else:
                offending.append(f"{name}:{line} in {scope or '<module>'}")
    assert not offending, offending
    # every allowlisted site still exists, so the list cannot go stale
    assert used == ALLOWED


def test_guard_sees_calls_and_literals():
    tree = ast.parse("def f(x):\n    return float(x) + 0.5\nY = 1e-3\n")
    assert _float_sites(tree) == [("f", 2), ("f", 2), ("", 3)]
