"""No soundness check in the package rests on an assert statement.

python -O compiles assert statements out, so a check that guards a
verdict, a record or an input must raise instead.  This source check
walks every module of the package.
"""

import ast
from pathlib import Path

import meshpoly

SRC = Path(meshpoly.__file__).resolve().parent


def _assert_lines(tree):
    """Line of every assert statement."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offending = [f"{path.relative_to(SRC)}:{line}" for path in modules
                 for line in _assert_lines(ast.parse(
                     path.read_text(encoding="utf-8")))]
    assert not offending, offending


def test_guard_sees_asserts():
    tree = ast.parse("def f(x):\n    assert x > 0, 'x'\n    return x\n"
                     "class C:\n    def g(self):\n        assert self\n")
    assert _assert_lines(tree) == [2, 6]
