"""No module of the package imports typing.

The annotated modules start with `from __future__ import annotations`,
so annotations are never evaluated and need no typing names: builtin
generics, X | None and collections.abc serve.  Where start-up does not
load typing already, importing it costs each one-shot command line call
about 5 ms.  This source check walks every module of the package, as
test_no_dataclasses does.
"""

import ast

from test_no_dataclasses import SRC, _imports


def test_no_typing_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offending = [f"{path.relative_to(SRC)}:{line}" for path in modules
                 for line in _imports(ast.parse(
                     path.read_text(encoding="utf-8")), "typing")]
    assert not offending, offending


def test_guard_sees_typing_imports():
    tree = ast.parse("from typing import Optional\n"
                     "import typing_extensions\n"
                     "def f():\n    import typing as t\n    return t\n"
                     "from collections.abc import Sequence\n")
    assert _imports(tree, "typing") == [1, 4]
