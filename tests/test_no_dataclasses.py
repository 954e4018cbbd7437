"""No module of the package imports dataclasses.

Importing dataclasses loads inspect, ast, dis and tokenize: about 14 ms
of interpreter start-up for each one-shot command line call, more than
most subcommands take to run.  The record classes are plain classes
with __slots__ instead.  This source check walks every module of the
package.
"""

import ast
from pathlib import Path

import meshpoly

SRC = Path(meshpoly.__file__).resolve().parent


def _imports(tree, module="dataclasses"):
    """Line of every import of the top-level module, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n.split(".")[0] == module for n in names):
            found.append(node.lineno)
    return sorted(found)


def test_no_dataclasses_in_the_package():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offending = [f"{path.relative_to(SRC)}:{line}" for path in modules
                 for line in _imports(ast.parse(
                     path.read_text(encoding="utf-8")))]
    assert not offending, offending


def test_guard_sees_dataclasses_imports():
    tree = ast.parse("import json\n"
                     "from dataclasses import dataclass, field\n"
                     "def f():\n    import dataclasses as dc\n    return dc\n"
                     "from . import dataclasses_like\n"
                     "import dataclasses.x, os\n")
    assert _imports(tree) == [2, 4, 7]
