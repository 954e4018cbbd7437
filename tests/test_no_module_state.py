"""No function in the package grows a container bound at module level.

A list, dict or set bound at module level lives as long as the process,
so a function that appends to it, extends or updates it, or assigns an
item of it keeps memory that no caller can give back.  Caches are
bounded functools.lru_cache wrappers instead, which this check does not
see as containers.  A local name bound straight to such a container
(rows = _ROWS) counts as the container itself.
"""

import ast
from pathlib import Path

import meshpoly

SRC = Path(meshpoly.__file__).resolve().parent
MUTATORS = {"append", "extend", "update", "add", "insert", "setdefault"}
FACTORIES = {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter",
             "deque"}
DISPLAYS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
            ast.SetComp)


def _is_container(value):
    if isinstance(value, DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        f = value.func
        name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
        return name in FACTORIES
    return False


def _module_containers(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _is_container(node.value):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None \
                and _is_container(node.value):
            targets = [node.target]
        else:
            continue
        names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def _bound_names(func):
    """Names the function binds, and those it binds straight to a name."""
    bound, alias = set(), {}
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, ast.arg):
            bound.add(node.arg)
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for t in node.targets:
                if isinstance(t, ast.Name):
                    alias[t.id] = node.value.id
    return bound, alias


def _mutation_sites(tree):
    """(function, line) of every growth of a module-level container."""
    module = _module_containers(tree)
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, alias = _bound_names(func)
        tracked = {n for n in module if n not in bound}
        tracked |= {a for a, target in alias.items() if target in tracked}
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                obj, hit = node.func.value, node.func.attr in MUTATORS
            elif isinstance(node, ast.Subscript) and \
                    isinstance(node.ctx, (ast.Store, ast.Del)):
                obj, hit = node.value, True
            else:
                continue
            if hit and isinstance(obj, ast.Name) and obj.id in tracked:
                found.append((func.name, node.lineno))
    return sorted(found, key=lambda site: site[1])


def test_no_function_grows_module_state():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    offending = [f"{path.relative_to(SRC)}:{line} in {name}"
                 for path in modules
                 for name, line in _mutation_sites(ast.parse(
                     path.read_text(encoding="utf-8")))]
    assert not offending, offending


def test_guard_sees_growth():
    tree = ast.parse(
        "import functools\n"
        "_ROWS: list = [(1,)]\n"
        "_SEEN = set()\n"
        "_BY = {}\n"
        "LIMIT = 8\n"
        "def row(n):\n"
        "    rows = _ROWS\n"
        "    rows.append(n)\n"
        "    _SEEN.add(n)\n"
        "    _BY[n] = n\n"
        "    _BY[n] += 1\n"
        "    return rows[n]\n"
        "def local(_ROWS):\n"
        "    _ROWS.append(1)\n"
        "    out = []\n"
        "    out.append(LIMIT)\n"
        "    return _BY.get(1)\n"
        "@functools.lru_cache(maxsize=LIMIT)\n"
        "def cached(n):\n"
        "    return [n]\n"
        "class C:\n"
        "    def m(self):\n"
        "        _SEEN.update((1,))\n"
        "        _BY.setdefault(2, 3)\n")
    assert _mutation_sites(tree) == [("row", 8), ("row", 9), ("row", 10),
                                      ("row", 11), ("m", 23), ("m", 24)]
