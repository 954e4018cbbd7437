"""What `import meshpoly` and each CLI call load, and the lazy namespace."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import meshpoly
from meshpoly.cli import main
from meshpoly.harness import SEARCH_KINDS

SUBMODULES = ("cli", "fixtures", "harness", "interlace", "intpoly", "operators",
              "poly", "roots", "serialize", "suite", "verify")
POLY_024 = '{"basis": "monomial", "coeffs": ["0/1", "8/1", "-6/1", "1/1"]}'
DELTA = json.dumps({"op": {"coeffs": [{"coeffs": ["1"]}, {"coeffs": ["-1"]}]}})

# standard modules that only an error or the csv format needs
ON_DEMAND = {"csv", "traceback"}
# standard modules that only fixtures loads: absent wherever it is
DRAWN = {"hashlib"}
# standard modules that no call needs: dataclasses alone costs more to
# import than most subcommands take to run
NEVER = {"dataclasses", "inspect"}

# runs `python -m meshpoly ARGS` and reports, as the last line of stderr,
# the meshpoly submodules the call left in sys.modules, and which of the
# ON_DEMAND, DRAWN and NEVER modules it loaded
_PROBE = """import json, runpy, sys
try:
    runpy.run_module("meshpoly", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(sorted(m[len("meshpoly."):] for m in sys.modules
                            if m.startswith("meshpoly."))
                     + [m for m in %r if m in sys.modules]),
          file=sys.stderr)
""" % sorted(ON_DEMAND | DRAWN | NEVER)


def _loaded(cwd, code, *argv):
    src = str(Path(meshpoly.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                       capture_output=True, text=True, timeout=60)
    return r.returncode, set(json.loads(r.stderr.splitlines()[-1]))


def test_import_meshpoly_loads_no_submodule(tmp_path):
    code = ("import json, sys, meshpoly\n"
            "print(json.dumps([m for m in sys.modules"
            " if m.startswith('meshpoly.')]), file=sys.stderr)")
    assert _loaded(tmp_path, code) == (0, set())


def test_no_submodule_loads_dataclasses_or_inspect(tmp_path):
    code = ("import importlib, json, sys\n"
            f"for m in {SUBMODULES!r}:\n"
            "    importlib.import_module('meshpoly.' + m)\n"
            f"print(json.dumps([m for m in {sorted(NEVER)!r}"
            " if m in sys.modules]), file=sys.stderr)")
    assert _loaded(tmp_path, code) == (0, set())


# what mesh, apply and convert never need
BEYOND_INPUT = {"verify", "fixtures", "interlace", "harness", "suite"}


@pytest.mark.parametrize("argv, rc, absent", [
    (["mesh", "p.json"], 0, BEYOND_INPUT | {"operators"}),
    (["apply", "p.json", "--op", "delta.json"], 0, BEYOND_INPUT | {"roots"}),
    (["convert", "p.json", "--to", "pochhammer"], 0,
     BEYOND_INPUT | {"operators", "roots"}),
    (["verify", "herpou", "--coeffs", "1,-1"], 0,
     {"harness", "suite", "fixtures", "hashlib"}),
    (["verify", "dms", "--values", "1,1", "--trials", "2", "--max-degree", "3"],
     0, {"harness", "suite"}),
    (["verify", "riesz", "p.json", "--lam", "1", "--alpha", "1"], 0,
     {"harness", "suite", "fixtures", "hashlib"}),
    (["search", "remark2", "--trials", "2", "--max-degree", "3",
      "--out", "run.jsonl"], 1, {"suite"}),
    (["replay", "cert.json"], 0, {"suite"}),
    (["verify", "herpou", "--coeffs", "2,3,1"], 1,
     {"harness", "suite", "fixtures", "hashlib"}),
    (["verify", "riesz", "p.json", "--lam", "1", "--derivative"], 0,
     {"harness", "suite", "fixtures", "hashlib"}),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, capsys, argv, rc,
                                                 absent):
    (tmp_path / "p.json").write_text(POLY_024)
    (tmp_path / "delta.json").write_text(DELTA)
    if argv[0] == "replay":
        assert main(["search", "lemma1", "--trials", "2", "--max-degree", "3",
                     "--out", str(tmp_path / "l.jsonl")]) == 1
        (tmp_path / "l.jsonl.cert0.json").rename(tmp_path / "cert.json")
        capsys.readouterr()
    code, loaded = _loaded(tmp_path, _PROBE, *argv)
    assert code == rc
    assert {"cli", "serialize", "poly"} <= loaded
    unwanted = loaded & (absent | ON_DEMAND | NEVER)
    assert not unwanted, sorted(unwanted)


def test_every_export_is_its_submodule_object():
    modules = [importlib.import_module(f"meshpoly.{m}") for m in SUBMODULES]
    assert meshpoly.__all__[0] == "__version__"
    for name in meshpoly.__all__[1:]:
        defined = {id(vars(m)[name]) for m in modules if name in vars(m)}
        assert defined == {id(getattr(meshpoly, name))}, name


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from meshpoly import *", namespace)
    assert set(meshpoly.__all__) <= set(namespace)
    assert set(meshpoly.__all__) <= set(dir(meshpoly))
    assert len(set(meshpoly.__all__)) == len(meshpoly.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        meshpoly.no_such_name
    assert not hasattr(meshpoly, "Fraction")


def test_search_kinds_reach_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "bogus"])
    assert exc.value.code == 2
    choices = ", ".join(repr(k) for k in SEARCH_KINDS)
    assert f"invalid choice: 'bogus' (choose from {choices})" in \
        capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SEARCH_KINDS) + "}" in capsys.readouterr().out
