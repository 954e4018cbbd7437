"""Command line behaviour: wire shapes, exit codes, file handling."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import meshpoly
from meshpoly import cli, serialize
from meshpoly.cli import main
from meshpoly.poly import Polynomial

POLY_024 = '{"basis": "monomial", "coeffs": ["0/1", "8/1", "-6/1", "1/1"]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_mesh_json(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(POLY_024)  # roots 0, 2, 4
    code, out, err = run_cli(capsys, "mesh", str(f))
    assert code == 0
    payload = json.loads(out)  # stdout is pure JSON; narration is on stderr
    assert payload["mesh"]["exact"] == "2/1"
    assert payload["mesh"]["infinite"] is False
    assert payload["mesh"]["roots_decimal"] == ["0", "2", "4"]
    assert "mesh: 2 (exact)" in err


def test_mesh_reads_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(POLY_024))
    code, out, _ = run_cli(capsys, "mesh", "-")
    assert code == 0
    assert json.loads(out)["mesh"]["exact"] == "2/1"


def test_mesh_non_hyperbolic_is_usage_error(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text('{"basis": "monomial", "coeffs": ["1", "0", "1"]}')
    code, _, err = run_cli(capsys, "mesh", str(f))
    assert code == 2
    assert err.strip()


def test_mesh_csv_out_file(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(POLY_024)
    dest = tmp_path / "mesh.csv"
    code, _, _ = run_cli(capsys, "mesh", str(f), "--format", "csv",
                         "--out", str(dest))
    assert code == 0
    assert dest.exists()
    assert "mesh" in dest.read_text()


# stdout and stderr of `meshpoly mesh` for (coefficients, flags), as
# they were written when the mesh and the root approximations read one
# isolation.  At --tol 1/10 approximations taken from the nodes the mesh
# enclosure narrowed would differ; for 7919x^2 - 2, whose rational probe
# stops after 24 probes, so would nodes probed twice.
MESH_OUTPUT = [
    (["-2", "0", "1"], [],  # x^2 - 2
     '{\n "mesh": {\n  "exact": null,\n  "infinite": false,\n'
     '  "lower": "3037000499/1073741824",\n  "roots_decimal": [\n'
     '   "-1.41421356",\n   "1.41421356"\n  ],\n'
     '  "upper": "759250125/268435456"\n }\n}\n',
     "mesh in [3037000499/1073741824, 759250125/268435456]\n"
     "roots ~ -1.41421, 1.41421\n"),
    (["-2", "0", "1"], ["--tol", "1/10"],  # x^2 - 2
     '{\n "mesh": {\n  "exact": null,\n  "infinite": false,\n'
     '  "lower": "45/16",\n  "roots_decimal": [\n   "-1.40625",\n'
     '   "1.40625"\n  ],\n  "upper": "23/8"\n }\n}\n',
     "mesh in [45/16, 23/8]\nroots ~ -1.40625, 1.40625\n"),
    (["1", "-3", "0", "1"], [],  # x^3 - 3x + 1
     '{\n "mesh": {\n  "exact": null,\n  "infinite": false,\n'
     '  "lower": "2544322585/2147483648",\n  "roots_decimal": [\n'
     '   "-1.87938524",\n   "0.347296356",\n   "1.53208889"\n  ],\n'
     '  "upper": "2544322587/2147483648"\n }\n}\n',
     "mesh in [2544322585/2147483648, 2544322587/2147483648]\n"
     "roots ~ -1.87939, 0.347296, 1.53209\n"),
    (["1", "-3", "0", "1"], ["--tol", "1/10"],  # x^3 - 3x + 1
     '{\n "mesh": {\n  "exact": null,\n  "infinite": false,\n'
     '  "lower": "37/32",\n  "roots_decimal": [\n   "-1.90625",\n'
     '   "0.34375",\n   "1.53125"\n  ],\n  "upper": "39/32"\n }\n}\n',
     "mesh in [37/32, 39/32]\nroots ~ -1.90625, 0.34375, 1.53125\n"),
    (["2", "-3", "0", "1"], [],  # (x - 1)^2 (x + 2)
     '{\n "mesh": {\n  "exact": "0/1",\n  "infinite": false,\n'
     '  "lower": "0/1",\n  "roots_decimal": [\n   "-2",\n   "1"\n  ],\n'
     '  "upper": "0/1"\n }\n}\n',
     "mesh: 0 (exact)\nroots ~ -2, 1\n"),
    (["-2", "0", "7919"], [],  # 7919x^2 - 2
     '{\n "mesh": {\n  "exact": null,\n  "infinite": false,\n'
     '  "lower": "50133556518841/1577315966386176",\n'
     '  "roots_decimal": [\n   "-0.0158920466",\n   "0.0158920466"\n'
     '  ],\n  "upper": "200534230438835/6309263865544704"\n }\n}\n',
     "mesh in [50133556518841/1577315966386176, "
     "200534230438835/6309263865544704]\nroots ~ -0.015892, 0.015892\n"),
    (["0", "8", "-6", "1"], ["--format", "csv"],  # x (x - 2) (x - 4)
     'key,value\r\nmesh,"{""exact"": ""2/1"", ""infinite"": false, '
     '""lower"": ""2/1"", ""roots_decimal"": [""0"", ""2"", ""4""], '
     '""upper"": ""2/1""}"\r\n',
     "mesh: 2 (exact)\nroots ~ 0, 2, 4\n"),
    (["3", "2"], [],  # 2x + 3
     '{\n "mesh": {\n  "infinite": true\n }\n}\n',
     "mesh: +inf (degree <= 1)\n"),
]


@pytest.mark.parametrize("coeffs, flags, stdout, stderr", MESH_OUTPUT,
                         ids=[",".join(c + f) for c, f, _, _ in MESH_OUTPUT])
def test_mesh_stdout_bytes_and_one_isolation(tmp_path, capsys, monkeypatch,
                                             coeffs, flags, stdout, stderr):
    from meshpoly import intpoly

    isolated = []
    isolate = intpoly.isolate

    def counting(f):
        nodes = isolate(f)
        isolated.append({tuple(n.poly) for n in nodes})
        return nodes

    monkeypatch.setattr(intpoly, "isolate", counting)
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"coeffs": coeffs}))
    assert run_cli(capsys, "mesh", str(f), *flags) == (0, stdout, stderr)
    # one isolation per question, at most: one for the mesh and one for
    # the display, each with its nodes on one square-free part, also for
    # (x - 1)^2 (x + 2)
    assert len(isolated) <= 2
    assert all(len(polys) == 1 for polys in isolated)
    assert all(len(intpoly.sturm_chain(list(g))[-1]) == 1
               for polys in isolated for g in polys)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("sign", [1, -1])
def test_mesh_of_roots_past_the_float_range(tmp_path, capsys, fmt, sign):
    """x (x - sign 10^399): the exact bounds stay exact, and the root past
    the float range is displayed as inf, with its sign."""
    big = 10 ** 399
    f = tmp_path / "p.json"
    f.write_text(json.dumps({"coeffs": ["0", str(-sign * big), "1"]}))
    code, out, err = run_cli(capsys, "mesh", str(f), "--format", fmt)
    assert code == 0
    if fmt == "csv":
        (_, row), = list(csv.reader(io.StringIO(out)))[1:]
        mesh = json.loads(row)
    else:
        mesh = json.loads(out)["mesh"]
    assert serialize.rational_from_str(mesh["lower"]) <= big \
        <= serialize.rational_from_str(mesh["upper"])
    assert mesh["roots_decimal"] == (["0", "inf"] if sign > 0
                                     else ["-inf", "0"])
    assert err.splitlines()[-1] == ("roots ~ 0, inf" if sign > 0
                                    else "roots ~ -inf, 0")


@pytest.mark.parametrize("exact", [True, False])
def test_mesh_notes_past_the_digit_limit(tmp_path, capsys, monkeypatch, exact):
    """The stderr mesh line writes a mesh of more than 4,300 digits in
    full."""
    from meshpoly import roots

    big = F(10 ** 5000 + 1, 3)
    rep = (roots.MeshReport(big, big, big) if exact
           else roots.MeshReport(big, big + 1, None))
    monkeypatch.setattr(roots, "mesh_numeric", lambda p, tol: rep)
    monkeypatch.setattr(roots, "root_approximations", lambda p, tol: [0.0])
    f = tmp_path / "p.json"
    f.write_text(POLY_024)
    code, out, err = run_cli(capsys, "mesh", str(f))
    assert code == 0
    num = "1" + "0" * 4999 + "1"
    assert err.splitlines()[0] == (
        f"mesh: {num}/3 (exact)" if exact
        else f"mesh in [{num}/3, {'1' + '0' * 4999 + '4'}/3]")
    assert json.loads(out)["mesh"]["lower"] == f"{num}/3"


def test_apply_operator(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"basis": "monomial", "coeffs": ["0", "0", "0", "1"]}')
    op = tmp_path / "op.json"
    op.write_text(json.dumps(
        {"op": {"coeffs": [{"basis": "monomial", "coeffs": ["1"]},
                           {"basis": "monomial", "coeffs": ["-1"]}]}}))
    code, out, _ = run_cli(capsys, "apply", str(p), "--op", str(op))
    assert code == 0
    img = json.loads(out)
    assert img["coeffs"] == ["1/1", "-3/1", "3/1"]  # x^3 - (x-1)^3


def test_apply_sequence(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"basis": "pochhammer", "coeffs": ["0", "0", "1"]}')
    sq = tmp_path / "seq.json"
    sq.write_text('{"sequence": {"values": ["1", "2", "4"]}}')
    code, out, _ = run_cli(capsys, "apply", str(p), "--op", str(sq))
    assert code == 0
    img = json.loads(out)
    # 4 (x)_2, reported in the monomial basis
    assert img == {"basis": "monomial", "coeffs": ["0/1", "-4/1", "4/1"]}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("poly", [
    POLY_024, '{"basis": "pochhammer", "coeffs": ["0", "0", "0", "1"]}'],
    ids=["monomial", "pochhammer"])
def test_apply_short_sequence_is_exit_2(tmp_path, capsys, fmt, poly):
    """Three values cannot scale a degree-3 polynomial: an input error,
    not an internal one."""
    p = tmp_path / "p.json"
    p.write_text(poly)
    sq = tmp_path / "seq.json"
    sq.write_text('{"sequence": {"values": ["1", "2", "4"]}}')
    code, out, err = run_cli(capsys, "apply", str(p), "--op", str(sq),
                             "--format", fmt)
    assert (code, out, err) == (2, "", "error: sequence too short for degree 3\n")


def test_convert(tmp_path, capsys):
    p = tmp_path / "p.json"
    p.write_text('{"basis": "monomial", "coeffs": ["1", "1", "1"]}')
    code, out, _ = run_cli(capsys, "convert", str(p), "--to", "pochhammer")
    assert code == 0
    assert json.loads(out) == {"basis": "pochhammer",
                               "coeffs": ["1/1", "2/1", "1/1"]}


def test_verify_herpou_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "herpou", "--coeffs", "1,-1")
    assert code == 0
    assert json.loads(out)["status"] == "holds"
    code, out, _ = run_cli(capsys, "verify", "herpou", "--coeffs", "1,1")
    assert code == 1
    assert json.loads(out)["witness"]["index"] == 2


def test_verify_dms_exit_codes(capsys):
    code, _, _ = run_cli(capsys, "verify", "dms", "--values", "1,-1,1")
    assert code == 1
    code, _, _ = run_cli(capsys, "verify", "dms", "--values", "1,1",
                         "--trials", "20")
    assert code == 0
    code, _, _ = run_cli(capsys, "verify", "dms", "--phi-coeffs", "1,1",
                         "--trials", "20", "--max-degree", "4")
    assert code == 0


def test_verify_riesz(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(POLY_024)
    code, out, _ = run_cli(capsys, "verify", "riesz", str(p),
                           "--lam", "1", "--alpha", "1")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "riesz", str(p),
                           "--lam", "1/2", "--derivative")
    assert code == 0


def test_verify_riesz_skip_is_exit_3(capsys, tmp_path):
    p = tmp_path / "p.json"
    p.write_text(POLY_024)  # mesh 2 < alpha 3: premise fails
    code, out, _ = run_cli(capsys, "verify", "riesz", str(p),
                           "--lam", "1", "--alpha", "3")
    assert code == 3
    assert json.loads(out)["status"] == "skipped"


def test_verify_riesz_skip_beyond_the_digit_limit(capsys, tmp_path):
    """An alpha of more digits than CPython converts between int and str
    (4,300) is a valid class bound: the premise fails, as for alpha 3,
    and the reason writes alpha whole."""
    p = tmp_path / "p.json"
    p.write_text(POLY_024)
    alpha = "1" + "0" * 4999
    code, out, err = run_cli(capsys, "verify", "riesz", str(p),
                             "--lam", "2", "--alpha", alpha)
    assert code == 3
    reason = f"input outside HP>={alpha}"
    assert json.loads(out)["details"] == {"reason": reason}
    assert f"  reason: {reason}" in err.splitlines()


def test_verdict_details_beyond_the_digit_limit(capsys):
    from meshpoly.verify import INCONCLUSIVE, Verdict
    big, text = 10**5000 + 1, "1" + "0" * 4999 + "1"
    cli._print_verdict(Verdict("c", INCONCLUSIVE, details={
        "a": F(big, 3), "n": -big, "small": F(1, 2), "flag": True,
        "list": [F(1, 2)]}))
    assert capsys.readouterr().err.splitlines() == [
        "c: inconclusive", f"  a: {text}/3", f"  n: -{text}",
        "  small: 1/2", "  flag: True", "  list: [Fraction(1, 2)]"]


def test_bad_json_is_exit_2(tmp_path, capsys):
    f = tmp_path / "broken.json"
    f.write_text("{nope")
    code, _, err = run_cli(capsys, "mesh", str(f))
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("payload, argv", [
    ({"coeffs": [True, False, True]}, ["convert", "BAD", "--to", "pochhammer"]),
    ({"op": {"shifts": [True], "coeffs": [{"coeffs": ["1"]}]}},
     ["apply", "P", "--op", "BAD"]),
])
def test_json_booleans_are_exit_2(tmp_path, capsys, payload, argv):
    files = {"BAD": tmp_path / "bad.json", "P": tmp_path / "p.json"}
    files["BAD"].write_text(json.dumps(payload))
    files["P"].write_text(POLY_024)
    code, out, err = run_cli(capsys, *(str(files.get(a, a)) for a in argv))
    assert code == 2 and not out
    assert "expected a rational" in err


def test_missing_file_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "mesh", "/nonexistent/p.json")
    assert code == 2


@pytest.mark.parametrize("error", [AssertionError("invariant broken"),
                                   ZeroDivisionError("division by zero")])
def test_internal_error_is_exit_4(tmp_path, capsys, monkeypatch, error):
    # a bug inside a subcommand must not read as exit 1 (counterexample)
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_mesh", broken)
    f = tmp_path / "p.json"
    f.write_text(POLY_024)
    code, out, err = run_cli(capsys, "mesh", str(f))
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert f"internal error: {type(error).__name__}: {error}" in err


def test_keyboard_interrupt_is_not_an_internal_error(tmp_path, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_mesh", interrupted)
    f = tmp_path / "p.json"
    f.write_text(POLY_024)
    with pytest.raises(KeyboardInterrupt):
        main(["mesh", str(f)])


def test_search_writes_records_and_certificates(tmp_path, capsys):
    out_path = tmp_path / "run.jsonl"
    code, _, err = run_cli(capsys, "search", "remark2", "--rho", "1/2",
                           "--trials", "4", "--out", str(out_path))
    assert code == 1  # certificate found
    lines = out_path.read_text().strip().split("\n")
    assert "summary" in lines[-1]
    cert_path = tmp_path / "run.jsonl.cert0.json"
    assert cert_path.exists()
    cert = json.loads(cert_path.read_text())
    assert cert["certificate"]["kind"] == "remark2"
    # replay closes the loop
    code, out, _ = run_cli(capsys, "replay", str(cert_path))
    assert code == 0
    assert json.loads(out)["reproduced"] is True


def test_search_clean_run_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "fd.jsonl"
    code, _, _ = run_cli(capsys, "search", "finite-degree", "--trials", "8",
                         "--seed", "3", "--out", str(out_path))
    assert code == 0
    assert out_path.exists()


def test_search_identity_remark2_exit_zero(capsys):
    """rho = 1 is the identity, which holds: a search that writes no
    certificate exits 0, whatever its kind."""
    code, out, err = run_cli(capsys, "search", "remark2", "--rho", "1")
    assert code == 0
    record = json.loads(out.splitlines()[0])["record"]
    assert record == {"consistent": True, "rho": "1/1", "status": "holds",
                      "trial": 0}
    assert "0 certificates" in err


@pytest.mark.parametrize("max_degree", [2, 3, 6])
def test_search_lemma1_always_certifies(capsys, tmp_path, max_degree):
    """The two-point sum maps x^2, tried at every max degree, to
    2x^2 - 2x + 1, which has no real root: lemma1 always exits 1."""
    out_path = tmp_path / "l1.jsonl"
    code, _, _ = run_cli(capsys, "search", "lemma1", "--trials", "0",
                         "--max-degree", str(max_degree), "--out",
                         str(out_path))
    assert code == 1
    payloads = [json.loads(f.read_text())["certificate"]["payload"]
                for f in sorted(tmp_path.glob("l1.jsonl.cert*.json"))]
    two_point = [q for q in payloads if q["operator_name"] == "two-point-sum"]
    assert [q["image"]["coeffs"] for q in two_point] == [["1/1", "-2/1", "2/1"]]


def test_search_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for dest in (a, b):
        run_cli(capsys, "search", "bullet", "--trials", "6", "--seed", "2",
                "--out", str(dest))
    assert a.read_bytes() == b.read_bytes()


def test_replay_tampered_is_exit_1(tmp_path, capsys):
    out_path = tmp_path / "run.jsonl"
    run_cli(capsys, "search", "lemma1", "--trials", "2", "--out", str(out_path))
    cert_path = tmp_path / "run.jsonl.cert0.json"
    obj = json.loads(cert_path.read_text())
    obj["certificate"]["payload"]["image"]["coeffs"][0] = "12345/1"
    cert_path.write_text(json.dumps(obj))
    code, out, _ = run_cli(capsys, "replay", str(cert_path))
    assert code == 1
    assert json.loads(out)["reproduced"] is False


def test_theorem_suite_smoke(capsys):
    # tiny trial budget: exercises wiring, not the acceptance run
    code, out, _ = run_cli(capsys, "verify", "theorem-suite", "--trials", "5",
                           "--seed", "7")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("criterion")]
    assert len(lines) == 12
    assert all("PASS" in ln for ln in lines)


@pytest.mark.parametrize("argv", [
    ["verify", "theorem-suite", "--max-degree", "4"],
    ["verify", "theorem-suite", "--i-max", "8"],
    ["verify", "theorem-suite", "--tol", "1/10"],
    ["verify", "herpou", "--coeffs", "1,-1", "--tol", "1/10"],
    ["verify", "dms", "--values", "1,1", "--i-max", "8"],
    ["verify", "dms", "--values", "1,1", "--tol", "1/10"],
    ["verify", "riesz", "P", "--lam", "1", "--seed", "3"],
    ["verify", "riesz", "P", "--lam", "1", "--trials", "3"],
    ["verify", "riesz", "P", "--lam", "1", "--max-degree", "3"],
    ["verify", "riesz", "P", "--lam", "1", "--i-max", "3"],
    ["search", "bullet", "--tol", "1/10"],
])
def test_flags_a_subcommand_ignores_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _run_module(*argv):
    # the child imports meshpoly from the same tree as this process
    src = str(Path(meshpoly.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, "-m", "meshpoly", *argv],
                          env=env, capture_output=True, text=True, timeout=60)


def test_tol_default_is_the_library_default():
    # the parser holds the text, so that building it loads no roots
    from meshpoly import roots

    assert cli._SHARED_FLAGS["--tol"]["default"] == str(roots.DEFAULT_TOL)
    args = cli.build_parser().parse_args(["mesh", "p.json"])
    assert meshpoly.as_fraction(args.tol) == roots.DEFAULT_TOL


def test_console_entry_point():
    r = _run_module("verify", "herpou", "--coeffs", "1,-1")
    assert r.returncode == 0
    assert json.loads(r.stdout)["status"] == "holds"


def test_usage_error_without_args():
    r = _run_module()
    assert r.returncode == 2


@pytest.mark.parametrize("argv, flag", [
    (["verify", "dms", "--values=1,2", "--max-degree", "-1"], "--max-degree"),
    (["verify", "herpou", "--coeffs", "1,-1", "--i-max", "-1"], "--i-max"),
    (["search", "nice", "--trials", "-1"], "--trials"),
    (["verify", "theorem-suite", "--trials=-5"], "--trials"),
])
def test_negative_counts_are_usage_errors(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: expected a non-negative integer" in \
        capsys.readouterr().err


def test_zero_counts_stay_valid(tmp_path, capsys):
    code, _, err = run_cli(capsys, "search", "nice", "--trials", "0",
                           "--out", str(tmp_path / "n.jsonl"))
    assert code == 0 and "0 records" in err
    code, out, _ = run_cli(capsys, "verify", "dms", "--values", "1,1",
                           "--trials", "0", "--max-degree", "0")
    assert code == 0 and json.loads(out)["status"] == "holds"
    code, _, _ = run_cli(capsys, "verify", "herpou", "--coeffs", "1,-1",
                         "--i-max", "0")
    assert code == 0


def _certificates():
    """One certificate of each kind, with the payload fields replay reads.

    remark2 and lemma1 come from their searches; the other kinds rarely
    certify and are built by hand, which replay need not reproduce."""
    from meshpoly import (Polynomial, bullet_product, diagonal_apply,
                          from_symbol, DiagonalSequence)
    from meshpoly.harness import (CounterexampleCertificate, SearchConfig,
                                  run_search)

    p = Polynomial.from_roots([0, 2])
    q = Polynomial.from_roots([1, 3])
    T = from_symbol(Polynomial([1, 1]))
    values = [1, 2, 3]
    hand = {
        "finite-degree": ({"symbol": Polynomial([1, 1]), "m": 2,
                           "gate_image": T.apply(Polynomial.falling_factorial(2)),
                           "fixture": p, "image": T.apply(p)},
                          ("symbol", "m", "fixture", "image")),
        "bullet": ({"p": p, "q": q, "d": 2, "image": bullet_product(p, q, 2)},
                   ("p", "q", "d", "image")),
        "nice": ({"values": values, "failed_side": "classical-multiplier-sampled",
                  "condition": "c", "fixture": p,
                  "image": diagonal_apply(DiagonalSequence.from_values(values), p),
                  "dms_status": "holds", "classical_status": "fails"},
                 ("values", "failed_side", "fixture", "image")),
    }
    certs = {kind: (CounterexampleCertificate(kind, "c", 0, payload, {}).to_obj(),
                    read) for kind, (payload, read) in hand.items()}
    for kind, read in (("remark2", ("rho", "fixture", "image")),
                       ("lemma1", ("operator", "input", "image"))):
        cert = run_search(SearchConfig(kind, trials=4, max_degree=4)).certificates[0]
        certs[kind] = cert.to_obj(), read
    return certs


def test_malformed_certificates_are_input_errors(tmp_path, capsys):
    path = tmp_path / "cert.json"

    def replay(obj):
        path.write_text(json.dumps(obj))
        return run_cli(capsys, "replay", str(path))

    for kind, (obj, read) in _certificates().items():
        code, _, err = replay(obj)
        assert code in (0, 1), (kind, err)
        payload = obj["certificate"]["payload"]
        for bad in (None, 5, [], True):
            code, out, err = replay({"certificate": {**obj["certificate"],
                                                     "payload": bad}})
            assert code == 2 and not out, (kind, bad, err)
        # the conjecture is echoed into the output, where a float is refused
        code, out, err = replay({"certificate": {**obj["certificate"],
                                                 "conjecture": 1.5}})
        assert code == 2 and not out, (kind, err)
        for field in payload:
            variants = [{k: v for k, v in payload.items() if k != field}]
            # a negative m has no falling factorial
            bads = (None, True, {}) + ((-1,) if field == "m" else ())
            variants += [{**payload, field: bad} for bad in bads]
            for broken in variants:
                code, out, err = replay(
                    {"certificate": {**obj["certificate"], "payload": broken}})
                assert code != 4, (kind, field, err)
                if field in read:
                    assert code == 2 and not out, (kind, field, broken, err)
    obj, _ = _certificates()["nice"]
    obj["certificate"]["payload"]["values"] = ["1/1", "2/1"]  # degree 2 fixture
    code, _, err = replay(obj)
    assert code == 2 and "shorter" in err


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("digits", [5000, 50000])
def test_convert_round_trips_beyond_the_digit_limit(tmp_path, capsys, fmt,
                                                    digits):
    """Coefficients with more digits than CPython converts between int
    and str by default (4,300) go through convert to the other basis and
    back exactly, and the way back is written in either format."""
    from meshpoly.serialize import dumps, poly_from_obj
    big = 10**digits - 7
    p = Polynomial([F(-big, 3), 0, F(1, big), 1])
    src, mid = tmp_path / "p.json", tmp_path / "q.json"
    src.write_text(dumps(p))
    code, out, _ = run_cli(capsys, "convert", str(src), "--to", "pochhammer")
    assert code == 0
    assert poly_from_obj(json.loads(out)) == p
    mid.write_text(out)
    code, out, _ = run_cli(capsys, "convert", str(mid), "--to", "monomial",
                           "--format", fmt)
    assert code == 0
    if fmt == "json":
        obj = json.loads(out)
    else:
        rows = dict(csv.reader(io.StringIO(out)))
        obj = {k: json.loads(v) for k, v in rows.items() if k != "key"}
    assert obj == json.loads(dumps(p))
