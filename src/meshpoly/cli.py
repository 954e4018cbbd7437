"""Command line interface.

Exit codes, shared by every subcommand:

    0   success; verification holds / search found nothing to report
    1   a failure or counterexample certificate was produced
    2   usage or input errors
    3   inconclusive: searched without an answer either way
    4   internal error: a bug in meshpoly, not an answer about the input
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

# roots, operators, verify, harness and suite are imported by the
# subcommands that run them
from . import serialize
from .poly import (MONOMIAL, POCHHAMMER, Polynomial, as_fraction,
                   rational_text)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_poly(path: str) -> Polynomial:
    value = serialize.loads_value(_read_text(path))
    if not isinstance(value, Polynomial):
        raise serialize.ParseError(f"{path}: expected a polynomial object")
    return value


def _load_operator(path: str):
    value = serialize.loads_value(_read_text(path))
    if isinstance(value, Polynomial):
        raise serialize.ParseError(f"{path}: expected an operator object")
    return value


def _rational_list(text: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part:
            out.append(serialize.rational_from_str(part))
    if not out:
        raise serialize.ParseError("empty rational list")
    return out


def _emit(payload, args) -> None:
    """Write the machine-readable artifact to --out (or stdout for json)."""
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = serialize.dumps_indented(payload)
    else:
        text = _csv_of(payload)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv_of(payload) -> str:
    """Flat key,value rows; lists of uniform dicts become real tables."""
    import csv  # only the csv format needs it

    obj = serialize.to_jsonable(payload)
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(obj, list) and obj and all(isinstance(r, dict) for r in obj):
        keys = sorted({k for r in obj for k in r})
        writer.writerow(keys)
        for r in obj:
            writer.writerow([json.dumps(r.get(k), sort_keys=True) for k in keys])
    elif isinstance(obj, dict):
        writer.writerow(["key", "value"])
        for k in sorted(obj):
            writer.writerow([k, json.dumps(obj[k], sort_keys=True)])
    else:
        writer.writerow(["value"])
        writer.writerow([json.dumps(obj, sort_keys=True)])
    return buf.getvalue().rstrip("\n")


def _verdict_exit(v) -> int:
    from .verify import FAILS, HOLDS

    if v.status == FAILS:
        return EXIT_COUNTEREXAMPLE
    if v.status != HOLDS:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _note(*parts) -> None:
    # narration goes to stderr so stdout stays pipeable
    print(*parts, file=sys.stderr)


def _print_verdict(v) -> None:
    _note(f"{v.claim}: {v.status}")
    for key, val in v.details.items():
        if isinstance(val, (int, Fraction)) and not isinstance(val, bool):
            val = rational_text(val)  # str, for any number of digits
        _note(f"  {key}: {val}")
    if v.witness is not None:
        _note("  witness:")
        for key, val in serialize.to_jsonable(v.witness).items():
            _note(f"    {key}: {json.dumps(val, sort_keys=True)}")


def cmd_mesh(args) -> int:
    from .roots import mesh_numeric, root_approximations

    p = _load_poly(args.poly)
    tol = as_fraction(args.tol)
    rep = mesh_numeric(p, tol)
    if rep.is_infinite:
        _note("mesh: +inf (degree <= 1)")
        payload = {"mesh": {"infinite": True}}
    else:
        if rep.exact_value is not None:
            _note(f"mesh: {rational_text(rep.exact_value)} (exact)")
        else:
            _note(f"mesh in [{rational_text(rep.mesh_lower)}, "
                  f"{rational_text(rep.mesh_upper)}]")
        approx = root_approximations(p, tol)
        _note("roots ~", ", ".join(f"{r:.6g}" for r in approx))
        payload = {"mesh": {
            "infinite": False,
            "lower": rep.mesh_lower,
            "upper": rep.mesh_upper,
            "exact": rep.exact_value,
            "roots_decimal": [f"{r:.9g}" for r in approx],
        }}
    _emit(payload, args)
    return EXIT_OK


def cmd_apply(args) -> int:
    from .operators import DiagonalSequence, diagonal_apply

    T = _load_operator(args.op)
    p = _load_poly(args.poly)
    if isinstance(T, DiagonalSequence):
        # a value table too short for p is an input error (exit 2)
        if not p.is_zero and not T.defined_up_to(int(p.degree)):
            raise ValueError(f"sequence too short for degree {int(p.degree)}")
        image = diagonal_apply(T, p)
    else:
        image = T.apply(p)
    _note(image)
    _emit(image, args)
    return EXIT_OK


def cmd_convert(args) -> int:
    p = _load_poly(args.poly)
    _emit(p.to_basis(args.to), args)
    return EXIT_OK


def cmd_verify_suite(args) -> int:
    from . import suite

    scale = args.trials / 500
    results = suite.run_suite(seed=args.seed, scale=scale, emit=print)
    payload = [{"number": r.number, "name": r.name, "passed": r.passed,
                "details": r.details} for r in results]
    if args.out:
        _emit(payload, args)
    failed = [r.number for r in results if not r.passed]
    if failed:
        print(f"FAILED criteria: {failed}")
        return EXIT_COUNTEREXAMPLE
    print(f"all {len(results)} criteria passed")
    return EXIT_OK


def cmd_verify_herpou(args) -> int:
    from . import verify

    if args.symbol:
        Q = _load_poly(args.symbol)
    elif args.coeffs:
        Q = Polynomial(_rational_list(args.coeffs))
    else:
        raise serialize.ParseError("need --symbol FILE or --coeffs LIST")
    v = verify.symbol_preserver_verdict(Q, i_max=args.i_max, trials=args.trials,
                                        max_degree=args.max_degree,
                                        seed=args.seed)
    _print_verdict(v)
    _emit(v, args)
    return _verdict_exit(v)


def cmd_verify_dms(args) -> int:
    from . import verify
    from .operators import DiagonalSequence

    if args.sequence:
        A = serialize.loads_value(_read_text(args.sequence))
        if not isinstance(A, DiagonalSequence):
            raise serialize.ParseError("expected a sequence object")
    elif args.values:
        A = DiagonalSequence.from_values(_rational_list(args.values))
    elif args.phi_coeffs:
        A = DiagonalSequence.from_rule(Polynomial(_rational_list(args.phi_coeffs)))
    else:
        raise serialize.ParseError(
            "need --sequence FILE, --values LIST or --phi-coeffs LIST")
    v = verify.dms_test(A, trials=args.trials, max_degree=args.max_degree,
                        seed=args.seed)
    _print_verdict(v)
    _emit(v, args)
    return _verdict_exit(v)


def cmd_verify_riesz(args) -> int:
    from . import verify
    from .operators import make_standard

    p = _load_poly(args.poly)
    lam = as_fraction(args.lam)
    if args.derivative:
        v = verify.check_mesh_monotone(lam, p, variant="derivative",
                                       tol=as_fraction(args.tol))
    else:
        if args.alpha is None:
            raise serialize.ParseError("difference variant needs --alpha")
        alpha = as_fraction(args.alpha)
        T = make_standard("riesz", lam=lam, alpha=alpha)
        v = verify.check_mesh_monotone(T, p, alpha=alpha,
                                       tol=as_fraction(args.tol))
    _print_verdict(v)
    _emit(v, args)
    return _verdict_exit(v)


def cmd_search(args) -> int:
    from .harness import SearchConfig, run_search

    cfg = SearchConfig(args.kind, seed=args.seed, trials=args.trials,
                       max_degree=args.max_degree, i_max=args.i_max,
                       rho=as_fraction(args.rho))
    report = run_search(cfg)
    if args.format == "csv":
        text = _csv_of(report.records)
    else:
        text = report.jsonl().rstrip("\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    cert_paths = []
    for i, cert in enumerate(report.certificates):
        path = (f"{args.out}.cert{i}.json" if args.out
                else f"meshpoly-cert-{args.kind}-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(cert.to_json() + "\n")
        cert_paths.append(path)
    summary = report.summary
    print(f"search {args.kind}: {summary['trials']} records, "
          f"{summary['certificates']} certificates", file=sys.stderr)
    for path in cert_paths:
        print(f"certificate written: {path}", file=sys.stderr)
    return EXIT_COUNTEREXAMPLE if report.certificates else EXIT_OK


def cmd_replay(args) -> int:
    from .harness import CounterexampleCertificate, replay_certificate

    try:
        obj = json.loads(_read_text(args.certificate))
    except json.JSONDecodeError as e:
        raise serialize.ParseError(e.msg, e.lineno, e.colno) from None
    cert = CounterexampleCertificate.from_obj(obj)
    result = replay_certificate(cert)
    _note(f"certificate kind: {result['kind']} ({result['conjecture']})")
    for name, ok in result["checks"].items():
        _note(f"  {name}: {ok}")
    _note("reproduced" if result["reproduced"] else "NOT reproduced")
    _emit(result, args)
    return EXIT_OK if result["reproduced"] else EXIT_COUNTEREXAMPLE


def _count(text: str) -> int:
    """The type of the count flags: an integer, zero or more."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return n


_SHARED_FLAGS = {
    "--seed": {"type": int, "default": 7},
    "--trials": {"type": _count, "default": 500},
    "--max-degree": {"type": _count, "default": 6},
    "--i-max": {"type": _count, "default": 64},
    "--tol": {"default": "1/1000000000"},  # str(roots.DEFAULT_TOL), not loading roots
}


def _add_flags(sp, *flags) -> None:
    """The shared flags a subcommand reads, then --format and --out."""
    for flag in flags:
        sp.add_argument(flag, **_SHARED_FLAGS[flag])
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshpoly",
        description="Exact mesh computations, finite difference preservers, "
                    "and counterexample searches for real-rooted polynomials.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("mesh", help="smallest gap between adjacent roots")
    sp.add_argument("poly", help="polynomial JSON file, or - for stdin")
    _add_flags(sp, "--tol")
    sp.set_defaults(func=cmd_mesh)

    sp = sub.add_parser("apply", help="apply an operator or sequence to a polynomial")
    sp.add_argument("poly")
    sp.add_argument("--op", required=True, help="operator/sequence JSON file")
    _add_flags(sp)
    sp.set_defaults(func=cmd_apply)

    sp = sub.add_parser("convert", help="switch coefficient basis")
    sp.add_argument("poly")
    sp.add_argument("--to", choices=(MONOMIAL, POCHHAMMER), required=True)
    _add_flags(sp)
    sp.set_defaults(func=cmd_convert)

    ver = sub.add_parser("verify", help="check the library's claims")
    vsub = ver.add_subparsers(dest="check", required=True)

    sp = vsub.add_parser("theorem-suite", help="run all acceptance criteria")
    _add_flags(sp, "--seed", "--trials")
    sp.set_defaults(func=cmd_verify_suite)

    sp = vsub.add_parser("herpou",
                         help="does the symbol's operator preserve mesh >= 1?")
    sp.add_argument("--symbol", default=None, help="polynomial JSON file")
    sp.add_argument("--coeffs", default=None,
                    help="inline symbol coefficients, e.g. '1,-3/2,1'")
    _add_flags(sp, "--seed", "--trials", "--max-degree", "--i-max")
    sp.set_defaults(func=cmd_verify_herpou, trials=0)

    sp = vsub.add_parser("dms", help="test a diagonal sequence as a preserver")
    sp.add_argument("--sequence", default=None, help="sequence JSON file")
    sp.add_argument("--values", default=None, help="inline values, e.g. '1,1,2'")
    sp.add_argument("--phi-coeffs", default=None,
                    help="inline rule polynomial coefficients")
    _add_flags(sp, "--seed", "--trials", "--max-degree")
    sp.set_defaults(func=cmd_verify_dms)

    sp = vsub.add_parser("riesz", help="mesh monotonicity of a two-term map")
    sp.add_argument("poly")
    sp.add_argument("--lam", required=True)
    sp.add_argument("--alpha", default=None)
    sp.add_argument("--derivative", action="store_true",
                    help="use p - lam p' instead of p - lam p(x-alpha)")
    _add_flags(sp, "--tol")
    sp.set_defaults(func=cmd_verify_riesz)

    sp = sub.add_parser("search", help="randomized counterexample campaigns")
    sp.add_argument("kind", choices=serialize.SEARCH_KINDS)
    sp.add_argument("--rho", default="1/2", help="decay rate for remark2")
    _add_flags(sp, "--seed", "--trials", "--max-degree", "--i-max")
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("replay", help="recompute a counterexample certificate")
    sp.add_argument("certificate", help="certificate JSON file, or - for stdin")
    _add_flags(sp)
    sp.set_defaults(func=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except serialize.ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:
        # an AssertionError or ArithmeticError here is a bug, which must not
        # read as exit 1 (a counterexample); SystemExit and
        # KeyboardInterrupt are not Exceptions and pass through
        import traceback  # loaded only for an internal error

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
