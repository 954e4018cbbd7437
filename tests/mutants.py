"""Mutation check: every seeded mutant of src/ must fail a named test file.

    python tests/mutants.py

Each mutant is one exact text substitution in one module, which must
match exactly once.  Every substitution is checked against src/ before
any test runs, so a refactor that moves mutated code fails at once;
tests/test_mutant_substitutions.py makes the same check in tier-1.
For each mutant, src/ is copied to a temporary directory, the
substitution is applied there, and pytest runs the mutant's test files
against the copy (the checkout is never edited).  A mutant survives
when those tests pass.  An unmutated copy must first pass every named
test file, so that a mutant counts as killed only by a failure it
causes.  Each pytest run is stopped after TIMEOUT_S seconds; a mutant
whose tests run that long (a wrong remainder can make a bisection go
on forever) counts as killed by the timeout.  The script prints one
line per mutant and exits 1 if any survives, 2 if a substitution does
not match once or the unmutated copy fails.
Standard library only; pytest is run as a subprocess.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300  # per pytest run; the unmutated copy takes well under 60 s

# (name, module under src/meshpoly, old text, new text, test files)
MUTANTS = [
    ("no negation of a negative multiplier", "intpoly.py",
     """                if s < 0:
                    s, q = -s, -q
""", "", ["tests/test_intpoly.py"]),
    ("the unit-drop step scales a by |lb|, not lb**2", "intpoly.py",
     "    l2, la = lb * lb, lb * an", "    l2, la = abs(lb), lb * an",
     ["tests/test_intpoly.py"]),
    ("the unit-drop step swaps b_i and b_(i-1)", "intpoly.py",
     "zip(a, [0, *b], b)", "zip(a, b, [0, *b])", ["tests/test_intpoly.py"]),
    ("the Taylor shift's sign flipped", "intpoly.py",
     "                k[j] -= p * k[j + 1]", "                k[j] += p * k[j + 1]",
     ["tests/test_intpoly.py"]),
    ("the Taylor shift drops its q-power rescale", "intpoly.py",
     """    if q != 1:
        k = [c * w for c, w in zip(k, pw)]
""", "", ["tests/test_intpoly.py"]),
    ("no content division of the remainder", "intpoly.py",
     "    return [-c // g for c in r]", "    return [-c for c in r]",
     ["tests/test_intpoly.py"]),
    ("remainder returned with the wrong sign", "intpoly.py",
     "    return [-c // g for c in r]", "    return [c // g for c in r]",
     ["tests/test_intpoly.py"]),
    ("content always 1", "intpoly.py",
     "    return math.gcd(*f)", "    return 1",
     ["tests/test_intpoly.py"]),
    ("gap term dropped from the root accumulation", "fixtures.py",
     "            n += step + p * (d // q)", "            n += p * (d // q)",
     ["tests/test_fixtures.py"]),
    ("proves without its product check", "fixtures.py",
     """    return len(nums) == len(product) and all(
        c * scale == m * den for c, m in zip(nums, product))""",
     "    return True", ["tests/test_fixtures.py"]),
    ("Descartes parity flipped", "roots.py",
     "    even, odd = f[(len(f) - 1) % 2::2], f[len(f) % 2::2]",
     "    even, odd = f[len(f) % 2::2], f[(len(f) - 1) % 2::2]",
     ["tests/test_mesh_index.py"]),
    ("the Cauchy index ignores the gcd", "intpoly.py",
     "            return None if any(r) else b\n", "            return None\n",
     ["tests/test_mesh_index.py"]),
    ("a zero remainder returns the element before the gcd", "intpoly.py",
     "            return None if any(r) else b\n",
     "            return None if any(r) else a\n",
     ["tests/test_mesh_index.py"]),
    ("the walk accepts a drop of two degrees", "intpoly.py",
     """        if not r[-1]:
            return None if any(r) else b
""", """        trim(r)
        if not r:
            return b
""", ["tests/test_mesh_index.py"]),
    ("the walk accepts a first divisor of any degree", "intpoly.py",
     """    if len(b) != len(a) - 1:
        return None
""", "", ["tests/test_mesh_index.py"]),
    ("the walk ignores the sign ratio", "intpoly.py",
     """        if ((r[-1] < 0) == (b[-1] > 0)) != agree:
            return None
""", "", ["tests/test_mesh_index.py"]),
    ("the index asked for mesh bound 0 by the shift", "roots.py",
     """    if num:
        dn = """,
     """    if num >= 0:
        dn = """,
     ["tests/test_mesh_index.py"]),
    ("the divisor scales the shift by den^n, not f", "roots.py",
     "[x - dn * y for x, y in", "[dn * x - y for x, y in",
     ["tests/test_mesh_index.py"]),
    ("the divisor without the den^n scale", "roots.py",
     "        dn = den ** (len(f) - 1)", "        dn = 1",
     ["tests/test_mesh_index.py"]),
    ("the divisor without sign(lc f)", "roots.py",
     "full_index(f, d if f[-1] > 0 else intpoly.neg(d))",
     "full_index(f, d)", ["tests/test_mesh_index.py"]),
    ("the Descartes flag read without being set", "roots.py",
     """    if rec.nonneg is None:
        rec.nonneg = _no_negative_root(rec.f)
    return rec.nonneg
""", "    return rec.nonneg\n", ["tests/test_mesh_index.py"]),
    ("the Descartes flag not kept", "roots.py",
     "        rec.nonneg = _no_negative_root(rec.f)\n",
     "        return _no_negative_root(rec.f)\n", ["tests/test_root_cache.py"]),
    ("a zero yes implies squarefree", "roots.py",
     "    if rec.no == _ZERO:", "    if rec.no == _ZERO and rec.yes != _ZERO:",
     ["tests/test_mesh_index.py"]),
    ("a repeated root leaves no at None", "roots.py",
     """    if len(last) > 1 and not num:
        rec.no = _ZERO
""", "", ["tests/test_mesh_index.py"]),
    ("the gcd ignored at alpha = 0", "roots.py",
     """        last = intpoly.full_index(f, intpoly.deriv(f))
""", """        last = intpoly.full_index(f, intpoly.deriv(f))
        if last is not None and len(last) > 1:
            last = None
""", ["tests/test_mesh_index.py"]),
    ("yes starts at 0", "roots.py",
     "    rec.f, rec.yes, rec.no, rec.nonneg = f, (-1, 1), None, None",
     "    rec.f, rec.yes, rec.no, rec.nonneg = f, (0, 1), None, None",
     ["tests/test_mesh_index.py"]),
    ("the record's cross product uses < for <=", "roots.py",
     "    if num * yes[1] <= yes[0] * den or len(f) <= 2:",
     "    if num * yes[1] < yes[0] * den or len(f) <= 2:",
     ["tests/test_root_cache.py"]),
    ("proper position's D with the two leads swapped", "interlace.py",
     "[f[-1] * x - g[-1] * y for x, y in zip(g, f)]",
     "[g[-1] * x - f[-1] * y for x, y in zip(g, f)]",
     ["tests/test_interlace.py"]),
    ("proper position sends Q, not D, to the index at equal degrees",
     "interlace.py",
     """    d = intpoly.trim([f[-1] * x - g[-1] * y for x, y in zip(g, f)]) \\
        if equal else g""",
     "    d = g", ["tests/test_interlace.py"]),
    ("the Wronskian sign not negated when P is q", "interlace.py",
     "    if (lead < 0) != swapped:", "    if lead < 0:",
     ["tests/test_interlace.py"]),
    ("the Wronskian sign without lc(P) when D = Q", "interlace.py",
     "    lead = d[-1] if equal else d[-1] * f[-1]", "    lead = d[-1]",
     ["tests/test_interlace.py"]),
    ("apply shifts each term the wrong way", "operators.py",
     "                P, s.numerator * (V // s.denominator), V)",
     "                P, -s.numerator * (V // s.denominator), V)",
     ["tests/test_operator_kernels.py"]),
    ("apply drops the V-power rescale", "operators.py",
     "p.den * e * V ** (len(P) - 1))", "p.den * e)",
     ["tests/test_operator_kernels.py"]),
    ("apply drops the coefficient scale e // q.den", "operators.py",
     "            w = e // q.den", "            w = 1",
     ["tests/test_operator_kernels.py"]),
    ("apply adds each term one degree too high", "operators.py",
     "enumerate(shifted, i)", "enumerate(shifted, i + 1)",
     ["tests/test_operator_kernels.py"]),
    ("the monomial restatement skips x - 1", "poly.py",
     "        for i in range(n - 2, 0, -1):",
     "        for i in range(n - 2, 1, -1):",
     ["tests/test_operator_kernels.py"]),
    ("proves without its order check", "fixtures.py",
     "        if (n2 - n) * ad < an * d:",
     "        if abs(n2 - n) * ad < an * d:",
     ["tests/test_fixture_certificate.py"]),
    ("proves without its gap check", "fixtures.py",
     "        if (n2 - n) * ad < an * d:",
     "        if (n2 - n) * ad < 0:",
     ["tests/test_fixture_certificate.py"]),
    ("proves' gap test drops d", "fixtures.py",
     "        if (n2 - n) * ad < an * d:",
     "        if (n2 - n) * ad < an:",
     ["tests/test_fixture_certificate.py"]),
    ("proves without its HP+ check", "fixtures.py",
     """    if spec.require_nonneg_roots and ns and ns[0] < 0:
        return False
""", "", ["tests/test_fixture_certificate.py"]),
    ("the pochhammer restatement skips x - 1", "poly.py",
     "        for i in range(1, n - 1):", "        for i in range(2, n - 1):",
     ["tests/test_operator_kernels.py"]),
    ("the cofactor skips x - i and keeps x - (s+i)", "operators.py",
     "range(max(k, i), s + i)", "range(max(k, i) + 1, s + i + 1)",
     ["tests/test_poly_kernels.py"]),
    ("the cofactor gate shortcut only below the order", "verify.py",
     "    return m <= k or", "    return m < k or", ["tests/test_verify.py"]),
    ("the cofactor gate counts a root at m", "verify.py",
     "== (R.evaluate(m) == 0)", "== 0", ["tests/test_verify.py"]),
    ("the cofactor gate counts roots from k, not k - 1", "verify.py",
     "count_real_roots(R, k - 1, m)", "count_real_roots(R, k, m)",
     ["tests/test_verify.py"]),
    ("poly_to_obj without its gcd reduction", "serialize.py",
     "        g = math.gcd(c, den)\n", "        g = 1\n",
     ["tests/test_serialize.py"]),
    ("rationals written without the digit-limit fallback", "serialize.py",
     """    try:
        return f"{num}/{den}"
    except ValueError:  # past the interpreter's int/str digit limit
        return f"{int_text(num)}/{int_text(den)}"
""", """    return f"{num}/{den}"
""", ["tests/test_serialize.py"]),
    ("the Fraction branch writes the numerator over 1", "serialize.py",
     """    if kind is Fraction:
        return _ratio_text(value.numerator, value.denominator)
""", """    if kind is Fraction:
        return _ratio_text(value.numerator, 1)
""", ["tests/test_serialize.py"]),
    ("the exact-type tier returns a tuple unconverted", "serialize.py",
     "    if kind is list or kind is tuple:\n",
     "    if kind is tuple:\n        return value\n    if kind is list:\n",
     ["tests/test_serialize.py"]),
    ("the classical image with its values shifted by one index", "verify.py",
     "zip(alphas, p.nums)", "zip(alphas[1:], p.nums)",
     ["tests/test_verify.py"]),
    ("as_fraction lets bool through its int test", "poly.py",
     "    if isinstance(value, int) and not isinstance(value, bool):\n",
     "    if isinstance(value, int):\n",
     ["tests/test_poly.py"]),
    ("the least gap keeps a non-positive bound", "fixtures.py",
     "bound is not None and bound.numerator > 0 else 0",
     "bound is not None else 0", ["tests/test_fixtures.py"]),
    ("approximations refine their nodes before probing them", "roots.py",
     """        n.try_rational()
        n.refine_below(tol.numerator, tol.denominator)
""", """        n.refine_below(tol.numerator, tol.denominator)
        n.try_rational()
""", ["tests/test_cli.py"]),
    ("approximations without the overflow fallback", "roots.py",
     "        except OverflowError:", "        except ZeroDivisionError:",
     ["tests/test_cli.py"]),
    ("the overflow fallback drops the sign", "roots.py",
     "INF if n.a + n.b > 0 else -INF", "INF", ["tests/test_cli.py"]),
    ("the square-free part left undivided", "intpoly.py",
     "        chain = sturm_chain(divexact(chain[0], chain[-1]))",
     "        chain = sturm_chain(chain[0])", ["tests/test_nodes.py"]),
    ("the square-free part keeps a negative lead", "intpoly.py",
     "    if chain[0][-1] < 0:", "    if False:",
     ["tests/test_intpoly.py"]),
    ("isolation on the chain of f itself", "intpoly.py",
     "    chain = squarefree_chain(f)\n    f = chain[0]",
     "    chain = sturm_chain(f)\n    f = chain[0]", ["tests/test_intpoly.py"]),
    ("root counts on the chain of f itself", "roots.py",
     "intpoly.squarefree_chain(p.nums)", "intpoly.sturm_chain(p.nums)",
     ["tests/test_real_roots.py"]),
    ("negativity_point without its -B probe", "interlace.py",
     "    if intpoly.sign_at(f, -bound) < 0:\n        return -bound\n", "",
     ["tests/test_real_roots.py"]),
    ("isolation steps off a root toward lo", "intpoly.py",
     "            lo, hi, mid, den = 2 * lo, 2 * hi, mid + hi, 2 * den",
     "            lo, hi, mid, den = 2 * lo, 2 * hi, mid + lo, 2 * den",
     ["tests/test_intpoly.py"]),
    ("isolation splits one past the midpoint", "intpoly.py",
     "        mid = (lo + hi) // 2", "        mid = (lo + hi) // 2 + 1",
     ["tests/test_intpoly.py"]),
    ("isolation carries the left sign to the right half", "intpoly.py",
     "(mid, hi, den, n - nl, vmid, vhi, smid)",
     "(mid, hi, den, n - nl, vmid, vhi, slo)", ["tests/test_intpoly.py"]),
    ("_take drops the point's numerator rescale", "intpoly.py",
     "            num *= own // g\n", "", ["tests/test_nodes.py"]),
    ("interlacing decided by the Wronskian having one sign", "interlace.py",
     "    if intpoly.full_index(f, d) is None:",
     "    if not (nonneg_on_reals(wronskian(p, q)) or "
     "nonneg_on_reals(wronskian(q, p))):", ["tests/test_interlace.py"]),
]


def unmatched() -> list[str]:
    """One line per mutant whose substitution does not match its module
    under src/ exactly once; empty when every mutant applies."""
    out = []
    for name, module, old, _, _ in MUTANTS:
        n = (ROOT / "src" / "meshpoly" / module).read_text().count(old)
        if n != 1:
            out.append(f"{name}: {module} matches {n} times, not once")
    return out


def first_failure(tests: list[str], module: str = "", old: str = "",
                  new: str = "") -> str:
    """The first failure pytest reports for the tests on a copy of src/
    with old replaced by new in module (no substitution when module is
    empty); "" when they pass, and "timeout after N s" when pytest is
    stopped by the timeout."""
    with tempfile.TemporaryDirectory(prefix="meshpoly-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        if module:
            path = src / "meshpoly" / module
            path.write_text(path.read_text().replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src),
                   PYTHONDONTWRITEBYTECODE="1")
        try:
            r = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", "-o", f"pythonpath={src}", *tests],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"timeout after {TIMEOUT_S} s"
        if r.returncode == 0:
            return ""
        failed = [ln for ln in r.stdout.splitlines()
                  if ln.startswith(("FAILED", "ERROR"))]
        return failed[0] if failed else f"pytest exit {r.returncode}"


def main() -> int:
    start = time.perf_counter()
    errors = unmatched()
    for error in errors:
        print(f"error    {error}")
    if errors:
        return 2
    files = sorted({f for *_, tests in MUTANTS for f in tests})
    failure = first_failure(files)
    if failure:
        print(f"error    the unmutated copy fails: {failure}")
        return 2
    print(f"baseline passes {' '.join(files)} "
          f"({time.perf_counter() - start:.1f} s)")
    survivors = 0
    for name, module, old, new, tests in MUTANTS:
        t = time.perf_counter()
        failure = first_failure(tests, module, old, new)
        survivors += not failure
        print(f"{'killed' if failure else 'SURVIVED':8} {name} "
              f"({time.perf_counter() - t:.1f} s)")
        if failure:
            print(f"         by {failure}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
