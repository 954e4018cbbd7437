"""Exact polynomial arithmetic in the monomial and falling-factorial bases."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from meshpoly import MONOMIAL, POCHHAMMER, Polynomial, make_standard


def test_construct_and_props():
    p = Polynomial([1, -3, 2])
    assert p.degree == 2
    assert p.leading_coefficient == 2
    assert not p.is_zero
    assert Polynomial([]).is_zero
    assert Polynomial([0, 0]).is_zero
    assert Polynomial.constant(F(5, 2)).degree == 0


def test_evaluate():
    p = Polynomial([1, -3, 2])  # (2x - 1)(x - 1)
    assert p.evaluate(F(1, 2)) == 0
    assert p.evaluate(1) == 0
    assert p.evaluate(3) == 10
    assert p.evaluate(F(-1, 2)) == 3


def test_derivative_and_shift():
    p = Polynomial([1, -3, 2])
    assert p.derivative().monomial_coeffs() == (F(-3), F(4))
    # shift(a) is p(x - a): roots move right by a
    assert p.shift(1).monomial_coeffs() == (F(6), F(-7), F(2))
    assert p.shift(1).evaluate(F(3, 2)) == 0
    assert p.shift(F(-1, 2)).evaluate(0) == 0


def test_from_roots():
    p = Polynomial.from_roots([0, 2, 5], lead=F(1, 2))
    assert p.monomial_coeffs() == (F(0), F(5), F(-7, 2), F(1, 2))
    assert p.degree == 3
    assert p.leading_coefficient == F(1, 2)
    for r in (0, 2, 5):
        assert p.evaluate(r) == 0


def test_falling_factorial():
    assert Polynomial.falling_factorial(0).monomial_coeffs() == (F(1),)
    ff3 = Polynomial.falling_factorial(3)
    assert ff3.monomial_coeffs() == (F(0), F(2), F(-3), F(1))
    assert ff3.evaluate(5) == 5 * 4 * 3


def test_basis_conversion_round_trip():
    p = Polynomial([1, 1, 1])  # x^2 + x + 1 = (x)_2 + 2(x)_1 + 1
    q = p.to_basis(POCHHAMMER)
    assert q.basis == POCHHAMMER
    assert q.coeffs == (F(1), F(2), F(1))
    assert q.to_basis(MONOMIAL).monomial_coeffs() == p.monomial_coeffs()
    ff = Polynomial.falling_factorial(3).to_basis(POCHHAMMER)
    assert ff.coeffs == (F(0), F(0), F(0), F(1))


def test_basis_conversion_rejects_unknown():
    with pytest.raises(ValueError):
        Polynomial([1]).to_basis("chebyshev")


def test_delta_and_nabla():
    delta = make_standard("delta")
    nabla = make_standard("nabla_conjugate")
    x3 = Polynomial([0, 0, 0, 1])
    # delta p = p(x) - p(x - 1): x^3 - (x-1)^3 = 3x^2 - 3x + 1
    assert delta.apply(x3).monomial_coeffs() == (F(1), F(-3), F(3))
    # nabla p = p(x + 1) - p(x): (x+1)^3 - x^3 = 3x^2 + 3x + 1
    assert nabla.apply(x3).monomial_coeffs() == (F(1), F(3), F(3))
    # delta lowers degree by exactly one
    assert delta.apply(x3).degree == 2
    assert delta.apply(Polynomial.constant(7)).is_zero


def test_equality_is_basis_free():
    p = Polynomial([0, 2, -3, 1])
    assert p == Polynomial.falling_factorial(3)
    assert p == p.to_basis(POCHHAMMER)


def test_stirling_rows_need_no_recursion():
    """(x)_n and basis conversion are computed by loops, not recursion:
    under a recursion limit of 150, a fresh process converts at degree
    400 and gets the right Stirling numbers."""
    code = ("import json, sys\n"
            "sys.setrecursionlimit(150)\n"
            "from meshpoly.poly import POCHHAMMER, Polynomial\n"
            "ff = Polynomial.falling_factorial(400)\n"
            "x400 = Polynomial([0] * 400 + [1]).to_basis(POCHHAMMER)\n"
            "print(json.dumps({\n"
            "    'ff_at': [str(ff.evaluate(k)) for k in (0, 399, 400, -1)],\n"
            "    'ff_mono': [str(c) for c in ff.monomial_coeffs()],\n"
            "    'ff_poch': [str(c) for c in ff.coeffs],\n"
            "    'x400_poch': [str(c) for c in x400.coeffs]}))\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    got = {k: [int(v) for v in vals] for k, vals in json.loads(out).items()}
    n = 400
    assert got["ff_at"] == [0, 0, math.factorial(n), math.factorial(n)]
    mono = got["ff_mono"]
    # s(n, 1) = (-1)^(n-1) (n-1)!, s(n, n-1) = -C(n, 2), s(n, n) = 1
    assert (mono[0], mono[1]) == (0, (-1) ** (n - 1) * math.factorial(n - 1))
    assert mono[-2:] == [-math.comb(n, 2), 1]
    assert got["ff_poch"] == [0] * n + [1]
    poch = got["x400_poch"]
    # S(n, 1) = 1, S(n, 2) = 2^(n-1) - 1, S(n, n-1) = C(n, 2), S(n, n) = 1
    assert poch[:3] == [0, 1, 2 ** (n - 1) - 1]
    assert poch[-2:] == [math.comb(n, 2), 1]
    # x^n at x = 3 from its pochhammer expansion: (3)_k = 0 for k > 3
    assert sum(c * math.perm(3, k) for k, c in enumerate(poch[:4])) == 3 ** n


def test_basis_conversion_keeps_no_memory():
    """Nothing built by a conversion outlives it: after (x)_300 and x^300
    read in the pochhammer basis, a fresh process holds less than 1 MB of
    traced memory once its results are dropped (Stirling tables kept
    between calls held 12 MB here)."""
    code = ("import gc, tracemalloc\n"
            "from meshpoly.poly import POCHHAMMER, Polynomial\n"
            "tracemalloc.start()\n"
            "Polynomial.falling_factorial(300)\n"
            "Polynomial([0] * 300 + [1]).to_basis(POCHHAMMER).coeffs\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert int(out) < 2 ** 20
