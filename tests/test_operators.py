"""Finite difference operators, symbols, and diagonal sequences."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import meshpoly

from meshpoly import (
    DiagonalSequence,
    FiniteDifferenceOperator,
    Polynomial,
    brenti_map,
    bullet_product,
    diagonal_apply,
    from_symbol,
    make_standard,
    pochhammer_cofactor,
    sequence_from_poly,
    stirling_first,
    stirling_second,
    symbol,
)
from meshpoly import intpoly
from meshpoly.fixtures import derive_rng


def test_delta_operator():
    D = make_standard("delta")
    x3 = Polynomial([0, 0, 0, 1])
    assert D.apply(x3).monomial_coeffs() == (F(1), F(-3), F(3))
    assert D.order == 1
    assert D.integer_shifts
    assert symbol(D).monomial_coeffs() == (F(1), F(-1))


def test_standard_kinds_shape():
    R = make_standard("riesz", lam=F(1, 3), alpha=2)
    assert [(s, c.monomial_coeffs()) for s, c in R.terms] == [
        (F(0), (F(1),)),
        (F(2), (F(-1, 3),)),
    ]
    W = make_standard("w_lambda", lam=2)
    assert W.apply(Polynomial([0, 1])).monomial_coeffs() == (F(0), F(3))
    NC = make_standard("nabla_conjugate", lam=1)
    assert [(s, c.monomial_coeffs()) for s, c in NC.terms] == [
        (F(-1), (F(1),)),
        (F(0), (F(-1),)),
    ]
    E = make_standard("euler_xdelta")
    # x * delta fixes nothing linear: on x it returns x
    assert E.apply(Polynomial([0, 1])).monomial_coeffs() == (F(0), F(1))
    with pytest.raises(ValueError):
        make_standard("unknown")


def test_symbol_round_trip():
    Q = Polynomial([1, 1])
    T = from_symbol(Q)
    # (1 + t) p = p(x) + p(x - 1)
    assert T.apply(Polynomial([0, 1])).monomial_coeffs() == (F(-1), F(2))
    assert symbol(T) == Q
    assert T.nonzero_coefficient_count == 2
    Q2 = Polynomial([2, 0, -1])
    assert symbol(from_symbol(Q2)) == Q2


def test_from_symbol_matches_fraction_reference():
    """from_symbol from Q's numerators against the operator built from
    Q's Fraction coefficients; every term coefficient is tagged monomial,
    also one given in the pochhammer basis."""
    rng = derive_rng(7, "from-symbol")
    for t in range(400):
        nums = [rng.choice((0, rng.randint(-9, 9))) for _ in range(5)]
        basis = ("monomial", "pochhammer")[t % 2]
        Q = Polynomial._from_ints(nums, rng.randint(1, 12), basis)
        ref = FiniteDifferenceOperator.from_coeffs(list(Q.monomial_coeffs()))
        T = from_symbol(Q)
        assert [(s, q.nums, q.den, q.basis) for s, q in T.terms] == \
            [(s, q.nums, q.den, q.basis) for s, q in ref.terms], t
    ff = Polynomial([0, 1], "pochhammer")
    T = FiniteDifferenceOperator([(0, ff), (1, ff), (1, ff)])
    assert [q.basis for _, q in T.terms] == ["monomial", "monomial"]


def test_from_coeffs():
    T = FiniteDifferenceOperator.from_coeffs([Polynomial([1]), Polynomial([1])])
    p = Polynomial.from_roots([0, 2])
    assert T.apply(p) == p + p.shift(1)
    assert T.apply(p).evaluate(0) == p.evaluate(0) + p.evaluate(-1)


def test_pochhammer_cofactor():
    # T = 1 + t on (x)_3 leaves (x-1)(x-2) in front of R_3 = 2x - 3
    T = from_symbol(Polynomial([1, 1]))
    assert pochhammer_cofactor(T, 3).monomial_coeffs() == (F(-3), F(2))
    D = make_standard("delta")
    assert pochhammer_cofactor(D, 2).monomial_coeffs() == (F(2),)
    # below the order nothing is in front: 1 + t^2 on (x)_1 is x + (x - 2)
    assert pochhammer_cofactor(from_symbol(Polynomial([1, 0, 1])), 1) == \
        Polynomial([-2, 2])
    with pytest.raises(ValueError):
        pochhammer_cofactor(T, -1)
    with pytest.raises(ValueError):
        pochhammer_cofactor(make_standard("euler_xdelta"), 2)
    with pytest.raises(ValueError):
        pochhammer_cofactor(make_standard("riesz", lam=1, alpha=F(1, 2)), 2)


def test_diagonal_sequence_table_and_rule():
    A = DiagonalSequence.from_values([1, 2, 4, 8])
    assert A.values == (F(1), F(2), F(4), F(8))
    assert A.defined_up_to(3)
    assert not A.defined_up_to(4)
    assert A.alpha(2) == 4
    B = DiagonalSequence.from_rule(Polynomial([1, 1]))
    assert B.alpha(3) == 4
    assert B.defined_up_to(10**6)
    assert list(B.prefix(3)) == [F(1), F(2), F(3)]


def test_diagonal_apply():
    A = DiagonalSequence.from_values([1, 2, 4, 8])
    img = diagonal_apply(A, Polynomial.falling_factorial(2))
    assert img.monomial_coeffs() == (F(0), F(-4), F(4))  # 4 (x)_2
    ones = DiagonalSequence.from_values([1, 1, 1])
    p = Polynomial([3, -2, 1])
    assert diagonal_apply(ones, p) == p


def test_sequence_from_poly():
    A = sequence_from_poly(Polynomial([1, 1]), 5)
    assert A.values == (F(1), F(2), F(3), F(4), F(5))


@pytest.mark.parametrize("phi, message", [
    (Polynomial.from_roots([-1, F(3, 2)]),
     "phi has a root near 1.5 > 0; all roots must be <= 0"),
    (Polynomial([-2, 0, 1]) * Polynomial([3, 1]),
     "phi has a root near 1.4142133593559265 > 0; all roots must be <= 0"),
    (Polynomial.from_roots([F(-1, 2), F(2, 3), F(2, 3), 7]) * F(-5, 3),
     "phi has a root near 0.6666666666666666 > 0; all roots must be <= 0"),
    (Polynomial([1, 0, 1]), "phi must be hyperbolic"),
])
def test_sequence_from_poly_reports_the_least_positive_root(phi, message):
    with pytest.raises(ValueError) as e:
        sequence_from_poly(phi, 4)
    assert str(e.value) == message


def test_sequence_from_poly_isolates_only_a_violation(monkeypatch):
    """The sign of the roots is decided by Descartes' rule, with no root
    isolated unless one is positive; checked against the roots each phi
    is built from, with 0, repeated roots and negative leads among them."""
    calls = []
    isolate = intpoly.isolate

    def counted(*args):
        calls.append(args)
        return isolate(*args)

    monkeypatch.setattr(intpoly, "isolate", counted)
    rng = derive_rng(7, "sequence-from-poly")
    passed = failed = 0
    for _ in range(300):
        rts = [F(rng.randint(-9, 3), rng.choice((1, 2, 3)))
               for _ in range(rng.randint(1, 5))]
        rts += rts[:rng.randint(0, 1)]
        phi = Polynomial.from_roots(rts) * F(rng.choice((-3, -1, 2)), 5)
        before = len(calls)
        if max(rts) > 0:
            with pytest.raises(ValueError, match="> 0; all roots must be <= 0"):
                sequence_from_poly(phi, 3)
            failed += 1
            assert len(calls) > before
        else:
            A = sequence_from_poly(phi, 3)
            assert A.values == tuple(phi.evaluate(F(i)) for i in range(3))
            passed += 1
            assert len(calls) == before, phi
    assert min(passed, failed) >= 50, (passed, failed)


def test_brenti_map():
    # monomial coefficients transplanted onto the falling factorials
    p = Polynomial.from_roots([0, 2])  # x^2 - 2x
    assert brenti_map(p).monomial_coeffs() == (F(0), F(-3), F(1))  # (x)_2 - 2(x)_1


def test_bullet_product():
    r = bullet_product(Polynomial.falling_factorial(2), Polynomial.falling_factorial(2), 2)
    assert r.monomial_coeffs() == (F(0), F(-2), F(2))  # 2 (x)_2


def test_stirling_numbers():
    assert stirling_first(4, 2) == 11
    assert stirling_second(4, 2) == 7
    assert stirling_first(3, 3) == stirling_second(3, 3) == 1
    assert stirling_second(5, 1) == 1


def test_fresh_import_releases_the_previous_polynomial_class():
    # a module-level typing alias naming Polynomial lands in typing's
    # global cache and keeps every imported copy of the class alive
    script = (
        "import gc, importlib, sys, weakref\n"
        "def fresh():\n"
        "    for n in [n for n in sys.modules\n"
        "              if n == 'meshpoly' or n.startswith('meshpoly.')]:\n"
        "        del sys.modules[n]\n"
        "    return importlib.import_module('meshpoly')\n"
        "first = weakref.ref(fresh().Polynomial)\n"
        "fresh()\n"
        "gc.collect()\n"
        "print('dead' if first() is None else 'alive')\n")
    src = str(Path(meshpoly.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "dead"
