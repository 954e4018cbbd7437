"""Differential tests of Polynomial's integer form against Fraction code.

Polynomial stores integer numerators of its monomial coefficients over
one denominator and computes on them with the intpoly kernels.  The
reference below is the earlier form of the same arithmetic, on Fraction
coefficients in the basis each polynomial carries: schoolbook products,
Taylor shifts, root products, Horner evaluation in either basis and
synthetic division by (x - r).  Both must give the same coeffs in the
same basis on a seeded corpus.
"""

import math
from fractions import Fraction as F

from meshpoly import (
    MONOMIAL,
    POCHHAMMER,
    FiniteDifferenceOperator,
    Polynomial,
    from_symbol,
    make_standard,
    pochhammer_cofactor,
)
from meshpoly.fixtures import derive_rng

BIG = 10 ** 30


# -- the Fraction reference ---------------------------------------------

def ref_add(p, q):
    if p.basis == q.basis:
        a, b = p.coeffs, q.coeffs
        basis = p.basis
    else:
        a, b = p.monomial_coeffs(), q.monomial_coeffs()
        basis = MONOMIAL
    if len(a) < len(b):
        a, b = b, a
    cs = list(a)
    for i, c in enumerate(b):
        cs[i] += c
    return Polynomial(cs, basis)


def ref_scale(p, c):
    return Polynomial([F(c) * a for a in p.coeffs], p.basis)


def ref_mul(p, q):
    a, b = p.monomial_coeffs(), q.monomial_coeffs()
    if not a or not b:
        return Polynomial.zero()
    cs = [F(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            cs[i + j] += ca * cb
    return Polynomial(cs)


def ref_derivative(p):
    cs = p.monomial_coeffs()
    return Polynomial([i * cs[i] for i in range(1, len(cs))])


def ref_shift(p, a):
    """p(x - a) by repeated synthetic steps (Taylor shift)."""
    cs = list(p.monomial_coeffs())
    n = len(cs)
    c = -F(a)
    for i in range(n):
        for j in range(n - 2, i - 1, -1):
            cs[j] += c * cs[j + 1]
    return Polynomial(cs)


def ref_from_roots(roots, lead=1):
    cs = [F(lead)]
    for r in roots:
        r = F(r)
        cs.append(cs[-1])
        for j in range(len(cs) - 2, 0, -1):
            cs[j] = cs[j - 1] - r * cs[j]
        cs[0] = -r * cs[0]
    return Polynomial(cs)


def ref_evaluate(p, x0):
    x0 = F(x0)
    acc = F(0)
    if p.basis == MONOMIAL:
        for c in reversed(p.coeffs):
            acc = acc * x0 + c
        return acc
    fact = F(1)  # (x0)_i, updated incrementally
    for i, c in enumerate(p.coeffs):
        if i > 0:
            fact *= x0 - (i - 1)
        acc += c * fact
    return acc


def ref_divide_linear(coeffs, r):
    """Divide sum c_i x^i by (x - r): quotient coefficients and remainder."""
    if not coeffs:
        return [], F(0)
    out = [F(0)] * (len(coeffs) - 1)
    carry = F(0)
    for t in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[t] + r * carry
        out[t - 1] = carry
    return out, coeffs[0] + r * carry


def ref_pochhammer_cofactor(T, i):
    k = int(T.order)
    coeffs = list(T.apply(Polynomial.falling_factorial(i)).monomial_coeffs())
    for j in range(k, i):
        coeffs, rem = ref_divide_linear(coeffs, F(j))
        assert rem == 0
    return Polynomial(coeffs)


# -- the seeded corpus ---------------------------------------------------

def rand_rational(rng):
    roll = rng.random()
    if roll < 0.2:
        return F(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    if roll < 0.4:
        return F(0)
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))


def poly_corpus(stream, count):
    """Zero and constants in both bases, falling factorials, and random
    polynomials of degree up to 7 in mixed bases."""
    rng = derive_rng(7, "poly-kernels", stream)
    polys = [Polynomial(), Polynomial((), POCHHAMMER), Polynomial([F(-5, 3)]),
             Polynomial([BIG], POCHHAMMER), Polynomial([F(1, BIG)]),
             Polynomial.falling_factorial(4), Polynomial([0, 0, 0, 1]),
             Polynomial([BIG, -1, F(BIG, 3)])]
    for _ in range(count):
        cs = [rand_rational(rng) for _ in range(rng.randint(0, 7))]
        polys.append(Polynomial(cs, rng.choice((MONOMIAL, POCHHAMMER))))
    return polys


def points():
    return [F(0), F(1), F(-3), F(1, 2), F(-7, 3), F(22, 7), F(BIG, 7)]


def same(got, want):
    assert (got.coeffs, got.basis) == (want.coeffs, want.basis)
    assert repr(got) == repr(want) and str(got) == str(want)


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    assert isinstance(p.nums, tuple)
    assert all(type(c) is int for c in p.nums)
    assert not p.nums or p.nums[-1] != 0
    assert math.gcd(p.den, *p.nums) == 1
    assert p.monomial_coeffs() == tuple(F(c, p.den) for c in p.nums)


# -- the differential tests ---------------------------------------------

def test_corpus_covers_bases_zero_constants_and_big_coefficients():
    polys = poly_corpus("arith", 60)
    assert {p.basis for p in polys} == {MONOMIAL, POCHHAMMER}
    assert any(p.is_zero for p in polys)
    assert any(p.degree == 0 for p in polys)
    assert any(abs(c.numerator) >= 10 ** 25 for p in polys for c in p.coeffs)
    assert any(c.denominator >= 10 ** 25 for p in polys for c in p.coeffs)


def test_arithmetic_matches_fraction_reference():
    polys = poly_corpus("arith", 60)
    rng = derive_rng(7, "poly-kernels", "pairs")
    for p in polys:
        same(-p, ref_scale(p, -1))
        same(p.derivative(), ref_derivative(p))
        for c in (F(0), F(1), F(-3, 5), F(BIG, 7)):
            same(p * c, ref_scale(p, c))
            same(c * p, ref_scale(p, c))
        for q in rng.sample(polys, 8):
            same(p + q, ref_add(p, q))
            same(p - q, ref_add(p, ref_scale(q, -1)))
            same(p * q, ref_mul(p, q))


def test_shift_matches_taylor_shift():
    for p in poly_corpus("shift", 60):
        for a in points():
            same(p.shift(a), ref_shift(p, a))


def test_evaluate_matches_horner_in_either_basis():
    for p in poly_corpus("evaluate", 80):
        for x0 in points():
            assert p.evaluate(x0) == ref_evaluate(p, x0), (p, x0)


def test_from_roots_matches_fraction_product():
    rng = derive_rng(7, "poly-kernels", "roots")
    cases = [([], 1), ([], F(-2, 3)), ([0], 1), ([F(1, 2), F(1, 2)], F(3)),
             ([F(BIG, 3), F(-1, BIG)], F(BIG, 11))]
    for _ in range(60):
        roots_ = [rand_rational(rng) for _ in range(rng.randint(0, 6))]
        lead = F(0)
        while lead == 0:
            lead = rand_rational(rng)
        cases.append((roots_, lead))
    for roots_, lead in cases:
        same(Polynomial.from_roots(roots_, lead=lead),
             ref_from_roots(roots_, lead))


def test_pochhammer_cofactor_matches_synthetic_division():
    rng = derive_rng(7, "poly-kernels", "cofactor")
    ops = [make_standard("delta"), make_standard("riesz", lam=F(1, 3), alpha=2)]
    for _ in range(6):
        ops.append(from_symbol(Polynomial.from_roots(
            [rng.randint(0, 4) for _ in range(rng.randint(0, 3))],
            lead=F(rng.randint(1, 9), rng.randint(1, 9)))))
    for T in ops:
        k = int(T.order)
        for i in range(k):  # nothing in front: R_i is the image itself
            same(pochhammer_cofactor(T, i),
                 T.apply(Polynomial.falling_factorial(i)))
        for i in range(k, 41):
            same(pochhammer_cofactor(T, i), ref_pochhammer_cofactor(T, i))
    assert pochhammer_cofactor(FiniteDifferenceOperator([]), 3).is_zero


# -- the stored form -----------------------------------------------------

def test_stored_form_is_canonical():
    polys = poly_corpus("canonical", 60)
    for p in polys:
        assert_canonical(p)
        assert_canonical(p.shift(F(-7, 3)))
        assert_canonical(p.derivative())
        assert_canonical(p * F(6, 4))
        for q in polys[:10]:
            assert_canonical(p + q)
            assert_canonical(p * q)
    assert (Polynomial().nums, Polynomial().den) == ((), 1)
    assert (Polynomial([2, 4], POCHHAMMER).nums,
            Polynomial([2, 4], POCHHAMMER).den) == ((2, 4), 1)


def test_equality_and_hash_agree_across_bases_and_multiples():
    for p in poly_corpus("equality", 60):
        other = POCHHAMMER if p.basis == MONOMIAL else MONOMIAL
        for q in (p.to_basis(other), Polynomial(p.coeffs, p.basis),
                  Polynomial(p.monomial_coeffs()),
                  (p * F(3, BIG)) * F(BIG, 3)):
            assert p == q and hash(p) == hash(q)
        if not p.is_zero:
            assert p != p * 2 and p != p * F(1, 3)
            assert p != p + Polynomial.constant(1)
