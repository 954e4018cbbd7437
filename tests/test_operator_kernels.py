"""Differential tests of the integer operator kernels against Fraction ones.

apply, bullet_product, diagonal_apply and the reading of a polynomial in
another basis (to_basis, then coeffs) compute on integer numerators over
one denominator (one integer Taylor shift of p per term in apply, the
falling-factorial form of the bullet product, in-place basis
conversion).  The reference below is the earlier form of the same maps,
in Fractions: one Fraction Taylor shift of p per term, repeated forward
differences, and Stirling conversion coefficient by coefficient from
triangles built here by their recurrences, on the Fraction arithmetic
of test_poly_kernels.  Both must give the same coeffs in the same basis
on a seeded corpus.  At high degree apply is checked against
pochhammer_cofactor instead, which forms no image.
"""

from fractions import Fraction as F

import pytest

from meshpoly import (
    MONOMIAL,
    POCHHAMMER,
    DiagonalSequence,
    FiniteDifferenceOperator,
    Polynomial,
    bullet_product,
    diagonal_apply,
    from_symbol,
    make_standard,
    pochhammer_cofactor,
)
from meshpoly import intpoly
from meshpoly.fixtures import derive_rng
from meshpoly.poly import _restate, int_form
from test_poly_kernels import (ref_add, ref_evaluate, ref_mul, ref_scale,
                               ref_shift)

BIG = 10 ** 40


# -- the Fraction reference ---------------------------------------------

def stirling1_rows(n):
    """Rows 0..n of the signed Stirling triangle of the first kind:
    row m holds s(m, k), the x^k coefficients of (x)_m, built from
    (x)_m = (x - (m-1)) (x)_{m-1}."""
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for k, c in enumerate(rows[-1]):
            row[k + 1] += c
            row[k] -= (m - 1) * c
        rows.append(row)
    return rows


def stirling2_rows(n):
    """Rows 0..n of the Stirling triangle of the second kind: row m
    holds S(m, k), the (x)_k coefficients of x^m, built from
    x (x)_k = (x)_{k+1} + k (x)_k."""
    rows = [[1]]
    for m in range(1, n + 1):
        row = [0] * (m + 1)
        for k, c in enumerate(rows[-1]):
            row[k + 1] += c
            row[k] += k * c
        rows.append(row)
    return rows


def ref_restate(coeffs, basis):
    """coeffs in the other basis restated in basis, term by term."""
    rows = (stirling1_rows if basis == MONOMIAL else stirling2_rows)(len(coeffs))
    out = [0] * len(coeffs)
    for i, c in enumerate(coeffs):
        for k, s in enumerate(rows[i]):
            out[k] += c * s
    return out


def ref_to_basis(p, basis):
    if basis == p.basis:
        return p
    return Polynomial(ref_restate(p.coeffs, basis), basis)


def ref_apply(T, p):
    p = ref_to_basis(p, MONOMIAL)
    acc = Polynomial.zero()
    for s, q in T.terms:
        acc = ref_add(acc, ref_mul(q, ref_shift(p, s)))
    return acc


def ref_nabla(p):
    return ref_add(ref_shift(p, -1), ref_scale(p, -1))


def ref_bullet_product(p, q, d):
    if p.degree > d or q.degree > d:
        raise ValueError(f"degree bound {d} violated")
    p, q = ref_to_basis(p, MONOMIAL), ref_to_basis(q, MONOMIAL)
    diffs_q = [q]
    for _ in range(d):
        diffs_q.append(ref_nabla(diffs_q[-1]))
    acc = Polynomial.zero()
    fp = p
    for k in range(d + 1):
        c = ref_evaluate(fp, F(0))
        if c != 0:
            acc = ref_add(acc, ref_scale(diffs_q[d - k], c))
        fp = ref_nabla(fp)
    return acc


def ref_diagonal_apply(A, p):
    if p.is_zero:
        return Polynomial.zero()
    n = int(p.degree)
    if not A.defined_up_to(n):
        raise IndexError(f"sequence too short for degree {n}")
    ph = ref_to_basis(p, POCHHAMMER)
    scaled = [A.alpha(i) * c for i, c in enumerate(ph.coeffs)]
    return ref_to_basis(Polynomial(scaled, POCHHAMMER), MONOMIAL)


# -- the seeded corpus ---------------------------------------------------

def rand_rational(rng, big=False):
    if big and rng.random() < 0.5:
        return F(rng.randint(-BIG, BIG), rng.randint(1, BIG))
    if rng.random() < 0.25:
        return F(0)
    return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 7)))


def rand_poly(rng, degree, basis=MONOMIAL, big=False):
    """A polynomial of exactly this degree (zero for degree < 0)."""
    if degree < 0:
        return Polynomial((), basis)
    cs = [rand_rational(rng, big) for _ in range(degree)]
    lead = F(0)
    while lead == 0:
        lead = rand_rational(rng, big)
    return Polynomial(cs + [lead], basis)


def rand_operator(rng):
    """Rational and negative shifts, polynomial coefficients."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        shift = F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5)))
        coeff = rand_poly(rng, rng.randint(0, 2), rng.choice((MONOMIAL, POCHHAMMER)),
                          big=rng.random() < 0.2)
        terms.append((shift, coeff))
    return FiniteDifferenceOperator(terms)


def operators_corpus():
    rng = derive_rng(7, "operator-kernels", "ops")
    ops = [
        make_standard("delta"),
        make_standard("nabla_conjugate"),
        make_standard("riesz", lam=F(1, 3), alpha=2),
        make_standard("riesz", lam=F(-7, 2), alpha=F(5, 2)),
        make_standard("riesz", lam=BIG + 1, alpha=F(1, 7)),
        make_standard("w_lambda", lam=F(1, 4)),
        make_standard("w_lambda", lam=-3),
        make_standard("euler_xdelta"),
        FiniteDifferenceOperator([]),
        FiniteDifferenceOperator([(F(-3, 2), 1), (F(-1, 3), F(2, 5))]),
        FiniteDifferenceOperator([(0, Polynomial([F(1, 2), 0, F(-3, 4)]))]),
    ]
    for _ in range(6):
        Q = rand_poly(rng, rng.randint(0, 4), big=rng.random() < 0.3)
        ops.append(from_symbol(Q))
    ops += [rand_operator(rng) for _ in range(20)]
    return ops


def inputs_corpus(stream, count):
    rng = derive_rng(7, "operator-kernels", stream)
    polys = [Polynomial(), Polynomial((), POCHHAMMER), Polynomial([F(-5, 3)]),
             Polynomial([BIG], POCHHAMMER), Polynomial.falling_factorial(4)]
    for _ in range(count):
        polys.append(rand_poly(rng, rng.randint(0, 8),
                               rng.choice((MONOMIAL, POCHHAMMER)),
                               big=rng.random() < 0.2))
    return polys


def same(got, want):
    assert (got.coeffs, got.basis) == (want.coeffs, want.basis)


# -- the differential tests ---------------------------------------------

def test_corpus_covers_rational_negative_and_polynomial_terms():
    ops = operators_corpus()
    shifts = [s for T in ops for s, _ in T.terms]
    assert any(s.denominator > 1 for s in shifts)
    assert any(s < 0 for s in shifts)
    assert any(q.degree >= 1 for T in ops for _, q in T.terms)
    assert any(not T.terms for T in ops)
    polys = inputs_corpus("apply", 40)
    assert {p.basis for p in polys} == {MONOMIAL, POCHHAMMER}
    assert any(abs(c) >= 10 ** 30 for p in polys for c in p.coeffs)


def test_apply_matches_shift_per_term():
    polys = inputs_corpus("apply", 40)
    for T in operators_corpus():
        for p in polys:
            same(T.apply(p), ref_apply(T, p))


def test_apply_matches_pochhammer_cofactor_at_high_degree():
    """T((x)_m) = (x - k)(x - k - 1)...(x - m + 1) R_m for symbols of
    order k <= 4 and m up to 300, with R_m from pochhammer_cofactor,
    which forms no image: an oracle at degrees where the Fraction
    reference is slow."""
    rng = derive_rng(7, "operator-kernels", "cofactor")
    symbols = [Polynomial([F(401, 100), -4, 1])]
    for k in range(5):
        symbols += [rand_poly(rng, k), rand_poly(rng, k, big=True)]
    for Q in symbols:
        T = from_symbol(Q)
        j = k = int(T.order)
        common = [1]  # prod (x - j) for j = k .. m - 1
        for m in (0, 1, 2, 3, 4, 5, 9, 40, 137, 300):
            while j < m:
                common = intpoly.mul(common, [-j, 1])
                j += 1
            R = pochhammer_cofactor(T, m)
            want = Polynomial._from_ints(intpoly.mul(list(R.nums), common),
                                         R.den)
            got = T.apply(Polynomial.falling_factorial(m))
            assert (got.nums, got.den) == (want.nums, want.den), (Q, m)


def test_to_basis_matches_fraction_stirling():
    for p in inputs_corpus("basis", 200):
        for basis in (MONOMIAL, POCHHAMMER):
            same(p.to_basis(basis), ref_to_basis(p, basis))


def test_restate_matches_stirling_triangles():
    """_restate, both directions, against the triangle recurrences on the
    basis corpus plus integer vectors of length up to 40 with entries up
    to 10**40."""
    vectors = [list(p.nums) for p in inputs_corpus("basis", 200)]
    rng = derive_rng(7, "operator-kernels", "restate")
    for n in range(41):
        for _ in range(3):
            vectors.append([rng.randint(-BIG, BIG) if rng.random() < 0.8 else 0
                            for _ in range(n)])
    assert max(map(len, vectors)) == 40
    for v in vectors:
        for basis in (MONOMIAL, POCHHAMMER):
            assert _restate(v, basis) == ref_restate(v, basis), (v, basis)
    # the two directions are inverse
    assert all(_restate(_restate(v, POCHHAMMER), MONOMIAL) == v for v in vectors)


def test_bullet_product_matches_repeated_differences():
    rng = derive_rng(7, "operator-kernels", "bullet")
    pairs = [(Polynomial(), Polynomial([1, 2]), 2),
             (Polynomial([F(3, 2)]), Polynomial(), 0),
             (Polynomial([F(3, 2)]), Polynomial([F(-1, 5)]), 0),
             (Polynomial.falling_factorial(2), Polynomial.falling_factorial(2), 2)]
    for _ in range(150):
        dp, dq = rng.randint(-1, 6), rng.randint(-1, 6)
        d = max(dp, dq, 0) + rng.choice((0, 0, 1, 3))
        pairs.append((rand_poly(rng, dp, rng.choice((MONOMIAL, POCHHAMMER)),
                                big=rng.random() < 0.2),
                      rand_poly(rng, dq, rng.choice((MONOMIAL, POCHHAMMER)),
                                big=rng.random() < 0.2),
                      d))
    assert any(d > max(p.degree, q.degree) for p, q, d in pairs)
    for p, q, d in pairs:
        same(bullet_product(p, q, d), ref_bullet_product(p, q, d))
    with pytest.raises(ValueError):
        bullet_product(Polynomial([0, 0, 1]), Polynomial([1]), 1)


def test_diagonal_apply_matches_fraction_conversion():
    rng = derive_rng(7, "operator-kernels", "diagonal")
    seqs = [DiagonalSequence.from_values([1, 2, 4, 8, 16, 32, 64, 128, 256]),
            DiagonalSequence.from_values([0] * 9),
            DiagonalSequence.from_rule(Polynomial([1, 1])),
            DiagonalSequence.from_rule(Polynomial([F(1, 3), 0, F(-2, 7)]))]
    for _ in range(10):
        seqs.append(DiagonalSequence.from_values(
            rand_rational(rng, big=rng.random() < 0.3) for _ in range(9)))
        seqs.append(DiagonalSequence.from_rule(
            rand_poly(rng, rng.randint(0, 3), big=rng.random() < 0.3)))
    for A in seqs:
        for p in inputs_corpus("diagonal", 15):
            same(diagonal_apply(A, p), ref_diagonal_apply(A, p))
    with pytest.raises(IndexError):
        diagonal_apply(DiagonalSequence.from_values([1, 2]), Polynomial([0, 0, 1]))


def test_int_form_and_from_ints():
    assert int_form(()) == ([], 1)
    assert int_form((F(1, 2), F(-2, 3), F(5))) == ([3, -4, 30], 6)
    # _from_ints takes monomial numerators; the basis only tags the reading
    p = Polynomial._from_ints([2, -6, 4, 0, 0], 4, POCHHAMMER)
    assert (p.nums, p.den) == ((1, -3, 2), 2)
    assert p.monomial_coeffs() == (F(1, 2), F(-3, 2), F(1))
    # x^2 = (x)_2 + (x)_1, so 1/2 - 3/2 x + x^2 = 1/2 - 1/2 (x)_1 + (x)_2
    assert (p.coeffs, p.basis) == ((F(1, 2), F(-1, 2), F(1)), POCHHAMMER)
    assert p == Polynomial([F(1, 2), F(-3, 2), 1])
    assert p == Polynomial([F(1, 2), F(-1, 2), 1], POCHHAMMER)
    q = Polynomial._from_ints([2, -4], -6)
    assert (q.nums, q.den) == ((-1, 2), 3)
    assert Polynomial._from_ints([0, 0], 3).is_zero
    assert (Polynomial._from_ints([0, 0], 3).nums,
            Polynomial._from_ints([0, 0], 3).den) == ((), 1)
