"""Finite difference operators, diagonal sequences, and related constructions.

An operator is a finite sum T(p)(x) = sum_s q_s(x) * p(x - s).  Integer
shifts s >= 0 give the classical form q_0(x)p(x) + q_1(x)p(x-1) + ...;
rational shifts are allowed so that the two-term family p - lambda*p(x-alpha)
is expressible for non-integer alpha.  Constant-coefficient operators with
integer shifts carry a symbol polynomial Q(t) = a_0 + a_1 t + ... + a_k t^k,
and composition of such operators multiplies symbols.

apply reads T(p) from this definition, in integers.  With p = P/d of
degree m, the shifts s = S/V over one V and the q_s = Q_s/e over one e,

    d e V^m T(p) = sum_s Q_s(x) [V^m P(x - S/V)],

and each bracket is one in-place Taylor shift (intpoly.taylor_shift):
m (m + 1) / 2 steps that each multiply by S, none when S = 0.  The
Polya-Schur form sum_k M_k(x) D^k / k! with moments M_k = sum_s q_s(x)
(-s)^k (Borcea-Branden 2009) gives the same image, but its Taylor
table multiplies every coefficient of p by a binomial, O(m^2) products
of two growing integers.

The bullet product works in the falling-factorial basis.  There
forward^k (x)_i = i!/(i-k)! (x)_(i-k), so with p = sum a_i (x)_i and
q = sum b_i (x)_i, (forward^k p)(0) = k! a_k and the product is
sum_j r_j (x)_j with r_j = sum_k k! a_k b_(j+d-k) (j+d-k)!/j!.

These kernels read a polynomial's stored numerators and denominator
(see poly) directly; all results are tagged with the monomial basis.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce

from .poly import (MONOMIAL, POCHHAMMER, Polynomial, _restate, as_fraction,
                   int_form, rational_text)
from . import intpoly

__all__ = [
    "FiniteDifferenceOperator",
    "DiagonalSequence",
    "make_standard",
    "symbol",
    "from_symbol",
    "diagonal_apply",
    "brenti_map",
    "bullet_product",
    "sequence_from_poly",
    "pochhammer_cofactor",
]

def _as_poly(c: Polynomial | Fraction | int | str) -> Polynomial:
    if isinstance(c, Polynomial):
        return c
    return Polynomial.constant(as_fraction(c))


class FiniteDifferenceOperator:
    """T(p)(x) = sum over terms (shift, q) of q(x) * p(x - shift)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[tuple]):
        merged: dict = {}
        for shift, coeff in terms:
            s = as_fraction(shift)
            q = _as_poly(coeff)
            if s in merged:
                merged[s] = merged[s] + q
            else:  # tagged monomial, as a sum is
                merged[s] = q if q.basis == MONOMIAL else q.to_basis(MONOMIAL)
        cleaned = sorted((s, q) for s, q in merged.items() if not q.is_zero)
        self.terms = tuple(cleaned)

    @staticmethod
    def from_coeffs(coeffs: Sequence[Polynomial | Fraction | int | str]
                    ) -> "FiniteDifferenceOperator":
        """Build from (q_0, q_1, ..., q_k) at integer shifts 0..k."""
        return FiniteDifferenceOperator(
            (j, _as_poly(c)) for j, c in enumerate(coeffs))

    @property
    def order(self):
        """Largest shift with nonzero coefficient (an int when integral)."""
        if not self.terms:
            return 0
        s = self.terms[-1][0]
        return int(s) if s.denominator == 1 else s

    @property
    def constant_coefficients(self) -> bool:
        return all(q.degree <= 0 for _, q in self.terms)

    @property
    def integer_shifts(self) -> bool:
        return all(s.denominator == 1 and s.numerator >= 0
                   for s, _ in self.terms)

    @property
    def coeffs(self) -> list:
        """(q_0, ..., q_k) for integer-shift operators; gaps filled with 0."""
        if not self.integer_shifts:
            raise ValueError("coefficient list needs integer shifts >= 0")
        if not self.terms:
            return [Polynomial.zero()]
        k = int(self.terms[-1][0])
        out = [Polynomial.zero()] * (k + 1)
        for s, q in self.terms:
            out[int(s)] = q
        return out

    @property
    def nonzero_coefficient_count(self) -> int:
        return len(self.terms)

    def apply(self, p: Polynomial) -> Polynomial:
        """T(p) from its definition, one Taylor shift of p per term, in
        the integer form of the module docstring."""
        P = p.nums
        if not P or not self.terms:
            return Polynomial.zero()
        V = reduce(math.lcm, (s.denominator for s, _ in self.terms), 1)
        e = reduce(math.lcm, (q.den for _, q in self.terms), 1)
        out = [0] * (len(P) + max(len(q.nums) for _, q in self.terms) - 1)
        for s, q in self.terms:
            shifted = intpoly.taylor_shift(
                P, s.numerator * (V // s.denominator), V)
            w = e // q.den
            for i, c in enumerate(q.nums):
                if c:
                    c *= w
                    for j, b in enumerate(shifted, i):
                        out[j] += c * b
        return Polynomial._from_ints(out, p.den * e * V ** (len(P) - 1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDifferenceOperator):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"{q}@{rational_text(s)}" for s, q in self.terms)
        return f"FiniteDifferenceOperator({inner})"


def make_standard(kind: str, lam=None, alpha=None) -> FiniteDifferenceOperator:
    """Named operator families.

    delta            p(x) - p(x-1)
    nabla_conjugate  p(x+1) - p(x), the forward companion of delta
    riesz            p(x) - lam * p(x - alpha), alpha >= 0 rational
    w_lambda         p(x) + lam * x * (p(x) - p(x-1))
    euler_xdelta     x * (p(x) - p(x-1))
    """
    x = Polynomial.x()
    if kind == "delta":
        return FiniteDifferenceOperator([(0, 1), (1, -1)])
    if kind == "nabla_conjugate":
        return FiniteDifferenceOperator([(-1, 1), (0, -1)])
    if kind == "riesz":
        if lam is None or alpha is None:
            raise ValueError("riesz needs lam and alpha")
        a = as_fraction(alpha)
        if a < 0:
            raise ValueError("riesz needs alpha >= 0")
        return FiniteDifferenceOperator([(0, 1), (a, -as_fraction(lam))])
    if kind == "w_lambda":
        if lam is None:
            raise ValueError("w_lambda needs lam")
        l = as_fraction(lam)
        return FiniteDifferenceOperator([(0, Polynomial.constant(1) + x * l),
                                         (1, x * (-l))])
    if kind == "euler_xdelta":
        return FiniteDifferenceOperator([(0, x), (1, -x)])
    raise ValueError(f"unknown operator kind: {kind!r}")


def symbol(T: FiniteDifferenceOperator) -> Polynomial:
    """Q(t) = sum a_j t^j for a constant-coefficient integer-shift operator."""
    if not T.constant_coefficients:
        raise ValueError("symbol requires constant coefficients")
    if not T.integer_shifts:
        raise ValueError("symbol requires integer shifts >= 0")
    coeffs = [q.coefficient(0) for q in T.coeffs]
    return Polynomial(coeffs)


def from_symbol(Q: Polynomial) -> FiniteDifferenceOperator:
    """Constant-coefficient operator whose symbol is Q, built from Q's
    stored numerators: the term at shift j is the constant Q.nums[j] /
    Q.den, and zero coefficients give no term."""
    return FiniteDifferenceOperator(
        (j, Polynomial._from_ints((c,), Q.den)) for j, c in enumerate(Q.nums)
        if c)


class DiagonalSequence:
    """Multipliers alpha_i of the diagonal action (x)_i -> alpha_i (x)_i.

    Backed either by a finite table of values or by a polynomial rule
    alpha_i = phi(i); the rule form is defined at every index.
    """

    __slots__ = ("values", "phi")

    def __init__(self, values: tuple | None = None,
                 phi: Polynomial | None = None):
        if (values is None) == (phi is None):
            raise ValueError("give exactly one of values or phi")
        self.values = values
        self.phi = phi

    @staticmethod
    def from_values(values: Iterable) -> "DiagonalSequence":
        return DiagonalSequence(values=tuple(as_fraction(v) for v in values))

    @staticmethod
    def from_rule(phi: Polynomial) -> "DiagonalSequence":
        return DiagonalSequence(phi=phi)

    def defined_up_to(self, n: int) -> bool:
        return self.phi is not None or len(self.values) > n

    def alpha(self, i: int) -> Fraction:
        if self.phi is not None:
            return self.phi.evaluate(Fraction(i))
        if i >= len(self.values):
            raise IndexError(f"sequence defined only up to index {len(self.values) - 1}")
        return self.values[i]

    def prefix(self, n: int) -> list:
        return [self.alpha(i) for i in range(n)]

    def __repr__(self) -> str:
        if self.phi is not None:
            return f"DiagonalSequence(phi={self.phi})"
        values = [rational_text(v) for v in self.values]
        return f"DiagonalSequence(values={values})"


def diagonal_apply(A: DiagonalSequence, p: Polynomial) -> Polynomial:
    """Multiply the i-th Pochhammer coefficient of p by alpha_i."""
    if p.is_zero:
        return Polynomial.zero()
    n = int(p.degree)
    if not A.defined_up_to(n):
        raise IndexError(f"sequence too short for degree {n}")
    alphas, e = int_form(A.prefix(n + 1))
    scaled = [a * c for a, c in zip(alphas, _restate(p.nums, POCHHAMMER))]
    return Polynomial._from_ints(_restate(scaled, MONOMIAL), p.den * e)


def brenti_map(p: Polynomial) -> Polynomial:
    """The linear map x^i -> (x)_i applied coefficient-wise."""
    return Polynomial._from_ints(_restate(p.nums, MONOMIAL), p.den)


def bullet_product(p: Polynomial, q: Polynomial, d: int) -> Polynomial:
    """(p . q)(x) = sum_{k=0}^{d} (forward^k p)(0) * (forward^{d-k} q)(x).

    Both inputs must have degree <= d; the product depends on d.  It is
    computed from the falling-factorial coefficients, as in the module
    docstring.
    """
    if p.degree > d or q.degree > d:
        raise ValueError(f"degree bound {d} violated")
    A = _restate(p.nums, POCHHAMMER)
    B = _restate(q.nums, POCHHAMMER)
    r = [0] * max(len(A) + len(B) - 1 - d, 0)
    for k, a in enumerate(A):
        if a:
            m = d - k  # forward^m (x)_i = perm(i, m) (x)_(i-m)
            a *= math.factorial(k)
            for i in range(m, len(B)):
                r[i - m] += a * B[i] * math.perm(i, m)
    return Polynomial._from_ints(_restate(r, MONOMIAL), p.den * q.den)


def sequence_from_poly(phi: Polynomial, length: int) -> DiagonalSequence:
    """Table alpha_i = phi(i) for a hyperbolic phi with all roots <= 0.

    The root condition forces phi(i) >= 0 for every i >= 0 and is what
    makes the resulting sequence a preserver; a violating root is reported.
    By Descartes' rule, a real-rooted phi has no positive root exactly when
    no coefficient has the sign opposite to its lead.
    """
    # imported here, the one reader in operators, so apply loads no roots
    from . import roots

    if phi.is_zero:
        raise ValueError("phi must be nonzero")
    if phi.degree >= 1:
        if not roots.is_hyperbolic(phi):
            raise ValueError("phi must be hyperbolic")
        f = phi.nums
        if (min(f) < 0) if f[-1] > 0 else (max(f) > 0):
            bad = [n for n in roots.root_data(phi) if n.side(0, 1) > 0]
            near = roots.approximations(bad[:1], Fraction(1, 10**6))[0]
            raise ValueError(
                f"phi has a root near {near} > 0; all roots must be <= 0")
    return DiagonalSequence.from_values(
        phi.evaluate(Fraction(i)) for i in range(length))


def pochhammer_cofactor(T: FiniteDifferenceOperator, i: int) -> Polynomial:
    """R_i with T((x)_i) = (x-k)(x-k-1)...(x-i+1) * R_i, k = order of T.

    For T = sum_s a_s E^(-s), the term a_s (x-s)_i of T((x)_i) is a_s
    times x - j for s <= j <= s+i-1.  As 0 <= s <= k, every j in k..i-1
    is in that range, so those factors are common to all terms.  R_i sums
    a_s times the other factors (j < k or j >= i), built in integers over
    one common denominator without forming the image; its degree is at
    most min(i, k).  For i <= k nothing is common and R_i = T((x)_i).
    """
    if i < 0:
        raise ValueError("falling factorial index must be non-negative")
    if not (T.constant_coefficients and T.integer_shifts):
        raise ValueError("cofactor is defined for constant-coefficient operators")
    k = int(T.order)
    # each q is a nonzero constant nums[0] / den, read over one denominator
    den = reduce(math.lcm, (q.den for _, q in T.terms), 1)
    nums = [q.nums[0] * (den // q.den) for _, q in T.terms]
    R = [0] * (min(i, k) + 1)
    for (s, _), a in zip(T.terms, nums):
        s, term = int(s), [a]
        for j in [*range(s, min(s + i, k)), *range(max(k, i), s + i)]:
            term = intpoly.mul(term, [-j, 1])
        for d, c in enumerate(term):
            R[d] += c
    return Polynomial._from_ints(R, den)
