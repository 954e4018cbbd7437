"""Exact univariate polynomial arithmetic over the rationals.

Polynomials carry their coefficient basis: either ordinary powers of x
(monomial) or the falling factorials (x)_i = x(x-1)...(x-i+1)
(pochhammer).  Coefficients are stored as fractions.Fraction; basis
conversion runs on integer numerators over one common denominator
(int_form, Polynomial._from_ints).  Floating point never enters any
computation in this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

MONOMIAL = "monomial"
POCHHAMMER = "pochhammer"

#: degree assigned to the zero polynomial, so degree inequalities stay valid
NEG_INF = float("-inf")

RatLike = Union[Fraction, int, str]


def as_fraction(value: RatLike) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction.

    Floats are rejected on purpose: the library is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


@lru_cache(maxsize=None)
def _stirling1_row(n: int) -> tuple[int, ...]:
    # row[k] is the signed Stirling number of the first kind s(n, k):
    # (x)_n = sum_k row[k] x^k, built from (x)_n = (x - (n-1)) (x)_{n-1}
    if n == 0:
        return (1,)
    prev = _stirling1_row(n - 1)
    row = [0] * (n + 1)
    for k, c in enumerate(prev):
        row[k + 1] += c
        row[k] -= (n - 1) * c
    return tuple(row)


@lru_cache(maxsize=None)
def _stirling2_row(n: int) -> tuple[int, ...]:
    # row[k] is the Stirling number of the second kind S(n, k):
    # x^n = sum_k row[k] (x)_k, built from x (x)_k = (x)_{k+1} + k (x)_k
    if n == 0:
        return (1,)
    prev = _stirling2_row(n - 1)
    row = [0] * (n + 1)
    for k, c in enumerate(prev):
        row[k + 1] += c
        row[k] += k * c
    return tuple(row)


def _restate(nums: Sequence[int], basis: str) -> list[int]:
    """Integer coefficients in the other basis restated in basis.

    Into the monomial basis each (x)_i expands by the Stirling row s(i, .);
    into the pochhammer basis each x^i by the row S(i, .).  The length is
    kept: (x)_i and x^i both lead with 1.
    """
    row = _stirling1_row if basis == MONOMIAL else _stirling2_row
    out = [0] * len(nums)
    for i, c in enumerate(nums):
        if c:
            for k, s in enumerate(row(i)):
                out[k] += c * s
    return out


def int_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with coeffs[i] == nums[i] / den and den > 0 the least
    common denominator."""
    den = reduce(math.lcm, (c.denominator for c in coeffs), 1)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def stirling_first(n: int, k: int) -> int:
    """Signed Stirling number of the first kind s(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("Stirling indices must be non-negative")
    row = _stirling1_row(n)
    return row[k] if k < len(row) else 0


def stirling_second(n: int, k: int) -> int:
    """Stirling number of the second kind S(n, k)."""
    if n < 0 or k < 0:
        raise ValueError("Stirling indices must be non-negative")
    row = _stirling2_row(n)
    return row[k] if k < len(row) else 0


class Polynomial:
    """Immutable exact polynomial tagged with its coefficient basis.

    coeffs are stored ascending by index with trailing zeros trimmed, so
    the zero polynomial has an empty coefficient tuple and degree NEG_INF
    in every basis.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, coeffs: Iterable[RatLike] = (), basis: str = MONOMIAL):
        if basis not in (MONOMIAL, POCHHAMMER):
            raise ValueError(f"unknown basis: {basis!r}")
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.basis = basis

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c: RatLike) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def from_roots(roots: Sequence[RatLike], lead: RatLike = 1) -> "Polynomial":
        """Monic-up-to-lead product lead * prod (x - r).

        An empty root list gives the constant lead.
        """
        lead = as_fraction(lead)
        if lead == 0:
            raise ValueError("leading coefficient must be non-zero")
        cs = [lead]
        for r in roots:
            r = as_fraction(r)
            cs.append(cs[-1])
            for j in range(len(cs) - 2, 0, -1):
                cs[j] = cs[j - 1] - r * cs[j]
            cs[0] = -r * cs[0]
        return Polynomial(cs)

    @staticmethod
    def falling_factorial(n: int) -> "Polynomial":
        """(x)_n = x(x-1)...(x-n+1), expressed in the pochhammer basis."""
        if n < 0:
            raise ValueError("falling factorial index must be non-negative")
        return Polynomial([0] * n + [1], POCHHAMMER)

    @staticmethod
    def _from_ints(nums: Sequence[int], den: int,
                   basis: str = MONOMIAL) -> "Polynomial":
        """The polynomial with coefficients nums[i] / den (den > 0) in basis."""
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        p = object.__new__(Polynomial)
        p.coeffs = tuple(Fraction(c, den) for c in nums[:n])
        p.basis = basis
        return p

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    # -- basis handling ----------------------------------------------

    def to_basis(self, basis: str) -> "Polynomial":
        if basis not in (MONOMIAL, POCHHAMMER):
            raise ValueError(f"unknown basis: {basis!r}")
        if basis == self.basis:
            return self
        nums, den = int_form(self.coeffs)
        return Polynomial._from_ints(_restate(nums, basis), den, basis)

    def _mono(self) -> "Polynomial":
        return self if self.basis == MONOMIAL else self.to_basis(MONOMIAL)

    def monomial_coeffs(self) -> tuple[Fraction, ...]:
        return self._mono().coeffs

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.basis == other.basis:
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            cs = list(a)
            for i, c in enumerate(b):
                cs[i] += c
            return Polynomial(cs, self.basis)
        return self._mono() + other._mono()

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs], self.basis)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            a = self._mono().coeffs
            b = other._mono().coeffs
            if not a or not b:
                return Polynomial.zero()
            cs = [Fraction(0)] * (len(a) + len(b) - 1)
            for i, ca in enumerate(a):
                if ca:
                    for j, cb in enumerate(b):
                        if cb:
                            cs[i + j] += ca * cb
            return Polynomial(cs)
        return Polynomial([as_fraction(other) * c for c in self.coeffs], self.basis)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.basis == other.basis:
            return self.coeffs == other.coeffs
        return self._mono().coeffs == other._mono().coeffs

    def __hash__(self):
        return hash(self.monomial_coeffs())

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- calculus and shifts ------------------------------------------

    def evaluate(self, x0: RatLike) -> Fraction:
        x0 = as_fraction(x0)
        if self.basis == MONOMIAL:
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * x0 + c
            return acc
        acc = Fraction(0)
        fact = Fraction(1)  # (x0)_i, updated incrementally
        for i, c in enumerate(self.coeffs):
            if i > 0:
                fact *= x0 - (i - 1)
            acc += c * fact
        return acc

    __call__ = evaluate

    def derivative(self) -> "Polynomial":
        cs = self._mono().coeffs
        return Polynomial([i * cs[i] for i in range(1, len(cs))])

    def shift(self, a: RatLike) -> "Polynomial":
        """Return p(x - a): the graph slides right by a for a > 0."""
        a = as_fraction(a)
        cs = list(self._mono().coeffs)
        n = len(cs)
        if a == 0 or n == 0:
            return Polynomial(cs)
        c = -a
        for i in range(n):
            for j in range(n - 2, i - 1, -1):
                cs[j] += c * cs[j + 1]
        return Polynomial(cs)

    # -- display -------------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({[str(c) for c in self.coeffs]}, basis={self.basis!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        var = "x" if self.basis == MONOMIAL else "(x)"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = abs(c)
                coef = "" if mag == 1 else f"{mag}*"
                if self.basis == MONOMIAL:
                    term = f"{coef}x" if i == 1 else f"{coef}x^{i}"
                else:
                    term = f"{coef}(x)_{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
