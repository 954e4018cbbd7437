"""Exact univariate polynomial arithmetic over the rationals.

A Polynomial stores one canonical form: nums, the integer numerators of
its ascending monomial coefficients, over one denominator den, with
den > 0, gcd(den, *nums) == 1 and trailing zeros trimmed, so equal
polynomials store equal (nums, den).  Arithmetic runs on these integers
through the intpoly kernels.  The basis tag only names the basis that
coeffs reads in and the wire format writes in: ordinary powers of x
(monomial) or the falling factorials (x)_i = x(x-1)...(x-i+1)
(pochhammer), restated from nums at read time by one in-place integer
loop per direction (_restate), with no table kept between calls.
Floating point never enters any computation in this module.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import reduce

from . import intpoly

MONOMIAL = "monomial"
POCHHAMMER = "pochhammer"

#: degree assigned to the zero polynomial, so degree inequalities stay valid
NEG_INF = float("-inf")


def as_fraction(value: Fraction | int | str) -> Fraction:
    """Coerce ints, 'num/den' strings and Fractions to Fraction.

    Floats are rejected on purpose: the library is exact.  So are bools,
    although bool is an int subclass: True is not the rational 1.
    The int test comes first: isinstance against Fraction returns at once
    for an exact Fraction, but runs the ABC machinery of numbers.Rational
    for anything else, about six times the cost of an int test.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return _parse_fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# CPython refuses int <-> str conversion of more decimal digits than
# sys.get_int_max_str_digits() (4,300 by default); the functions below
# split a longer number at a power of 10 into parts it converts, and
# leave the interpreter's limit as it is.

def int_text(n: int) -> str:
    """str(n), for any number of digits: the same text."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_text(-n)
    k = n.bit_length() * 3 // 20  # about half the digits
    hi, lo = divmod(n, 10 ** k)
    return int_text(hi) + int_text(lo).zfill(k)


def _digits_int(s: str) -> int:
    """int(s) for a string of decimal digits of any length."""
    try:
        return int(s)
    except ValueError:
        k = len(s) // 2
        return _digits_int(s[:-k]) * 10 ** k + _digits_int(s[-k:])


def _parse_fraction(s: str) -> Fraction:
    """Fraction(s), also for an integer or 'num/den' whose parts have
    more digits than Fraction converts."""
    try:
        return Fraction(s)
    except ValueError:
        m = re.fullmatch(r"\s*([+-]?)(\d+)(?:/(\d+))?\s*", s)
        if m is None:
            raise
    num = _digits_int(m[2])
    return Fraction(-num if m[1] == "-" else num, _digits_int(m[3] or "1"))


def rational_text(x: Fraction) -> str:
    """str(x), for any number of digits."""
    if x.denominator == 1:
        return int_text(x.numerator)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def _restate(nums: Sequence[int], basis: str) -> list[int]:
    """Integer coefficients in the other basis restated in basis.

    Into the monomial basis, sum_i b_i (x)_i = b_0 + x(b_1 + (x - 1)(b_2
    + (x - 2)(...))) is multiplied out from the inside (nested Horner);
    into the pochhammer basis the inverse divides by x - 1, x - 2, ...
    in turn (synthetic division).  Both run in place on a copy, and the
    length is kept: (x)_i and x^i both lead with 1.
    """
    out = list(nums)
    n = len(out)
    if basis == MONOMIAL:
        for i in range(n - 2, 0, -1):
            for j in range(i, n - 1):
                out[j] -= i * out[j + 1]
    else:
        for i in range(1, n - 1):
            for j in range(n - 2, i - 1, -1):
                out[j] += i * out[j + 1]
    return out


def int_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(nums, den) with coeffs[i] == nums[i] / den and den > 0 the least
    common denominator."""
    den = reduce(math.lcm, (c.denominator for c in coeffs), 1)
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _canonical(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den (den != 0) with trailing zeros trimmed, den > 0 and
    gcd(den, *nums) == 1."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if not n:
        return (), 1
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums[:n]), den
    return tuple(c // g for c in nums[:n]), den // g


class Polynomial:
    """Immutable exact polynomial tagged with the basis its coefficients
    read in.

    coeffs reads ascending by index with trailing zeros trimmed, so the
    zero polynomial has an empty coefficient tuple and degree NEG_INF in
    every basis.  Equality and hashing see only the stored (nums, den),
    so they agree across bases.
    """

    __slots__ = ("nums", "den", "basis")

    def __init__(self, coeffs: Iterable[Fraction | int | str] = (),
                 basis: str = MONOMIAL):
        if basis not in (MONOMIAL, POCHHAMMER):
            raise ValueError(f"unknown basis: {basis!r}")
        nums, den = int_form([as_fraction(c) for c in coeffs])
        if basis == POCHHAMMER:
            nums = _restate(nums, MONOMIAL)
        self.nums, self.den = _canonical(nums, den)
        self.basis = basis

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial(())

    @staticmethod
    def constant(c: Fraction | int | str) -> "Polynomial":
        return Polynomial((c,))

    @staticmethod
    def x() -> "Polynomial":
        return Polynomial((0, 1))

    @staticmethod
    def from_roots(roots: Sequence[Fraction | int | str],
                   lead: Fraction | int | str = 1) -> "Polynomial":
        """Monic-up-to-lead product lead * prod (x - r).

        An empty root list gives the constant lead.
        """
        lead = as_fraction(lead)
        if lead == 0:
            raise ValueError("leading coefficient must be non-zero")
        nums, den = [lead.numerator], lead.denominator
        for r in roots:
            r = as_fraction(r)
            # x - p/q = (q x - p) / q
            nums = intpoly.mul(nums, [-r.numerator, r.denominator])
            den *= r.denominator
        return Polynomial._from_ints(nums, den)

    @staticmethod
    def falling_factorial(n: int) -> "Polynomial":
        """(x)_n = x(x-1)...(x-n+1), expressed in the pochhammer basis."""
        if n < 0:
            raise ValueError("falling factorial index must be non-negative")
        return Polynomial._from_ints(_restate([0] * n + [1], MONOMIAL), 1,
                                     POCHHAMMER)

    @staticmethod
    def _from_ints(nums: Sequence[int], den: int,
                   basis: str = MONOMIAL) -> "Polynomial":
        """The polynomial sum_i nums[i] x^i / den (den != 0), read in basis."""
        p = object.__new__(Polynomial)
        p.nums, p.den = _canonical(nums, den)
        p.basis = basis
        return p

    # -- basic queries -----------------------------------------------

    def basis_nums(self) -> Sequence[int]:
        """The coefficients in self.basis as integers over self.den,
        ascending by index (not reduced against den)."""
        if self.basis == MONOMIAL:
            return self.nums
        return _restate(self.nums, POCHHAMMER)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients in self.basis, ascending by index."""
        return tuple(Fraction(c, self.den) for c in self.basis_nums())

    @property
    def is_zero(self) -> bool:
        return not self.nums

    @property
    def degree(self):
        return len(self.nums) - 1 if self.nums else NEG_INF

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self.nums[-1], self.den) if self.nums else Fraction(0)

    def coefficient(self, i: int) -> Fraction:
        coeffs = self.coeffs
        return coeffs[i] if 0 <= i < len(coeffs) else Fraction(0)

    # -- basis handling ----------------------------------------------

    def to_basis(self, basis: str) -> "Polynomial":
        if basis not in (MONOMIAL, POCHHAMMER):
            raise ValueError(f"unknown basis: {basis!r}")
        if basis == self.basis:
            return self
        return Polynomial._from_ints(self.nums, self.den, basis)

    def monomial_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        out = [c * sa for c in self.nums]
        out += [0] * (len(other.nums) - len(out))
        for i, c in enumerate(other.nums):
            out[i] += c * sb
        basis = self.basis if self.basis == other.basis else MONOMIAL
        return Polynomial._from_ints(out, self.den * sa, basis)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints([-c for c in self.nums], self.den, self.basis)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return Polynomial._from_ints(intpoly.mul(self.nums, other.nums),
                                         self.den * other.den)
        c = as_fraction(other)
        return Polynomial._from_ints([c.numerator * n for n in self.nums],
                                     c.denominator * self.den, self.basis)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- calculus and shifts ------------------------------------------

    def evaluate(self, x0: Fraction | int | str) -> Fraction:
        x0 = as_fraction(x0)
        if not self.nums:
            return Fraction(0)
        # homogeneous Horner: acc = m^d * sum_i nums[i] (n/m)^i, d = degree
        n, m = x0.numerator, x0.denominator
        nums = self.nums
        acc, mk = nums[-1], 1
        for i in range(len(nums) - 2, -1, -1):
            mk *= m
            acc = acc * n + nums[i] * mk
        return Fraction(acc, self.den * mk)

    __call__ = evaluate

    def derivative(self) -> "Polynomial":
        return Polynomial._from_ints(intpoly.deriv(self.nums), self.den)

    def shift(self, a: Fraction | int | str) -> "Polynomial":
        """Return p(x - a): the graph slides right by a for a > 0, read
        as q**n p(x - a) (intpoly.taylor_shift) over q**n for n = deg p
        and q the denominator of a."""
        a = as_fraction(a)
        q = a.denominator
        return Polynomial._from_ints(
            intpoly.taylor_shift(self.nums, a.numerator, q),
            self.den * q ** max(len(self.nums) - 1, 0))

    # -- display -------------------------------------------------------

    def __repr__(self) -> str:
        return (f"Polynomial({[rational_text(c) for c in self.coeffs]}, "
                f"basis={self.basis!r})")

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = rational_text(abs(c))
            else:
                mag = abs(c)
                coef = "" if mag == 1 else f"{rational_text(mag)}*"
                if self.basis == MONOMIAL:
                    term = f"{coef}x" if i == 1 else f"{coef}x^{i}"
                else:
                    term = f"{coef}(x)_{i}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)
