"""Seeded, replayable fixture generation.

Every random object in a campaign is a pure function of
(master_seed, *indices): the indices are hashed into an independent
stream, so trials can run in any order or in parallel and still
reproduce bit-for-bit.  Fixtures are built from explicit rational roots
(first root uniform in a range, then gaps of at least the class bound),
so their exact mesh is known by construction.  Before a fixture is
handed out, its construction data prove it in its class, in integers
(RootedFixture.proves); no root of the polynomial is decided again.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .interlace import ClassSpec
from .poly import Polynomial, as_fraction
from .roots import INF

__all__ = [
    "derive_rng",
    "rand_fraction",
    "RootedFixture",
    "gen_rooted",
    "gen_fixture",
]

_DENOMS = (1, 2, 3, 4, 6, 8)
_LEADS = (1, 1, 1, 2, 3, Fraction(1, 2), Fraction(3, 4), Fraction(5, 2))


def derive_rng(master_seed: int, *indices) -> random.Random:
    """Independent RNG stream for a (seed, index...) coordinate."""
    key = ":".join([str(master_seed)] + [str(i) for i in indices])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rand_fraction(rng: random.Random, lo, hi,
                  denominators: Sequence[int] = _DENOMS) -> Fraction:
    """Uniform-ish rational in [lo, hi] with a small denominator."""
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    den = rng.choice(denominators)
    a = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
    b = hi.numerator * den // hi.denominator      # floor(hi*den)
    if a > b:
        return lo
    return Fraction(rng.randint(a, b), den)


@dataclass(frozen=True)
class RootedFixture:
    """A polynomial with its construction data: sorted rational roots."""

    poly: Polynomial
    roots: tuple
    lead: Fraction

    @property
    def exact_mesh(self):
        """Minimal gap between adjacent roots; +inf for degree <= 1."""
        if len(self.roots) <= 1:
            return INF
        return min(b - a for a, b in zip(self.roots, self.roots[1:]))

    def proves(self, spec: ClassSpec) -> bool:
        """Integer proof from the attached roots and lead that poly is in spec.

        Holds when the roots are nondecreasing with every adjacent gap at
        least a positive mesh bound, the first root is >= 0 if spec asks
        for it, and poly == lead * prod (x - p_i/q_i), compared on poly's
        stored numerators over den as lead.numerator * prod (q_i x - p_i)
        * den == nums * lead.denominator * prod q_i.  Then poly has exactly these roots, so its mesh is the
        least gap and its least root the first.
        """
        alpha = _least_gap(spec)
        for a, b in zip(self.roots, self.roots[1:]):
            # b - a >= alpha, times a.den * b.den * alpha.den; as alpha >= 0,
            # this also puts the roots in nondecreasing order
            ad, bd = a.denominator, b.denominator
            if (b.numerator * ad - a.numerator * bd) * alpha.denominator \
                    < alpha.numerator * ad * bd:
                return False
        if spec.require_nonneg_roots and self.roots \
                and self.roots[0].numerator < 0:
            return False
        product = [self.lead.numerator]
        scale = self.lead.denominator
        for r in self.roots:
            p, q = r.numerator, r.denominator
            product = [qc - p * c for qc, c in
                       zip([0] + [q * c for c in product], product + [0])]
            scale *= q
        nums, den = self.poly.nums, self.poly.den
        return len(nums) == len(product) and all(
            c * scale == m * den for c, m in zip(nums, product))


def _least_gap(spec: ClassSpec) -> Fraction:
    """The adjacent root gap spec asks for: its mesh bound if positive,
    else 0 (every mesh is >= 0, so a bound <= 0 asks for nothing)."""
    bound = spec.mesh_bound
    return bound if bound is not None and bound > 0 else Fraction(0)


def gen_rooted(spec: ClassSpec, degree: int, rng: random.Random,
               root_range=12, jitter=2) -> RootedFixture:
    """Fixture provably inside spec, with its exact roots attached.

    First root uniform in the admissible range, each later root one class
    gap (a positive mesh bound, or 0) plus a non-negative rational jitter
    further on.  Before the fixture is released, its roots and lead prove
    its membership in integers (RootedFixture.proves), independently of
    the product in Polynomial.from_roots that built the polynomial; a failure here is a
    generator bug, raised even under python -O.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lead = as_fraction(rng.choice(_LEADS))
    if degree == 0:
        fx = RootedFixture(Polynomial.constant(lead), (), lead)
        if not fx.proves(spec):
            raise AssertionError(f"degree-0 fixture outside {spec.label}")
        return fx
    root_range = as_fraction(root_range)
    base_gap = _least_gap(spec)
    lo = Fraction(0) if spec.require_nonneg_roots else -root_range
    r = rand_fraction(rng, lo, root_range)
    roots = [r]
    for _ in range(degree - 1):
        r = r + base_gap + rand_fraction(rng, 0, jitter)
        roots.append(r)
    fx = RootedFixture(Polynomial.from_roots(roots, lead=lead), tuple(roots),
                       lead)
    if not fx.proves(spec):
        raise AssertionError(f"fixture with roots {roots} outside {spec.label}")
    return fx


def gen_fixture(spec: ClassSpec, degree: int, rng: random.Random,
                root_range=12, jitter=2) -> Polynomial:
    """The polynomial alone; see gen_rooted for the construction contract."""
    return gen_rooted(spec, degree, rng, root_range=root_range,
                      jitter=jitter).poly
