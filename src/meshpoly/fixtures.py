"""Seeded, replayable fixture generation.

Every random object in a campaign is a pure function of
(master_seed, *indices): the indices are hashed into an independent
stream, so trials can run in any order or in parallel and still
reproduce bit-for-bit.  Fixtures are built, in integers, from explicit
rational roots (first root uniform in a range, then gaps of at least
the class bound), so their exact mesh is known by construction.  Before
a fixture is handed out, its construction data prove it in its class
(RootedFixture.proves), also in integers; no root is decided again.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import intpoly
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
    return Fraction(*_draw(rng, as_fraction(lo), as_fraction(hi),
                           denominators))


def _draw(rng: random.Random, lo, hi,
          denominators: Sequence[int] = _DENOMS) -> tuple[int, int]:
    """rand_fraction's draw for int or Fraction ends, as an unreduced
    (num, den): lo itself when no num/den with den drawn lies in [lo, hi]."""
    den = rng.choice(denominators)
    a = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
    b = hi.numerator * den // hi.denominator      # floor(hi*den)
    if a > b:
        return lo.numerator, lo.denominator
    return rng.randint(a, b), den


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
        an, ad = alpha.numerator, alpha.denominator
        pq = [(r.numerator, r.denominator) for r in self.roots]
        for (p, q), (p2, q2) in zip(pq, pq[1:]):
            # p2/q2 - p/q >= alpha, times q * q2 * ad; as alpha >= 0, this
            # also puts the roots in nondecreasing order
            if (p2 * q - p * q2) * ad < an * q * q2:
                return False
        if spec.require_nonneg_roots and pq and pq[0][0] < 0:
            return False
        product = [self.lead.numerator]
        scale = self.lead.denominator
        for p, q in pq:
            product = [q * c - p * e for c, e in
                       zip([0] + product, product + [0])]
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
    further on, as integers n_i over one d that every draw and the gap
    divide; poly is lead * prod (d x - n_i) / d**degree.  Before release,
    its roots and lead prove it in spec in integers from each root's
    reduced p/q (RootedFixture.proves); a failure is a generator bug,
    raised even under python -O.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lead = as_fraction(rng.choice(_LEADS))
    nums, den = [lead.numerator], lead.denominator
    roots = []
    if degree:
        hi = as_fraction(root_range)
        jitter = as_fraction(jitter)
        gap = _least_gap(spec)
        lo = 0 if spec.require_nonneg_roots else -hi
        d = math.lcm(gap.denominator, hi.denominator, *_DENOMS)
        step = gap.numerator * (d // gap.denominator)
        n = -step  # the first root takes no gap
        for i in range(degree):
            p, q = _draw(rng, 0, jitter) if i else _draw(rng, lo, hi)
            n += step + p * (d // q)
            nums = intpoly.mul(nums, [-n, d])
            roots.append(Fraction(n, d))
        den *= d ** degree
    fx = RootedFixture(Polynomial._from_ints(nums, den), tuple(roots), lead)
    if not fx.proves(spec):
        raise AssertionError(f"fixture with roots {roots} outside {spec.label}")
    return fx


def gen_fixture(spec: ClassSpec, degree: int, rng: random.Random,
                root_range=12, jitter=2) -> Polynomial:
    """The polynomial alone; see gen_rooted for the construction contract."""
    return gen_rooted(spec, degree, rng, root_range=root_range,
                      jitter=jitter).poly
