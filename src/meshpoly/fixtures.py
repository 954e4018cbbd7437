"""Seeded, replayable fixture generation.

Every random object in a campaign is a pure function of
(master_seed, *indices): the indices are hashed into an independent
stream, so trials can run in any order or in parallel and still
reproduce bit-for-bit.  Fixtures are built from explicit rational roots
(first root uniform in a range, then gaps of at least the class bound),
so their exact mesh is known by construction, and each one is verified
against its class before being handed out.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .interlace import ClassSpec, class_membership
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

    @property
    def min_root(self) -> Optional[Fraction]:
        return self.roots[0] if self.roots else None


def gen_rooted(spec: ClassSpec, degree: int, rng: random.Random,
               root_range=12, jitter=2) -> RootedFixture:
    """Fixture provably inside spec, with its exact roots attached.

    First root uniform in the admissible range, each later root one class
    gap (mesh bound, or 0) plus a non-negative rational jitter further on.
    Membership is re-verified through the public predicate before the
    fixture is released; a failure here is a generator bug.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lead = rng.choice(_LEADS)
    if degree == 0:
        poly = Polynomial.constant(lead)
        if not class_membership(poly, spec):
            raise AssertionError(f"degree-0 fixture outside {spec.label}")
        return RootedFixture(poly, (), as_fraction(lead))
    root_range = as_fraction(root_range)
    base_gap = spec.mesh_bound if spec.mesh_bound is not None else Fraction(0)
    lo = Fraction(0) if spec.require_nonneg_roots else -root_range
    r = rand_fraction(rng, lo, root_range)
    roots = [r]
    for _ in range(degree - 1):
        r = r + base_gap + rand_fraction(rng, 0, jitter)
        roots.append(r)
    poly = Polynomial.from_roots(roots, lead=lead)
    if not class_membership(poly, spec):
        raise AssertionError(f"fixture with roots {roots} outside {spec.label}")
    return RootedFixture(poly, tuple(roots), as_fraction(lead))


def gen_fixture(spec: ClassSpec, degree: int, rng: random.Random,
                root_range=12, jitter=2) -> Polynomial:
    """The polynomial alone; see gen_rooted for the construction contract."""
    return gen_rooted(spec, degree, rng, root_range=root_range,
                      jitter=jitter).poly
