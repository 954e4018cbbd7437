"""Seeded, replayable fixture generation.

Every random object in a campaign is a pure function of
(master_seed, *indices): the indices are hashed into an independent
stream, so trials can run in any order or in parallel and still
reproduce bit-for-bit.  Fixtures are built, in integers, from explicit
rational roots (first root uniform in a range, then gaps of at least
the class bound), kept as integer numerators over one denominator, so
their exact mesh is known by construction.  Before a fixture is handed
out, those numerators and its lead prove it in its class (_proves), also
in integers; no root is decided again.  gen_fixture builds no Fraction
root; gen_rooted makes them after the proof, and RootedFixture.proves
checks attached roots by the same proof.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Sequence
from fractions import Fraction

from . import intpoly
from .interlace import ClassSpec, _Frozen
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
_LEADS = (*map(Fraction, (1, 1, 1, 2, 3)),
          Fraction(1, 2), Fraction(3, 4), Fraction(5, 2))


def derive_rng(master_seed: int, *indices) -> random.Random:
    """Independent RNG stream for a (seed, index...) coordinate."""
    key = ":".join([str(master_seed)] + [str(i) for i in indices])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def rand_fraction(rng: random.Random, lo, hi,
                  denominators: Sequence[int] = _DENOMS) -> Fraction:
    """Uniform-ish rational in [lo, hi] with a small denominator.

    int and Fraction ends are read as they are (both carry numerator and
    denominator); only other ends, 'num/den' strings, are coerced."""
    return Fraction(*_draw(rng, _rational(lo), _rational(hi), denominators))


def _rational(value):
    """value itself when it is an int, else as_fraction(value)."""
    return value if type(value) is int else as_fraction(value)


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


class RootedFixture(_Frozen):
    """A polynomial with its construction data: sorted rational roots."""

    __slots__ = ("poly", "roots", "lead")

    def __init__(self, poly: Polynomial, roots: tuple, lead: Fraction):
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "lead", lead)

    @property
    def exact_mesh(self):
        """Minimal gap between adjacent roots; +inf for degree <= 1."""
        if len(self.roots) <= 1:
            return INF
        return min(b - a for a, b in zip(self.roots, self.roots[1:]))

    def proves(self, spec: ClassSpec) -> bool:
        """Integer proof from the attached roots and lead that poly is in
        spec: the roots are passed to _proves as numerators over the lcm
        of their denominators."""
        d = math.lcm(*(r.denominator for r in self.roots))
        ns = [r.numerator * (d // r.denominator) for r in self.roots]
        return _proves(spec, ns, d, self.lead, self.poly)


def _proves(spec: ClassSpec, ns, d: int, lead: Fraction,
            poly: Polynomial) -> bool:
    """Integer proof that poly is in spec, from its roots n_i/d (d > 0)
    and its lead.

    Holds when the roots are nondecreasing with every adjacent gap at
    least a positive mesh bound, the first root is >= 0 if spec asks
    for it, and poly == lead * prod (x - n_i/d), compared on poly's
    stored numerators over den as lead.numerator * prod (d x - n_i) *
    den == nums * lead.denominator * d**k for k roots.  The product is
    formed here from the n_i, apart from any list a caller built poly
    from.  Then poly has exactly these roots, so its mesh is the least
    gap and its least root the first.
    """
    alpha = _least_gap(spec)
    an, ad = alpha.numerator, alpha.denominator
    for n, n2 in zip(ns, ns[1:]):
        # n2/d - n/d >= alpha, times d * ad; as alpha >= 0, this also
        # puts the roots in nondecreasing order
        if (n2 - n) * ad < an * d:
            return False
    if spec.require_nonneg_roots and ns and ns[0] < 0:
        return False
    product = [lead.numerator]
    for n in ns:
        product = [d * c - n * e for c, e in
                   zip([0] + product, product + [0])]
    scale = lead.denominator * d ** len(ns)
    nums, den = poly.nums, poly.den
    return len(nums) == len(product) and all(
        c * scale == m * den for c, m in zip(nums, product))


def _least_gap(spec: ClassSpec):
    """The adjacent root gap spec asks for: its mesh bound if positive,
    else the int 0 (every mesh is >= 0, so a bound <= 0 asks for
    nothing).  The sign is read from the numerator, an int comparison."""
    bound = spec.mesh_bound
    return bound if bound is not None and bound.numerator > 0 else 0


def _construct(spec: ClassSpec, degree: int, rng: random.Random,
               root_range, jitter) -> tuple:
    """(poly, ns, d, lead) of a fixture in spec with roots n_i/d, proved
    by _proves before it is returned; see gen_rooted."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lead = rng.choice(_LEADS)
    nums, den = [lead.numerator], lead.denominator
    ns, d = [], 1
    if degree:
        hi = _rational(root_range)
        jitter = _rational(jitter)
        gap = _least_gap(spec)
        lo = 0 if spec.require_nonneg_roots else -hi
        d = math.lcm(gap.denominator, hi.denominator, *_DENOMS)
        step = gap.numerator * (d // gap.denominator)
        n = -step  # the first root takes no gap
        for i in range(degree):
            p, q = _draw(rng, 0, jitter) if i else _draw(rng, lo, hi)
            n += step + p * (d // q)
            nums = intpoly.mul(nums, [-n, d])
            ns.append(n)
        den *= d ** degree
    poly = Polynomial._from_ints(nums, den)
    if not _proves(spec, ns, d, lead, poly):
        raise AssertionError(
            f"fixture with roots {ns} over {d} outside {spec.label}")
    return poly, ns, d, lead


def gen_rooted(spec: ClassSpec, degree: int, rng: random.Random,
               root_range=12, jitter=2) -> RootedFixture:
    """Fixture provably inside spec, with its exact roots attached.

    First root uniform in the admissible range, each later root one class
    gap (a positive mesh bound, or 0) plus a non-negative rational jitter
    further on, as integers n_i over one d that every draw and the gap
    divide; poly is lead * prod (d x - n_i) / d**degree.  int and
    Fraction ends (root_range, jitter) are read as they are and the lead
    is drawn as a Fraction.  Before release, the n_i, d and lead prove
    poly in spec in integers (_proves); a failure is a generator bug,
    raised even under python -O.  Only then is a Fraction made for each
    root, which the fixture carries.
    """
    poly, ns, d, lead = _construct(spec, degree, rng, root_range, jitter)
    return RootedFixture(poly, tuple(Fraction(n, d) for n in ns), lead)


def gen_fixture(spec: ClassSpec, degree: int, rng: random.Random,
                root_range=12, jitter=2) -> Polynomial:
    """The polynomial alone, proved as gen_rooted's is (the same draws),
    with no Fraction root and no RootedFixture built."""
    return _construct(spec, degree, rng, root_range, jitter)[0]
