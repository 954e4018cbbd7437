"""Exact real-root analysis: counting, isolation, and the root mesh.

The mesh of a polynomial with only real roots is the smallest distance
between two of its roots, counted with multiplicity: a repeated root
forces mesh 0, and polynomials of degree <= 1 get mesh +infinity.  All
verdicts here are exact; interval refinement and the tolerance parameter
only affect displayed approximations, never a yes/no answer.

A root is an intpoly.IsolatedRoot node: an isolating interval on one of
the polynomial's Yun factors, with the root's multiplicity.  root_data
is the only way to get the nodes of a polynomial, and it answers every
real-root question: real-rootedness (is_hyperbolic, root_profile),
root counts (count_real_roots), the mesh, and in interlace the sign of
a polynomial on the real line.  Roots are isolated
without rational probing; the code that reads exact root values
(mesh_numeric, and approximations for display) probes the nodes it gets
(IsolatedRoot.try_rational).

The isolation of each distinct polynomial is computed once: it is keyed
by the primitive integer representative of the polynomial (so positive
rational multiples and either basis share an entry) and kept as integers
in a bounded LRU cache (ISOLATION_CACHE_SIZE entries).  Every call
builds fresh nodes from those integers, so a caller that refines its
nodes in place cannot reach another call's nodes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import intpoly
from .poly import Polynomial, as_fraction

INF = math.inf

DEFAULT_TOL = Fraction(1, 10**9)

# distinct polynomials whose isolation is kept; membership
# decisions reuse one polynomial's isolation across classes and images
ISOLATION_CACHE_SIZE = 2048


class NonHyperbolicInput(ValueError):
    """Raised when an operation needs a polynomial with only real roots."""


def _separate(x: intpoly.IsolatedRoot, y: intpoly.IsolatedRoot) -> None:
    """Narrow two isolating structures with distinct roots until disjoint.

    Disjoint means the open intervals do not overlap and neither exact
    value lies inside the other's open interval, so the root order is
    decided by endpoint comparison.  Ends are compared by integer cross
    products over the positive denominators.
    """
    while True:
        xa, xb, xd = x.a, x.b, x.den
        ya, yb, yd = y.a, y.b, y.den
        if xa == xb:
            if ya == yb and xa * yd == ya * xd:
                raise AssertionError("distinct roots expected")
            y.exclude(xa, xd)
            return
        if ya == yb:
            x.exclude(ya, yd)
            return
        if xb * yd <= ya * xd or yb * xd <= xa * yd:
            return
        # overlapping genuine intervals: shrink the wider
        if (xb - xa) * yd >= (yb - ya) * xd:
            x.refine()
        else:
            y.refine()


@functools.lru_cache(maxsize=ISOLATION_CACHE_SIZE)
def _isolation(f: tuple) -> tuple:
    """Sorted pairwise-disjoint nodes for the distinct real roots of the
    nonzero integer polynomial f, frozen as one flat tuple, six fields
    per node: factor, a, b, den, slo, multiplicity (one tuple per node
    would cost about 200 bytes more per entry).  Nodes of one factor
    share one factor tuple, which is f itself when f is its own only Yun
    factor."""
    groups = []
    for factor, mult in intpoly.yun(f):
        group = intpoly.isolate(factor)
        for n in group:
            n.multiplicity = mult
        groups.append(group)
    # roots of distinct Yun factors are distinct; make their intervals
    # disjoint (isolate already leaves one factor's intervals disjoint,
    # and sorted)
    for k, group in enumerate(groups):
        later = [b for other in groups[k + 1:] for b in other]
        for a in group:
            for b in later:
                _separate(a, b)
    nodes = [n for group in groups for n in group]
    if len(groups) > 1:
        nodes.sort(key=lambda n: (n.lo, n.hi))
    factors: dict = {}
    out = []
    for n in nodes:
        factor = factors.get(id(n.poly))
        if factor is None:
            factor = tuple(n.poly)
            factors[id(n.poly)] = factor = f if factor == f else factor
        out += (factor, n.a, n.b, n.den, n.slo, n.multiplicity)
    return tuple(out)


def root_data(p: Polynomial) -> list[intpoly.IsolatedRoot]:
    """Sorted pairwise-disjoint nodes for the distinct real roots of p.

    The isolation comes from the cache (_isolation) as fresh nodes, none
    of them probed for an exact rational root.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root data")
    fields = iter(_isolation(tuple(intpoly.primitive(p.nums))))
    return [intpoly.IsolatedRoot.from_ints(*node)
            for node in zip(*[fields] * 6)]


def _precedes(x: intpoly.IsolatedRoot, y: intpoly.IsolatedRoot) -> bool:
    """Whether x's root lies left of y's; the roots are distinct and the
    nodes separated, as _separate and _common_root leave them."""
    xa, xb, xd = x.a, x.b, x.den
    ya, yb, yd = y.a, y.b, y.den
    if xa == xb and ya == yb:
        return xa * yd < ya * xd
    if xb * yd <= ya * xd:
        return True
    if yb * xd <= xa * yd:
        return False
    if xa == xb:
        return xa * yd <= ya * xd
    if ya == yb:
        return ya * xd >= xb * yd
    raise AssertionError("nodes not separated")


def _common_root(x: intpoly.IsolatedRoot, y: intpoly.IsolatedRoot,
                 gcd_cache: dict) -> bool:
    """Certify whether two nodes hold the same real number.

    Afterwards, unequal nodes are fully separated so that endpoint
    comparison (_precedes) decides their order.
    """
    xa, xb, xd = x.a, x.b, x.den
    ya, yb, yd = y.a, y.b, y.den
    if xa == xb:
        if ya == yb:
            return xa * yd == ya * xd
        # an exact value inside y's open interval is y's root or splits it
        y.exclude(xa, xd)
        return y.a == y.b
    if ya == yb:
        x.exclude(ya, yd)
        return x.a == x.b
    # the overlap (lo, hi) of the two open intervals, as (num, den) pairs
    lo = (xa, xd) if xa * yd >= ya * xd else (ya, yd)
    hi = (xb, xd) if xb * yd <= yb * xd else (yb, yd)
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return False
    key = (id(x.poly), id(y.poly))
    if key not in gcd_cache:
        gcd_cache[key] = intpoly.gcd(x.poly, y.poly)
    g = gcd_cache[key]
    if len(g) <= 1:
        _separate(x, y)
        return False
    gchain_key = ("chain", key)
    if gchain_key not in gcd_cache:
        gcd_cache[gchain_key] = intpoly.sturm_chain(g)
    chain = gcd_cache[gchain_key]
    # interval endpoints are never roots of the factors, hence not of g,
    # so the variation difference counts g's roots in the open overlap
    if intpoly._chain_at(chain, *lo)[1] - intpoly._chain_at(chain, *hi)[1] == 1:
        return True
    # no shared root inside the overlap: the roots differ
    _separate(x, y)
    return False


def _translate_nodes(nodes: Sequence[intpoly.IsolatedRoot],
                     alpha: Fraction) -> list[intpoly.IsolatedRoot]:
    """Nodes for the roots r + alpha, that is for p(x - alpha), built from
    p's nodes: each factor is shifted once, and for alpha = p/q the ends
    a/den, b/den move to (a q + p den)/(den q), (b q + p den)/(den q)."""
    p, q = alpha.numerator, alpha.denominator
    out = []
    shifted_factors: dict = {}
    for n in nodes:
        fid = id(n.poly)
        if fid not in shifted_factors:
            shifted_factors[fid] = intpoly.translate(n.poly, alpha)
        move = p * n.den
        out.append(intpoly.IsolatedRoot.from_ints(
            shifted_factors[fid], n.a * q + move, n.b * q + move,
            n.den * q, n.slo, n.multiplicity))
    return out


@dataclass
class RootProfile:
    """Certified summary of the real-root structure of a polynomial."""

    is_hyperbolic: bool
    all_roots_nonnegative: bool
    has_multiple_root: bool
    nodes: list = None  # live IsolatedRoot list, refinable


@dataclass
class MeshReport:
    """Mesh enclosure; exact_value is set when the mesh is known exactly.

    mesh_lower <= mesh <= mesh_upper always holds; for degree <= 1 all
    three fields are +infinity (math.inf).
    """

    mesh_lower: object  # Fraction or math.inf
    mesh_upper: object
    exact_value: object = None  # Fraction, math.inf, or None when only enclosed

    @property
    def is_infinite(self) -> bool:
        return self.mesh_lower == INF


def root_profile(p: Polynomial) -> RootProfile:
    """Exact hyperbolicity / sign / multiplicity report for nonzero p."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root profile")
    nodes = root_data(p) if p.degree >= 1 else []
    real_with_mult = sum(n.multiplicity for n in nodes)
    is_hyp = real_with_mult == int(p.degree)
    return RootProfile(
        is_hyperbolic=is_hyp,
        all_roots_nonnegative=is_hyp and all(n.side(0, 1) >= 0 for n in nodes),
        has_multiple_root=any(n.multiplicity > 1 for n in nodes),
        nodes=nodes,
    )


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity.  A repeated root counts
    once.  Each node of root_data is placed against the endpoints
    (IsolatedRoot.side), so an endpoint that is a root, repeated or not,
    is decided exactly.
    """
    if p.is_zero:
        raise ValueError("zero polynomial root count is undefined")
    lo = as_fraction(lo) if lo is not None else None
    hi = as_fraction(hi) if hi is not None else None
    if lo is not None and hi is not None and lo >= hi:
        return 0
    return sum(1 for n in root_data(p)
               if (lo is None or n.side(lo.numerator, lo.denominator) > 0)
               and (hi is None or n.side(hi.numerator, hi.denominator) <= 0))


def is_hyperbolic(p: Polynomial) -> bool:
    """True when nonzero p has only real roots (constants count): its
    real roots, counted with multiplicity, make up its degree."""
    if p.is_zero:
        raise ValueError("zero polynomial hyperbolicity is undefined")
    return p.degree <= 0 or root_profile(p).is_hyperbolic


def mesh_numeric(p: Polynomial, tol: Fraction = DEFAULT_TOL) -> MeshReport:
    """Mesh enclosure of a hyperbolic polynomial, narrowed below tol.

    exact_value is a Fraction when every root was recognized as rational
    (the common case for constructed fixtures), math.inf for degree <= 1,
    and None when the mesh is only enclosed between the reported bounds.
    """
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if p.is_zero:
        raise ValueError("zero polynomial has no mesh")
    if p.degree <= 1:
        return MeshReport(INF, INF, INF)
    nodes = root_data(p)
    if sum(n.multiplicity for n in nodes) != int(p.degree):
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    if any(n.multiplicity > 1 for n in nodes):
        return MeshReport(Fraction(0), Fraction(0), Fraction(0))
    if len(nodes) == 1:
        return MeshReport(INF, INF, INF)
    for n in nodes:
        n.try_rational()
    if all(n.exact is not None for n in nodes):
        vals = sorted(n.exact for n in nodes)
        m = min(b - a for a, b in zip(vals, vals[1:]))
        return MeshReport(m, m, m)
    while True:
        lo_gap = None
        hi_gap = None
        for a, b in zip(nodes, nodes[1:]):
            g_lo = max(Fraction(0), b.lo - a.hi)
            g_hi = b.hi - a.lo
            if lo_gap is None or g_lo < lo_gap:
                lo_gap = g_lo
            if hi_gap is None or g_hi < hi_gap:
                hi_gap = g_hi
        if hi_gap - lo_gap <= tol:
            return MeshReport(lo_gap, hi_gap, None)
        for n in nodes:
            if n.exact is None:
                w = max(tol / 4, (n.hi - n.lo) / 2)
                n.refine_below(w.numerator, w.denominator)


def mesh_at_least(p: Polynomial, alpha) -> bool:
    """Exact decision of mesh(p) >= alpha for hyperbolic p (boundary included).

    Decided gap by gap (_gaps_at_least): each root is placed against the
    translate by alpha of the root before it, equality certified by a gcd
    root count, never by numeric closeness.  Degree <= 1 passes every
    bound; a non-hyperbolic p raises.
    """
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise ValueError("mesh bound must be non-negative")
    if p.is_zero:
        raise ValueError("zero polynomial has no mesh")
    if p.degree <= 1:
        return True
    prof = root_profile(p)
    if not prof.is_hyperbolic:
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    return _gaps_at_least(prof, alpha)


def _gaps_at_least(prof: RootProfile, alpha: Fraction) -> bool:
    """Whether every adjacent root gap of a hyperbolic profile is >= alpha.

    Every gap is >= 0, and a repeated root is a gap of 0.  Otherwise
    r_{i+1} - r_i >= alpha exactly when r_{i+1} equals r_i + alpha (gcd
    certificate) or lies right of it (endpoints, once the two nodes are
    separated).
    """
    if alpha <= 0:
        return True
    if prof.has_multiple_root:
        return False
    nodes = prof.nodes
    gcd_cache: dict = {}
    for shifted, nxt in zip(_translate_nodes(nodes[:-1], alpha), nodes[1:]):
        if not _common_root(nxt, shifted, gcd_cache) and _precedes(nxt, shifted):
            return False
    return True


def approximations(nodes: Sequence[intpoly.IsolatedRoot],
                   tol: Fraction) -> list[float]:
    """Float midpoints of the nodes, for display only: each node is
    probed for an exact rational root, then refined to width <= tol."""
    out = []
    for n in nodes:
        n.try_rational()
        n.refine_below(tol.numerator, tol.denominator)
        out.append(float(Fraction(n.a + n.b, 2 * n.den)))
    return out


def root_approximations(p: Polynomial, tol: Fraction = DEFAULT_TOL) -> list[float]:
    """Float approximations of the distinct real roots, for display only."""
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return approximations(root_data(p), tol)
