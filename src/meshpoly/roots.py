"""Exact real-root analysis: counting, isolation, and the root mesh.

The mesh of a polynomial with only real roots is the smallest distance
between two of its roots, counted with multiplicity: a repeated root
forces mesh 0, and polynomials of degree <= 1 get mesh +infinity.  All
verdicts here are exact; interval refinement and the tolerance parameter
only affect displayed approximations, never a yes/no answer.  Roots are
isolated without rational probing; only the code that reads exact root
values (mesh_numeric, root_approximations) asks root_data to probe
for exact rational roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import intpoly
from .poly import Polynomial, as_fraction

INF = math.inf

DEFAULT_TOL = Fraction(1, 10**9)


class NonHyperbolicInput(ValueError):
    """Raised when an operation needs a polynomial with only real roots."""


class RootNode:
    """A real root: an isolating structure plus its multiplicity."""

    __slots__ = ("iso", "multiplicity")

    def __init__(self, iso: intpoly.IsolatedRoot, multiplicity: int):
        self.iso = iso
        self.multiplicity = multiplicity

    @property
    def lo(self) -> Fraction:
        return self.iso.lo

    @property
    def hi(self) -> Fraction:
        return self.iso.hi

    @property
    def exact(self) -> Optional[Fraction]:
        return self.iso.exact

    def refine_below(self, width: Fraction) -> None:
        self.iso.refine_below(width)

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __repr__(self):
        if self.exact is not None:
            where = str(self.exact)
        else:
            where = f"({self.lo}, {self.hi})"
        return f"RootNode({where}, mult={self.multiplicity})"


def _separate(a: intpoly.IsolatedRoot, b: intpoly.IsolatedRoot) -> None:
    """Narrow two isolating structures with distinct roots until disjoint.

    Disjoint means the open intervals do not overlap and neither exact
    value lies inside the other's open interval, so the root order is
    decided by endpoint comparison.
    """
    while True:
        if a.exact is not None and b.exact is not None:
            if a.exact == b.exact:
                raise AssertionError("distinct roots expected")
            return
        if a.exact is not None:
            b.exclude(a.exact)
            if not (b.lo < a.exact < b.hi):
                return
            continue
        if b.exact is not None:
            a.exclude(b.exact)
            if not (a.lo < b.exact < a.hi):
                return
            continue
        if a.hi <= b.lo or b.hi <= a.lo:
            return
        # overlapping genuine intervals: shrink the wider
        if a.width >= b.width:
            a.refine()
        else:
            b.refine()


def _node_sort_key(n: RootNode):
    return (n.lo, n.hi)


def root_data(p: Polynomial, probe_rationals: bool = False) -> list[RootNode]:
    """Sorted pairwise-disjoint nodes for the distinct real roots of p.

    No yes/no answer needs exact root values, so by default roots are
    only isolated.  probe_rationals=True also looks for exact rational
    roots (IsolatedRoot.try_rational), for callers that read .exact.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root data")
    f = intpoly.from_fractions(p.monomial_coeffs())
    groups = [[RootNode(iso, mult)
               for iso in intpoly.isolate(factor, probe_rationals=probe_rationals)]
              for factor, mult in intpoly.yun(f)]
    # roots of distinct Yun factors are distinct; make their intervals
    # disjoint (isolate already leaves one factor's intervals disjoint)
    for k, group in enumerate(groups):
        later = [b for other in groups[k + 1:] for b in other]
        for a in group:
            for b in later:
                _separate(a.iso, b.iso)
    nodes = [n for group in groups for n in group]
    nodes.sort(key=_node_sort_key)
    return nodes


def _precedes(x: RootNode, y: RootNode) -> bool:
    """Whether x's root lies left of y's; the roots are distinct and the
    nodes separated, as _separate and _common_root leave them."""
    xe, ye = x.exact, y.exact
    if xe is not None and ye is not None:
        return xe < ye
    if x.hi <= y.lo:
        return True
    if y.hi <= x.lo:
        return False
    if xe is not None:
        return xe <= y.lo
    if ye is not None:
        return ye >= x.hi
    raise AssertionError("nodes not separated")


def _common_root(a: RootNode, b: RootNode, gcd_cache: dict) -> bool:
    """Certify whether two nodes hold the same real number.

    Afterwards, unequal nodes are fully separated so that endpoint
    comparison (_precedes) decides their order.
    """
    while True:
        ea, eb = a.exact, b.exact
        if ea is not None and eb is not None:
            return ea == eb
        if ea is not None:
            if not (b.lo < ea < b.hi):
                return False
            if intpoly.sign_at(b.iso.poly, ea) == 0:
                # ea is the unique root of b's factor inside b's interval
                b.iso.lo = b.iso.hi = ea
                b.iso.slo = 0
                return True
            b.iso.exclude(ea)
            return False
        if eb is not None:
            if not (a.lo < eb < a.hi):
                return False
            if intpoly.sign_at(a.iso.poly, eb) == 0:
                a.iso.lo = a.iso.hi = eb
                a.iso.slo = 0
                return True
            a.iso.exclude(eb)
            return False
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if lo >= hi:
            return False
        key = (id(a.iso.poly), id(b.iso.poly))
        if key not in gcd_cache:
            gcd_cache[key] = intpoly.gcd(a.iso.poly, b.iso.poly)
        g = gcd_cache[key]
        if len(g) <= 1:
            _separate(a.iso, b.iso)
            return False
        gchain_key = ("chain", key)
        if gchain_key not in gcd_cache:
            gcd_cache[gchain_key] = intpoly.sturm_chain(g)
        # interval endpoints are never roots of the factors, hence not of g
        if intpoly.count_distinct_in(gcd_cache[gchain_key], lo, hi) == 1:
            return True
        # no shared root inside the overlap: the roots differ
        _separate(a.iso, b.iso)
        return False


def _translate_nodes(nodes: Sequence[RootNode], alpha: Fraction) -> list[RootNode]:
    """Nodes for the roots r + alpha, that is for p(x - alpha), built from
    p's nodes: each factor is shifted once, intervals move by alpha."""
    out = []
    shifted_factors: dict = {}
    for n in nodes:
        fid = id(n.iso.poly)
        if fid not in shifted_factors:
            shifted_factors[fid] = intpoly.translate(n.iso.poly, alpha)
        iso = intpoly.IsolatedRoot.__new__(intpoly.IsolatedRoot)
        iso.poly = shifted_factors[fid]
        iso.lo = n.lo + alpha
        iso.hi = n.hi + alpha
        iso.slo = n.iso.slo
        out.append(RootNode(iso, n.multiplicity))
    return out


@dataclass
class RootProfile:
    """Certified summary of the real-root structure of a polynomial."""

    is_hyperbolic: bool
    all_roots_nonnegative: bool
    distinct_real_roots: int
    has_multiple_root: bool
    nodes: list = None  # live RootNode list, refinable

    def approximations(self, tol: Fraction = DEFAULT_TOL) -> list[float]:
        out = []
        for n in self.nodes:
            n.refine_below(tol)
            out.append(float(n.midpoint()))
        return out


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


def _nonneg_from_nodes(nodes: Sequence[RootNode]) -> bool:
    for n in nodes:
        if n.exact is not None:
            if n.exact < 0:
                return False
            continue
        n.iso.exclude(Fraction(0))
        if n.exact is not None:
            if n.exact < 0:
                return False
        elif n.hi <= 0:
            return False
    return True


def root_profile(p: Polynomial, probe_rationals: bool = False) -> RootProfile:
    """Exact hyperbolicity / sign / multiplicity report for nonzero p.

    probe_rationals is passed to root_data.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root profile")
    nodes = root_data(p, probe_rationals) if p.degree >= 1 else []
    real_with_mult = sum(n.multiplicity for n in nodes)
    deg = int(p.degree) if not p.is_zero else 0
    is_hyp = real_with_mult == max(deg, 0)
    return RootProfile(
        is_hyperbolic=is_hyp,
        all_roots_nonnegative=is_hyp and _nonneg_from_nodes(nodes),
        distinct_real_roots=len(nodes),
        has_multiple_root=any(n.multiplicity > 1 for n in nodes),
        nodes=nodes,
    )


def isolate_and_refine(p: Polynomial, tol: Fraction = DEFAULT_TOL) -> RootProfile:
    """root_profile with every isolating interval narrowed below tol."""
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    prof = root_profile(p, probe_rationals=True)
    for n in prof.nodes:
        n.refine_below(tol)
    return prof


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity.  A repeated root counts
    once.  The Sturm chain is taken of the squarefree part: the chain of
    p itself vanishes entirely at a repeated root, which miscounts any
    interval that has one as an endpoint.
    """
    if p.is_zero:
        raise ValueError("zero polynomial root count is undefined")
    f = intpoly.from_fractions(p.monomial_coeffs())
    if len(f) <= 1:
        return 0
    chain = intpoly.sturm_chain(intpoly.squarefree_part(f))
    lo = as_fraction(lo) if lo is not None else None
    hi = as_fraction(hi) if hi is not None else None
    return intpoly.count_distinct_in(chain, lo, hi)


def is_hyperbolic(p: Polynomial) -> bool:
    """True when nonzero p has only real roots (constants count).

    A polynomial is real-rooted exactly when its squarefree part is, so
    one distinct-root count settles it without isolating anything.
    """
    if p.is_zero:
        raise ValueError("zero polynomial hyperbolicity is undefined")
    if p.degree <= 0:
        return True
    f = intpoly.from_fractions(p.monomial_coeffs())
    sq = intpoly.squarefree_part(f)
    chain = intpoly.sturm_chain(sq)
    return intpoly.count_distinct_in(chain, None, None) == len(sq) - 1


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
    nodes = root_data(p, probe_rationals=True)
    if sum(n.multiplicity for n in nodes) != int(p.degree):
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    if any(n.multiplicity > 1 for n in nodes):
        return MeshReport(Fraction(0), Fraction(0), Fraction(0))
    if len(nodes) == 1:
        return MeshReport(INF, INF, INF)
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
                n.refine_below(max(tol / 4, (n.hi - n.lo) / 2))


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


def root_approximations(p: Polynomial, tol: Fraction = DEFAULT_TOL) -> list[float]:
    """Float approximations of the distinct real roots, for display only."""
    return isolate_and_refine(p, tol).approximations(tol)
