"""Exact real-root analysis: counting, isolation, and the root mesh.

The mesh of a polynomial with only real roots is the smallest distance
between two of its roots, counted with multiplicity: a repeated root
forces mesh 0, and polynomials of degree <= 1 get mesh +infinity.  All
verdicts here are exact; interval refinement and the tolerance parameter
only affect displayed approximations, never a yes/no answer.

Two kinds of question, two paths:

* Yes/no questions go by counts: sign variations of signed remainder
  sequences (intpoly.remainder_sequence) at a few rational points, with
  no bisection.  Real-rootedness (is_hyperbolic and root_profile's
  flags), the absence of negative roots and root counts
  (count_real_roots) take Sturm counts per Yun factor
  (intpoly.factor_chains); mesh >= alpha is a Cauchy index
  (mesh_at_least).  The small facts of each distinct polynomial
  (real-rooted, squarefree, no negative root, and the largest alpha
  decided True and the smallest decided False for its mesh) are kept in
  a bounded LRU cache of RECORD_CACHE_SIZE records (_records), keyed by
  the primitive integer representative of the polynomial, so positive
  rational multiples and either basis share an entry.
* Values read an isolation: root_data isolates the roots on each call
  and gives intpoly.IsolatedRoot nodes, an isolating interval on one of
  the polynomial's Yun factors with the root's multiplicity, for
  root_profile's nodes, mesh_numeric, approximations, and in interlace
  negativity_point and the root approximations of an interlacing
  failure.  No yes/no answer reads them.  Nothing keeps them, so a
  caller that refines its nodes in place cannot reach another call's
  nodes.  Roots are isolated without rational probing; the code that
  reads exact root values (mesh_numeric, and approximations for
  display) probes the nodes it gets (IsolatedRoot.try_rational).
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

# distinct polynomials whose decided facts are kept (membership decides
# one image against several classes)
RECORD_CACHE_SIZE = 2048


class NonHyperbolicInput(ValueError):
    """Raised when an operation needs a polynomial with only real roots."""


def _separate(x: intpoly.IsolatedRoot, y: intpoly.IsolatedRoot) -> None:
    """Narrow two isolating structures with distinct roots until disjoint.

    Disjoint means the open intervals do not overlap and neither exact
    value lies inside the other's open interval, so the root order is
    decided by endpoint comparison.  Ends are compared by integer cross
    products over the positive denominators.  root_data separates the
    roots of distinct Yun factors with it.
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


def root_data(p: Polynomial) -> list[intpoly.IsolatedRoot]:
    """Sorted pairwise-disjoint nodes for the distinct real roots of p,
    isolated on each call (none of them probed for an exact rational
    root), so a caller may narrow them in place.  Nodes of one Yun
    factor share that factor's list as their poly."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root data")
    groups = []
    for chain, mult in intpoly.factor_chains(p.nums):
        group = intpoly.isolate(chain[0], chain)
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
    return nodes


class _Record:
    """The decided facts of one primitive integer polynomial f, kept in
    place of its chains and nodes.  yes is the largest alpha for which
    mesh(f) >= alpha was decided True (0 before any), no the smallest
    decided False (None before any): the answer is monotone in alpha, so
    every alpha <= yes holds and every alpha >= no fails."""

    __slots__ = ("f", "real_rooted", "squarefree", "no_negative_root",
                 "yes", "no")


@functools.lru_cache(maxsize=RECORD_CACHE_SIZE)
def _records(f: tuple) -> _Record:
    """Sturm counts per Yun factor g: real-rooted when each g has deg g
    roots, no negative root when each has none in (-inf, 0] beyond a
    root at 0.  A constant f is real-rooted and squarefree."""
    chains = intpoly.factor_chains(f)
    rec = _Record()
    rec.f, rec.yes, rec.no = f, 0, None
    rec.squarefree = all(m == 1 for _, m in chains)
    rec.real_rooted = all(intpoly.variation_drop(chain) == len(chain[0]) - 1
                          for chain, _ in chains)
    rec.no_negative_root = rec.real_rooted and all(
        intpoly.variation_drop(chain, None, Fraction(0)) == (chain[0][0] == 0)
        for chain, _ in chains)
    return rec


def _record(p: Polynomial) -> _Record:
    """The record of nonzero p, keyed by its primitive integer
    representative: p's own numerators when they are primitive already,
    so that the record and p share one tuple."""
    f = p.nums
    return _records(f if intpoly.content(f) == 1
                    else tuple(intpoly.primitive(f)))


def _mesh_ok(rec: _Record, alpha: Fraction) -> bool:
    """mesh >= alpha for the real-rooted polynomial of rec (see
    mesh_at_least); a new verdict moves rec.yes or rec.no."""
    f = rec.f
    if alpha <= rec.yes or len(f) <= 2:
        return True
    if not rec.squarefree or (rec.no is not None and alpha >= rec.no):
        return False
    q = intpoly.translate(f, alpha)
    d = intpoly.sub([f[-1] * c for c in q], [q[-1] * c for c in f])
    seq = intpoly.remainder_sequence(f, d)
    if abs(intpoly.variation_drop(seq)) == len(f) - len(seq[-1]):
        rec.yes = alpha
        return True
    rec.no = alpha
    return False


@dataclass
class RootProfile:
    """Certified summary of the real-root structure of a polynomial."""

    is_hyperbolic: bool
    all_roots_nonnegative: bool
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
    """Exact hyperbolicity / sign report for nonzero p, with its nodes.

    The flags are p's record (real-rooted, no negative root, by Sturm
    counts); only the nodes come from an isolation (root_data).
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no root profile")
    rec = _record(p)
    return RootProfile(is_hyperbolic=rec.real_rooted,
                       all_roots_nonnegative=rec.no_negative_root,
                       nodes=root_data(p))


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity.  A repeated root counts
    once.  The Sturm counts of p's Yun factors at lo and hi are added
    (intpoly.variation_drop), so an endpoint that is a root, repeated
    or not, is decided exactly.
    """
    if p.is_zero:
        raise ValueError("zero polynomial root count is undefined")
    lo = as_fraction(lo) if lo is not None else None
    hi = as_fraction(hi) if hi is not None else None
    if lo is not None and hi is not None and lo >= hi:
        return 0
    return sum(intpoly.variation_drop(chain, lo, hi)
               for chain, _ in intpoly.factor_chains(p.nums))


def is_hyperbolic(p: Polynomial) -> bool:
    """True when nonzero p has only real roots (constants count): each of
    its Yun factors has as many real roots as its degree."""
    if p.is_zero:
        raise ValueError("zero polynomial hyperbolicity is undefined")
    return _record(p).real_rooted


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
    rec = _record(p)
    if not rec.real_rooted:
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    if not rec.squarefree:
        return MeshReport(Fraction(0), Fraction(0), Fraction(0))
    # squarefree and real-rooted of degree >= 2: at least two nodes
    nodes = root_data(p)
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

    Degree <= 1 passes every bound and alpha = 0 is always passed; a
    repeated root fails every alpha > 0; a non-hyperbolic p raises.
    Otherwise the primitive integer form f of p is squarefree and
    real-rooted of degree n >= 2, with roots r_1 < ... < r_n, and the
    answer is one Cauchy index, with no root isolated.  Let q = f(x -
    alpha) up to a positive factor (intpoly.translate: roots r_i +
    alpha) and d = lc(f) q - lc(q) f, of degree < n.  Then

        mesh(f) >= alpha  exactly when  |Ind(d/f)| = n - deg gcd(f, q),

    where Ind(d/f) is the variation drop of remainder_sequence(f, d)
    from -inf to +inf, whose last element is gcd(f, d) = gcd(f, q).  A
    gap exactly alpha is a common root of f and q, which the gcd cancels.

    Proof.  d/f = lc(f) q/f - lc(q), so |Ind(d/f)| = |Ind(q/f)|.  r_i is
    a pole of q/f unless r_i - alpha is a root of f: there are n - k
    poles, k = deg gcd(f, q), each simple, so each jumps by +-1 and the
    equation holds exactly when all jumps have one sign.  The jump at a
    pole r_i has the sign of q(r_i) / f'(r_i).  lc(q) and lc(f) have one
    sign s; sign f'(r_i) = s (-1)^(n-i), and sign q(r_i) = s (-1)^(n-m_i)
    with m_i the number of roots r_j < r_i - alpha.  So the jump has the
    sign -(-1)^e_i, e_i = i - 1 - m_i >= 0.
    If mesh(f) >= alpha, then at a pole r_{i-1} < r_i - alpha, so m_i =
    i - 1 and every jump is -1.
    Conversely, let all jumps have one sign.  r_1 is a pole with e_1 = 0,
    so e_i is even at every pole.  Let c_i be the number of roots <= r_i
    - alpha: c_i <= i - 1, c_i >= c_{i-1}, and c_i = m_i at a pole.  By
    induction on i, c_i = i - 1, that is r_{i-1} <= r_i - alpha: c_1 = 0.
    Given c_{i-1} = i - 2, at a pole c_i = i - 1 - e_i is in [i - 2,
    i - 1] with the parity of i - 1, so c_i = i - 1.  Otherwise r_i -
    alpha = r_j and c_i = j >= i - 2; j = i - 2 would give r_i - alpha =
    r_{i-2} <= r_{i-1} - alpha, so j = i - 1.

    Verdicts are kept per polynomial (_records), so a bound already
    implied by an earlier verdict costs no sequence.
    """
    alpha = as_fraction(alpha)
    if alpha < 0:
        raise ValueError("mesh bound must be non-negative")
    if p.is_zero:
        raise ValueError("zero polynomial has no mesh")
    if p.degree <= 1:
        return True
    rec = _record(p)
    if not rec.real_rooted:
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    return _mesh_ok(rec, alpha)


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
