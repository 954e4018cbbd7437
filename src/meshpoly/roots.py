"""Exact real-root analysis: counting, isolation, and the root mesh.

The mesh of a polynomial with only real roots is the smallest distance
between two of its roots, counted with multiplicity: a repeated root
forces mesh 0, and polynomials of degree <= 1 get mesh +infinity.  All
verdicts here are exact; interval refinement and the tolerance parameter
only affect displayed approximations, never a yes/no answer.

Two kinds of question, two paths:

* Yes/no questions go by counts on signed remainder sequences, with no
  bisection.  Membership in HP>=alpha, for every alpha >= 0, is one
  Cauchy index (_mesh_ok): alpha = 0 is real-rootedness, by Sturm's
  theorem on the chain of f and f', and alpha > 0 decides
  real-rootedness, squarefreeness and the mesh bound at once (see
  mesh_at_least).  The index equation is read from the degrees and
  lead signs of the sequence's elements as they are formed, by one
  integer loop (intpoly.full_index), and the first element that rules
  it out ends the decision.  For a real-rooted polynomial the absence
  of negative roots is Descartes' rule of signs (_no_negative_root),
  which is exact there.  Root counts in an interval (count_real_roots)
  are Sturm counts on the chain of the square-free part
  (intpoly.variation_drop).  The verdicts on each distinct polynomial
  (the largest alpha decided True and the smallest decided False for
  its mesh, as integer pairs, and Descartes' verdict once asked) are
  kept in a bounded LRU cache of RECORD_CACHE_SIZE records (_records),
  keyed by the primitive integer representative of the polynomial, so
  positive rational multiples and either basis share an entry.
* Values read an isolation: root_data isolates the distinct roots on
  each call, once, on the square-free part of the polynomial, and gives
  intpoly.IsolatedRoot nodes, each an isolating interval with the
  root's multiplicity, for mesh_numeric, approximations, and in
  interlace negativity_point and the root approximations of an
  interlacing failure.  No yes/no answer reads them.  Nothing keeps
  them, so a caller that refines its nodes in place cannot reach
  another call's nodes.  Roots are isolated without rational probing;
  the code that reads exact root values (mesh_numeric, and
  approximations for display) probes the nodes it gets
  (IsolatedRoot.try_rational), and mesh_and_roots reads both from one
  isolation, probed once.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from fractions import Fraction

from . import intpoly
from .poly import Polynomial, as_fraction

INF = math.inf

DEFAULT_TOL = Fraction(1, 10**9)

# distinct polynomials whose decided facts are kept (membership decides
# one image against several classes)
RECORD_CACHE_SIZE = 2048


class NonHyperbolicInput(ValueError):
    """Raised when an operation needs a polynomial with only real roots."""


def root_data(p: Polynomial) -> list[intpoly.IsolatedRoot]:
    """Sorted nodes for the distinct real roots of p, isolated on each
    call (none of them probed for an exact rational root), so a caller
    may narrow them in place.  Every node's poly is one list, the
    square-free part of p (_nodes)."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root data")
    return _nodes(intpoly.primitive(p.nums))


def _nodes(f: intpoly.ZPoly) -> list[intpoly.IsolatedRoot]:
    """root_data's nodes for the primitive f, from one isolation of the
    Sturm chain of its square-free part s = f / gcd(f, f'), taken with
    a positive lead.  sturm_chain(f) ends in gcd(f, f'), so a squarefree
    f is its own s on its own chain.

    By Sturm's theorem the chain of s places every distinct real root
    of f.  A node's ends are not roots of s, and the Yun factors of f
    are coprime and squarefree with product s, so exactly one factor
    changes sign across a node: its index is the node's multiplicity."""
    if len(f) <= 1:
        return []
    chain = intpoly.sturm_chain(f)
    if len(chain[-1]) == 1:
        if f[-1] < 0:
            # the chain of -f is the chain of f negated
            chain = [intpoly.neg(g) for g in chain]
        return intpoly.isolate(chain[0], chain)
    s = intpoly.divexact(f, chain[-1])
    nodes = intpoly.isolate(s if s[-1] > 0 else intpoly.neg(s))
    factors = intpoly.yun(f, chain, s)
    for n in nodes:
        n.multiplicity = next(i for h, i in factors
                              if intpoly._sign_at(h, n.a, n.den)
                              != intpoly._sign_at(h, n.b, n.den))
    return nodes


def _no_negative_root(f: intpoly.ZPoly) -> bool:
    """No root of the real-rooted nonzero f is negative.

    Descartes' rule of signs is exact for a real-rooted polynomial: f(-x)
    has as many positive roots, with multiplicity, as sign variations in
    its coefficients (-1)^i c_i.  So f has no negative root exactly when
    every nonzero c_i has the sign of lc(f) (-1)^(n - i), n = deg f; the
    slices hold the c_i with n - i even and odd.
    """
    even, odd = f[(len(f) - 1) % 2::2], f[len(f) % 2::2]
    if f[-1] > 0:
        return min(even) >= 0 and max(odd, default=0) <= 0
    return max(even) <= 0 and min(odd, default=0) >= 0


class _Record:
    """The decided facts of one primitive integer polynomial f, kept in
    place of its chains and nodes.  yes is the largest alpha >= 0 for
    which mesh(f) >= alpha was decided True ((-1, 1) before any), no the
    smallest decided False (None before any): the answer is monotone in
    alpha, so every alpha <= yes holds and every alpha >= no fails.
    Both are (numerator, denominator) pairs of ints with a positive
    denominator, compared with alpha by integer cross products.

    mesh(f) >= 0 is real-rootedness (see _mesh_ok): a non-real-rooted f
    has no = 0, and a real-rooted f with a repeated root has mesh exactly
    0, yes = no = 0.  nonneg is _no_negative_root(f) once it has been
    asked of a real-rooted f (_nonneg), None before."""

    __slots__ = ("f", "yes", "no", "nonneg")


_ZERO = (0, 1)


@functools.lru_cache(maxsize=RECORD_CACHE_SIZE)
def _records(f: tuple) -> _Record:
    """A record of f with nothing decided yet."""
    rec = _Record()
    rec.f, rec.yes, rec.no, rec.nonneg = f, (-1, 1), None, None
    return rec


def _record(p: Polynomial) -> _Record:
    """The record of nonzero p, keyed by its primitive integer
    representative: p's own numerators when they are primitive already,
    so that the record and p share one tuple."""
    f = p.nums
    return _records(f if intpoly.content(f) == 1
                    else tuple(intpoly.primitive(f)))


def _nonneg(rec: _Record) -> bool:
    """_no_negative_root(rec.f) for a real-rooted rec.f, kept in rec."""
    if rec.nonneg is None:
        rec.nonneg = _no_negative_root(rec.f)
    return rec.nonneg


def _mesh_ok(rec: _Record, alpha) -> bool:
    """f is real-rooted with mesh >= alpha, for f = rec.f of degree n and
    an int or Fraction alpha >= 0, by one Cauchy index: |Ind(d/f)| = n -
    deg gcd(f, d), read from seq = remainder_sequence(f, d), which ends
    in gcd(f, d).  alpha is read as its numerator and denominator.

    Let seq = s_0 = f, s_1 = d, ..., s_k.  The equation holds exactly
    when every element has degree one less than the one before it and
    sign(lc s_(i+1)) / sign(lc s_i) is the same at every step.  Proof:
    each adjacent pair adds -1, 0 or +1 to V(-inf) - V(+inf), nonzero
    only when its degrees differ by an odd number, so |Ind| <= k <= n -
    deg s_k, as every step drops the degree by at least one; both are
    equalities exactly when every drop is one and every pair adds the
    same sign.  A pair with a unit drop is a variation at +inf when its
    leads differ in sign and at -inf when they agree, so it adds +1 or
    -1 as the sign ratio is +1 or -1.  The elements are checked as they
    are formed (intpoly.full_index), and the first one that breaks
    either condition ends the decision with False; deg d < n - 1 would
    end it before any division, but both d below have degree n - 1 (for
    alpha > 0, the x^(n-1) coefficient of d is -n alpha lc(f) lc(q)).
    The bounds of rec are compared with alpha by integer cross products.

    For alpha > 0, d = lc(f) q - lc(q) f with q = f(x - alpha).  S =
    den^n q (intpoly.taylor_shift) has the lead den^n lc(f), so S -
    den^n f, of degree < n, is den^n d / lc(f): times sign(lc(f)) it is
    a positive multiple of d, whose sequence it has, element for
    element.  True also means squarefree (mesh_at_least has the proof).
    For alpha = 0, d = f' and seq = sturm_chain(f): Ind(f'/f) counts the
    distinct real roots (Sturm's theorem), so the equation says that f
    is real-rooted.  A nonconstant gcd(f, f') then means a repeated
    root, mesh exactly 0, and sets rec.no to 0 too.  A new verdict moves
    rec.yes or rec.no."""
    f = rec.f
    num, den = alpha.numerator, alpha.denominator
    yes, no = rec.yes, rec.no
    if num * yes[1] <= yes[0] * den or len(f) <= 2:
        return True
    if no is not None and num * no[1] >= no[0] * den:
        return False
    if num:
        dn = den ** (len(f) - 1)
        d = [x - dn * y for x, y in zip(intpoly.taylor_shift(f, num, den), f)]
        d.pop()
        last = intpoly.full_index(f, d if f[-1] > 0 else intpoly.neg(d))
    else:
        last = intpoly.full_index(f, intpoly.deriv(f))
    if last is None:
        rec.no = (num, den)
        return False
    rec.yes = (num, den)
    if len(last) > 1 and not num:
        rec.no = _ZERO
    return True


class RootProfile:
    """Certified summary of the real-root structure of a polynomial."""

    __slots__ = ("is_hyperbolic", "all_roots_nonnegative")

    def __init__(self, is_hyperbolic: bool, all_roots_nonnegative: bool):
        self.is_hyperbolic = is_hyperbolic
        self.all_roots_nonnegative = all_roots_nonnegative


class MeshReport:
    """Mesh enclosure; exact_value is set when the mesh is known exactly.

    mesh_lower <= mesh <= mesh_upper always holds; for degree <= 1 all
    three fields are +infinity (math.inf), and otherwise Fractions.
    """

    __slots__ = ("mesh_lower", "mesh_upper", "exact_value")

    def __init__(self, mesh_lower, mesh_upper, exact_value=None):
        self.mesh_lower, self.mesh_upper = mesh_lower, mesh_upper
        self.exact_value = exact_value

    @property
    def is_infinite(self) -> bool:
        return self.mesh_lower == INF


def root_profile(p: Polynomial) -> RootProfile:
    """Exact hyperbolicity / sign report for nonzero p: p's record
    (real-rooted by the index at alpha = 0) and Descartes' rule for the
    sign of the roots, with no root isolated."""
    if p.is_zero:
        raise ValueError("zero polynomial has no root profile")
    rec = _record(p)
    real_rooted = _mesh_ok(rec, 0)
    return RootProfile(real_rooted, real_rooted and _nonneg(rec))


def count_real_roots(p: Polynomial, lo=None, hi=None) -> int:
    """Distinct real roots of p in the half-open interval (lo, hi].

    None endpoints mean -infinity / +infinity.  A repeated root counts
    once.  The Sturm counts at lo and hi are taken on the chain of the
    square-free part s = f / gcd(f, f') of f = p, whose roots are simple
    (intpoly.variation_drop), so an endpoint that is a root, repeated or
    not, is decided exactly; f's own chain ends in gcd(f, f') and serves
    when f is squarefree.
    """
    if p.is_zero:
        raise ValueError("zero polynomial root count is undefined")
    lo = as_fraction(lo) if lo is not None else None
    hi = as_fraction(hi) if hi is not None else None
    if p.degree == 0 or (lo is not None and hi is not None and lo >= hi):
        return 0
    f = intpoly.primitive(p.nums)
    chain = intpoly.sturm_chain(f)
    if len(chain[-1]) > 1:
        chain = intpoly.sturm_chain(intpoly.divexact(f, chain[-1]))
    return intpoly.variation_drop(chain, lo, hi)


def is_hyperbolic(p: Polynomial) -> bool:
    """True when nonzero p has only real roots (constants count): mesh
    >= 0, by Sturm's theorem as the index equation of _mesh_ok."""
    if p.is_zero:
        raise ValueError("zero polynomial hyperbolicity is undefined")
    return _mesh_ok(_record(p), 0)


def mesh_numeric(p: Polynomial, tol: Fraction = DEFAULT_TOL) -> MeshReport:
    """Mesh enclosure of a hyperbolic polynomial, narrowed below tol.

    exact_value is a Fraction when every root was recognized as rational
    (the common case for constructed fixtures), math.inf for degree <= 1,
    and None when the mesh is only enclosed between the reported bounds.
    """
    return _mesh(p, as_fraction(tol))


def mesh_and_roots(p: Polynomial, tol: Fraction = DEFAULT_TOL
                   ) -> tuple[MeshReport, list[float]]:
    """mesh_numeric(p, tol) and root_approximations(p, tol) from one
    isolation: the approximations start from copies of the nodes taken
    right after their one rational probe, before the enclosure narrows
    them, where root_approximations' own probe leaves its nodes."""
    tol, copies = as_fraction(tol), []
    rep = _mesh(p, tol, copies)
    # no copies: nothing was isolated (degree <= 1, or a repeated root)
    return rep, (_midpoints(copies, tol) if copies
                 else root_approximations(p, tol))


def _mesh(p: Polynomial, tol: Fraction, copies: list = None) -> MeshReport:
    """mesh_numeric(p, tol); a copies list gets a copy of each node
    right after its rational probe."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if p.is_zero:
        raise ValueError("zero polynomial has no mesh")
    if p.degree <= 1:
        return MeshReport(INF, INF, INF)
    rec = _record(p)
    if not _mesh_ok(rec, 0):
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    if rec.no == _ZERO:
        return MeshReport(Fraction(0), Fraction(0), Fraction(0))
    # squarefree and real-rooted of degree >= 2: at least two nodes
    nodes = _nodes(rec.f)
    for n in nodes:
        n.try_rational()
    if copies is not None:
        copies += [intpoly.IsolatedRoot.from_ints(n.poly, n.a, n.b, n.den,
                                                  n.slo, n.multiplicity)
                   for n in nodes]
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
    Otherwise, for alpha > 0, the answer is one Cauchy index, with no
    root isolated and no Sturm chain.  Let f be the primitive integer
    form of p, of degree n >= 2, q = f(x - alpha) up to a positive factor
    (roots r + alpha) and d = lc(f) q - lc(q) f, of degree < n.  Then

        |Ind(d/f)| = n - deg gcd(f, q)  exactly when f has n distinct
        real roots and every gap between adjacent ones is >= alpha,

    where Ind(d/f) is the variation drop of remainder_sequence(f, d)
    from -inf to +inf, whose last element is gcd(f, d) = gcd(f, q).  The
    index thus decides real-rootedness and squarefreeness as well: a
    True answer needs no Sturm chain, and only a False one asks alpha =
    0 (real-rootedness, _mesh_ok), to tell "mesh below alpha" from a
    non-hyperbolic p.

    Proof.  d/f = lc(f) q/f - lc(q), so |Ind(d/f)| = |Ind(q/f)|.  With k
    = deg gcd(f, q), the pole orders of q/f, real or not, sum to n - k,
    and a real pole adds -1, 0 or +1 to the index: +-1 when its order is
    odd, by the sign change of q/f across it.  So the equation holds
    exactly when every pole is real and simple and every jump has one
    sign.  Assume it holds.
    All roots are real: a root r of f lies on a chain r, r - alpha, r -
    2 alpha, ... of roots of f, which ends at a root s with s - alpha not
    a root.  Then q(s) = f(s - alpha) != 0, so s is a pole, s is real,
    and r = s + j alpha is real.
    Signs: lc(q) and lc(f) have one sign, so for x not a root of f or q,
    q(x)/f(x) = (lc(q)/lc(f)) prod_r (x - alpha - r)/(x - r) over the
    roots r with multiplicity has the sign (-1)^N(x), where N(x) counts
    the roots in (x - alpha, x).  Just left of a pole t, N counts the
    roots in [t - alpha, t); call that N(t-).  A simple pole jumps by +1
    exactly when q/f is negative just left of it, so every N(t-) has one
    parity.  The smallest root is a pole with N(t-) = 0, so N(t-) is
    even at every pole t.
    Let t_1 < ... < t_m be the distinct roots.  By induction on j, t_j is
    simple and, for j > 1, t_j - t_(j-1) >= alpha.  Given this below j,
    at most one of t_1, ..., t_(j-1) lies in [t_j - alpha, t_j), since
    they are alpha apart.  If t_j is a pole, N(t_j-) is even and at most
    1, so it is 0: t_j - alpha is no root, the pole order mult(t_j) -
    mult(t_j - alpha) = mult(t_j) is 1, and t_(j-1) < t_j - alpha.  If
    t_j is no pole, mult(t_j) <= mult(t_j - alpha) makes t_j - alpha an
    earlier root, simple, so t_j is simple; it is the one earlier root
    in [t_j - alpha, t_j), so it is t_(j-1), a gap of exactly alpha.
    Conversely, if f has n simple real roots alpha or more apart, the
    poles are the roots t with t - alpha no root; each is simple, there
    are n - k of them, and N(t-) = 0 at each, so every jump has one sign.

    The index is read without counting a variation (_mesh_ok): each
    adjacent pair of the sequence adds at most one to |Ind|, and only
    when its degrees differ by an odd number, while there are at most n
    - deg gcd(f, q) pairs, one per degree dropped.  So the equation
    holds exactly when every step drops the degree by one and every
    pair adds the same sign, i.e. sign(lc s_(i+1)) / sign(lc s_i) is
    the same at every step; the first element that breaks this ends the
    decision.

    Verdicts are kept per polynomial (_records), so a bound already
    implied by an earlier verdict costs no sequence.
    """
    alpha = as_fraction(alpha)
    if alpha.numerator < 0:
        raise ValueError("mesh bound must be non-negative")
    if p.is_zero:
        raise ValueError("zero polynomial has no mesh")
    if p.degree <= 1:
        return True
    rec = _record(p)
    if _mesh_ok(rec, alpha):
        return True
    if not _mesh_ok(rec, 0):
        raise NonHyperbolicInput("mesh is defined for real-rooted polynomials only")
    return False


def approximations(nodes: Sequence[intpoly.IsolatedRoot],
                   tol: Fraction) -> list[float]:
    """Float midpoints of the nodes, for display only: each node is
    probed for an exact rational root, then refined to width <= tol."""
    for n in nodes:
        n.try_rational()
    return _midpoints(nodes, tol)


def _midpoints(nodes: Sequence[intpoly.IsolatedRoot],
               tol: Fraction) -> list[float]:
    """Float midpoints of the nodes, refined in place to width <= tol."""
    out = []
    for n in nodes:
        n.refine_below(tol.numerator, tol.denominator)
        out.append(float(Fraction(n.a + n.b, 2 * n.den)))
    return out


def root_approximations(p: Polynomial, tol: Fraction = DEFAULT_TOL) -> list[float]:
    """Float approximations of the distinct real roots, for display only."""
    tol = as_fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return approximations(root_data(p), tol)
