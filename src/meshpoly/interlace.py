"""Proper position of real-rooted polynomials, and membership in mesh classes.

p is in proper position to q (written p << q) when their root multisets
interlace with p leading from the left and the Wronskian p q' - p' q is
non-negative on the whole real line.  The zero polynomial is in proper
position to every hyperbolic polynomial on both sides.  Interlacing is
decided exactly: roots are compared through isolating intervals, with
shared roots certified by gcd root counting, never by numeric closeness.
Both root lists are the unprobed intpoly.IsolatedRoot nodes of
roots.root_profile; only a witness's displayed approximations
(roots.approximations) probe them for exact rational roots.  Once the
roots interlace, the Wronskian has one sign on the real line
(Hermite-Kakeya-Obreschkoff), so its leading coefficient decides it.
Otherwise nonneg_on_reals decides it by Sturm counts: no Yun factor of
odd multiplicity has a real root.  negativity_point, for a witness only,
probes between adjacent roots of an isolation (roots.root_data).

proper_position is the paper's characterization of the mesh classes: a
hyperbolic p has mesh >= alpha exactly when p << p(x - alpha).  It is
public, and the tests use it as an oracle, but class membership does not
go through it: class_membership answers from counts alone (the cached
facts of roots: real-rootedness and the sign of the roots by Sturm
counts, the mesh bound by one Cauchy index, see roots.mesh_at_least),
with no isolation, no Wronskian and no merge of two root lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

from . import intpoly
from .poly import Polynomial, as_fraction
from .roots import (_common_root, _mesh_ok, _precedes, _record,
                    approximations, root_data, root_profile)

__all__ = [
    "ProperPositionVerdict",
    "ClassSpec",
    "wronskian",
    "nonneg_on_reals",
    "negativity_point",
    "proper_position",
    "class_membership",
    "quadratic_hp1plus",
]


@dataclass
class ProperPositionVerdict:
    holds: bool
    interlaces: bool
    wronskian_nonneg: bool
    failure_witness: Optional[dict] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ClassSpec:
    """A class of hyperbolic polynomials cut out by mesh and root-sign bounds."""

    mesh_bound: Optional[Fraction] = None
    require_nonneg_roots: bool = False

    @staticmethod
    def hyperbolic() -> "ClassSpec":
        return ClassSpec()

    @staticmethod
    def hp_ge(alpha) -> "ClassSpec":
        return ClassSpec(mesh_bound=as_fraction(alpha))

    @staticmethod
    def hp_plus_ge(alpha) -> "ClassSpec":
        return ClassSpec(mesh_bound=as_fraction(alpha), require_nonneg_roots=True)

    @property
    def label(self) -> str:
        if self.mesh_bound is None:
            return "HP+" if self.require_nonneg_roots else "HP"
        base = "HP+" if self.require_nonneg_roots else "HP"
        return f"{base}>={self.mesh_bound}"


def wronskian(p: Polynomial, q: Polynomial) -> Polynomial:
    """W(p, q) = p q' - p' q."""
    return p * q.derivative() - p.derivative() * q


def nonneg_on_reals(w: Polynomial) -> bool:
    """Exact check that w(x) >= 0 for every real x.

    Holds exactly when w is identically zero, or has positive leading
    coefficient, even degree, and no real root of odd multiplicity: each
    Yun factor of odd multiplicity has a Sturm count of 0 on the line.
    """
    if w.is_zero:
        return True
    if w.leading_coefficient < 0:
        return False
    if int(w.degree) % 2 == 1:
        return False
    return all(intpoly.variation_drop(chain) == 0
               for chain, mult in intpoly.factor_chains(w.nums) if mult % 2)


def negativity_point(w: Polynomial) -> Optional[Fraction]:
    """A rational point where w is negative, or None when w >= 0 everywhere."""
    if nonneg_on_reals(w):
        return None
    f = intpoly.primitive(w.nums)
    bound = intpoly.cauchy_bound(f)
    # one probe inside every sign region: beyond the extreme roots, and
    # strictly between each pair of adjacent distinct roots
    nodes = root_data(w)
    for n in nodes:
        n.try_rational()
    probes = [-bound]
    for left, right in zip(nodes, nodes[1:]):
        # an exact root of one Yun factor can end its neighbour's
        # interval: narrow the neighbour off it
        while left.hi == right.lo and (left.a == left.b or right.a == right.b):
            (left if right.a == right.b else right).refine()
        probes.append((left.hi + right.lo) / 2)
    probes.append(bound)
    for x in probes:
        if intpoly.sign_at(f, x) < 0:
            return x
    raise AssertionError("negative value exists but was not located")


def _merge_order(nodes_p: list, nodes_q: list):
    """Global rank for every node; equal roots across the two lists share a rank."""
    gcd_cache: dict = {}
    partner: dict = {}
    for a in nodes_p:
        for b in nodes_q:
            if _common_root(a, b, gcd_cache):
                partner[id(a)] = b
                partner[id(b)] = a

    def cmp(x: intpoly.IsolatedRoot, y: intpoly.IsolatedRoot) -> int:
        if x is y or partner.get(id(x)) is y:
            return 0
        # distinct roots with disjoint structures: endpoints decide
        return -1 if _precedes(x, y) else 1

    merged = sorted(nodes_p + nodes_q, key=cmp_to_key(cmp))
    ranks: dict = {}
    rank = -1
    prev = None
    for n in merged:
        if prev is not None and cmp(prev, n) == 0:
            ranks[id(n)] = rank
        else:
            rank += 1
            ranks[id(n)] = rank
        prev = n
    gamma = [ranks[id(n)] for n in nodes_p for _ in range(n.multiplicity)]
    delta = [ranks[id(n)] for n in nodes_q for _ in range(n.multiplicity)]
    return gamma, delta


def _pattern(gamma: list, delta: list) -> bool:
    # gamma_1 <= delta_1 <= gamma_2 <= delta_2 <= ... covering all entries
    if len(delta) not in (len(gamma) - 1, len(gamma)):
        return False
    for i, d in enumerate(delta):
        if i < len(gamma) and gamma[i] > d:
            return False
        if i + 1 < len(gamma) and d > gamma[i + 1]:
            return False
    return True


def _interlaces(gamma: list, delta: list) -> bool:
    if not gamma or not delta:
        return abs(len(gamma) - len(delta)) <= 1
    return _pattern(gamma, delta) or _pattern(delta, gamma)


def proper_position(p: Polynomial, q: Polynomial) -> ProperPositionVerdict:
    """Exact verdict on p << q, with a witness describing any failure."""
    if p.is_zero and q.is_zero:
        return ProperPositionVerdict(True, True, True)
    if p.is_zero or q.is_zero:
        other = q if p.is_zero else p
        prof = root_profile(other)
        if prof.is_hyperbolic:
            return ProperPositionVerdict(True, True, True)
        return ProperPositionVerdict(
            False, True, True,
            {"condition": "non-hyperbolic-operand",
             "operand": "q" if p.is_zero else "p"})
    prof_p = root_profile(p)
    if not prof_p.is_hyperbolic:
        return ProperPositionVerdict(
            False, False, False, {"condition": "non-hyperbolic-operand", "operand": "p"})
    prof_q = root_profile(q)
    if not prof_q.is_hyperbolic:
        return ProperPositionVerdict(
            False, False, False, {"condition": "non-hyperbolic-operand", "operand": "q"})
    if abs(int(p.degree) - int(q.degree)) > 1:
        return ProperPositionVerdict(
            False, False, False,
            {"condition": "degree-gap", "degrees": [int(p.degree), int(q.degree)]})
    gamma, delta = _merge_order(prof_p.nodes, prof_q.nodes)
    interlaces = _interlaces(gamma, delta)
    w = wronskian(p, q)
    if interlaces:
        # interlacing roots give w one sign on the real line
        # (Hermite-Kakeya-Obreschkoff), so its leading coefficient is it
        w_ok = w.is_zero or w.leading_coefficient > 0
    else:
        w_ok = nonneg_on_reals(w)
    witness = None
    if not interlaces:
        witness = {
            "condition": "interlacing-failed",
            "p_roots_approx": approximations(prof_p.nodes, Fraction(1, 10**6)),
            "q_roots_approx": approximations(prof_q.nodes, Fraction(1, 10**6)),
        }
    elif not w_ok:
        x0 = negativity_point(w)
        witness = {
            "condition": "wronskian-negative",
            "point": str(x0),
            "value": str(w.evaluate(x0)),
        }
    return ProperPositionVerdict(interlaces and w_ok, interlaces, w_ok, witness)


def class_membership(p: Polynomial, spec: ClassSpec) -> bool:
    """Exact membership of p in a hyperbolicity class with optional bounds.

    Answered from counts alone, by p's cached record in roots:
    real-rootedness and the sign bound by Sturm counts per Yun factor,
    the mesh bound by one Cauchy index (roots.mesh_at_least has the
    proof).  The zero polynomial is rejected outright (ValueError): it
    belongs to no class here, and callers that can produce it must
    handle it first.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no class membership")
    rec = _record(p)
    if not rec.real_rooted:
        return False
    if spec.require_nonneg_roots and not rec.no_negative_root:
        return False
    return spec.mesh_bound is None or _mesh_ok(rec, spec.mesh_bound)


def quadratic_hp1plus(A, B, C) -> bool:
    """Membership of A x(x-1) - 2Bx + C in the mesh-1 non-negative-root class.

    Closed-form criterion for A > 0 and B, C >= 0: the polynomial lies in
    the class exactly when AC <= B^2 + AB.  Serves as an independent
    oracle against class_membership on the same quadratic.
    """
    A = as_fraction(A)
    B = as_fraction(B)
    C = as_fraction(C)
    if A <= 0:
        raise ValueError("quadratic criterion needs A > 0")
    if B < 0 or C < 0:
        raise ValueError("quadratic criterion needs B, C >= 0")
    return A * C <= B * B + A * B
