"""Proper position of real-rooted polynomials, and membership in mesh classes.

p is in proper position to q (written p << q) when their root multisets
interlace with p leading from the left and the Wronskian p q' - p' q is
non-negative on the whole real line.  The zero polynomial is in proper
position to every hyperbolic polynomial on both sides.  Every verdict
goes by counts, with no root isolated: real-rootedness from the records
of roots (is_hyperbolic), interlacing from one Sturm count of the
Wronskian of p and q with their gcd divided out (proper_position has
the proof).  Once the roots interlace, the Wronskian has one sign on
the real line (Hermite-Kakeya-Obreschkoff), so its leading coefficient
decides it.  Otherwise nonneg_on_reals decides it by Sturm counts: no
Yun factor of odd multiplicity has a real root.  Only the witnesses
read an isolation (roots.root_data): the displayed root approximations
of an interlacing failure, and negativity_point, which tests the sign
of w between adjacent roots.

proper_position is the paper's characterization of the mesh classes: a
hyperbolic p has mesh >= alpha exactly when p << p(x - alpha).  It is
public, and the tests use it as an oracle, but class membership does not
go through it: class_membership asks one Cauchy index of the record of
roots (roots._mesh_ok) and Descartes' rule, with no Wronskian.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import intpoly
from .poly import Polynomial, as_fraction
from .roots import (_mesh_ok, _no_negative_root, _record, approximations,
                    is_hyperbolic, root_data)

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


def proper_position(p: Polynomial, q: Polynomial) -> ProperPositionVerdict:
    """Exact verdict on p << q, with a witness describing any failure.

    p << q needs real-rooted p and q whose root multisets interlace, p
    leading: counted with multiplicity, gamma_1 <= delta_1 <= gamma_2 <=
    delta_2 <= ... for p's roots gamma and q's roots delta, or the same
    with q leading (interlaces is either order); and W = p q' - p' q >= 0
    on the line, which picks the order.  Interlacing is decided by one
    count, with no root isolated: with g = gcd(p, q), p1 = p/g and
    q1 = q/g, the roots of p and q interlace exactly when W1 = p1 q1' -
    p1' q1 is zero or has no real root (Sturm count 0 from -inf to +inf).

    Proof.  Let N_p(t) be the number of roots of p that are <= t.  The
    roots interlace exactly when N_p - N_q takes its values in {0, 1}
    everywhere (p leading), or in {-1, 0} everywhere (q leading).
    Removing a common root from both multisets leaves every N_p(t) -
    N_q(t) unchanged, so p and q interlace exactly when the coprime,
    real-rooted p1 and q1 do, and for these interlacing is strict
    alternation of simple roots.
    If they alternate, W1 is zero or has no real root.  W1 = 0 exactly
    when p1 and q1 are both constant.  Otherwise let p1 have the larger
    degree n >= 1 (W(q1, p1) = -W1 has the same roots).  p1 has simple
    roots r_1 < ... < r_n, and q1/p1 = c + sum a_i / (x - r_i) with a_i =
    q1(r_i) / p1'(r_i).  q1 has one root between adjacent r_i, so
    q1(r_i) alternates in sign, as p1'(r_i) does, and every a_i is
    nonzero with one sign.  Then W1 / p1^2 = (q1/p1)' = -sum a_i /
    (x - r_i)^2 is nonzero off the r_i, and W1(r_i) = -p1'(r_i) q1(r_i)
    is nonzero.
    Conversely, let W1 have no real root.  At a multiple root of p1 or
    q1, W1 vanishes, so both are squarefree.  Between adjacent roots of
    p1, (q1/p1)' = W1 / p1^2 has one sign, and q1/p1 runs from one
    infinity to the other, since the poles are simple and q1 does not
    vanish there: exactly one root of q1 lies between them.  By the same
    argument for q1/p1's reciprocal, exactly one root of p1 lies between
    adjacent roots of q1.  So no two roots of one polynomial are
    adjacent in the merged order: the roots alternate.

    Once the roots interlace, W has one sign on the real line
    (Hermite-Kakeya-Obreschkoff), so its leading coefficient decides it.
    Otherwise nonneg_on_reals decides it.
    """
    if p.is_zero and q.is_zero:
        return ProperPositionVerdict(True, True, True)
    if p.is_zero or q.is_zero:
        if is_hyperbolic(q if p.is_zero else p):
            return ProperPositionVerdict(True, True, True)
        return ProperPositionVerdict(
            False, True, True,
            {"condition": "non-hyperbolic-operand",
             "operand": "q" if p.is_zero else "p"})
    for name, operand in (("p", p), ("q", q)):
        if not is_hyperbolic(operand):
            return ProperPositionVerdict(
                False, False, False,
                {"condition": "non-hyperbolic-operand", "operand": name})
    if abs(int(p.degree) - int(q.degree)) > 1:
        return ProperPositionVerdict(
            False, False, False,
            {"condition": "degree-gap", "degrees": [int(p.degree), int(q.degree)]})
    g = intpoly.gcd(p.nums, q.nums)
    p1 = intpoly.divexact(intpoly.primitive(p.nums), g)
    q1 = intpoly.divexact(intpoly.primitive(q.nums), g)
    w1 = intpoly.sub(intpoly.mul(p1, intpoly.deriv(q1)),
                     intpoly.mul(intpoly.deriv(p1), q1))
    interlaces = not w1 or intpoly.variation_drop(intpoly.sturm_chain(w1)) == 0
    w = wronskian(p, q)
    if interlaces:
        w_ok = w.is_zero or w.leading_coefficient > 0
    else:
        w_ok = nonneg_on_reals(w)
    witness = None
    if not interlaces:
        tol = Fraction(1, 10**6)
        witness = {
            "condition": "interlacing-failed",
            "p_roots_approx": approximations(root_data(p), tol),
            "q_roots_approx": approximations(root_data(q), tol),
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

    Answered from counts alone, by p's cached record in roots: the mesh
    bound, none or below 0 taken as 0, is one Cauchy index, which also
    decides real-rootedness (roots._mesh_ok; at 0 it is Sturm's
    theorem).  The sign bound is Descartes' rule of signs, exact for
    a real-rooted p.
    The zero polynomial is rejected outright (ValueError): it belongs
    to no class here, and callers that can produce it must handle it
    first.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no class membership")
    rec = _record(p)
    alpha = spec.mesh_bound
    if alpha is None or alpha.numerator < 0:
        alpha = 0
    if not _mesh_ok(rec, alpha):
        return False
    return not spec.require_nonneg_roots or _no_negative_root(rec.f)


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
