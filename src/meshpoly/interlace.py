"""Proper position of real-rooted polynomials, and membership in mesh classes.

p is in proper position to q (written p << q) when their root multisets
interlace with p leading from the left and the Wronskian p q' - p' q is
non-negative on the whole real line.  The zero polynomial is in proper
position to every hyperbolic polynomial on both sides.  Every verdict
goes by counts, with no root isolated: real-rootedness from the records
of roots (is_hyperbolic), interlacing from one Cauchy index, as in
roots._mesh_ok, and then the Wronskian's one sign on the real line
(Hermite-Kakeya-Obreschkoff) from leading coefficients (proper_position
has the proofs).  For roots that do not interlace, nonneg_on_reals
decides W >= 0 by Sturm counts: no Yun factor of odd multiplicity has a
real root.  Only the witnesses read an isolation (roots.root_data, one
isolation of the square-free part): the displayed root approximations
of an interlacing failure, and negativity_point, which tests the sign
of w between adjacent distinct roots.

proper_position is the paper's characterization of the mesh classes: a
hyperbolic p has mesh >= alpha exactly when p << p(x - alpha).  It is
public, and the tests use it as an oracle, but class membership does not
go through it: class_membership asks one Cauchy index of the record of
roots (roots._mesh_ok) and Descartes' rule, with no Wronskian.
"""

from __future__ import annotations

from fractions import Fraction

from . import intpoly
from .poly import Polynomial, as_fraction, rational_text
from .roots import (_mesh_ok, _nonneg, _record, approximations,
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


class ProperPositionVerdict:
    __slots__ = ("holds", "interlaces", "wronskian_nonneg", "failure_witness")

    def __init__(self, holds: bool, interlaces: bool, wronskian_nonneg: bool,
                 failure_witness: dict | None = None):
        self.holds, self.interlaces = holds, interlaces
        self.wronskian_nonneg = wronskian_nonneg
        self.failure_witness = failure_witness

    def __bool__(self) -> bool:
        return self.holds


class _Frozen:
    """A record equal and hashed by the values of its fields, its
    __slots__, which only __init__ sets (with object.__setattr__)."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, not by assignment
        return type(self), self._values()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class ClassSpec(_Frozen):
    """A class of hyperbolic polynomials cut out by mesh and root-sign bounds."""

    __slots__ = ("mesh_bound", "require_nonneg_roots")

    def __init__(self, mesh_bound: Fraction | None = None,
                 require_nonneg_roots: bool = False):
        object.__setattr__(self, "mesh_bound", mesh_bound)
        object.__setattr__(self, "require_nonneg_roots", require_nonneg_roots)

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
    The Sturm chain of w that starts Yun's decomposition is the count
    itself when w is squarefree.
    """
    if w.is_zero:
        return True
    if w.leading_coefficient < 0:
        return False
    if int(w.degree) % 2 == 1:
        return False
    f = intpoly.primitive(w.nums)
    chain = intpoly.sturm_chain(f)
    if len(chain[-1]) == 1:
        return intpoly.variation_drop(chain) == 0
    return all(intpoly.variation_drop(intpoly.sturm_chain(g)) == 0
               for g, mult in intpoly.yun(f, chain) if mult % 2)


def negativity_point(w: Polynomial) -> Fraction | None:
    """A rational point where w is negative, or None when w >= 0 everywhere."""
    if nonneg_on_reals(w):
        return None
    f = intpoly.primitive(w.nums)
    bound = intpoly.cauchy_bound(f)
    # one probe inside every sign region: beyond the extreme roots, and
    # between each pair of adjacent distinct roots, where the ends of
    # the open isolating intervals are no roots
    nodes = root_data(w)
    probes = [-bound, *((a.hi + b.lo) / 2 for a, b in zip(nodes, nodes[1:])),
              bound]
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
    on the line, which picks the order.  Let P be the operand of larger
    degree n (p on a tie), Q the other, D = Q when deg Q = n - 1 and D =
    lc(P) Q - lc(Q) P when deg Q = n.  The roots interlace exactly when
    D = 0 (as when n = 0) or |Ind(D/P)| = n - deg gcd(P, D), read as
    roots._mesh_ok reads it (intpoly.full_index).

    Proof.  Let N_p(t) be the number of roots of p that are <= t.  The
    roots interlace exactly when N_p - N_q takes its values in {0, 1}
    everywhere (p leading), or in {-1, 0} everywhere (q leading).
    Removing a common root from both multisets leaves every N_p(t) -
    N_q(t) unchanged, so with g = gcd(P, Q), P and Q interlace exactly
    when the coprime P1 = P/g and Q1 = Q/g do: when their roots are
    simple and alternate.  D = 0 exactly when P1 and Q1 are constant.
    Otherwise |Ind(D/P)| = |Ind(Q1/P1)| and gcd(P, D) = g, and by
    mesh_at_least's proof, with q/f replaced by Q1/P1, the equation
    holds exactly when the m = deg P1 roots of P1 are simple and the
    jumps there, of the signs of the residues Q1(r) / P1'(r), all have
    one sign, i.e. when Q1 changes sign between adjacent roots of P1,
    as P1' does.  Q1 has m - 1 or m roots, so that is one root in each
    gap and at most one outside them: alternation, which conversely
    makes the roots simple and puts one root of Q1 in each gap.

    Once the roots interlace, W has the one sign of its lead on the line
    (Hermite-Kakeya-Obreschkoff): W(P, Q) = W(P, D) / lc(P) for equal
    degrees, W(P, D) has lead -lc(P) lc(D) as deg D = n - 1, so
    sign(lc W(P, Q)) = -sign(lc D), times sign(lc P) when D = Q, W(p, q)
    = -W(P, Q) when P is q, and W = 0 when D = 0.  W is formed only on a
    failure, for nonneg_on_reals or negativity_point's witness.
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
    swapped = len(q.nums) > len(p.nums)
    P, Q = (q, p) if swapped else (p, q)
    f, g = intpoly.primitive(P.nums), Q.nums
    equal = len(g) == len(f)
    d = intpoly.trim([f[-1] * x - g[-1] * y for x, y in zip(g, f)]) \
        if equal else g
    if not d:
        return ProperPositionVerdict(True, True, True)
    if intpoly.full_index(f, d) is None:
        w_ok = nonneg_on_reals(wronskian(p, q))
        tol = Fraction(1, 10**6)
        return ProperPositionVerdict(False, False, w_ok, {
            "condition": "interlacing-failed",
            "p_roots_approx": approximations(root_data(p), tol),
            "q_roots_approx": approximations(root_data(q), tol),
        })
    lead = d[-1] if equal else d[-1] * f[-1]
    if (lead < 0) != swapped:
        return ProperPositionVerdict(True, True, True)
    w = wronskian(p, q)
    x0 = negativity_point(w)
    return ProperPositionVerdict(False, True, False, {
        "condition": "wronskian-negative",
        "point": rational_text(x0),
        "value": rational_text(w.evaluate(x0)),
    })


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
    return not spec.require_nonneg_roots or _nonneg(rec)


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
