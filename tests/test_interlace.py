"""Class membership, proper position, and the quadratic shortcut.

proper_position decides interlacing by one Cauchy index, |Ind(D/P)|,
for P the operand of larger degree and D the other operand or its lead
difference with P, and the Wronskian's sign on interlacing pairs from
the leads of D and P.  Its reference below is the procedure it once
ran: isolate both root lists, merge them, with shared roots certified
by a gcd root count, and check the alternation of the merged ranks.
"""

from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key

import pytest

from meshpoly import (
    ClassSpec,
    is_hyperbolic,
    Polynomial,
    class_membership,
    negativity_point,
    nonneg_on_reals,
    proper_position,
    quadratic_hp1plus,
    wronskian,
)
from meshpoly import roots
from meshpoly.fixtures import derive_rng
from test_nodes import int_common_root, int_precedes
from test_real_roots import (ref_nonneg_on_reals, ref_profile_flags,
                             translate)


def test_class_spec_labels():
    assert ClassSpec.hyperbolic().label == "HP"
    assert ClassSpec.hp_ge(1).label == "HP>=1"
    assert ClassSpec.hp_ge(F(1, 2)).label == "HP>=1/2"
    assert ClassSpec.hp_plus_ge(1).label == "HP+>=1"


def test_class_membership_mesh_and_sign():
    p = Polynomial.from_roots([0, 2, 4])
    assert class_membership(p, ClassSpec.hyperbolic())
    assert class_membership(p, ClassSpec.hp_ge(2))
    assert not class_membership(p, ClassSpec.hp_ge(3))
    assert class_membership(p, ClassSpec.hp_plus_ge(2))
    # one negative root breaks the nonnegativity requirement only
    q = Polynomial.from_roots([-1, 1])
    assert class_membership(q, ClassSpec.hp_ge(2))
    assert not class_membership(q, ClassSpec.hp_plus_ge(2))
    assert not class_membership(Polynomial([1, 0, 1]), ClassSpec.hyperbolic())


def test_class_membership_low_degree():
    # degree <= 1 never constrains the mesh
    assert class_membership(Polynomial([5]), ClassSpec.hp_ge(100))
    assert class_membership(Polynomial([0, 1]), ClassSpec.hp_plus_ge(3))
    assert not class_membership(Polynomial([1, 1]), ClassSpec.hp_plus_ge(1))  # root -1
    with pytest.raises(ValueError):
        class_membership(Polynomial([]), ClassSpec.hyperbolic())


def test_proper_position_shift_characterization():
    # mesh >= alpha iff p sits properly left of its right-shift by alpha
    p = Polynomial.from_roots([0, 2, 4])
    assert proper_position(p, p.shift(2)).holds
    assert not proper_position(p, p.shift(F(5, 2))).holds
    v = proper_position(Polynomial.from_roots([0, 2]), Polynomial.from_roots([1, 3]))
    assert v.holds and v.interlaces and v.wronskian_nonneg


def test_proper_position_failure_modes():
    # same roots reversed: interlacing order flips
    v = proper_position(Polynomial.from_roots([1, 3]), Polynomial.from_roots([0, 2]))
    assert not v.holds
    assert v.failure_witness is not None


def test_wronskian_sign():
    p = Polynomial.from_roots([0, 2])
    q = Polynomial.from_roots([1, 3])
    w = wronskian(p, q)
    assert nonneg_on_reals(w)
    assert negativity_point(wronskian(q, p)) is not None


def test_quadratic_shortcut_matches_membership():
    # A y(y-1) - 2 B y + C with A > 0, B, C >= 0
    cases = [(1, 0, 0), (1, 1, 0), (2, 1, 1), (1, 0, 1), (3, 2, 5), (1, 5, 1)]
    for A, B, C in cases:
        q = Polynomial([C, -2 * B - A, A])
        assert quadratic_hp1plus(A, B, C) == class_membership(q, ClassSpec.hp_plus_ge(1))


def test_quadratic_shortcut_boundary():
    # AC = B^2 + AB is the extreme case: double root, mesh 0 < 1 unless B = C = 0
    assert quadratic_hp1plus(1, 0, 0)
    assert not quadratic_hp1plus(1, 1, 3)  # AC - B^2 - AB = 1 > 0
    assert quadratic_hp1plus(1, 1, 2)  # = 0: roots split by at least 1


def _pair_corpus(n=1500):
    """Real-rooted (p, q) pairs of degree 0-6: p with its derivative
    (degree gap 1), with a translate, with a multiple of itself (W = 0),
    with a polynomial sharing a double root, with roots placed between
    p's roots, and at random; each pair in either order, with its kind
    (t % 6; 3 is the shared double root)."""
    pairs = []
    for t in range(n):
        rng = derive_rng(7, "proper-position-pairs", t)

        def point():
            return F(rng.randint(-6, 6), rng.choice((1, 2, 3)))

        def rooted(rts):
            return Polynomial.from_roots(sorted(rts),
                                         lead=rng.choice((-2, -1, 1, 3)))

        def between(rts):
            s = sorted(set(rts))
            return [a + (b - a) * F(rng.randint(0, 4), 4)
                    for a, b in zip(s, s[1:])]

        rts = [point() for _ in range(rng.randint(0, 5))]
        p = rooted(rts)
        kind = t % 6
        if kind == 0:
            p = rooted(rts + [point()])
            q = p.derivative()
        elif kind == 1:
            q = p.shift(rng.choice((F(1, 2), F(1), F(2))))
        elif kind == 2:
            q = p * F(rng.choice((-3, 2, 5)), rng.choice((1, 7)))
        elif kind == 3:
            r = point()
            p = rooted(rts + [r, r])
            others = (between(rts) if rng.random() < 0.7 else
                      [point() for _ in range(rng.randint(0, 4))])
            q = rooted(others + [r, r])
        elif kind == 4:
            q = rooted(between(rts) + [point() for _ in range(rng.randint(0, 1))])
        else:
            q = rooted([point() for _ in range(len(rts) + rng.randint(-1, 1))])
        pairs.append(((q, p) if rng.random() < 0.5 else (p, q)) + (kind,))
    return pairs


def test_interlacing_wronskian_sign_by_leading_coefficient():
    """Once the roots interlace, proper_position reads the Wronskian's
    sign from the leads of D and P and from which operand P is
    (Hermite-Kakeya-Obreschkoff); it must equal the Sturm-count
    decision nonneg_on_reals(W).  P is the operand of larger degree, p
    on a tie, and D = 0 exactly when W = 0."""
    seen = {"w >= 0": 0, "w not >= 0": 0, "w = 0": 0, "shared double": 0,
            "degree gap 1": 0, "not interlacing": 0, "P is q": 0,
            "equal degrees with D != 0": 0, "negative lc(P)": 0}
    for p, q, kind in _pair_corpus():
        assert is_hyperbolic(p) and is_hyperbolic(q)
        v = proper_position(p, q)
        w = wronskian(p, q)
        if not v.interlaces:
            seen["not interlacing"] += 1
            continue
        nonneg = nonneg_on_reals(w)
        assert v.wronskian_nonneg == nonneg, (p, q)
        seen["w >= 0" if nonneg else "w not >= 0"] += 1
        seen["w = 0"] += w.is_zero
        seen["degree gap 1"] += abs(p.degree - q.degree) == 1
        seen["shared double"] += kind == 3
        seen["P is q"] += q.degree == p.degree + 1
        seen["equal degrees with D != 0"] += \
            p.degree == q.degree and not w.is_zero
        P = q if q.degree > p.degree else p
        seen["negative lc(P)"] += P.leading_coefficient < 0
    assert min(seen.values()) >= 50, seen


# -- proper position against the merge of two root lists -----------------

def ref_merge_order(nodes_p, nodes_q):
    """Global rank for every node; equal roots across the two lists
    share a rank."""
    gcd_cache = {}
    partner = {}
    for a in nodes_p:
        for b in nodes_q:
            if int_common_root(a, b, gcd_cache):
                partner[id(a)] = b
                partner[id(b)] = a

    def cmp(x, y):
        if x is y or partner.get(id(x)) is y:
            return 0
        # distinct roots with disjoint structures: endpoints decide
        return -1 if int_precedes(x, y) else 1

    merged = sorted(nodes_p + nodes_q, key=cmp_to_key(cmp))
    ranks = {}
    rank = -1
    prev = None
    for n in merged:
        if prev is None or cmp(prev, n) != 0:
            rank += 1
        ranks[id(n)] = rank
        prev = n
    gamma = [ranks[id(n)] for n in nodes_p for _ in range(n.multiplicity)]
    delta = [ranks[id(n)] for n in nodes_q for _ in range(n.multiplicity)]
    return gamma, delta


def ref_pattern(gamma, delta):
    # gamma_1 <= delta_1 <= gamma_2 <= delta_2 <= ... covering all entries
    if len(delta) not in (len(gamma) - 1, len(gamma)):
        return False
    for i, d in enumerate(delta):
        if i < len(gamma) and gamma[i] > d:
            return False
        if i + 1 < len(gamma) and d > gamma[i + 1]:
            return False
    return True


def ref_interlaces(gamma, delta):
    if not gamma or not delta:
        return abs(len(gamma) - len(delta)) <= 1
    return ref_pattern(gamma, delta) or ref_pattern(delta, gamma)


def ref_proper_position(p, q):
    """(holds, interlaces, wronskian_nonneg, witness) by the merge of the
    root_data nodes of p and q, hyperbolicity by the nodes'
    multiplicities.  An interlacing-failed witness also carries each
    node's exact root (or None) after the display probing, under
    "p_exact" and "q_exact"."""
    if p.is_zero and q.is_zero:
        return True, True, True, None
    if p.is_zero or q.is_zero:
        other = q if p.is_zero else p
        if ref_profile_flags(roots.root_data(other), other.degree)[0]:
            return True, True, True, None
        return False, True, True, {"condition": "non-hyperbolic-operand",
                                   "operand": "q" if p.is_zero else "p"}
    nodes = {}
    for name, operand in (("p", p), ("q", q)):
        nodes[name] = roots.root_data(operand)
        if not ref_profile_flags(nodes[name], operand.degree)[0]:
            return False, False, False, {"condition": "non-hyperbolic-operand",
                                         "operand": name}
    if abs(p.degree - q.degree) > 1:
        return False, False, False, {"condition": "degree-gap",
                                     "degrees": [p.degree, q.degree]}
    interlaces = ref_interlaces(*ref_merge_order(nodes["p"], nodes["q"]))
    w = wronskian(p, q)
    if interlaces:
        w_ok = w.is_zero or w.leading_coefficient > 0
    else:
        w_ok = ref_nonneg_on_reals(w)
    witness = None
    if not interlaces:
        witness = {"condition": "interlacing-failed"}
        for name in "pq":
            witness[f"{name}_roots_approx"] = roots.approximations(
                nodes[name], F(1, 10**6))
            witness[f"{name}_exact"] = [n.exact for n in nodes[name]]
    elif not w_ok:
        witness = {"condition": "wronskian-negative"}
    return interlaces and w_ok, interlaces, w_ok, witness


def _compare(p, q, seen):
    """proper_position(p, q) against the reference; tallies into seen."""
    v = proper_position(p, q)
    holds, interlaces, w_ok, want = ref_proper_position(p, q)
    assert (v.holds, v.interlaces, v.wronskian_nonneg) == \
        (holds, interlaces, w_ok), (p, q)
    got = v.failure_witness
    condition = want and want["condition"]
    assert (got and got["condition"]) == condition, (p, q)
    seen[condition or "holds"] += 1
    if condition == "interlacing-failed":
        for name in "pq":
            approx = got[f"{name}_roots_approx"]
            ref = want[f"{name}_roots_approx"]
            assert len(approx) == len(ref), (p, q)
            for a, b, exact in zip(approx, ref, want[f"{name}_exact"]):
                if exact is not None:
                    assert a == b, (p, q)
                else:
                    assert abs(a - b) <= 1e-6, (p, q)
                    seen["inexact root"] += 1
    elif condition == "wronskian-negative":
        w = wronskian(p, q)
        x = F(got["point"])
        assert w.evaluate(x) < 0 and got["value"] == str(w.evaluate(x))
    else:
        assert got == want, (p, q)
    return v


def test_proper_position_matches_merge_reference():
    seen = Counter()
    for p, q, _ in _pair_corpus():
        _compare(p, q, seen)
    assert min(seen[c] for c in ("holds", "interlacing-failed",
                                 "wronskian-negative")) >= 50, seen


def _wide_pair_corpus(n=6000):
    """(p, q) pairs of degree 0-10, by kind t % 8: 0 an unshared root of
    multiplicity 3 or 4; 1 such a root shared in part (q has it once
    less, as often, or once more), with q's other roots between p's;
    2 a degree gap of 0-3; 3 an operand with no real root; 4 a zero
    operand (the other one constant, real-rooted or not); 5 irrational
    roots (translates of x^2 - 2); 6 roots between p's with a shared
    root of multiplicity 1-3; 7 at random, roots of multiplicity 1-3.
    Each pair in either order."""
    pairs = []
    for t in range(n):
        rng = derive_rng(7, "proper-position-wide", t)

        def point():
            return F(rng.randint(-6, 6), rng.choice((1, 2, 3)))

        def rooted(rts, *factors):
            p = Polynomial.from_roots(sorted(rts),
                                      lead=rng.choice((-3, -1, 1, 2)))
            for f in factors:
                p = p * Polynomial(f)
            return p

        def between(rts):
            s = sorted(set(rts))
            return [a + (b - a) * F(rng.randint(1, 3), 4)
                    for a, b in zip(s, s[1:])]

        def no_real_root():
            return [rng.randint(1, 3), rng.randint(-1, 1), 1]

        def sqrt2_at():
            return translate([-2, 0, 1], point())

        kind = t % 8
        rts = [point() for _ in range(rng.randint(0, 4))]
        r = point()
        m = rng.choice((3, 4))
        if kind == 0:
            p = rooted(rts + [r] * m)
            others = between(rts + [r])
            others += [point() for _ in range(rng.randint(0, 1))]
            q = rooted(others + [point()] * rng.choice((1, 3)))
        elif kind == 1:
            p = rooted(rts + [r] * m)
            others = between(rts + [r])
            q = rooted(others + [r] * (m + rng.choice((-1, -1, 0, 1))))
        elif kind == 2:
            p = rooted(rts)
            q = rooted([point() for _ in range(len(rts) + rng.randint(0, 3))])
        elif kind == 3:
            p = rooted(rts, no_real_root())
            q = (rooted(between(rts)) if rng.random() < 0.5 else
                 rooted([point() for _ in range(len(rts))], no_real_root()))
        elif kind == 4:
            p = Polynomial([])
            q = rng.choice((Polynomial([rng.randint(1, 5)]), rooted(rts),
                            rooted(rts, no_real_root())))
        elif kind == 5:
            p = rooted(rts, sqrt2_at())
            q = rooted(between(rts + [r]) if rts else [r], sqrt2_at())
        elif kind == 6:
            shared = [r] * rng.randint(1, 3)
            p = rooted(rts + shared)
            others = between(rts)
            others += [point() for _ in range(rng.randint(0, 1))]
            q = rooted(others + shared)
        else:
            def multiset(k):
                return [x for _ in range(k)
                        for x in [point()] * rng.choice((1, 1, 2, 3))]
            p = rooted(multiset(rng.randint(0, 3)))
            q = rooted(multiset(rng.randint(0, 3)))
        pairs.append((q, p) if rng.random() < 0.5 else (p, q))
    return pairs


def test_proper_position_matches_merge_reference_on_wide_corpus():
    """Unshared roots of multiplicity >= 3, degree gaps 0-3, operands
    with no real root and zero operands, against the merge reference."""
    seen = Counter()
    pairs = _wide_pair_corpus()
    assert len(pairs) >= 6000
    for p, q in pairs:
        v = _compare(p, q, seen)
        if p.is_zero or q.is_zero:
            seen["zero operand"] += 1
            continue
        seen[f"degree gap {abs(p.degree - q.degree)}"] += 1
        if v.failure_witness and \
                v.failure_witness["condition"] == "interlacing-failed":
            w = wronskian(p, q)
            seen["one-signed W"] += nonneg_on_reals(w) or nonneg_on_reals(-w)
    for key in ("holds", "interlacing-failed", "wronskian-negative",
                "non-hyperbolic-operand", "degree-gap", "inexact root",
                "zero operand", "one-signed W", "degree gap 0",
                "degree gap 1", "degree gap 2", "degree gap 3"):
        assert seen[key] >= 40, seen


@pytest.mark.parametrize("p_roots, q_roots", [
    ([0, 0, 0], [1, 1, 1]),
    ([-2, -2, -2, F(2, 3), F(9, 2)], [-4, -4, -4, F(-4, 3), F(5, 2)]),
])
def test_one_signed_wronskian_without_interlacing(p_roots, q_roots):
    """W has one sign on the line, yet the roots do not interlace: the
    index must not take W's sign for interlacing."""
    p, q = Polynomial.from_roots(p_roots), Polynomial.from_roots(q_roots)
    for a, b in ((p, q), (q, p)):
        w = wronskian(a, b)
        assert nonneg_on_reals(w) or nonneg_on_reals(-w)
        v = _compare(a, b, Counter())
        assert not v.interlaces and not v.holds
        assert v.failure_witness["condition"] == "interlacing-failed"
