"""Class membership, proper position, and the quadratic shortcut."""

from fractions import Fraction as F

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
from meshpoly.fixtures import derive_rng


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
    sign from its leading coefficient (Hermite-Kakeya-Obreschkoff); it
    must equal the Sturm-count decision nonneg_on_reals(W)."""
    seen = {"w >= 0": 0, "w not >= 0": 0, "w = 0": 0, "shared double": 0,
            "degree gap 1": 0, "not interlacing": 0}
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
    assert min(seen.values()) >= 50, seen
