"""Seeded differential test of the mesh decision against independent oracles.

For every fixture and every alpha, four answers to "mesh(p) >= alpha?"
must agree:

* roots.mesh_at_least, the adjacent-gap decision;
* the exact mesh the fixture has by construction;
* the proper-position characterization p << p(x - alpha);
* class_membership in HP>=alpha.

Quadratics in the form of the closed-form criterion are also checked for
HP+>=1 membership against quadratic_hp1plus.
"""

from fractions import Fraction as F

import pytest

from meshpoly import (
    ClassSpec,
    Polynomial,
    class_membership,
    mesh_at_least,
    proper_position,
    quadratic_hp1plus,
)
from meshpoly.fixtures import RootedFixture, derive_rng, gen_rooted, rand_fraction

ALPHAS = (F(0), F(1, 2), F(1), F(2))
SEED = 20


def _fixture(roots, lead=1):
    roots = tuple(sorted(F(r) for r in roots))
    return RootedFixture(Polynomial.from_roots(roots, lead=lead), roots, F(lead))


# built on purpose: repeated roots, roots at 0 and at isolation split
# points, degree 0 and 1, and adjacent gaps exactly equal to an alpha
BUILT = [
    _fixture([]),
    _fixture([], lead=F(-3, 2)),
    _fixture([0]),
    _fixture([F(-7, 3)], lead=-2),
    _fixture([1, 1]),
    _fixture([0, 0, 0]),
    _fixture([1, 1, 2]),
    _fixture([-1, 0, 0, F(5, 2)]),
    _fixture([0, F(1, 2)]),
    _fixture([0, 1, 2]),
    _fixture([-2, 0, 2]),  # x^3 - 4x: isolation first splits (-5, 5] at 0
    _fixture([-1, 0, 1], lead=F(1, 2)),
    _fixture([0, 1, 3, 5]),
    _fixture([F(1, 3), F(5, 6), F(11, 6)]),
    _fixture([F(-1, 2), 0, 1, F(3, 2), F(7, 2)]),
    _fixture([0, F(1, 2) - F(1, 10**9)]),
    _fixture([0, 1 + F(1, 10**9), 2 + F(1, 10**9)]),
]


def _seeded():
    specs = [ClassSpec.hyperbolic(), ClassSpec.hp_ge(F(1, 2)), ClassSpec.hp_ge(1),
             ClassSpec.hp_ge(2), ClassSpec.hp_plus_ge(1)]
    out = []
    for t in range(120):
        rng = derive_rng(SEED, "mesh-oracles", t)
        spec = specs[t % len(specs)]
        # small jitter with few denominators: repeated roots and gaps
        # equal to the class bound come up often
        out.append(gen_rooted(spec, t % 6, rng, root_range=3,
                              jitter=rng.choice((0, F(1, 2), 1, 2))))
    return out


def _oracles(fx, alpha):
    p = fx.poly
    return {
        "mesh_at_least": mesh_at_least(p, alpha),
        "exact_mesh": fx.exact_mesh >= alpha,
        "proper_position": proper_position(p, p.shift(alpha)).holds,
        "class_membership": class_membership(p, ClassSpec.hp_ge(alpha)),
    }


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_mesh_oracles_agree(alpha):
    fixtures = BUILT + _seeded()
    verdicts = set()
    for fx in fixtures:
        answers = _oracles(fx, alpha)
        assert len(set(answers.values())) == 1, (fx.roots, alpha, answers)
        verdicts.add(answers["exact_mesh"])
    # the corpus decides both ways at every positive alpha
    assert verdicts == ({True} if alpha == 0 else {True, False})


def test_seeded_corpus_covers_the_edge_cases():
    fixtures = _seeded()
    roots = [fx.roots for fx in fixtures]
    assert any(len(set(r)) < len(r) for r in roots)  # a repeated root
    assert any(0 in r for r in roots)
    assert {len(r) for r in roots} >= {0, 1}
    gaps = {b - a for r in roots for a, b in zip(r, r[1:])}
    assert set(ALPHAS) <= gaps


def _hp1plus_quadratics():
    """(A, B, C) with A > 0 and B, C >= 0: A x(x-1) - 2Bx + C."""
    cases = []
    for fx in BUILT + _seeded():
        if len(fx.roots) != 2:
            continue
        c0, c1, c2 = fx.poly.monomial_coeffs()
        if c2 < 0:
            c0, c1, c2 = -c0, -c1, -c2
        A, B, C = c2, -(c1 + c2) / 2, c0
        if B >= 0 and C >= 0:
            cases.append((A, B, C))
    rng = derive_rng(SEED, "mesh-oracles", "quadratics")
    for _ in range(60):
        cases.append((rand_fraction(rng, F(1, 8), 3), rand_fraction(rng, 0, 3),
                      rand_fraction(rng, 0, 3)))
    # the boundary AC = B^2 + AB: roots exactly 1 apart
    cases += [(F(1), F(1), F(2)), (F(2), F(1), F(3, 2)), (F(1), F(0), F(0))]
    return cases


def test_hp1plus_quadratics_match_closed_form():
    cases = _hp1plus_quadratics()
    verdicts = set()
    for A, B, C in cases:
        q = Polynomial([C, -2 * B - A, A])
        expected = quadratic_hp1plus(A, B, C)
        assert class_membership(q, ClassSpec.hp_plus_ge(1)) == expected, (A, B, C)
        verdicts.add(expected)
    assert verdicts == {True, False}
