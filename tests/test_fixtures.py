import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import meshpoly

from meshpoly import INF, ClassSpec, class_membership, mesh_numeric
from meshpoly.fixtures import derive_rng, gen_fixture, gen_rooted, rand_fraction


def test_derive_rng_is_keyed_and_stable():
    a = derive_rng(7, "layer", 3).random()
    b = derive_rng(7, "layer", 3).random()
    c = derive_rng(7, "layer", 4).random()
    d = derive_rng(8, "layer", 3).random()
    assert a == b
    assert a != c and a != d


def test_rand_fraction_bounds():
    rng = derive_rng(1, "rf")
    for _ in range(200):
        v = rand_fraction(rng, F(-2), F(3))
        assert F(-2) <= v <= F(3)
        assert v.denominator in (1, 2, 3, 4, 6, 8)


def test_gen_rooted_respects_spec():
    for t in range(40):
        rng = derive_rng(11, "gr", t)
        spec = [ClassSpec.hyperbolic(), ClassSpec.hp_ge(1),
                ClassSpec.hp_plus_ge(F(1, 2))][t % 3]
        fx = gen_rooted(spec, 1 + t % 5, rng)
        assert class_membership(fx.poly, spec)
        assert fx.poly.degree == 1 + t % 5
        assert len(fx.roots) == fx.poly.degree
        for r in fx.roots:
            assert fx.poly.evaluate(r) == 0


def test_exact_mesh_matches_numeric():
    rng = derive_rng(3, "mesh")
    for t in range(20):
        fx = gen_rooted(ClassSpec.hp_ge(1), 4, rng)
        rep = mesh_numeric(fx.poly)
        assert rep.exact_value == fx.exact_mesh
        assert fx.exact_mesh >= 1
        assert fx.roots[0] == min(fx.roots)


def test_gen_fixture_is_deterministic():
    p = gen_fixture(ClassSpec.hp_ge(1), 5, derive_rng(9, "det"))
    q = gen_fixture(ClassSpec.hp_ge(1), 5, derive_rng(9, "det"))
    assert p == q


def test_degree_zero_fixture():
    fx = gen_rooted(ClassSpec.hyperbolic(), 0, derive_rng(2, "c"))
    assert fx.poly.degree == 0
    assert fx.roots == ()
    assert fx.exact_mesh == INF
    assert gen_rooted(ClassSpec.hp_ge(1), 1, derive_rng(0, "one")).exact_mesh == INF


def test_negative_mesh_bound_keeps_roots_sorted():
    # a bound <= 0 asks for no gap, so each root still steps right
    fx = gen_rooted(ClassSpec.hp_ge(-1), 4, derive_rng(1, "neg", 0))
    ordered = sorted(fx.roots)
    assert list(fx.roots) == ordered
    assert fx.exact_mesh == min(b - a for a, b in zip(ordered, ordered[1:]))
    assert fx.roots[0] == ordered[0]


SELF_CHECK_UNDER_O = """
import meshpoly.fixtures as fx
from meshpoly import ClassSpec, Polynomial

class OffByOne:
    # the constructors as fixtures sees them, each off by 1 in the
    # constant term, so only the product comparison sees the fault
    constant = staticmethod(
        lambda c: Polynomial.constant(c) + Polynomial.constant(1))
    from_roots = staticmethod(
        lambda roots, lead=1:
        Polynomial.from_roots(roots, lead) + Polynomial.constant(1))

fx.Polynomial = OffByOne
print(__debug__)
for degree in (0, 3):
    try:
        fx.gen_rooted(ClassSpec.hp_ge(1), degree, fx.derive_rng(0, "O", degree))
    except AssertionError:
        print("raised")
"""


def test_fixture_self_check_survives_python_O():
    # python -O strips assert statements; the class self-check must stay
    src = str(Path(meshpoly.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-O", "-c", SELF_CHECK_UNDER_O],
                       env=env, capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["False", "raised", "raised"]
