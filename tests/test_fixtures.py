import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import meshpoly

from meshpoly import INF, ClassSpec, Polynomial, class_membership, mesh_numeric
from meshpoly.fixtures import derive_rng, gen_fixture, gen_rooted, rand_fraction
from meshpoly.poly import as_fraction


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


def ref_rand_fraction(rng, lo, hi, denominators=(1, 2, 3, 4, 6, 8)):
    """rand_fraction in Fractions, as fixtures drew before its integer draw."""
    lo = as_fraction(lo)
    hi = as_fraction(hi)
    den = rng.choice(denominators)
    a = -(-lo.numerator * den // lo.denominator)  # ceil(lo*den)
    b = hi.numerator * den // hi.denominator      # floor(hi*den)
    if a > b:
        return lo
    return F(rng.randint(a, b), den)


def test_rand_fraction_matches_fraction_reference():
    """Every kind of end rand_fraction takes (int, Fraction, 'num/den'
    string), against ref_rand_fraction: the same value, exactly a
    Fraction, and the same RNG state after each call."""
    ends = [-3, 0, 2, 12, F(-5, 2), F(1, 8), F(7, 3), F(3), "-3", "1/8",
            "7/3"]
    rng, ref_rng = derive_rng(7, "rf-ref"), derive_rng(7, "rf-ref")
    for lo in ends:
        for hi in ends:
            for t in range(20):
                v = rand_fraction(rng, lo, hi)
                assert type(v) is F
                assert v == ref_rand_fraction(ref_rng, lo, hi), (lo, hi, t)
                assert rng.getstate() == ref_rng.getstate(), (lo, hi, t)


def ref_gen_rooted(spec, degree, rng, root_range=12, jitter=2):
    """(poly, roots, lead) of gen_rooted in Fraction arithmetic: each root
    is the last one plus the class gap plus a jitter, and the polynomial
    is Polynomial.from_roots of them."""
    lead = as_fraction(rng.choice(
        (1, 1, 1, 2, 3, F(1, 2), F(3, 4), F(5, 2))))
    if degree == 0:
        return Polynomial.constant(lead), (), lead
    root_range = as_fraction(root_range)
    bound = spec.mesh_bound
    base_gap = bound if bound is not None and bound > 0 else F(0)
    lo = F(0) if spec.require_nonneg_roots else -root_range
    r = ref_rand_fraction(rng, lo, root_range)
    roots = [r]
    for _ in range(degree - 1):
        r = r + base_gap + ref_rand_fraction(rng, 0, jitter)
        roots.append(r)
    return Polynomial.from_roots(roots, lead=lead), tuple(roots), lead


def test_gen_rooted_matches_fraction_reference():
    """Integer root accumulation against ref_gen_rooted: the same poly
    (nums, den, basis), roots and lead, and the same RNG state after."""
    specs = [ClassSpec.hp_ge(a) for a in (F(1, 2), 1, F(3, 2), 2, 0, -1)]
    specs += [ClassSpec.hp_plus_ge(0), ClassSpec.hp_plus_ge(1),
              ClassSpec.hyperbolic()]
    for s, spec in enumerate(specs):
        for jitter in (2, F(3, 2), F(1, 2), F(1, 3), "1/3"):
            for root_range in (12, F(5, 2), "5/2"):
                for degree in range(11):
                    for t in range(3):
                        key = (s, str(jitter), str(root_range), degree, t)
                        rng = derive_rng(7, "stream", *key)
                        ref_rng = derive_rng(7, "stream", *key)
                        fx = gen_rooted(spec, degree, rng, root_range, jitter)
                        poly, rts, lead = ref_gen_rooted(
                            spec, degree, ref_rng, root_range, jitter)
                        assert (fx.poly.nums, fx.poly.den, fx.poly.basis) \
                            == (poly.nums, poly.den, poly.basis), key
                        assert (fx.roots, fx.lead) == (rts, lead), key
                        assert all(type(r) is F for r in fx.roots), key
                        assert type(fx.lead) is F, key
                        assert rng.getstate() == ref_rng.getstate(), key


def test_gen_fixture_is_gen_rooted_poly():
    """gen_fixture, which builds no roots, gives gen_rooted's poly (nums,
    den and basis) from the same draws, and leaves the RNG in the same
    state."""
    specs = [ClassSpec.hp_ge(a) for a in (F(1, 2), 1, F(3, 2), 0, -1)]
    specs += [ClassSpec.hp_plus_ge(0), ClassSpec.hp_plus_ge(F(1, 3)),
              ClassSpec.hyperbolic()]
    for s, spec in enumerate(specs):
        for jitter in (2, F(1, 3), "0"):
            for root_range in (12, "5/2"):
                for degree in range(10):
                    key = (s, str(jitter), str(root_range), degree)
                    rng = derive_rng(3, "gen-fixture", *key)
                    rooted_rng = derive_rng(3, "gen-fixture", *key)
                    p = gen_fixture(spec, degree, rng, root_range, jitter)
                    fx = gen_rooted(spec, degree, rooted_rng, root_range,
                                    jitter)
                    assert (p.nums, p.den, p.basis) == \
                        (fx.poly.nums, fx.poly.den, fx.poly.basis), key
                    assert p == fx.poly, key
                    assert rng.getstate() == rooted_rng.getstate(), key


SELF_CHECK_UNDER_O = """
import meshpoly.fixtures as fx
from meshpoly import ClassSpec, Polynomial

class OffByOne:
    # the constructor as fixtures sees it, off by 1 in the constant
    # term, so only the product comparison sees the fault
    _from_ints = staticmethod(
        lambda nums, den:
        Polynomial._from_ints(nums, den) + Polynomial.constant(1))

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
