"""The integer construction proof that each fixture lies in its class.

RootedFixture.proves decides, from the attached roots and lead alone,
the same statement class_membership decides from the polynomial.  On a
fixture whose roots and lead really built its polynomial the two must
agree for every class, and each way of breaking the construction data
must be rejected.
"""

from fractions import Fraction as F

import pytest

from meshpoly import ClassSpec, Polynomial, class_membership
from meshpoly.fixtures import RootedFixture, derive_rng, gen_rooted

# every class that src/ and bench/ generate fixtures in
SPECS = (
    ClassSpec.hyperbolic(),
    ClassSpec.hp_ge(F(1, 2)),
    ClassSpec.hp_ge(1),
    ClassSpec.hp_ge(2),
    ClassSpec.hp_plus_ge(0),
    ClassSpec.hp_plus_ge(F(1, 2)),
    ClassSpec.hp_plus_ge(1),
)


def _corpus():
    # jitter 0 steps by the bare class gap, so HP and HP+>=0 repeat roots
    for i, spec in enumerate(SPECS):
        for degree in range(9):
            for jitter in (0, 2):
                rng = derive_rng(13, "cert", i, degree, jitter)
                yield spec, gen_rooted(spec, degree, rng, jitter=jitter)


def test_certificate_agrees_with_class_membership():
    repeated = 0
    for spec, fx in _corpus():
        assert fx.proves(spec)
        repeated += len(set(fx.roots)) < len(fx.roots)
        for other in SPECS:
            assert fx.proves(other) == class_membership(fx.poly, other), \
                (fx.roots, fx.lead, other.label)
    assert repeated > 0


def _rebuilt(roots, lead):
    return RootedFixture(Polynomial.from_roots(roots, lead), tuple(roots),
                         F(lead))


def test_certificate_rejects_unsorted_roots():
    fx = _rebuilt([F(-3), F(1, 2), F(4)], 2)
    assert fx.proves(ClassSpec.hyperbolic())
    swapped = RootedFixture(fx.poly, (F(1, 2), F(-3), F(4)), fx.lead)
    assert not swapped.proves(ClassSpec.hyperbolic())


@pytest.mark.parametrize("alpha", [F(1, 2), F(1), F(2)])
def test_certificate_rejects_a_short_gap(alpha):
    short = alpha - F(1, 8)
    for spec in (ClassSpec.hp_ge(alpha), ClassSpec.hp_plus_ge(alpha)):
        assert _rebuilt([F(1), F(1) + alpha, F(5)], 3).proves(spec)
        assert not _rebuilt([F(1), F(1) + short, F(5)], 3).proves(spec)
        assert not _rebuilt([F(1), F(4), F(4) + short], 3).proves(spec)


def test_certificate_rejects_a_negative_root_under_hp_plus():
    fx = _rebuilt([F(-1, 3), F(2), F(7, 2)], F(5, 2))
    assert fx.proves(ClassSpec.hp_ge(1))
    for alpha in (0, F(1, 2), 1):
        assert not fx.proves(ClassSpec.hp_plus_ge(alpha))
    assert not fx.proves(ClassSpec(require_nonneg_roots=True))


def test_certificate_rejects_each_coefficient_off_by_one_over_den():
    fx = _rebuilt([F(-5, 6), F(1, 4), F(3, 2), F(11, 3)], F(3, 4))
    spec = ClassSpec.hp_ge(1)
    assert fx.proves(spec)
    # the scale of the integer product: lead.denominator * prod q_i
    den = 4 * 6 * 4 * 2 * 3
    coeffs = fx.poly.monomial_coeffs()
    # k == len(coeffs) puts a term just above the product's degree
    for k in range(len(coeffs) + 1):
        for step in (F(1, den), -F(1, den)):
            bumped = list(coeffs) + [F(0)]
            bumped[k] += step
            assert not RootedFixture(Polynomial(bumped), fx.roots,
                                     fx.lead).proves(spec), (k, step)


def test_certificate_rejects_a_dropped_root():
    for degree in (1, 4, 8):
        fx = gen_rooted(ClassSpec.hp_ge(1), degree, derive_rng(5, "drop", degree))
        for i in range(degree):
            dropped = fx.roots[:i] + fx.roots[i + 1:]
            assert not RootedFixture(fx.poly, dropped, fx.lead).proves(
                ClassSpec.hp_ge(1))


def test_certificate_rejects_a_wrong_lead():
    for degree in (0, 3, 6):
        fx = gen_rooted(ClassSpec.hp_plus_ge(1), degree,
                        derive_rng(5, "lead", degree))
        for lead in (fx.lead + 1, -fx.lead, fx.lead / 2):
            assert not RootedFixture(fx.poly, fx.roots, lead).proves(
                ClassSpec.hp_plus_ge(1))
