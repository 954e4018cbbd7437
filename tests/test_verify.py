"""Verdict-producing checks: preservation, obstruction witnesses, probes."""

import hashlib
from collections import Counter
from fractions import Fraction as F

import pytest

from meshpoly import (
    ClassSpec,
    DiagonalSequence,
    FiniteDifferenceOperator,
    Polynomial,
    Verdict,
    check_altn,
    check_mesh_monotone,
    class_membership,
    classical_multiplier_probe,
    diagonal_apply,
    dms_test,
    from_symbol,
    geometric_witness,
    hyperbolicity_violation,
    is_hyperbolic,
    make_standard,
    mesh_at_least,
    monotonicity_witness,
    pochhammer_cofactor,
    serialize,
    symbol_preserver_verdict,
    verify,
)
from meshpoly.fixtures import derive_rng, gen_fixture, rand_fraction
from meshpoly.roots import count_real_roots


def test_verdict_contract():
    v = Verdict(claim="c", status=verify.HOLDS)
    assert v.holds
    with pytest.raises(ValueError):
        Verdict(claim="c", status=verify.FAILS)  # fails needs a witness
    with pytest.raises(ValueError):
        Verdict(claim="c", status=verify.HOLDS, witness={"x": 1})
    w = Verdict(claim="c", status=verify.FAILS, witness={"point": F(1, 2)})
    assert not w.holds
    with pytest.raises(ValueError, match="unknown verdict status 'maybe'"):
        Verdict("c", "maybe")
    # each verdict gets its own details, and positional arguments work
    u = Verdict("c", verify.SKIPPED)
    u.details["reason"] = "r"
    assert Verdict("c", verify.SKIPPED).details == {}
    assert (u.claim, u.status, u.witness) == ("c", verify.SKIPPED, None)
    assert repr(u) == "Verdict('c', 'skipped')"


# -- mesh monotonicity under operators ------------------------------------


def test_mesh_monotone_riesz_holds():
    T = make_standard("riesz", lam=1, alpha=1)
    p = Polynomial.from_roots([0, 2, 4])
    v = check_mesh_monotone(T, p, alpha=1)
    assert v.status == verify.HOLDS


def test_mesh_monotone_skips_bad_premise():
    T = make_standard("riesz", lam=1, alpha=2)
    p = Polynomial.from_roots([0, 1])  # mesh 1 < alpha 2
    assert check_mesh_monotone(T, p, alpha=2).status == verify.SKIPPED


def test_mesh_monotone_derivative_variant():
    p = Polynomial.from_roots([0, 3, 6])
    v = check_mesh_monotone(F(1, 2), p, variant="derivative")
    assert v.status == verify.HOLDS
    q = Polynomial([1, 0, 1])
    assert check_mesh_monotone(F(1, 2), q, variant="derivative").status == verify.SKIPPED


def test_mesh_monotone_detects_decrease():
    # p(x) + p(x-1) with a symbol root at -1 breaks mesh preservation
    T = from_symbol(Polynomial([1, 1]))
    hit = None
    for k in range(2, 7):
        p = Polynomial.falling_factorial(k)
        v = check_mesh_monotone(T, p, alpha=1)
        if v.status == verify.FAILS:
            hit = v
            break
    assert hit is not None
    assert hit.witness["condition"] in ("image-not-hyperbolic", "image-mesh-decreased")


def test_mesh_monotone_failure_witnesses():
    """Each failure condition of the difference variant, with its exact
    witness: an image without real roots, a finite-mesh image of an input
    of infinite mesh, and an image whose mesh fell below the input's."""
    x = Polynomial.x()
    v = check_mesh_monotone(FiniteDifferenceOperator.from_coeffs([1, 0, 0, 1]),
                            Polynomial.from_roots([0, 1]), alpha=1)
    assert v.status == verify.FAILS
    assert v.witness == {"condition": "image-not-hyperbolic",
                         "input": Polynomial.from_roots([0, 1]),
                         "image": Polynomial([12, -8, 2]), "baseline": 1}
    v = check_mesh_monotone(FiniteDifferenceOperator.from_coeffs([x * x]), x,
                            alpha=1)
    assert v.status == verify.FAILS
    assert v.witness == {"condition": "finite-mesh-image-of-degree<=1-input",
                         "input": x, "image": Polynomial([0, 0, 0, 1])}
    v = check_mesh_monotone(FiniteDifferenceOperator.from_coeffs([1, 1]),
                            Polynomial.from_roots([0, 2]), alpha=2)
    assert v.status == verify.FAILS
    # 2x^2 - 6x + 3 has mesh sqrt(3) < 2
    assert v.witness == {"condition": "image-mesh-decreased",
                         "input": Polynomial.from_roots([0, 2]),
                         "image": Polynomial([3, -6, 2]), "baseline": 2,
                         "baseline_exact": True}


# -- symbol scan -----------------------------------------------------------


def test_symbol_scan_flags_negative_root():
    v = symbol_preserver_verdict(Polynomial([1, 1]), i_max=16)  # root -1
    assert v.status == verify.FAILS
    assert v.witness["index"] == 2
    img = v.witness["image"]
    assert img.monomial_coeffs() == (F(2), F(-4), F(2))  # 2 (x-1)^2, mesh 0
    assert not mesh_at_least(img, 1)


def test_symbol_scan_flags_complex_pair():
    v = symbol_preserver_verdict(Polynomial([1, 0, -1]), i_max=16)  # 1 - t^2
    assert v.status == verify.FAILS
    assert v.witness["index"] == 3


def test_symbol_scan_accepts_nonneg_real_roots():
    assert symbol_preserver_verdict(Polynomial([1, -1])).status == verify.HOLDS
    assert symbol_preserver_verdict(Polynomial([0, 1])).status == verify.HOLDS
    two = Polynomial.from_roots([2, F(1, 3)])
    assert symbol_preserver_verdict(two, trials=30, seed=5).status == verify.HOLDS


def test_symbol_scan_rejects_zero():
    with pytest.raises(ValueError):
        symbol_preserver_verdict(Polynomial([]))


def test_symbol_scan_past_the_default_index_bound():
    # 401/100 - 4t + t^2 has roots 2 +- i/10; the first image to leave
    # HP>=1 is at index 203, which the default i_max = 64 misses.  The
    # digest pins the witness bytes of the scan that formed every image.
    Q = Polynomial([F(401, 100), -4, 1])
    assert symbol_preserver_verdict(Q).status == verify.INCONCLUSIVE
    v = symbol_preserver_verdict(Q, i_max=250)
    assert v.status == verify.FAILS and v.details == {"scanned_up_to": 203}
    assert (v.witness["index"], v.witness["condition"]) == (
        203, "image-not-hyperbolic")
    assert hashlib.sha256(serialize.dumps(v.witness).encode()).hexdigest() \
        == "d1358d5e0388b51ff249a8571f8d668b9ea9018a31e5ad3d2b4fe8526d2c7365"


def _gate_symbols(n):
    """Seeded symbols of order 1..3 in four families: rational
    coefficients, a_0 = 0, real roots of either sign, and a factor
    (1 - t)^r, whose operator maps every (x)_m with m < r to zero."""
    rng = derive_rng(11, "cofactor-gate")

    def rat():
        return F(rng.randint(-6, 6), rng.randint(1, 4))

    for t in range(n):
        k = rng.randint(1, 3)
        family = t % 4
        if family == 0:
            Q = Polynomial([rat() for _ in range(k)] + [rng.choice([-3, -1, 1, 2])])
        elif family == 1:
            Q = Polynomial([0] + [rat() for _ in range(k - 1)]
                           + [rng.choice([-3, -1, 1, 2])])
        elif family == 2:
            Q = Polynomial.from_roots(
                [F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(k)],
                lead=rng.choice([1, -2, F(1, 3)]))
        else:
            Q = Polynomial([1]) if rng.random() < 0.5 else Polynomial(
                [F(rng.randint(-4, 4), rng.randint(1, 3)), rng.choice([-1, 1, 2])])
            for _ in range(rng.randint(1, 3)):
                Q = Q * Polynomial([1, -1])
        yield Q


def test_cofactor_gate_matches_full_image_membership():
    spec = ClassSpec.hp_ge(1)
    seen = Counter()
    for Q in _gate_symbols(160):
        T = from_symbol(Q)
        k = T.order
        for m in range(17):
            image = T.apply(Polynomial.falling_factorial(m))
            want = image.is_zero or class_membership(image, spec)
            assert verify._image_in_mesh_one_class(T, m) == want, (Q, m)
            R = pochhammer_cofactor(T, m)
            seen["m < k"] += m < k
            seen["zero image"] += image.is_zero
            if R.is_zero or not class_membership(R, spec):
                continue
            if m == k:
                # no progression in front, whatever R_k's roots near k
                seen["m = k, a root in (k-1, k]"] += (
                    R.degree > 0 and count_real_roots(R, k - 1, k) > 0)
            elif m > k:
                seen["R_m in, rejected by the count"] += not want
                seen["R_m in, a root in (k-1, k]"] += (
                    count_real_roots(R, k - 1, k) > 0)
                if Q.coefficient(0) == 0:
                    # every term holds x - m: a boundary root, allowed
                    assert R.evaluate(m) == 0
                    seen["a_0 = 0, root at m, image in"] += want
    assert len(seen) == 6 and min(seen.values()) >= 20, seen


# -- sign-pattern check ----------------------------------------------------


def test_check_altn():
    p = Polynomial.from_roots([1, 2, 3])  # (-1)^(n-i) pattern with lead > 0
    assert check_altn(p).status == verify.HOLDS
    q = Polynomial.from_roots([-1, 2])
    assert check_altn(q).status != verify.HOLDS


# -- monotonicity of decreasing pairs --------------------------------------


def test_monotonicity_witness_decreasing_pair():
    v = monotonicity_witness(2, 1, 1)
    assert v.status == verify.FAILS
    img = v.witness["image"]
    assert img.monomial_coeffs() == (F(4), F(-3), F(1))  # x^2 - 3x + 4, disc -7
    assert not is_hyperbolic(img)
    fx = v.witness["fixture"]
    assert class_membership(fx, ClassSpec.hp_plus_ge(1))
    assert diagonal_apply(DiagonalSequence.from_values(v.witness["values"]), fx) == img


def test_monotonicity_witness_no_claim_when_increasing():
    assert monotonicity_witness(1, 2, 4).status == verify.INCONCLUSIVE


def test_monotonicity_witness_nonzero_start():
    for m in (1, 2):
        v = monotonicity_witness(3, 1, 1, m=m)
        assert v.status == verify.FAILS


def _decreasing_triples():
    """(a_m, a_(m+1), a_(m+2), m) with a_m > a_(m+1) and a_(m+2) > 0: an
    integer grid of signed pairs, then seeded signed rationals."""
    for m in (0, 1, 2):
        for a0 in range(-4, 5):
            for a1 in range(-4, a0):
                for a2 in (F(1, 3), 1, 2, 5):
                    yield a0, a1, a2, m
    rng = derive_rng(11, "decreasing-triples")
    for _ in range(1012):
        a1 = rand_fraction(rng, -5, 5)
        a0 = a1 + rand_fraction(rng, F(1, 64), 6)
        yield a0, a1, rand_fraction(rng, F(1, 64), 6), rng.randint(0, 2)


def test_monotonicity_witness_refutes_every_signed_decreasing_pair():
    """The chosen a violates the quadratic criterion whatever the signs,
    so the witness is certified, never reported inconclusive."""
    triples = list(_decreasing_triples())
    assert len(triples) >= 1400
    assert any(a0 < 0 for a0, *_ in triples)
    assert any(a1 < 0 < a0 for a0, a1, *_ in triples)
    for a0, a1, a2, m in triples:
        v = monotonicity_witness(a0, a1, a2, m=m)
        assert v.status == verify.FAILS, (a0, a1, a2, m)
        assert v.witness["a"] > 0
        assert not class_membership(v.witness["image"], ClassSpec.hp_ge(1))


# -- diagonal sequence testing ----------------------------------------------


def test_dms_mixed_sign_witness():
    v = dms_test(DiagonalSequence.from_values([1, -1, 1]), trials=0)
    assert v.status == verify.FAILS
    assert v.witness["condition"] == "mixed-sign-values"
    _replay_dms_witness([1, -1, 1], v)


def test_dms_separated_sign_witness():
    v = dms_test(DiagonalSequence.from_values([1, 0, 1]), trials=0)
    assert v.status == verify.FAILS
    assert v.witness["condition"] == "separated-sign-values"
    _replay_dms_witness([1, 0, 1], v)


def _replay_dms_witness(values, v):
    A = DiagonalSequence.from_values(values)
    fx = v.witness["fixture"]
    assert class_membership(fx, ClassSpec.hp_plus_ge(1))
    img = diagonal_apply(A, fx)
    assert img == v.witness["image"]
    assert not class_membership(img, ClassSpec.hp_plus_ge(1))


def test_dms_clamps_to_table_length():
    # a 2-entry table only constrains degree <= 1; that is a pass, not a skip
    v = dms_test(DiagonalSequence.from_values([1, 1]), trials=0, max_degree=6)
    assert v.status == verify.HOLDS
    assert v.details["max_degree"] == 1
    assert dms_test(DiagonalSequence.from_values([]), trials=0).status == verify.SKIPPED


def test_dms_holds_on_arithmetic_rule():
    v = dms_test(DiagonalSequence.from_rule(Polynomial([1, 1])), trials=60,
                 max_degree=5, seed=3)
    assert v.status == verify.HOLDS
    assert v.details["scope"] == "sampled"


def test_classical_probe():
    assert classical_multiplier_probe(
        DiagonalSequence.from_values([1, 1, 1]), trials=40, seed=1
    ).status == verify.HOLDS
    assert classical_multiplier_probe(
        DiagonalSequence.from_values([1, -1, 1]), trials=0
    ).status == verify.SKIPPED


def ref_monomial_image(values, p):
    """The classical probe's monomial image sum_i gamma_i alpha_i x^i in
    Fractions, as it was formed before it read p's numerators."""
    return Polynomial([g * values[i] for i, g in
                       enumerate(p.monomial_coeffs())])


def _classical_tables(n):
    """n value tables of length 7 without a sign obstruction: one sign,
    zeros only before the first and after the last nonzero value."""
    rng = derive_rng(7, "classical-tables")
    for _ in range(n):
        sign = rng.choice((1, -1))
        head = rng.randint(0, 3)
        body = rng.randint(1, 7 - head)
        yield ([F(0)] * head
               + [sign * rand_fraction(rng, F(1, 8), 5) for _ in range(body)]
               + [F(0)] * (7 - head - body))


def test_classical_image_matches_fraction_reference(monkeypatch):
    """Every trial's monomial image, caught where the probe asks
    is_hyperbolic of it (answered True, so no trial stops the probe),
    against ref_monomial_image of the trial's fixture."""
    from meshpoly import fixtures as fx
    fixtures, images = [], {}
    draw = fx.gen_fixture

    def gen_fixture(*args, **kwargs):
        fixtures.append(draw(*args, **kwargs))
        return fixtures[-1]

    def is_hyperbolic(image):
        images[len(fixtures) - 1] = image
        return True

    # the checkers import gen_fixture from fixtures where they draw
    monkeypatch.setattr(fx, "gen_fixture", gen_fixture)
    monkeypatch.setattr(verify, "is_hyperbolic", is_hyperbolic)
    tables = [DiagonalSequence.from_values(v) for v in _classical_tables(10)]
    tables += [DiagonalSequence.from_rule(Polynomial([1, 1])),
               DiagonalSequence.from_rule(Polynomial([F(1, 3), 0, F(2, 5)]))]
    zero_tables = sum(0 in A.prefix(7) for A in tables)
    assert zero_tables >= 5
    for s, A in enumerate(tables):
        fixtures.clear()
        images.clear()
        v = classical_multiplier_probe(A, trials=500, max_degree=6, seed=s)
        assert v.status == verify.HOLDS
        assert len(fixtures) == 500
        assert v.details["nonzero_images"] == len(images)
        values = A.prefix(7)
        for t, p in enumerate(fixtures):
            ref = ref_monomial_image(values, p)
            if ref.is_zero:
                assert t not in images, (s, t)
            else:
                assert (images[t].nums, images[t].den, images[t].basis) \
                    == (ref.nums, ref.den, ref.basis), (s, t)


def ref_traced_probe(A, trials=200, max_degree=6, seed=0,
                     rescaling=(F(1), F(1, 2), F(1, 10))):
    """The classical probe as it was with its rescaled trace: beside each
    monomial image, sum_i gamma_i alpha_i x(x - rho)...(x - (i-1) rho)
    checked against HP+>=rho for every rescaling factor rho.  Returns
    (status, witness, nonzero_images)."""
    values = A.prefix(min(max_degree, len(A.values) - 1) + 1)
    if verify._sign_obstruction(values) is not None:
        return verify.SKIPPED, None, None
    rng = derive_rng(seed, "classical", trials)
    checked = 0
    for t in range(trials):
        p = gen_fixture(ClassSpec.hp_plus_ge(0),
                        rng.randint(0, len(values) - 1), rng)
        image = ref_monomial_image(values, p)
        if not image.is_zero:
            if not is_hyperbolic(image):
                return verify.FAILS, {
                    "condition": "monomial-image-not-hyperbolic",
                    "trial": t, "fixture": p, "image": image}, None
            checked += 1
        for r in rescaling:
            traced = Polynomial.zero()
            factor = Polynomial.constant(1)
            for i, c in enumerate(image.monomial_coeffs()):
                traced = traced + c * factor
                factor = factor * Polynomial.from_roots([i * r])
            if traced.is_zero:
                continue
            if not class_membership(traced, ClassSpec.hp_plus_ge(r)):
                return verify.FAILS, {
                    "condition": "rescaled-image-left-class", "trial": t,
                    "rho": r, "fixture": p, "image": traced}, None
    return verify.HOLDS, None, checked


def _probe_tables(n):
    """n one-signed tables of length 2..7: increasing, geometric or
    arithmetic runs with zeros at either end."""
    rng = derive_rng(3, "probe-tables")
    for t in range(n):
        length = rng.randint(2, 7)
        head = rng.randint(0, 2) if t % 3 else 0
        tail = rng.randint(0, 2) if t % 4 else 0
        body = max(1, length - head - tail)
        c = rand_fraction(rng, F(1, 8), 3)
        if t % 3 == 0:
            run = [c]
            for _ in range(body - 1):
                run.append(run[-1] + rand_fraction(rng, 0, 3))
        elif t % 3 == 1:
            r = rand_fraction(rng, F(1, 4), 4)
            run = [c * r ** i for i in range(body)]
        else:
            d = rand_fraction(rng, 0, 2)
            run = [c + d * i for i in range(body)]
        sign = 1 if t % 5 else -1
        yield [F(0)] * head + [sign * v for v in run] + [F(0)] * tail


def test_classical_probe_matches_the_traced_probe():
    """Dropping the rescaled trace changes no verdict: a hyperbolic
    monomial image has no negative root, and the Brenti map then puts
    every traced image in HP+>=rho."""
    tables = list(_probe_tables(300))
    statuses = Counter()
    for s, values in enumerate(tables):
        A = DiagonalSequence.from_values(values)
        v = classical_multiplier_probe(A, trials=40, seed=s)
        ref = ref_traced_probe(A, trials=40, seed=s)
        assert (v.status, v.witness,
                v.details.get("nonzero_images")) == ref, (s, values)
        statuses[v.status] += 1
    assert sum(0 in values for values in tables) >= 100
    assert statuses[verify.FAILS] >= 50 and statuses[verify.HOLDS] >= 50


# -- geometric sequences -----------------------------------------------------


def test_geometric_witness_found_below_one():
    v = geometric_witness(F(1, 2))
    assert v.status == verify.FAILS
    fx = v.witness["fixture"]
    assert fx.monomial_coeffs() == (F(2), F(-3), F(1))  # (x - 1)(x - 2)
    rho_table = DiagonalSequence.from_values([F(1, 2) ** i for i in range(fx.degree + 1)])
    img = diagonal_apply(rho_table, fx)
    assert img == v.witness["image"]
    assert not class_membership(img, ClassSpec.hp_ge(1))


def ref_geometric_witness(rho, max_degree=4, trials=200, seed=0):
    """The earlier sampled search: five targeted two-root fixtures
    (x - theta)(x - theta - 1), then seeded random HP+>=1 fixtures."""
    claim = "geometric-sequence-preserves-class"
    A = DiagonalSequence.from_values(
        [rho ** i for i in range(max(max_degree, 2) + 1)])
    plus, mesh1 = ClassSpec.hp_plus_ge(1), ClassSpec.hp_ge(1)

    def test(p, origin):
        image = diagonal_apply(A, p)
        if not image.is_zero and not class_membership(image, mesh1):
            return Verdict(claim, verify.FAILS, witness={
                "condition": "image-left-mesh-1-class", "rho": rho,
                "fixture": p, "image": image,
                "image_in_nonneg_class": class_membership(image, plus),
            }, details={"origin": origin})
        return None

    for theta in (1, 2, F(1, 2), 3, F(3, 2)):
        p = Polynomial.from_roots([theta, theta + 1])
        if class_membership(p, plus):
            v = test(p, "targeted")
            if v is not None:
                return v
    rng = derive_rng(seed, "geometric", trials)
    for _ in range(trials):
        v = test(gen_fixture(plus, rng.randint(1, max_degree), rng), "random")
        if v is not None:
            return v
    return Verdict(claim, verify.INCONCLUSIVE,
                   details={"trials": trials, "max_degree": max_degree})


def _geometric_rhos():
    """Distinct rho in (0, 1): every k/den for small den, and for larger
    den the ends 1/den and (den - 1)/den and seeded draws between."""
    rng = derive_rng(0, "geometric-rhos")
    rhos = {F(k, den) for den in (2, 3, 7, 16) for k in range(1, den)}
    for den in (97, 1000, 10 ** 6, 10 ** 12):
        rhos |= {F(1, den), F(den - 1, den)}
        rhos |= {F(rng.randint(1, den - 1), den) for _ in range(75)}
    return sorted(rhos)


def test_geometric_witness_matches_the_sampled_search():
    rhos = _geometric_rhos()
    assert len(rhos) >= 300 and all(0 < r < 1 for r in rhos)
    for rho in rhos:
        v = geometric_witness(rho)
        ref = ref_geometric_witness(rho)
        assert (v.status, v.details) == (ref.status, ref.details), rho
        assert serialize.dumps(v.witness) == serialize.dumps(ref.witness), rho


def test_geometric_image_mesh_closed_form():
    for rho in _geometric_rhos():
        image = geometric_witness(rho).witness["image"]
        c, b, a = image.monomial_coeffs()
        assert (c, b, a) == (2, -(rho * rho + 2 * rho), rho * rho), rho
        # squared gap of the two roots by Vieta: (r1 + r2)^2 - 4 r1 r2
        mesh2 = (b / a) ** 2 - 4 * c / a
        closed = (rho * rho + 4 * rho - 4) / (rho * rho)
        assert mesh2 == closed, rho
        assert is_hyperbolic(image) == (closed >= 0), rho
        if closed >= 0:
            assert closed < 1 and not mesh_at_least(image, 1), rho


def test_geometric_witness_trivial_at_one():
    assert geometric_witness(F(1)).status == verify.HOLDS


def test_geometric_witness_domain():
    with pytest.raises(ValueError):
        geometric_witness(F(3, 2))
    with pytest.raises(ValueError):
        geometric_witness(F(0))


# -- hyperbolicity violations ------------------------------------------------


def test_hyperbolicity_violation_delta():
    v = hyperbolicity_violation(make_standard("delta"))
    assert v.status == verify.FAILS
    assert v.witness["input"].monomial_coeffs() == (F(0), F(0), F(0), F(1))  # x^3
    img = v.witness["image"]
    assert img == make_standard("delta").apply(v.witness["input"])
    assert not is_hyperbolic(img)


def test_hyperbolicity_violation_random_pass():
    """Past the monomials, seeded clustered-root fixtures are tried."""
    v = hyperbolicity_violation(make_standard("w_lambda", lam=1),
                                max_degree=2, trials=200, seed=3)
    assert v.status == verify.FAILS
    assert v.details == {"origin": "random"}
    assert v.witness["input"] == Polynomial([F(2, 9), F(2, 3), F(1, 2)])
    assert not is_hyperbolic(v.witness["image"])
    v = hyperbolicity_violation(make_standard("delta"), max_degree=2)
    assert v.status == verify.INCONCLUSIVE
    assert v.details == {"trials": 100, "max_degree": 2}


def test_hyperbolicity_violation_skips_monomial_operator():
    T = from_symbol(Polynomial([0, 1]))  # single shift: never leaves HP
    assert hyperbolicity_violation(T).status == verify.SKIPPED
