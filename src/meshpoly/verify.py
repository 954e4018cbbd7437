"""Checkers that test the library's theorems on concrete inputs.

Every checker returns a Verdict.  The contract is uniform:

* status "holds"        - the claim was confirmed on this input; when the
                          confirmation is sampled rather than exhaustive,
                          details["scope"] says "sampled".
* status "fails"        - a counterexample was found; the witness carries
                          the exact inputs needed to replay it.
* status "inconclusive" - the search found nothing either way.
* status "skipped"      - the input does not meet the claim's premises.

A witness is present exactly when status is "fails".  Witness and
details values are exact (Fractions, Polynomials, ints, strings); float
approximations are left to display code so that serialized verdicts are
reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

# fixtures, which loads hashlib, is imported by the checkers that draw
# fixtures, where they draw them
from . import roots
from .interlace import ClassSpec, class_membership, quadratic_hp1plus
from .operators import (
    DiagonalSequence,
    FiniteDifferenceOperator,
    diagonal_apply,
    from_symbol,
    pochhammer_cofactor,
)
from .poly import POCHHAMMER, Polynomial, as_fraction, int_form, rational_text
from .roots import DEFAULT_TOL, count_real_roots, is_hyperbolic, mesh_numeric

__all__ = [
    "Verdict",
    "check_mesh_monotone",
    "symbol_preserver_verdict",
    "check_altn",
    "monotonicity_witness",
    "dms_test",
    "geometric_witness",
    "hyperbolicity_violation",
    "classical_multiplier_probe",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
SKIPPED = "skipped"


class Verdict:
    __slots__ = ("claim", "status", "witness", "details")

    def __init__(self, claim: str, status: str, witness: dict | None = None,
                 details: dict | None = None):
        if status not in (HOLDS, FAILS, INCONCLUSIVE, SKIPPED):
            raise ValueError(f"unknown verdict status {status!r}")
        if (witness is not None) != (status == FAILS):
            raise ValueError("witness must be present exactly when status is 'fails'")
        self.claim, self.status, self.witness = claim, status, witness
        self.details = {} if details is None else details

    @property
    def holds(self) -> bool:
        return self.status == HOLDS

    def __repr__(self):
        return f"Verdict({self.claim!r}, {self.status!r})"


def _mesh_baseline(p: Polynomial, tol):
    """(beta, exact) with beta a rational lower bound on mesh(p).

    beta equals mesh(p) when every root was captured exactly; otherwise
    it is the enclosure's lower end, within tol of the true mesh, and
    the comparison downstream is tolerance-bounded instead of exact.
    """
    rep = mesh_numeric(p, tol)
    if rep.is_infinite:
        return roots.INF, True
    if rep.exact_value is not None:
        return rep.exact_value, True
    return rep.mesh_lower, False


def check_mesh_monotone(T, p: Polynomial, alpha=None, variant: str = "difference",
                        tol=DEFAULT_TOL) -> Verdict:
    """Does applying the operator keep the mesh from shrinking?

    variant "difference": T is a finite difference operator and alpha the
    class bound; the premise is p in HP>=alpha.  variant "derivative":
    T is a rational lambda, the image is p - lambda*p', and the premise
    is only that p is hyperbolic.
    """
    if variant == "difference":
        claim = "mesh-monotone-difference"
        if alpha is None:
            raise ValueError("difference variant needs the class bound alpha")
        alpha = as_fraction(alpha)
        if p.is_zero:
            return Verdict(claim, SKIPPED, details={"reason": "zero input"})
        if not class_membership(p, ClassSpec.hp_ge(alpha)):
            reason = f"input outside HP>={rational_text(alpha)}"
            return Verdict(claim, SKIPPED, details={"reason": reason})
        image = T.apply(p)
    elif variant == "derivative":
        claim = "mesh-monotone-derivative"
        lam = as_fraction(T)
        if p.is_zero:
            return Verdict(claim, SKIPPED, details={"reason": "zero input"})
        if not is_hyperbolic(p):
            return Verdict(claim, SKIPPED, details={"reason": "input not hyperbolic"})
        image = p - lam * p.derivative()
    else:
        raise ValueError(f"unknown variant {variant!r}")

    if image.is_zero:
        return Verdict(claim, HOLDS, details={"note": "zero image"})
    beta, exact = _mesh_baseline(p, tol)
    details = {"baseline": "exact" if exact else "lower-bound"}
    if beta is roots.INF:
        if image.degree <= 1:
            return Verdict(claim, HOLDS, details=details)
        # unreachable for the operators covered by the theorems
        return Verdict(claim, FAILS, witness={
            "condition": "finite-mesh-image-of-degree<=1-input",
            "input": p, "image": image,
        })
    # a positive baseline is one Cauchy index, which decides
    # real-rootedness too; is_hyperbolic only picks a failure's witness
    if beta > 0 and class_membership(image, ClassSpec.hp_ge(beta)):
        return Verdict(claim, HOLDS, details=details)
    if not is_hyperbolic(image):
        return Verdict(claim, FAILS, witness={
            "condition": "image-not-hyperbolic",
            "input": p, "image": image, "baseline": beta,
        })
    if beta > 0:
        return Verdict(claim, FAILS, witness={
            "condition": "image-mesh-decreased",
            "input": p, "image": image, "baseline": beta,
            "baseline_exact": exact,
        })
    return Verdict(claim, HOLDS, details=details)


def _image_in_mesh_one_class(T: FiniteDifferenceOperator, m: int) -> bool:
    """Is T((x)_m) zero or in HP>=1?  Decided on its cofactor alone.

    T((x)_m) = (x-k)...(x-m+1) * R_m with k = ord(T) and deg R_m <= k
    (pochhammer_cofactor).  For m <= k the product is empty and R_m is
    the image.  Otherwise the image is in the class iff R_m is and no
    root of R_m lies strictly between k-1 and m, within distance < 1 of
    the progression k..m-1; roots at m or at most k-1 are a step away.
    """
    R = pochhammer_cofactor(T, m)
    if R.is_zero:
        return True
    if not class_membership(R, ClassSpec.hp_ge(1)):
        return False
    k = T.order
    # count_real_roots counts (k-1, m]: less a root at m, none may remain
    return m <= k or count_real_roots(R, k - 1, m) == (R.evaluate(m) == 0)


def symbol_preserver_verdict(Q: Polynomial, i_max: int = 64, trials: int = 0,
                             max_degree: int = 8, seed: int = 0) -> Verdict:
    """Decide whether the operator with symbol Q preserves HP>=1.

    Preservation holds exactly when Q is real-rooted with no negative
    root.  When it is, the verdict is "holds" (optionally backed by a
    sampled self-test; a sampled failure would contradict the theorem
    and raises).  When it is not, the indices i = ord(T), ..., i_max
    are scanned for the first T((x)_i) leaving the class, each decided
    on its cofactor R_i (_image_in_mesh_one_class).  Only the found
    index's image is formed and re-certified; it is real-rooted exactly
    when R_i is, which picks the witness condition.
    """
    claim = "symbol-preserves-mesh-one-class"
    if Q.is_zero:
        raise ValueError("zero symbol defines the zero operator")
    if class_membership(Q, ClassSpec(require_nonneg_roots=True)):
        details = {"symbol_roots": "real-nonnegative", "scope": "characterized"}
        if trials > 0:
            from .fixtures import derive_rng, gen_fixture

            rng = derive_rng(seed, "symbol-preserver", trials)
            T = from_symbol(Q)
            spec = ClassSpec.hp_ge(1)
            for t in range(trials):
                p = gen_fixture(spec, rng.randint(0, max_degree), rng)
                image = T.apply(p)
                if not image.is_zero and not class_membership(image, spec):
                    raise AssertionError(
                        "sampled image left the class for a characterized preserver")
            details["sampled_trials"] = trials
        return Verdict(claim, HOLDS, details=details)

    T = from_symbol(Q)
    k = T.order
    for i in range(k, i_max + 1):
        if _image_in_mesh_one_class(T, i):
            continue
        image = T.apply(Polynomial.falling_factorial(i))
        if image.is_zero or class_membership(image, ClassSpec.hp_ge(1)):
            raise AssertionError("cofactor scan disagrees with direct membership")
        Ri = pochhammer_cofactor(T, i)
        condition = ("image-mesh-below-1" if is_hyperbolic(Ri)
                     else "image-not-hyperbolic")
        return Verdict(claim, FAILS, witness={
            "condition": condition, "index": i, "image": image, "cofactor": Ri,
        }, details={"scanned_up_to": i})
    return Verdict(claim, INCONCLUSIVE, details={"scanned_up_to": i_max})


def check_altn(p: Polynomial) -> Verdict:
    """Alternating sign pattern of the falling-factorial coefficients.

    For p of degree n in HP+>=1 with positive leading coefficient, every
    coefficient a_i in the falling-factorial basis satisfies
    (-1)^(n-i) a_i >= 0.
    """
    claim = "pochhammer-coefficients-alternate"
    if p.is_zero:
        return Verdict(claim, SKIPPED, details={"reason": "zero input"})
    if p.leading_coefficient <= 0:
        return Verdict(claim, SKIPPED,
                       details={"reason": "needs positive leading coefficient"})
    if not class_membership(p, ClassSpec.hp_plus_ge(1)):
        return Verdict(claim, SKIPPED, details={"reason": "input outside HP+>=1"})
    n = p.degree
    coeffs = p.to_basis(POCHHAMMER).coeffs
    for i, a in enumerate(coeffs):
        if (a if (n - i) % 2 == 0 else -a) < 0:
            return Verdict(claim, FAILS, witness={
                "condition": "sign-pattern-broken",
                "index": i, "coefficient": a, "input": p,
            })
    return Verdict(claim, HOLDS, details={"degree": n})


def monotonicity_witness(alpha_m, alpha_m1, alpha_m2, m: int = 0) -> Verdict:
    """Can a decreasing adjacent pair survive in a multiplier sequence?

    Claim under test: a diagonal sequence containing the consecutive
    values (alpha_m, alpha_m1, alpha_m2) at positions m, m+1, m+2 with
    alpha_m2 > 0 can preserve HP+>=1.  When alpha_m > alpha_m1 a cubic
    fixture (x)_m (x-m-a)(x-m-1-a) is built whose image reduces, up to
    the factor (x)_m, to the quadratic

        A y(y-1) - 2B y + C,   A = alpha_m2, B = a alpha_m1,
                               C = a(a+1) alpha_m,  y = x - m,

    and a > 0 is chosen so the quadratic criterion AC <= B^2 + AB is
    violated: writing D = alpha_m1^2 - alpha_m alpha_m2 and
    E = alpha_m2 (alpha_m1 - alpha_m) < 0, AC - B^2 - AB = -a(aD + E),
    so violation means aD + E < 0, and a = 1 works when D + E < 0 and
    a = -E/(2D) otherwise (D > 0 there).  The quadratic's discriminant
    less A^2 is 4(B^2 + AB - AC) < 0, so it has no real root or two
    less than 1 apart, whatever the signs of the values: the image is
    outside the class.  It is certified there; a member would
    contradict this proof and raises.
    """
    claim = "decreasing-pair-preserves-class"
    am = as_fraction(alpha_m)
    am1 = as_fraction(alpha_m1)
    am2 = as_fraction(alpha_m2)
    if m < 0:
        raise ValueError("position must be non-negative")
    if am2 <= 0:
        return Verdict(claim, SKIPPED, details={"reason": "needs alpha_{m+2} > 0"})
    if am <= am1:
        return Verdict(claim, INCONCLUSIVE,
                       details={"reason": "pair is non-decreasing; family yields nothing"})
    D = am1 * am1 - am * am2
    E = am2 * (am1 - am)
    a = Fraction(1) if D + E < 0 else -E / (2 * D)
    fixture = Polynomial.falling_factorial(m) * Polynomial.from_roots(
        [m + a, m + 1 + a])
    if not class_membership(fixture, ClassSpec.hp_plus_ge(1)):
        raise AssertionError("decreasing-pair fixture outside HP+>=1")
    A = DiagonalSequence.from_values([Fraction(0)] * m + [am, am1, am2])
    image = diagonal_apply(A, fixture)
    details = {"a": a}
    B_, C_ = a * am1, a * (a + 1) * am
    if B_ >= 0 and C_ >= 0:
        # closed-form criterion applies; record it as a cross-check
        details["quadratic_criterion_met"] = quadratic_hp1plus(am2, B_, C_)
    if image.is_zero or class_membership(image, ClassSpec.hp_plus_ge(1)):
        raise AssertionError("decreasing-pair fixture failed to certify")
    return Verdict(claim, FAILS, witness={
        "condition": "image-left-class",
        "values": [am, am1, am2], "position": m, "a": a,
        "fixture": fixture, "image": image,
    }, details=details)


def _sign(x: Fraction) -> int:
    n = x.numerator
    return (n > 0) - (n < 0)


def _sign_obstruction(values) -> tuple | None:
    """First (i, j, kind) with a structural obstruction, else None.

    kind "mixed": values[i] and values[j] are the nearest nonzero pair
    with opposite signs.  kind "separated": same sign but at least one
    zero strictly between them.  Either pattern rules out preservation.
    """
    prev = None
    for j, v in enumerate(values):
        if v == 0:
            continue
        if prev is not None:
            i, si = prev
            if si != _sign(v):
                return i, j, "mixed"
            if j > i + 1:
                return i, j, "separated"
        prev = (j, _sign(v))
    return None


def _mixed_sign_fixture(values, i: int, j: int) -> Polynomial:
    """Fixture whose image certifies that opposite signs at i < j break
    preservation.  Adjacent pair: (x)_i (x - i - c) moves one image root
    to i - 1/2 (or below 0 when i = 0).  Separated pair: the half-shifted
    product (x)_i prod(x - i - 1/2 - t) has nonzero falling-factorial
    coefficients exactly at i..j, and the sign pattern of the two
    surviving image terms violates the alternation law.
    """
    if j == i + 1:
        if i == 0:
            return Polynomial.from_roots([Fraction(1)])
        c = abs(values[j]) / (2 * abs(values[i]))
        return Polynomial.falling_factorial(i) * Polynomial.from_roots([i + c])
    return _separated_fixture(i, j)


def _separated_fixture(i: int, j: int) -> Polynomial:
    half = Fraction(1, 2)
    tail = Polynomial.from_roots([i + half + t for t in range(j - i)])
    return Polynomial.falling_factorial(i) * tail


def dms_test(A: DiagonalSequence, trials: int = 500, max_degree: int = 6,
             seed: int = 0) -> Verdict:
    """Does the diagonal sequence preserve HP+>=1 (up to max_degree)?

    Two structural obstructions are decided exactly before any sampling:
    a sign change among the nonzero values, and a same-sign pair of
    nonzero values separated by zeros.  Each comes with a constructive
    fixture whose image provably leaves the class, certified through
    class_membership.  If neither applies, random fixtures are tested;
    a clean run is reported as "holds" with sampled scope.
    """
    claim = "diagonal-sequence-preserves-class"
    if A.values is not None:
        # a finite table only supports fixtures up to its own length
        if not A.values:
            return Verdict(claim, SKIPPED, details={"reason": "empty value table"})
        max_degree = min(max_degree, len(A.values) - 1)
    spec = ClassSpec.hp_plus_ge(1)
    values = A.prefix(max_degree + 1)

    obstruction = _sign_obstruction(values)
    if obstruction is not None:
        i, j, kind = obstruction
        fixture = (_mixed_sign_fixture(values, i, j) if kind == "mixed"
                   else _separated_fixture(i, j))
        if not class_membership(fixture, spec):
            raise AssertionError(f"{kind}-sign fixture outside {spec.label}")
        image = diagonal_apply(A, fixture)
        if image.is_zero or class_membership(image, spec):
            raise AssertionError(f"{kind}-sign fixture failed to certify")
        return Verdict(claim, FAILS, witness={
            "condition": f"{kind}-sign-values",
            "indices": [i, j], "values": values,
            "fixture": fixture, "image": image,
        })

    from .fixtures import derive_rng, gen_fixture
    rng = derive_rng(seed, "dms", trials, max_degree)
    for t in range(trials):
        p = gen_fixture(spec, rng.randint(0, max_degree), rng)
        image = diagonal_apply(A, p)
        if image.is_zero:
            continue
        if not class_membership(image, spec):
            return Verdict(claim, FAILS, witness={
                "condition": "image-left-class", "trial": t,
                "fixture": p, "image": image,
            })
    return Verdict(claim, HOLDS, details={
        "scope": "sampled", "trials": trials, "max_degree": max_degree,
        "structure": "no sign obstruction",
    })


def geometric_witness(rho) -> Verdict:
    """Is the geometric sequence {rho^i}, 0 < rho <= 1, a preserver?

    For rho = 1 this is the identity.  For rho < 1 one fixture refutes
    it (Remark 2): p = (x - 1)(x - 2) = (x)_2 - 2 (x)_1 + 2 is in
    HP+>=1, and its image rho^2 x^2 - (rho^2 + 2 rho) x + 2 has
    discriminant rho^2 (rho^2 + 4 rho - 4).  So the image has no real
    root, or mesh sqrt(rho^2 + 4 rho - 4) / rho, which is below 1
    exactly when rho < 1.  The image is certified outside HP>=1 before
    it is returned, and so it is outside HP+>=1 too.
    """
    claim = "geometric-sequence-preserves-class"
    rho = as_fraction(rho)
    if not 0 < rho <= 1:
        raise ValueError("rho must lie in (0, 1]")
    if rho == 1:
        return Verdict(claim, HOLDS, details={"note": "identity sequence"})
    p = Polynomial.from_roots([1, 2])
    image = diagonal_apply(
        DiagonalSequence.from_values([rho ** i for i in range(3)]), p)
    if class_membership(image, ClassSpec.hp_ge(1)):
        raise AssertionError(f"geometric image at rho={rho} failed to certify")
    return Verdict(claim, FAILS, witness={
        "condition": "image-left-mesh-1-class", "rho": rho,
        "fixture": p, "image": image, "image_in_nonneg_class": False,
    }, details={"origin": "targeted"})


def hyperbolicity_violation(T: FiniteDifferenceOperator, max_degree: int = 4,
                            trials: int = 100, seed: int = 0) -> Verdict:
    """Find hyperbolic input whose image under T is not hyperbolic.

    Only operators with at least two nonzero coefficient polynomials are
    candidates: with a single term the map is p -> q(x) p(x-s), which
    preserves hyperbolicity whenever q is hyperbolic.  Monomials x^n are
    tried first; they already fail for the standard differences.
    """
    claim = "operator-preserves-hyperbolicity"
    if T.nonzero_coefficient_count < 2:
        return Verdict(claim, SKIPPED,
                       details={"reason": "needs >= 2 nonzero coefficients"})

    def test(p: Polynomial, origin: str) -> Verdict | None:
        image = T.apply(p)
        if not image.is_zero and not is_hyperbolic(image):
            return Verdict(claim, FAILS, witness={
                "condition": "image-not-hyperbolic", "input": p, "image": image,
            }, details={"origin": origin})
        return None

    for n in range(2, max(2, max_degree) + 1):
        verdict = test(Polynomial([0] * n + [1]), "monomial")
        if verdict is not None:
            return verdict
    from .fixtures import derive_rng, gen_fixture
    rng = derive_rng(seed, "hyperbolicity", trials)
    spec = ClassSpec.hyperbolic()
    for t in range(trials):
        # tightly clustered roots: small mesh stresses the operator most
        p = gen_fixture(spec, rng.randint(2, max(2, max_degree)), rng,
                        jitter=Fraction(1, 2))
        verdict = test(p, "random")
        if verdict is not None:
            return verdict
    return Verdict(claim, INCONCLUSIVE,
                   details={"trials": trials, "max_degree": max_degree})


def classical_multiplier_probe(A: DiagonalSequence, trials: int = 200,
                               max_degree: int = 6, seed: int = 0) -> Verdict:
    """Sampled evidence that A also acts as a classical multiplier sequence.

    For random p with non-negative roots the monomial-diagonal image
    sum gamma_i alpha_i x^i must stay hyperbolic.  The image is formed
    in integers, as diagonal_apply forms its image: the values over one
    denominator e, times the fixture's stored numerators, over p.den * e.

    No rescaled image sum gamma_i alpha_i x(x - rho)...(x - (i-1) rho)
    is checked beside it, because the monomial check implies that one
    lies in HP+>=rho.  A fixture in HP+>=0 has coefficients that
    alternate in sign, and the values of a table without a sign
    obstruction have one sign, so a hyperbolic monomial image has no
    negative root.  The rescaled image is B(q) at x / rho, where
    q(y) = image(rho y) is then in HP+>=0 and B, the brenti_map
    x^i -> (x)_i, sends HP+>=0 into HP+>=1 (checked by criterion 7).
    """
    claim = "classical-multiplier-sampled"
    if A.values is not None:
        if not A.values:
            return Verdict(claim, SKIPPED, details={"reason": "empty value table"})
        max_degree = min(max_degree, len(A.values) - 1)
    values = A.prefix(max_degree + 1)
    if _sign_obstruction(values) is not None:
        return Verdict(claim, SKIPPED,
                       details={"reason": "sign obstruction: not a candidate"})
    alphas, e = int_form(values)
    from .fixtures import derive_rng, gen_fixture
    rng = derive_rng(seed, "classical", trials)
    spec0 = ClassSpec.hp_plus_ge(0)
    checked = 0
    for t in range(trials):
        p = gen_fixture(spec0, rng.randint(0, max_degree), rng)
        # deg p <= max_degree, so alphas covers every coefficient of p
        image = Polynomial._from_ints(
            [a * c for a, c in zip(alphas, p.nums)], p.den * e)
        if image.is_zero:
            continue
        if not is_hyperbolic(image):
            return Verdict(claim, FAILS, witness={
                "condition": "monomial-image-not-hyperbolic",
                "trial": t, "fixture": p, "image": image,
            })
        checked += 1
    return Verdict(claim, HOLDS, details={
        "scope": "sampled", "trials": trials, "nonzero_images": checked,
    })
