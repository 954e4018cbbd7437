"""The twelve acceptance checks, runnable as a suite or one at a time.

Each criterion function returns a CriterionResult and prints nothing;
run_suite executes them in order and the callers (CLI, acceptance test)
print one pass/fail line per criterion.  scale < 1 shrinks the sampled
portions proportionally for quick runs; the defaults are the full
counts and finish in a couple of minutes.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import verify
from .fixtures import derive_rng, gen_fixture, gen_rooted, rand_fraction
from .harness import SearchConfig, replay_certificate, run_search
from .interlace import ClassSpec, class_membership, proper_position, quadratic_hp1plus
from .operators import (
    DiagonalSequence,
    brenti_map,
    diagonal_apply,
    from_symbol,
    make_standard,
    sequence_from_poly,
)
from .poly import Polynomial
from .roots import is_hyperbolic, mesh_at_least, mesh_numeric, root_approximations

__all__ = ["CriterionResult", "run_criterion", "run_suite", "CRITERIA"]


class CriterionResult:
    __slots__ = ("number", "name", "passed", "details", "elapsed")

    def __init__(self, number: int, name: str, passed: bool, details: str,
                 elapsed: float = 0.0):
        self.number, self.name, self.passed = number, name, passed
        self.details, self.elapsed = details, elapsed

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return (f"criterion {self.number:2d}: {tag}  {self.name}"
                f"  [{self.details}] ({self.elapsed:.1f}s)")


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def criterion_1(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Worked example: exact image, roots to 1e-4, exact mesh drop."""
    p = Polynomial.from_roots([1, 4, 7])
    U = make_standard("w_lambda", lam=Fraction(3, 4))
    image = U.apply(p)
    ok_image = image == Polynomial(
        [Fraction(-28), Fraction(78), Fraction(-129, 4), Fraction(13, 4)])
    expected_roots = (0.433167, 3.12467, 6.36524)
    approx = root_approximations(image)
    ok_roots = (len(approx) == 3 and
                all(abs(a - e) <= 1e-4 for a, e in zip(approx, expected_roots)))
    ok_mesh_p = mesh_numeric(p).exact_value == 3
    ok_drop = not mesh_at_least(image, 3)
    rep = mesh_numeric(image, Fraction(1, 10 ** 6))
    ok_enclosure = abs(rep.mesh_lower - Fraction(26915, 10000)) <= Fraction(1, 1000)
    ok_member = class_membership(image, ClassSpec.hp_ge(1))
    passed = all((ok_image, ok_roots, ok_mesh_p, ok_drop, ok_enclosure, ok_member))
    return CriterionResult(1, "worked-example", passed,
                           f"image exact={ok_image} roots<=1e-4={ok_roots} "
                           f"mesh 3->~2.6915 drop={ok_drop}")


def criterion_2(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Characterized preservers never move a fixture out of the class."""
    spec = ClassSpec.hp_ge(1)
    rng_sym = derive_rng(seed, "c2-symbols")
    operators = []
    for s in range(20):
        deg = rng_sym.randint(1, 4)
        roots = sorted(rand_fraction(rng_sym, 0, 6) for _ in range(deg))
        operators.append(from_symbol(Polynomial.from_roots(roots)))
    trials = _count(500, scale)
    bad = 0
    for t in range(trials):
        rng = derive_rng(seed, "c2-fixtures", t)
        p = gen_fixture(spec, rng.randint(1, 8), rng)
        for T in operators:
            image = T.apply(p)
            if not image.is_zero and not class_membership(image, spec):
                bad += 1
    return CriterionResult(2, "preserver-grid", bad == 0,
                           f"{trials}x{len(operators)} images, {bad} escaped")


def criterion_3(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Obstruction indices for non-preserver symbols, exactly certified."""
    v1 = verify.symbol_preserver_verdict(Polynomial([1, 1]))
    ok1 = (v1.status == verify.FAILS and v1.witness["index"] == 2
           and not class_membership(v1.witness["image"], ClassSpec.hp_ge(1)))
    v2 = verify.symbol_preserver_verdict(Polynomial([1, 0, -1]))
    ok2 = (v2.status == verify.FAILS and v2.witness["index"] == 3
           and not class_membership(v2.witness["image"], ClassSpec.hp_ge(1)))
    v3 = verify.symbol_preserver_verdict(
        Polynomial.from_roots([2, Fraction(1, 3)]),
        trials=_count(40, scale), seed=seed)
    ok3 = v3.status == verify.HOLDS
    return CriterionResult(3, "symbol-obstructions", ok1 and ok2 and ok3,
                           f"1+t index 2: {ok1}; 1-t^2 index 3: {ok2}; "
                           f"preserver holds: {ok3}")


def criterion_4(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Two-term difference: mesh monotone, and class kept for lam >= 1."""
    combos = [(a, l) for a in (Fraction(1, 2), 1, 2)
              for l in (Fraction(1, 3), 1, Fraction(5, 2))]
    trials = _count(300, scale)
    bad_mono = 0
    for t in range(trials):
        rng = derive_rng(seed, "c4-mono", t)
        alpha, lam = combos[t % len(combos)]
        T = make_standard("riesz", lam=lam, alpha=alpha)
        p = gen_fixture(ClassSpec.hp_ge(alpha), rng.randint(0, 6), rng)
        if not verify.check_mesh_monotone(T, p, alpha=alpha).holds:
            bad_mono += 1
    plus_combos = [(a, l) for a in (Fraction(1, 2), 1, 2) for l in (1, 3)]
    bad_class = 0
    for t in range(trials):
        rng = derive_rng(seed, "c4-class", t)
        alpha, lam = plus_combos[t % len(plus_combos)]
        T = make_standard("riesz", lam=lam, alpha=alpha)
        p = gen_fixture(ClassSpec.hp_plus_ge(alpha), rng.randint(0, 6), rng)
        image = T.apply(p)
        if not image.is_zero and not class_membership(
                image, ClassSpec.hp_plus_ge(alpha)):
            bad_class += 1
    return CriterionResult(4, "two-term-difference", bad_mono == 0 and bad_class == 0,
                           f"monotone {trials} ok-{bad_mono}; "
                           f"class-kept {trials} ok-{bad_class}")


def criterion_5(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """p - lam p' never shrinks the mesh, for lam of any sign."""
    lams = (Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(5))
    trials = _count(300, scale)
    bad = 0
    for t in range(trials):
        rng = derive_rng(seed, "c5", t)
        p = gen_fixture(ClassSpec.hyperbolic(), rng.randint(0, 6), rng,
                        jitter=Fraction(3, 2))
        for lam in lams:
            if not verify.check_mesh_monotone(lam, p, variant="derivative").holds:
                bad += 1
    return CriterionResult(5, "derivative-variant", bad == 0,
                           f"{trials}x{len(lams)} checks, {bad} failed")


def criterion_6(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Known preserver sequences pass, with the proper-position route."""
    trials = _count(500, scale)
    sequences = []
    for i, lam in enumerate((0, Fraction(1, 4), 1, 10)):
        sequences.append((f"1+{lam}i", DiagonalSequence.from_rule(
            Polynomial([1, Fraction(lam)]))))
    for name, phi in (("i", Polynomial([0, 1])),
                      ("1+i", Polynomial([1, 1])),
                      ("(1+i)^2", Polynomial([1, 2, 1])),
                      ("i(1+i)", Polynomial([0, 1, 1]))):
        sequences.append((name, sequence_from_poly(phi, 8)))
    failed = []
    for idx, (name, A) in enumerate(sequences):
        v = verify.dms_test(A, trials=trials, max_degree=6, seed=seed + idx)
        if v.status != verify.HOLDS:
            failed.append(name)
    bad_pp = 0
    spec = ClassSpec.hp_plus_ge(1)
    for i, lam in enumerate((0, Fraction(1, 4), 1, 10)):
        W = make_standard("w_lambda", lam=Fraction(lam))
        for t in range(trials):
            rng = derive_rng(seed, "c6-pp", i, t)
            p = gen_fixture(spec, rng.randint(1, 6), rng)
            w = W.apply(p)
            if not (proper_position(w, p).holds
                    and proper_position(w, p.shift(1)).holds):
                bad_pp += 1
    passed = not failed and bad_pp == 0
    return CriterionResult(6, "preserver-sequences", passed,
                           f"8 sequences x {trials}, failed={failed or 'none'}; "
                           f"proper-position breaks={bad_pp}")


def criterion_7(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Basis reinterpretation, coefficient alternation, sign rigidity."""
    trials = _count(200, scale)
    bad_brenti = bad_altn = bad_signs = 0
    for t in range(trials):
        rng = derive_rng(seed, "c7-brenti", t)
        p = gen_fixture(ClassSpec.hp_plus_ge(0), rng.randint(0, 6), rng)
        if not class_membership(brenti_map(p), ClassSpec.hp_plus_ge(1)):
            bad_brenti += 1
    for t in range(trials):
        rng = derive_rng(seed, "c7-altn", t)
        p = gen_fixture(ClassSpec.hp_plus_ge(1), rng.randint(0, 6), rng)
        if not verify.check_altn(p).holds:
            bad_altn += 1
    for t in range(trials):
        rng = derive_rng(seed, "c7-signs", t)
        values = _conflicted_values(rng, t)
        A = DiagonalSequence.from_values(values)
        v = verify.dms_test(A, trials=0, max_degree=len(values) - 1, seed=seed)
        if v.status != verify.FAILS:
            bad_signs += 1
            continue
        w = v.witness
        replayed = (diagonal_apply(A, w["fixture"]) == w["image"]
                    and class_membership(w["fixture"], ClassSpec.hp_plus_ge(1))
                    and not class_membership(w["image"], ClassSpec.hp_plus_ge(1)))
        if not replayed:
            bad_signs += 1
    passed = bad_brenti == bad_altn == bad_signs == 0
    return CriterionResult(7, "coefficient-laws", passed,
                           f"brenti-{bad_brenti} altn-{bad_altn} signs-{bad_signs} "
                           f"of {trials} each")


def _conflicted_values(rng, t: int) -> list:
    """Value tables that provably break preservation: mixed signs on even
    t, a zero gap between same-sign values on odd t."""
    n = 7
    if t % 2 == 0:
        values = [rand_fraction(rng, -3, 3) for _ in range(n)]
        nonzero = [(i, v) for i, v in enumerate(values) if v != 0]
        if len(nonzero) < 2:
            values[0], values[5] = Fraction(1), Fraction(-1)
        elif len({v > 0 for _, v in nonzero}) == 1:
            i, v = nonzero[-1]
            values[i] = -v
        return values
    values = [rand_fraction(rng, 0, 3) + Fraction(1, 8) for _ in range(n)]
    gap = rng.randint(1, n - 2)
    values[gap] = Fraction(0)
    return values


def criterion_8(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Closed-form quadratic criterion against direct membership."""
    spec = ClassSpec.hp_plus_ge(1)
    mismatches = 0
    total = 0

    def agree(A, B, C) -> bool:
        q = Polynomial([C, -2 * B - A, A])
        return quadratic_hp1plus(A, B, C) == class_membership(q, spec)

    for A in range(1, 6):
        for B in range(6):
            for C in range(6):
                total += 1
                if not agree(Fraction(A), Fraction(B), Fraction(C)):
                    mismatches += 1
    rng = derive_rng(seed, "c8")
    for _ in range(_count(50, scale)):
        A = rand_fraction(rng, Fraction(1, 8), 6)
        B = rand_fraction(rng, 0, 6)
        C = rand_fraction(rng, 0, 6)
        total += 1
        if not agree(A, B, C):
            mismatches += 1
    return CriterionResult(8, "quadratic-criterion", mismatches == 0,
                           f"{total} triples, {mismatches} mismatches")


def criterion_9(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Every decreasing adjacent pair admits a certified witness."""
    bad = 0
    total = 0
    for m in (0, 1, 2):
        for a0 in range(5):
            for a1 in range(5):
                if a0 <= a1:
                    continue
                for a2 in range(1, 5):
                    total += 1
                    v = verify.monotonicity_witness(a0, a1, a2, m=m)
                    if v.status != verify.FAILS:
                        bad += 1
    spot = verify.monotonicity_witness(2, 1, 1, m=0)
    ok_spot = (spot.status == verify.FAILS
               and spot.witness["image"] == Polynomial([4, -3, 1]))
    return CriterionResult(9, "decreasing-pair-witnesses",
                           bad == 0 and ok_spot,
                           f"{total} grid triples, {bad} missing; "
                           f"spot image x^2-3x+4: {ok_spot}")


def criterion_10(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Geometric decay at rho=1/2 is refuted by a low-degree fixture."""
    v = verify.geometric_witness(Fraction(1, 2), max_degree=4,
                                 trials=_count(200, scale), seed=seed)
    if v.status != verify.FAILS:
        return CriterionResult(10, "geometric-refutation", False,
                               f"status {v.status}")
    w = v.witness
    deg_ok = w["fixture"].degree <= 4
    table = [Fraction(1, 2) ** i for i in range(w["fixture"].degree + 1)]
    replay = (diagonal_apply(DiagonalSequence.from_values(table), w["fixture"])
              == w["image"]
              and class_membership(w["fixture"], ClassSpec.hp_plus_ge(1))
              and not class_membership(w["image"], ClassSpec.hp_ge(1)))
    return CriterionResult(10, "geometric-refutation", deg_ok and replay,
                           f"degree<=4: {deg_ok}, replayed: {replay}")


def criterion_11(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Two-or-more-term operators break plain hyperbolicity."""
    results = []
    for name, T in (("delta", make_standard("delta")),
                    ("two-point-sum",
                     from_symbol(Polynomial([1, 1])))):
        v = verify.hyperbolicity_violation(T, max_degree=4,
                                           trials=_count(100, scale), seed=seed)
        ok = (v.status == verify.FAILS
              and v.witness["input"].degree <= 4
              and v.witness["image"] == T.apply(v.witness["input"])
              and not is_hyperbolic(v.witness["image"]))
        results.append((name, ok))
    passed = all(ok for _, ok in results)
    return CriterionResult(11, "hyperbolicity-break", passed,
                           "; ".join(f"{n}: {ok}" for n, ok in results))


def criterion_12(seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Search campaigns: byte-identical reruns, certificates replayable."""
    notes = []
    passed = True
    for kind in ("finite-degree", "bullet"):
        cfg = SearchConfig(kind, seed=seed, trials=_count(1000, scale),
                           max_degree=4)
        r1 = run_search(cfg)
        r2 = run_search(cfg)
        deterministic = r1.jsonl() == r2.jsonl()
        replays = all(replay_certificate(c.to_obj())["reproduced"]
                      for c in r1.certificates)
        passed = passed and deterministic and replays
        notes.append(f"{kind}: {len(r1.records)} trials, "
                     f"{len(r1.certificates)} certs, "
                     f"deterministic={deterministic}")
    return CriterionResult(12, "search-determinism", passed, "; ".join(notes))


CRITERIA = (criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
            criterion_11, criterion_12)


def run_criterion(number: int, seed: int = 7, scale: float = 1.0) -> CriterionResult:
    """Run criterion `number` (1-based) and record its wall time."""
    start = time.monotonic()
    res = CRITERIA[number - 1](seed=seed, scale=scale)
    res.elapsed = time.monotonic() - start
    return res


def run_suite(seed: int = 7, scale: float = 1.0, emit=None) -> list:
    """Run all criteria; emit(line) is called with one line per result."""
    results = []
    for number in range(1, len(CRITERIA) + 1):
        res = run_criterion(number, seed, scale)
        results.append(res)
        if emit is not None:
            emit(res.line)
    return results
