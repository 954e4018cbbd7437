"""Randomized search campaigns over the open questions.

A campaign is a pure function of its SearchConfig: per-trial RNG
streams are derived from (seed, kind, trial), records contain only
exact values, and the JSONL linearization sorts keys, so two runs of
the same config produce byte-identical output.  Anything that refutes
a conjecture is packaged as a CounterexampleCertificate carrying every
input needed to replay it from scratch.
"""

from __future__ import annotations

from fractions import Fraction

from . import serialize, verify
from .fixtures import derive_rng, gen_fixture, rand_fraction
from .interlace import ClassSpec, class_membership
from .operators import (
    DiagonalSequence,
    FiniteDifferenceOperator,
    bullet_product,
    diagonal_apply,
    from_symbol,
    make_standard,
)
from .poly import Polynomial, as_fraction
from .roots import is_hyperbolic
from .serialize import SEARCH_KINDS

__all__ = [
    "SearchConfig",
    "SearchReport",
    "CounterexampleCertificate",
    "run_search",
    "replay_certificate",
    "SEARCH_KINDS",
]

_RNG_SPAN = 2 ** 31


class SearchConfig:
    __slots__ = ("kind", "seed", "trials", "max_degree", "i_max", "rho")

    def __init__(self, kind: str, seed: int = 7, trials: int = 500,
                 max_degree: int = 6, i_max: int = 64,
                 rho: Fraction = Fraction(1, 2)):  # rho: remark2 only
        self.kind, self.seed, self.trials = kind, seed, trials
        self.max_degree, self.i_max, self.rho = max_degree, i_max, rho

    def echo(self) -> dict:
        return {"kind": self.kind, "seed": self.seed, "trials": self.trials,
                "max_degree": self.max_degree, "i_max": self.i_max,
                "rho": as_fraction(self.rho)}


class CounterexampleCertificate:
    __slots__ = ("kind", "conjecture", "trial", "payload", "config")

    def __init__(self, kind: str, conjecture: str, trial: int, payload: dict,
                 config: dict):
        self.kind, self.conjecture, self.trial = kind, conjecture, trial
        self.payload, self.config = payload, config

    def to_obj(self) -> dict:
        return serialize.to_jsonable({
            "certificate": {
                "kind": self.kind, "conjecture": self.conjecture,
                "trial": self.trial, "payload": self.payload,
                "config": self.config,
            }})

    def to_json(self) -> str:
        return serialize.dumps_indented(self.to_obj())

    @staticmethod
    def from_obj(obj) -> "CounterexampleCertificate":
        if not isinstance(obj, dict) or not isinstance(obj.get("certificate"), dict):
            raise serialize.ParseError("expected a 'certificate' object")
        c = obj["certificate"]
        for key in ("kind", "conjecture", "trial", "payload", "config"):
            if key not in c:
                raise serialize.ParseError(f"certificate missing {key!r}")
        if not isinstance(c["payload"], dict):
            raise serialize.ParseError("certificate 'payload' must be an object")
        if not isinstance(c["conjecture"], str):
            raise serialize.ParseError("certificate 'conjecture' must be a string")
        return CounterexampleCertificate(c["kind"], c["conjecture"], c["trial"],
                                         c["payload"], c["config"])


class SearchReport:
    __slots__ = ("config", "records", "certificates")

    def __init__(self, config: SearchConfig, records: list | None = None,
                 certificates: list | None = None):
        self.config = config
        self.records = [] if records is None else records
        self.certificates = [] if certificates is None else certificates

    @property
    def summary(self) -> dict:
        return {"kind": self.config.kind, "trials": len(self.records),
                "certificates": len(self.certificates),
                "consistent": all(r.get("consistent", True) for r in self.records)}

    def jsonl(self) -> str:
        lines = [serialize.dumps({"record": r}) for r in self.records]
        lines.append(serialize.dumps({"summary": self.summary,
                                      "config": self.config.echo()}))
        return "\n".join(lines) + "\n"


def _random_symbol(rng) -> Polynomial:
    k = rng.randint(1, 3)
    while True:
        coeffs = [rand_fraction(rng, -3, 3) for _ in range(k)]
        lead = rand_fraction(rng, -3, 3)
        if lead != 0:
            return Polynomial(coeffs + [lead])


def _search_finite_degree(cfg: SearchConfig, report: SearchReport) -> None:
    """Degree-bounded closure: if T((x)_m) stays in HP>=1, do all images
    of degree <= m fixtures stay as well?  A gate that holds while some
    low-degree image escapes would refute the finite-degree conjecture.
    The gate reads only the cofactor of T((x)_m); a certificate's
    gate_image is the one place the image is formed.
    """
    spec = ClassSpec.hp_ge(1)
    inner = 5
    for t in range(cfg.trials):
        rng = derive_rng(cfg.seed, "finite-degree", t)
        Q = _random_symbol(rng)
        m = rng.randint(1, max(1, min(4, cfg.max_degree)))
        T = from_symbol(Q)
        gate = verify._image_in_mesh_one_class(T, m)
        record = {"trial": t, "symbol": Q, "m": m, "gate": gate,
                  "tested": 0, "consistent": True}
        if gate:
            for s in range(inner):
                p = gen_fixture(spec, rng.randint(0, m), rng)
                image = T.apply(p)
                record["tested"] += 1
                if image.is_zero or class_membership(image, spec):
                    continue
                record["consistent"] = False
                report.certificates.append(CounterexampleCertificate(
                    "finite-degree", "degree-bounded-symbol-closure", t,
                    {"symbol": Q, "m": m,
                     "gate_image": T.apply(Polynomial.falling_factorial(m)),
                     "fixture": p, "image": image}, cfg.echo()))
                break
        report.records.append(record)


def _search_bullet(cfg: SearchConfig, report: SearchReport) -> None:
    """Is the degree-d coupling product of two class members a member?"""
    spec = ClassSpec.hp_ge(1)
    for t in range(cfg.trials):
        rng = derive_rng(cfg.seed, "bullet", t)
        d = rng.randint(2, max(2, min(4, cfg.max_degree)))
        p = gen_fixture(spec, rng.randint(1, d), rng)
        q = gen_fixture(spec, rng.randint(1, d), rng)
        r = bullet_product(p, q, d)
        ok = r.is_zero or class_membership(r, spec)
        report.records.append({"trial": t, "d": d, "p": p, "q": q,
                               "image_zero": r.is_zero, "consistent": ok})
        if not ok:
            report.certificates.append(CounterexampleCertificate(
                "bullet", "coupling-product-closure", t,
                {"p": p, "q": q, "d": d, "image": r}, cfg.echo()))


def _increasing_candidate(rng, length: int) -> list:
    v = rand_fraction(rng, 0, 2)
    out = [v]
    for _ in range(length - 1):
        v = v + rand_fraction(rng, 0, 2)
        out.append(v)
    if all(x == 0 for x in out):
        out[-1] = Fraction(1)
    return out


def _search_nice(cfg: SearchConfig, report: SearchReport) -> None:
    """Probe the two directions of the monotone-equivalence conjecture.

    Even trials sample a weakly increasing non-negative candidate and
    test it both as a discrete and as a classical preserver: an exact
    discrete counterexample on a candidate whose classical side holds
    under sampling is certificate material.  Odd trials draw a
    decreasing adjacent pair and confirm the constructive witness
    machinery refutes it, which the proof guarantees for non-negative
    values; a miss there is a library defect, not data.
    """
    inner = max(10, cfg.trials // 25)
    for t in range(cfg.trials):
        rng = derive_rng(cfg.seed, "nice", t)
        if t % 2 == 0:
            if t % 8 == 0:
                # arithmetic sequences are preservers on both sides:
                # keeps the campaign from seeing only double failures
                c = rand_fraction(rng, 0, 2)
                d = rand_fraction(rng, 0, 2)
                if c == 0 and d == 0:
                    c = Fraction(1)
                values = [c + d * i for i in range(cfg.max_degree + 1)]
            else:
                values = _increasing_candidate(rng, cfg.max_degree + 1)
            A = DiagonalSequence.from_values(values)
            dms = verify.dms_test(A, trials=inner, max_degree=cfg.max_degree,
                                  seed=rng.randint(0, _RNG_SPAN))
            # pure classical side: no rescaling trace, that embeds the
            # discrete image family and would blur the two directions
            classical = verify.classical_multiplier_probe(
                A, trials=inner, max_degree=cfg.max_degree,
                seed=rng.randint(0, _RNG_SPAN), rescaling=())
            # a random increasing candidate is usually neither kind of
            # preserver; only a disagreement challenges the equivalence,
            # and the sampled side is escalated before it counts
            if dms.status == verify.FAILS and classical.status == verify.HOLDS:
                classical = verify.classical_multiplier_probe(
                    A, trials=10 * inner, max_degree=cfg.max_degree,
                    seed=rng.randint(0, _RNG_SPAN), rescaling=())
            elif classical.status == verify.FAILS and dms.status == verify.HOLDS:
                dms = verify.dms_test(A, trials=10 * inner,
                                      max_degree=cfg.max_degree,
                                      seed=rng.randint(0, _RNG_SPAN))
            disagree = {dms.status, classical.status} == {verify.FAILS,
                                                          verify.HOLDS}
            record = {"trial": t, "mode": "increasing", "values": values,
                      "dms_status": dms.status, "classical_status": classical.status,
                      "consistent": not disagree}
            if disagree:
                failed = dms if dms.status == verify.FAILS else classical
                report.certificates.append(CounterexampleCertificate(
                    "nice", "monotone-classical-equivalence", t,
                    {"values": values, "failed_side": failed.claim,
                     "condition": failed.witness["condition"],
                     "fixture": failed.witness["fixture"],
                     "image": failed.witness["image"],
                     "dms_status": dms.status,
                     "classical_status": classical.status}, cfg.echo()))
        else:
            m = rng.randint(0, max(0, cfg.max_degree - 2))
            a1 = rand_fraction(rng, 1, 4)
            a2 = rand_fraction(rng, 0, a1 - Fraction(1, 8))
            a3 = rand_fraction(rng, 0, 3) + Fraction(1, 8)
            v = verify.monotonicity_witness(a1, a2, a3, m=m)
            if v.status != verify.FAILS:
                raise AssertionError(
                    "decreasing non-negative pair must admit a witness")
            record = {"trial": t, "mode": "decreasing",
                      "values": [a1, a2, a3], "m": m,
                      "witness_found": True, "consistent": True}
        report.records.append(record)


def _search_remark2(cfg: SearchConfig, report: SearchReport) -> None:
    v = verify.geometric_witness(cfg.rho, max_degree=min(4, cfg.max_degree),
                                 trials=cfg.trials, seed=cfg.seed)
    report.records.append({"trial": 0, "rho": as_fraction(cfg.rho),
                           "status": v.status,
                           "consistent": v.status != verify.FAILS})
    if v.status == verify.FAILS:
        report.certificates.append(CounterexampleCertificate(
            "remark2", "geometric-sequence-preserves-class", 0,
            {"rho": as_fraction(cfg.rho), "fixture": v.witness["fixture"],
             "image": v.witness["image"]}, cfg.echo()))


def _search_lemma1(cfg: SearchConfig, report: SearchReport) -> None:
    operators = [("delta", make_standard("delta")),
                 ("two-point-sum", FiniteDifferenceOperator.from_coeffs(
                     [Polynomial([1]), Polynomial([1])]))]
    for idx, (name, T) in enumerate(operators):
        v = verify.hyperbolicity_violation(T, max_degree=min(4, cfg.max_degree),
                                           trials=cfg.trials, seed=cfg.seed)
        report.records.append({"trial": idx, "operator_name": name,
                               "operator": T, "status": v.status,
                               "consistent": v.status != verify.FAILS})
        if v.status == verify.FAILS:
            report.certificates.append(CounterexampleCertificate(
                "lemma1", "operator-preserves-hyperbolicity", idx,
                {"operator": T, "operator_name": name,
                 "input": v.witness["input"], "image": v.witness["image"]},
                cfg.echo()))


_SEARCHES = {
    "finite-degree": _search_finite_degree,
    "bullet": _search_bullet,
    "nice": _search_nice,
    "remark2": _search_remark2,
    "lemma1": _search_lemma1,
}


def run_search(cfg: SearchConfig) -> SearchReport:
    if cfg.kind not in _SEARCHES:
        raise ValueError(f"unknown search kind {cfg.kind!r}; "
                         f"expected one of {', '.join(SEARCH_KINDS)}")
    report = SearchReport(cfg)
    _SEARCHES[cfg.kind](cfg, report)
    return report


# how a loaded certificate carries each type; live ones carry the objects
_WIRE = {Polynomial: serialize.poly_from_obj,
         FiniteDifferenceOperator: serialize.operator_from_obj,
         Fraction: serialize.rational_from_str}


def _parse_payload(payload: dict, **fields) -> dict:
    """The payload fields a kind reads, by name and type: a missing or
    mistyped field is an input error, not a crash in replay."""
    out = {}
    for key, kind in fields.items():
        if key not in payload:
            raise serialize.ParseError(f"certificate payload missing {key!r}")
        v = payload[key]
        if isinstance(v, kind) and not isinstance(v, bool):
            out[key] = v
        elif kind in _WIRE:
            out[key] = _WIRE[kind](v)
        else:
            raise serialize.ParseError(
                f"certificate payload {key!r} must be a {kind.__name__}")
    return out


def replay_certificate(cert) -> dict:
    """Recompute a certificate from its serialized inputs.

    Returns {"reproduced": bool, "checks": {...}} where each check is an
    independently recomputed condition; reproduced means all of them
    came out the way the certificate claims.  The finite-degree gate is
    decided on the cofactor of T((x)_m), as in the search; gate_image is
    not read, so a large m costs no degree-m image.
    """
    if isinstance(cert, dict):
        cert = CounterexampleCertificate.from_obj(cert)
    spec1 = ClassSpec.hp_ge(1)
    spec1p = ClassSpec.hp_plus_ge(1)
    checks = {}
    if cert.kind == "finite-degree":
        p = _parse_payload(cert.payload, symbol=Polynomial, m=int,
                           fixture=Polynomial, image=Polynomial)
        T = from_symbol(p["symbol"])
        checks["gate_holds"] = verify._image_in_mesh_one_class(T, p["m"])
        image = T.apply(p["fixture"])
        checks["image_matches"] = image == p["image"]
        checks["fixture_in_class"] = class_membership(p["fixture"], spec1)
        checks["image_escapes"] = (not image.is_zero
                                   and not class_membership(image, spec1))
    elif cert.kind == "bullet":
        p = _parse_payload(cert.payload, p=Polynomial, q=Polynomial, d=int,
                           image=Polynomial)
        r = bullet_product(p["p"], p["q"], p["d"])
        checks["image_matches"] = r == p["image"]
        checks["p_in_class"] = class_membership(p["p"], spec1)
        checks["q_in_class"] = class_membership(p["q"], spec1)
        checks["image_escapes"] = (not r.is_zero
                                   and not class_membership(r, spec1))
    elif cert.kind == "nice":
        p = _parse_payload(cert.payload, values=list, failed_side=str,
                           fixture=Polynomial, image=Polynomial)
        values = [serialize.rational_from_str(v) for v in p["values"]]
        if len(values) <= p["fixture"].degree:
            raise serialize.ParseError("certificate 'values' shorter than "
                                       "the fixture's degree")
        A = DiagonalSequence.from_values(values)
        if p["failed_side"] == "classical-multiplier-sampled":
            gamma = p["fixture"].monomial_coeffs()
            image = Polynomial([g * values[i] for i, g in enumerate(gamma)])
            checks["image_matches"] = image == p["image"]
            checks["fixture_in_class"] = class_membership(
                p["fixture"], ClassSpec.hp_plus_ge(0))
            checks["image_escapes"] = (not image.is_zero
                                       and not is_hyperbolic(image))
        else:
            image = diagonal_apply(A, p["fixture"])
            checks["image_matches"] = image == p["image"]
            checks["fixture_in_class"] = class_membership(p["fixture"], spec1p)
            checks["image_escapes"] = (not image.is_zero
                                       and not class_membership(image, spec1p))
    elif cert.kind == "remark2":
        p = _parse_payload(cert.payload, rho=Fraction, fixture=Polynomial,
                           image=Polynomial)
        deg = max(p["fixture"].degree, 0)
        A = DiagonalSequence.from_values([p["rho"] ** i for i in range(deg + 1)])
        image = diagonal_apply(A, p["fixture"])
        checks["image_matches"] = image == p["image"]
        checks["fixture_in_class"] = class_membership(p["fixture"], spec1p)
        checks["image_escapes"] = not class_membership(image, spec1)
    elif cert.kind == "lemma1":
        p = _parse_payload(cert.payload, operator=FiniteDifferenceOperator,
                           input=Polynomial, image=Polynomial)
        image = p["operator"].apply(p["input"])
        checks["image_matches"] = image == p["image"]
        checks["input_hyperbolic"] = is_hyperbolic(p["input"])
        checks["image_not_hyperbolic"] = (not image.is_zero
                                          and not is_hyperbolic(image))
    else:
        raise serialize.ParseError(f"unknown certificate kind {cert.kind!r}")
    return {"reproduced": all(checks.values()), "checks": checks,
            "kind": cert.kind, "conjecture": cert.conjecture}
