"""Randomized conjecture searches: determinism, certificates, replay."""

import json
from fractions import Fraction as F

import pytest

from meshpoly import SEARCH_KINDS, replay_certificate, run_search
from meshpoly.harness import CounterexampleCertificate, SearchConfig


def test_kinds_are_pinned():
    assert SEARCH_KINDS == ("nice", "finite-degree", "bullet", "remark2", "lemma1")
    with pytest.raises(ValueError):
        run_search(SearchConfig(kind="everything"))


def test_runs_are_byte_deterministic():
    for kind in ("finite-degree", "bullet", "nice"):
        cfg = SearchConfig(kind=kind, seed=5, trials=10, max_degree=4)
        a = run_search(cfg).jsonl()
        b = run_search(cfg).jsonl()
        assert a == b
        assert a.endswith("\n")


def test_jsonl_shape():
    rep = run_search(SearchConfig(kind="finite-degree", seed=5, trials=6, max_degree=4))
    lines = rep.jsonl().strip().split("\n")
    assert len(lines) == len(rep.records) + 1
    for ln in lines[:-1]:
        assert set(json.loads(ln)) == {"record"}
    tail = json.loads(lines[-1])
    assert set(tail) == {"summary", "config"}
    assert tail["summary"]["kind"] == "finite-degree"


def test_closure_searches_stay_consistent():
    fd = run_search(SearchConfig(kind="finite-degree", seed=7, trials=40, max_degree=5))
    assert fd.summary == {"kind": "finite-degree", "trials": 40,
                          "certificates": 0, "consistent": True}
    bl = run_search(SearchConfig(kind="bullet", seed=7, trials=40, max_degree=4))
    assert bl.summary["certificates"] == 0 and bl.summary["consistent"]


def test_nice_search_double_fail_is_consistent():
    rep = run_search(SearchConfig(kind="nice", seed=5, trials=24, max_degree=4))
    assert rep.summary["certificates"] == 0
    assert rep.summary["consistent"]
    statuses = {r["dms_status"] for r in rep.records if "dms_status" in r}
    assert "fails" in statuses  # random increasing tables are rarely preservers
    assert "holds" in statuses  # arithmetic candidates keep both sides green
    for r in rep.records:
        if "dms_status" in r:
            assert r["dms_status"] == r["classical_status"]
        else:
            assert r["witness_found"]  # decreasing tables always admit one


def test_remark2_produces_replayable_certificate():
    rep = run_search(SearchConfig(kind="remark2", seed=5, trials=4,
                                  max_degree=4, rho=F(1, 2)))
    assert len(rep.certificates) == 1
    cert = rep.certificates[0]
    assert cert.conjecture == "geometric-sequence-preserves-class"
    out = replay_certificate(cert)
    assert out["reproduced"]
    assert all(out["checks"].values())


def test_lemma1_flags_both_default_operators():
    rep = run_search(SearchConfig(kind="lemma1", seed=5, trials=4, max_degree=4))
    assert len(rep.certificates) == 2
    names = {c.payload["operator_name"] for c in rep.certificates}
    assert names == {"delta", "two-point-sum"}
    for c in rep.certificates:
        assert replay_certificate(c)["reproduced"]


def test_certificate_round_trip():
    rep = run_search(SearchConfig(kind="lemma1", seed=5, trials=4, max_degree=4))
    cert = rep.certificates[0]
    again = CounterexampleCertificate.from_obj(cert.to_obj())
    assert replay_certificate(again)["reproduced"]
    # raw parsed JSON works too
    assert replay_certificate(json.loads(cert.to_json()))["reproduced"]


def test_certificate_rejects_malformed():
    with pytest.raises(Exception):
        CounterexampleCertificate.from_obj({"certificate": {"kind": "x"}})
    with pytest.raises(Exception):
        replay_certificate({"not": "a certificate"})


def test_tampered_certificate_fails_replay():
    rep = run_search(SearchConfig(kind="remark2", seed=5, trials=4,
                                  max_degree=4, rho=F(1, 2)))
    obj = rep.certificates[0].to_obj()
    obj["certificate"]["payload"]["image"]["coeffs"][0] = "99/1"
    out = replay_certificate(obj)
    assert not out["reproduced"]
    assert not out["checks"]["image_matches"]


def test_replay_decides_a_large_m_gate_without_its_image(monkeypatch):
    # m is read from outside input: the gate reads only the cofactor, so
    # no operator is applied to anything of degree m or more
    from meshpoly import FiniteDifferenceOperator, Polynomial, from_symbol

    m, fixture = 1000, Polynomial.from_roots([0, 2])
    image = from_symbol(Polynomial([1, 1])).apply(fixture)
    cert = CounterexampleCertificate(
        "finite-degree", "degree-bounded-symbol-closure", 0,
        {"symbol": Polynomial([1, 1]), "m": m, "fixture": fixture,
         "image": image}, {}).to_obj()
    apply = FiniteDifferenceOperator.apply

    def guarded(T, p):
        if p.degree >= m:
            raise AssertionError(f"operator applied at degree {p.degree}")
        return apply(T, p)

    monkeypatch.setattr(FiniteDifferenceOperator, "apply", guarded)
    # R_1000 = x + (x - 1000) has its root 500 on the progression's span
    assert replay_certificate(cert)["checks"] == {
        "gate_holds": False, "image_matches": True,
        "fixture_in_class": True, "image_escapes": False}
