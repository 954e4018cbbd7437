"""Wire format: rational strings only, no floats anywhere."""

import json
import math
import os
import random
import subprocess
import sys
from collections import OrderedDict, namedtuple
from fractions import Fraction as F
from pathlib import Path

import pytest

import meshpoly
from meshpoly import (
    MONOMIAL,
    POCHHAMMER,
    DiagonalSequence,
    FiniteDifferenceOperator,
    Polynomial,
    from_symbol,
    make_standard,
)
from meshpoly import serialize as sz
from meshpoly.poly import as_fraction, int_text


def test_rational_strings():
    assert sz.rational_to_str(F(3, 4)) == "3/4"
    assert sz.rational_to_str(5) == "5/1"
    assert sz.rational_to_str(F(-7)) == "-7/1"
    assert sz.rational_from_str("3/4") == F(3, 4)
    assert sz.rational_from_str("6") == 6
    assert sz.rational_from_str(2) == 2
    with pytest.raises(sz.ParseError):
        sz.rational_from_str("a/b")
    with pytest.raises(sz.ParseError):
        sz.rational_from_str("1/0")
    with pytest.raises(sz.ParseError):
        sz.rational_from_str([1])


def test_rational_to_str_refuses_floats_and_bools():
    # neither is an exact rational: 0.1 once wrote its binary expansion
    # and True wrote "1/1", while to_jsonable refuses floats
    for value in (0.1, True, False, 2.0):
        with pytest.raises(TypeError):
            sz.rational_to_str(value)


def test_json_booleans_are_not_rationals():
    # bool is an int subclass, so JSON true/false once read as 1 and 0
    with pytest.raises(sz.ParseError):
        sz.rational_from_str(True)
    for obj in ({"coeffs": [True, False, True]},
                {"op": {"shifts": [True], "coeffs": [{"coeffs": ["1"]}]}},
                {"sequence": {"values": ["1", False]}}):
        with pytest.raises(sz.ParseError):
            sz.loads_value(json.dumps(obj))


def test_api_booleans_are_not_rationals():
    # the in-process twin: True is not the rational 1 in the Python API
    for make in (lambda: as_fraction(True),
                 lambda: Polynomial([True, False, True]),
                 lambda: Polynomial([1, 2]) * False,
                 lambda: make_standard("riesz", lam=True, alpha=True)):
        with pytest.raises(TypeError):
            make()


def test_poly_round_trip():
    p = Polynomial([1, F(1, 2)])
    obj = sz.poly_to_obj(p)
    assert obj == {"basis": "monomial", "coeffs": ["1/1", "1/2"]}
    assert sz.poly_from_obj(obj) == p
    ff = Polynomial.falling_factorial(3).to_basis("pochhammer")
    assert sz.poly_from_obj(sz.poly_to_obj(ff)) == ff


def ref_poly_to_obj(p):
    """poly_to_obj through Fractions, as it was before it wrote each
    coefficient from (nums, den): p.coeffs, each re-wrapped by Fraction."""
    return {"basis": p.basis,
            "coeffs": [f"{F(c).numerator}/{F(c).denominator}"
                       for c in p.coeffs]}


def test_poly_to_obj_matches_fraction_reference():
    rng = random.Random(20)
    polys = [Polynomial(), Polynomial((), POCHHAMMER), Polynomial([-3]),
             Polynomial([0, 0, -1], POCHHAMMER)]
    for t in range(20000):
        lim = 10 ** 40 if t % 10 == 0 else 12
        nums = [rng.randint(-lim, lim) if rng.random() < 0.8 else 0
                for _ in range(rng.randint(1, 9))]
        den = 1 if t % 3 == 0 else rng.randint(1, max(lim, 60))
        polys.append(Polynomial._from_ints(nums, den,
                                           (MONOMIAL, POCHHAMMER)[t % 2]))
    assert sum(p.den == 1 for p in polys) > 5000
    assert sum(not p.is_zero and p.nums[-1] < 0 for p in polys) > 5000
    for p in polys:
        assert sz.poly_to_obj(p) == ref_poly_to_obj(p), (p.nums, p.den)


def test_subclass_values_serialize_as_their_base():
    # subclasses of Fraction, dict and tuple serialize as their base
    class Half(F):
        pass

    Pair = namedtuple("Pair", "a b")
    assert sz.dumps(OrderedDict(b=Half(1, 2), a=Pair(F(2), True))) \
        == sz.dumps({"b": F(1, 2), "a": [F(2), True]}) \
        == '{"a":["2/1",true],"b":"1/2"}'


def test_operator_wire_shape():
    T = from_symbol(Polynomial([1, 1]))
    obj = sz.operator_to_obj(T)
    assert set(obj) == {"op"}
    assert set(obj["op"]) == {"coeffs"}  # integer shifts use positional coeffs
    assert sz.operator_from_obj(obj).terms == T.terms
    half = make_standard("riesz", lam=1, alpha=F(1, 2))
    hobj = sz.operator_to_obj(half)
    assert set(hobj["op"]) == {"shifts", "coeffs"}
    assert hobj["op"]["shifts"] == ["0/1", "1/2"]
    assert sz.operator_from_obj(hobj).terms == half.terms


def test_sequence_wire_shape():
    A = DiagonalSequence.from_values([1, F(1, 2)])
    obj = sz.sequence_to_obj(A)
    assert obj == {"sequence": {"values": ["1/1", "1/2"]}}
    assert sz.sequence_from_obj(obj).values == A.values
    B = DiagonalSequence.from_rule(Polynomial([0, 1]))
    robj = sz.sequence_to_obj(B)
    assert "phi" in robj["sequence"]
    assert sz.sequence_from_obj(robj).alpha(7) == 7
    with pytest.raises(sz.ParseError):
        sz.sequence_from_obj({"sequence": {}})
    with pytest.raises(sz.ParseError):
        sz.sequence_from_obj({"sequence": {"values": ["1"], "phi": robj["sequence"]["phi"]}})


def test_to_jsonable_rejects_floats():
    # at any depth, also inside a Verdict and as a float subclass, from
    # every entry point
    from meshpoly.verify import FAILS, Verdict

    class Real(float):
        pass

    for value in (0.5, float("inf"), Real(1), [0.5], (1, 2.0),
                  {"a": [1, {"b": 2.0}]}, {"a": ({"b": [F(1), Real(2)]},)},
                  [Polynomial([1]), [None, [-0.0]]]):
        for wrapped in (value, [value], {"k": value},
                        Verdict("c", FAILS, witness={"w": value}),
                        Verdict("c", "holds", details={"d": [value]})):
            for convert in (sz.to_jsonable, sz.dumps, sz.dumps_indented):
                with pytest.raises(TypeError):
                    convert(wrapped)


def test_dumps_is_canonical():
    assert sz.dumps({"b": 1, "a": F(1, 3)}) == '{"a":"1/3","b":1}'
    assert sz.dumps([F(1, 2), None, True]) == '["1/2",null,true]'


def test_parse_error_carries_position():
    with pytest.raises(sz.ParseError) as ei:
        sz.loads_value("{bad")
    assert "line 1" in str(ei.value)


def test_loads_value_dispatch():
    p = sz.loads_value('{"basis": "monomial", "coeffs": ["1/2", "3"]}')
    assert isinstance(p, Polynomial)
    assert p.monomial_coeffs() == (F(1, 2), F(3))
    T = sz.loads_value(sz.dumps(sz.operator_to_obj(make_standard("delta"))))
    assert isinstance(T, FiniteDifferenceOperator)
    A = sz.loads_value('{"sequence": {"values": ["1", "2"]}}')
    assert isinstance(A, DiagonalSequence)
    assert A.values == (F(1), F(2))
    with pytest.raises(sz.ParseError):
        sz.loads_value('{"neither": 1}')


# canonical wire text of two operators and two sequences
WIRE = (
    '{"op":{"coeffs":[{"basis":"monomial","coeffs":["1/1"]},'
    '{"basis":"monomial","coeffs":["-1/1"]}]}}',
    '{"op":{"coeffs":[{"basis":"monomial","coeffs":["1/1"]},'
    '{"basis":"monomial","coeffs":["-1/1"]}],"shifts":["0/1","1/2"]}}',
    '{"sequence":{"values":["1/1","1/2"]}}',
    '{"sequence":{"phi":{"basis":"monomial","coeffs":["0/1","1/1"]}}}',
)


def test_operator_and_sequence_round_trip_in_a_fresh_interpreter(tmp_path):
    # serialize loads operators only to build a value, and recognises
    # operator and sequence values once that has loaded it
    code = ("import json, sys\n"
            "from meshpoly import serialize\n"
            "loaded = 'meshpoly.operators' in sys.modules\n"
            "texts = [serialize.dumps(serialize.loads_value(t))"
            " for t in json.loads(sys.stdin.read())]\n"
            "print(json.dumps([loaded, texts]))\n")
    src = str(Path(meshpoly.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    r = subprocess.run([sys.executable, "-c", code], input=json.dumps(WIRE),
                       cwd=tmp_path, env=env, capture_output=True, text=True,
                       timeout=60)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [False, list(WIRE)]
    assert [sz.dumps(sz.loads_value(t)) for t in WIRE] == list(WIRE)


def test_integers_beyond_the_digit_limit():
    """int_text writes, and as_fraction and rational_from_str read, any
    number of digits, past the 4,300 that CPython converts between int
    and str by default, and leave that limit as it is; below it the
    text is str's."""
    from meshpoly.poly import int_text
    limit = sys.get_int_max_str_digits()
    for k in (1, 4299, 4300, 4301, 5000, 12345, 50000):
        sevens = 7 * (10**k - 1) // 9
        for n, text in ((sevens, "7" * k), (-sevens, "-" + "7" * k),
                        (10**k + 3, "1" + "0" * (k - 1) + "3"),
                        (-10**k, "-1" + "0" * k)):
            assert int_text(n) == text, k
            assert as_fraction(text) == n
            assert as_fraction(f" {text}/{'9' * k} ") == F(n, 10**k - 1)
            assert sz.rational_from_str(f"{text}/3") == F(n, 3)
            assert sz.rational_to_str(n) == f"{text}/1"
    rng = random.Random(5)
    for _ in range(2000):
        n = rng.randint(-10**rng.randint(1, 4000), 10**4000)
        assert int_text(n) == str(n)
    for bad in ("1" * 5000 + "x", "1/" + "2" * 5000 + "/3", "1/0",
                "0/" + "0" * 5000):
        with pytest.raises(sz.ParseError):
            sz.rational_from_str(bad)
    assert sys.get_int_max_str_digits() == limit


def test_labels_and_reprs_beyond_the_digit_limit():
    """Class labels, operator and sequence reprs and the mesh-monotone
    skip reason write exact values of any size; below the limit the
    text is str's."""
    from meshpoly.interlace import ClassSpec
    from meshpoly.verify import check_mesh_monotone
    p = Polynomial.from_roots([0, 2, 4])
    for k in (1, 4300, 5000):
        n = 10**k + 1
        digits = "1" + "0" * (k - 1) + "1"
        for x, text in ((F(n), digits), (F(-3, n), f"-3/{digits}")):
            assert ClassSpec.hp_plus_ge(x).label == f"HP+>={text}"
            assert ClassSpec.hp_ge(x).label == f"HP>={text}"
            assert repr(DiagonalSequence.from_values([x, 1])) \
                == f"DiagonalSequence(values=['{text}', '1'])"
        T = make_standard("riesz", lam=2, alpha=n)
        assert repr(T) == f"FiniteDifferenceOperator(1@0, -2@{digits})"
        v = check_mesh_monotone(T, p, alpha=n)
        assert v.details == {"reason": f"input outside HP>={digits}"}
    assert repr(make_standard("riesz", lam=F(1, 3), alpha=F(3, 2))) \
        == "FiniteDifferenceOperator(1@0, -1/3@3/2)"


def ref_rational_to_str(x):
    x = as_fraction(x)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def ref_poly_obj(p):
    den = p.den
    coeffs = []
    for c in p.basis_nums():
        g = math.gcd(c, den)
        coeffs.append(f"{int_text(c // g)}/{int_text(den // g)}")
    return {"basis": p.basis, "coeffs": coeffs}


def ref_to_jsonable(value):
    """to_jsonable as it was before it decided by type(value): one
    isinstance chain, every number written through int_text."""
    from meshpoly.verify import Verdict
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to serialize a float; records are exact")
    if isinstance(value, dict):
        return {str(k): ref_to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [ref_to_jsonable(v) for v in value]
    if isinstance(value, Polynomial):
        return ref_poly_obj(value)
    if isinstance(value, FiniteDifferenceOperator):
        if value.integer_shifts:
            return {"op": {"coeffs": [ref_poly_obj(q) for q in value.coeffs]}}
        return {"op": {"shifts": [ref_rational_to_str(s) for s, _ in value.terms],
                       "coeffs": [ref_poly_obj(q) for _, q in value.terms]}}
    if isinstance(value, DiagonalSequence):
        if value.values is not None:
            return {"sequence": {"values": [ref_rational_to_str(v)
                                            for v in value.values]}}
        return {"sequence": {"phi": ref_poly_obj(value.phi)}}
    if isinstance(value, Verdict):
        return {"claim": value.claim, "status": value.status,
                "witness": ref_to_jsonable(value.witness),
                "details": ref_to_jsonable(value.details)}
    if isinstance(value, F):
        return ref_rational_to_str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def ref_dumps(value):
    return json.dumps(ref_to_jsonable(value), sort_keys=True,
                      separators=(",", ":"))


def ref_dumps_indented(value):
    return json.dumps(ref_to_jsonable(value), sort_keys=True, indent=1)


def ref_jsonl(report):
    lines = [ref_dumps({"record": r}) for r in report.records]
    lines.append(ref_dumps({"summary": report.summary,
                            "config": report.config.echo()}))
    return "\n".join(lines) + "\n"


def ref_certificate_json(c):
    return ref_dumps_indented({"certificate": {
        "kind": c.kind, "conjecture": c.conjecture, "trial": c.trial,
        "payload": c.payload, "config": c.config}})


def test_campaign_output_matches_isinstance_reference():
    """Records and certificates of all five kinds, written through the
    type(value) dispatch and the shared encoders, are the reference's
    bytes."""
    from meshpoly.harness import SearchConfig, run_search
    certified = 0
    for seed in (1, 5, 7, 11):
        for kind in sz.SEARCH_KINDS:
            cfg = SearchConfig(kind, seed=seed, trials=60, max_degree=5,
                               rho=F(1, 2 + seed % 3))
            report = run_search(cfg)
            assert report.jsonl() == ref_jsonl(report), (kind, seed)
            for r in report.records:
                assert sz.to_jsonable(r) == ref_to_jsonable(r)
            for c in report.certificates:
                assert c.to_obj() == ref_to_jsonable(c.to_obj())
                assert c.to_json() == ref_certificate_json(c), (kind, seed)
                certified += 1
    assert certified >= 12


def test_edge_values_match_isinstance_reference():
    from meshpoly.verify import FAILS, Verdict
    big = 10**5000 + 7

    class Half(F):
        pass

    class Name(str):
        pass

    class Count(int):
        pass

    class Poly(Polynomial):
        __slots__ = ()

    Pair = namedtuple("Pair", "a b")
    T = make_standard("riesz", lam=F(big, 3), alpha=F(1, 2))
    A = DiagonalSequence.from_values([big, F(-1, big), 0])
    B = DiagonalSequence.from_rule(Polynomial([F(1, big), 0, 1]))
    inner = Verdict("inner", FAILS, witness={"op": T, "seq": (A, B)},
                    details={1: F(big), "n": [True, False, 0, 1]})
    values = [
        [True, False, 1, 0, None], (True, [False, (1,)]),
        F(big), F(-big, 3), F(3, big), F(-7), F(0), Half(1, 2), Half(big),
        Polynomial([big, F(1, big), -1]), Polynomial(),
        Polynomial([F(1, 3), 2], POCHHAMMER), Poly([1, F(-5, 2)]),
        {1: "a", 2: F(1, 2), "3": (F(3), [Half(1, 3)])},
        {(1, 2): [F(1, 2)], True: None, None: 0},
        OrderedDict(b=Half(1, 2), a=Pair(F(2), True)),
        Pair(F(big), Pair(Polynomial([1, 1]), ())),
        Name("x"), Count(5), {"k": Name("v"), "c": [Count(-3)]},
        T, make_standard("delta"), from_symbol(Polynomial([1, F(1, 2), 1])),
        A, B, inner,
        Verdict("outer", "holds", details={"inner": inner, "seqs": [A, B],
                                          "ops": (T,), "big": F(big, 7)}),
        [[[[F(1, 2)]]], {"a": {"b": {"c": (Polynomial([F(-1, 9)]),)}}}],
        "", [], {}, (),
    ]
    for i, v in enumerate(values):  # repr(v) may exceed the digit limit
        assert sz.to_jsonable(v) == ref_to_jsonable(v), i
        assert type(sz.to_jsonable(v)) is type(ref_to_jsonable(v)), i
        assert sz.dumps(v) == ref_dumps(v), i
        assert sz.dumps_indented(v) == ref_dumps_indented(v), i
    # an int past the digit limit is a JSON number that str cannot
    # write: both refuse it the same way
    for convert in (sz.dumps, ref_dumps):
        with pytest.raises(ValueError):
            convert({"n": big})
