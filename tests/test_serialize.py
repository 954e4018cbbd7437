"""Wire format: rational strings only, no floats anywhere."""

import json
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
from meshpoly.poly import as_fraction


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
    with pytest.raises(TypeError):
        sz.to_jsonable(0.5)
    with pytest.raises(TypeError):
        sz.to_jsonable({"a": [1, 2.0]})


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
