"""Wire format: rational strings only, no floats anywhere."""

import json
from fractions import Fraction as F

import pytest

from meshpoly import (
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
