"""Exact JSON round-tripping for polynomials, operators and sequences.

Rationals travel as "num/den" strings with the denominator always
written out, so values survive any JSON implementation unchanged.
Floats are rejected in both directions: a float in a record would make
replay platform-dependent.  Serialized output is compact with sorted
keys, which is what makes repeated runs byte-identical.

Wire shapes:

    polynomial   {"basis": "monomial", "coeffs": ["-28/1", "3/4", ...]}
    operator     {"op": {"coeffs": [<polynomial>, ...]}}
                 {"op": {"shifts": ["3/2", ...], "coeffs": [...]}}
    sequence     {"sequence": {"values": ["1/1", "1/2", ...]}}
                 {"sequence": {"phi": <polynomial>}}

The first operator form covers integer shifts 0..k positionally; the
second carries explicit rational shifts for the remaining cases.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction

from .poly import MONOMIAL, POCHHAMMER, Polynomial, as_fraction, int_text

__all__ = [
    "ParseError",
    "rational_to_str",
    "rational_from_str",
    "poly_to_obj",
    "poly_from_obj",
    "operator_to_obj",
    "operator_from_obj",
    "sequence_to_obj",
    "sequence_from_obj",
    "to_jsonable",
    "dumps",
    "loads_value",
    "SEARCH_KINDS",
]

# the "kind" a search record or certificate carries; defined here, not in
# harness, so that the command line can offer them without loading it
SEARCH_KINDS = ("nice", "finite-degree", "bullet", "remark2", "lemma1")


class ParseError(ValueError):
    """Malformed input; carries a 1-based line/column when known."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def rational_to_str(x) -> str:
    """"num/den" of an exact rational (an int, a Fraction or a 'num/den'
    string), in lowest terms with den > 0.  Floats and bools raise
    TypeError, as in poly.as_fraction: neither is a rational here.  Any
    number of digits is written (poly.int_text)."""
    x = as_fraction(x)
    return f"{int_text(x.numerator)}/{int_text(x.denominator)}"


def rational_from_str(s) -> Fraction:
    # JSON true/false parse to bool, which is an int subclass
    if isinstance(s, bool):
        raise ParseError(f"expected a rational, got {str(s).lower()}")
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    if not isinstance(s, str):
        raise ParseError(f"expected a rational string, got {type(s).__name__}")
    try:
        return as_fraction(s)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {s!r}: {e}") from None


def poly_to_obj(p: Polynomial) -> dict:
    """p's coefficients in its own basis as "num/den" strings, written
    from the stored integers: coefficient c / p.den reduced by one gcd,
    the text rational_to_str writes for the same value."""
    den = p.den
    coeffs = []
    for c in p.basis_nums():
        g = math.gcd(c, den)
        coeffs.append(f"{int_text(c // g)}/{int_text(den // g)}")
    return {"basis": p.basis, "coeffs": coeffs}


def poly_from_obj(obj) -> Polynomial:
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ParseError("polynomial object needs a 'coeffs' field")
    basis = obj.get("basis", MONOMIAL)
    if basis not in (MONOMIAL, POCHHAMMER):
        raise ParseError(f"unknown basis {basis!r}")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise ParseError("'coeffs' must be a list")
    return Polynomial([rational_from_str(c) for c in coeffs], basis)


def operator_to_obj(T) -> dict:
    if T.integer_shifts:
        return {"op": {"coeffs": [poly_to_obj(q) for q in T.coeffs]}}
    shifts = [rational_to_str(s) for s, _ in T.terms]
    return {"op": {"shifts": shifts,
                   "coeffs": [poly_to_obj(q) for _, q in T.terms]}}


def operator_from_obj(obj):
    from .operators import FiniteDifferenceOperator

    if not isinstance(obj, dict) or not isinstance(obj.get("op"), dict):
        raise ParseError("operator object needs an 'op' field")
    op = obj["op"]
    coeffs = op.get("coeffs")
    if not isinstance(coeffs, list):
        raise ParseError("'op.coeffs' must be a list")
    polys = [poly_from_obj(c) for c in coeffs]
    if "shifts" in op:
        shifts = op["shifts"]
        if not isinstance(shifts, list) or len(shifts) != len(polys):
            raise ParseError("'op.shifts' must parallel 'op.coeffs'")
        return FiniteDifferenceOperator(
            [(rational_from_str(s), q) for s, q in zip(shifts, polys)])
    return FiniteDifferenceOperator.from_coeffs(polys)


def sequence_to_obj(A) -> dict:
    if A.values is not None:
        return {"sequence": {"values": [rational_to_str(v) for v in A.values]}}
    return {"sequence": {"phi": poly_to_obj(A.phi)}}


def sequence_from_obj(obj):
    from .operators import DiagonalSequence

    if not isinstance(obj, dict) or not isinstance(obj.get("sequence"), dict):
        raise ParseError("sequence object needs a 'sequence' field")
    seq = obj["sequence"]
    if ("values" in seq) == ("phi" in seq):
        raise ParseError("sequence needs exactly one of 'values' or 'phi'")
    if "values" in seq:
        if not isinstance(seq["values"], list):
            raise ParseError("'sequence.values' must be a list")
        return DiagonalSequence.from_values(
            [rational_from_str(v) for v in seq["values"]])
    return DiagonalSequence.from_rule(poly_from_obj(seq["phi"]))


def to_jsonable(value):
    """Recursive conversion to plain JSON types with exact rationals.

    Floats are refused: anything worth recording is exact, and the one
    infinity in the library (the mesh of degree <= 1 polynomials) must
    be mapped to a string by the caller before it reaches a record.
    The Fraction test comes after every other library type: isinstance
    against Fraction returns at once for a Fraction, but runs the ABC
    machinery of numbers.Rational for anything else.  An operator, a
    sequence or a Verdict exists only once operators or verify is
    loaded, and this module loads neither: they are found in sys.modules.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to serialize a float; records are exact")
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, Polynomial):
        return poly_to_obj(value)
    ops = sys.modules.get(f"{__package__}.operators")
    if ops is not None and isinstance(value, ops.FiniteDifferenceOperator):
        return operator_to_obj(value)
    if ops is not None and isinstance(value, ops.DiagonalSequence):
        return sequence_to_obj(value)
    verify = sys.modules.get(f"{__package__}.verify")
    if verify is not None and isinstance(value, verify.Verdict):
        return {"claim": value.claim, "status": value.status,
                "witness": to_jsonable(value.witness),
                "details": to_jsonable(value.details)}
    if isinstance(value, Fraction):
        return rational_to_str(value)
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(value) -> str:
    """Compact, key-sorted JSON of any library value."""
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def loads_value(text: str):
    """Parse a polynomial, operator or sequence, detected by its keys."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(e.msg, e.lineno, e.colno) from None
    if isinstance(obj, dict):
        if "op" in obj:
            return operator_from_obj(obj)
        if "sequence" in obj:
            return sequence_from_obj(obj)
        if "coeffs" in obj:
            return poly_from_obj(obj)
    raise ParseError("expected an object with 'coeffs', 'op' or 'sequence'")
