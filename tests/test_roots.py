"""Mesh computation and root counting for hyperbolic polynomials."""

from fractions import Fraction as F

import pytest

from meshpoly import (
    INF,
    NonHyperbolicInput,
    Polynomial,
    count_real_roots,
    is_hyperbolic,
    mesh_at_least,
    mesh_numeric,
    root_approximations,
)
from meshpoly import intpoly, roots


def test_is_hyperbolic():
    assert is_hyperbolic(Polynomial.from_roots([1, 2]))
    assert is_hyperbolic(Polynomial.from_roots([0, 0, 5]))
    assert is_hyperbolic(Polynomial([3]))
    assert not is_hyperbolic(Polynomial([1, 0, 1]))  # x^2 + 1
    assert not is_hyperbolic(Polynomial([1, 1, 1]))


def test_mesh_exact_rational_roots():
    p = Polynomial.from_roots([F(1, 2), 1], lead=2)
    rep = mesh_numeric(p)
    assert rep.exact_value == F(1, 2)
    assert rep.mesh_lower == rep.mesh_upper == F(1, 2)
    q = Polynomial.from_roots([0, 2, 5], lead=F(1, 2))
    assert mesh_numeric(q).exact_value == 2


def test_mesh_degenerate_cases():
    # a multiple root forces mesh 0; degree <= 1 has no gap at all
    assert mesh_numeric(Polynomial.from_roots([0, 1, 1])).exact_value == 0
    rep = mesh_numeric(Polynomial([3, 2]))
    assert rep.is_infinite
    assert rep.mesh_lower == INF
    assert mesh_numeric(Polynomial.constant(4)).is_infinite


def test_mesh_irrational_gap_is_bracketed():
    rep = mesh_numeric(Polynomial([-2, 0, 1]))  # roots +-sqrt(2)
    assert rep.exact_value is None
    assert rep.mesh_lower ** 2 < 8 < rep.mesh_upper ** 2
    assert rep.mesh_upper - rep.mesh_lower <= F(2, 10**9)


def test_mesh_numeric_rejects_non_hyperbolic():
    with pytest.raises(NonHyperbolicInput):
        mesh_numeric(Polynomial([1, 0, 1]))


def test_mesh_at_least_is_exact_at_threshold():
    q = Polynomial.from_roots([0, 1, 2, 5])
    assert mesh_at_least(q, 1)
    assert not mesh_at_least(q, F(3, 2))
    # threshold exactly equal to the mesh is accepted
    assert mesh_at_least(Polynomial.from_roots([0, F(1, 3)]), F(1, 3))
    assert not mesh_at_least(Polynomial.from_roots([0, F(1, 3)]), F(1, 3) + F(1, 10**12))


def test_count_real_roots_half_open():
    q = Polynomial.from_roots([0, 1, 2, 5])
    assert count_real_roots(q, 0, 2) == 2  # (0, 2] holds 1 and 2
    assert count_real_roots(q, 0, 5) == 3
    assert count_real_roots(q, -1, 0) == 1
    assert count_real_roots(q, 2, 3) == 0


def test_count_real_roots_repeated_root_at_endpoint():
    # the Sturm chain of p itself vanishes at the double root 1
    p = Polynomial.from_roots([1, 1, 2])
    assert count_real_roots(p, 0, 1) == 1
    assert count_real_roots(p, 1, 3) == 1
    assert count_real_roots(p) == 2


def test_count_real_roots_empty_interval():
    # (lo, hi] is empty when lo >= hi
    q = Polynomial.from_roots([0, 1, 2])
    assert count_real_roots(q, 3, -1) == 0
    assert count_real_roots(q, 1, 1) == 0
    assert count_real_roots(q, 2, 0) == 0


def test_count_real_roots_empty_interval_builds_no_chain(monkeypatch):
    def no_root_work(*args):
        raise AssertionError("root work done for an empty interval")

    monkeypatch.setattr(intpoly, "sturm_chain", no_root_work)
    monkeypatch.setattr(intpoly, "isolate", no_root_work)
    monkeypatch.setattr(roots, "root_data", no_root_work)
    assert count_real_roots(Polynomial.from_roots([0, 1, 2]), 3, -1) == 0


def test_root_approximations():
    approx = root_approximations(Polynomial.from_roots([F(1, 2), 3]), F(1, 10**6))
    assert len(approx) == 2
    assert abs(approx[0] - F(1, 2)) <= F(1, 10**6)
    assert abs(approx[1] - 3) <= F(1, 10**6)
