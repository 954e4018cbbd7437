"""The record classes are plain classes with __slots__: their
signatures, defaults and value semantics."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from meshpoly import ClassSpec, Polynomial
from meshpoly.fixtures import RootedFixture
from meshpoly.harness import CounterexampleCertificate, SearchConfig, SearchReport
from meshpoly.interlace import ProperPositionVerdict
from meshpoly.roots import MeshReport, RootProfile
from meshpoly.suite import CriterionResult
from meshpoly.verify import Verdict


@pytest.mark.parametrize("make", [
    lambda: ClassSpec(F(1), True),
    lambda: RootedFixture(Polynomial.from_roots([0, 2]), (F(0), F(2)), F(1)),
])
def test_frozen_records_compare_and_hash_by_value(make):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != ClassSpec() and a != object()
    for name in type(a).__slots__:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == b


@pytest.mark.parametrize("value", [
    MeshReport(F(1), F(2)), RootProfile(True, False),
    ProperPositionVerdict(False, True, False, {"x": F(1, 2)}),
    ClassSpec(F(1), True),
    RootedFixture(Polynomial.from_roots([0, 2]), (F(0), F(2)), F(1)),
    Verdict("c", "fails", {"x": F(1)}), SearchConfig("nice", 3),
    CounterexampleCertificate("nice", "c", 1, {}, {}),
    SearchReport(SearchConfig("bullet"), [{"trial": 0}]),
    CriterionResult(1, "n", True, "d", 0.5),
], ids=lambda v: type(v).__name__)
def test_records_copy_and_pickle_field_for_field(value):
    def fields(v):
        return [fields(f) if hasattr(f, "__slots__") and not isinstance(
            f, Polynomial) else f for f in (getattr(v, n) for n in v.__slots__)]

    for other in (copy.copy(value), copy.deepcopy(value),
                  pickle.loads(pickle.dumps(value))):
        assert type(other) is type(value) and other is not value
        assert fields(other) == fields(value)


def test_class_spec_fields_and_constructors():
    assert ClassSpec() == ClassSpec(None, False) == ClassSpec.hyperbolic()
    assert ClassSpec.hp_ge(1) == ClassSpec(mesh_bound=F(1))
    assert ClassSpec.hp_plus_ge(F(1, 2)) == ClassSpec(F(1, 2), True)
    assert ClassSpec.hp_ge(1) != ClassSpec.hp_plus_ge(1)
    assert hash(ClassSpec(F(1), True)) == hash((F(1), True))
    assert ClassSpec.hp_plus_ge(F(1, 2)).label == "HP+>=1/2"
    fx = RootedFixture(poly=Polynomial([0, 1]), roots=(F(0),), lead=F(1))
    assert (fx.roots, fx.lead, fx.exact_mesh) == ((F(0),), F(1), float("inf"))


def test_search_config_defaults_and_echo():
    cfg = SearchConfig("nice")
    assert (cfg.kind, cfg.seed, cfg.trials, cfg.max_degree, cfg.i_max,
            cfg.rho) == ("nice", 7, 500, 6, 64, F(1, 2))
    cfg = SearchConfig("remark2", 3, 10, 4, 8, "1/3")
    assert cfg.echo() == {"kind": "remark2", "seed": 3, "trials": 10,
                          "max_degree": 4, "i_max": 8, "rho": F(1, 3)}


def test_search_report_lists_are_fresh():
    a, b = SearchReport(SearchConfig("nice")), SearchReport(SearchConfig("nice"))
    a.records.append({"trial": 0})
    a.certificates.append(None)
    assert (b.records, b.certificates) == ([], [])


def test_mesh_report_defaults():
    rep = MeshReport(F(1), F(2))
    assert (rep.mesh_lower, rep.mesh_upper, rep.exact_value) == (F(1), F(2), None)
    assert not rep.is_infinite
    assert MeshReport(float("inf"), float("inf"), float("inf")).is_infinite
