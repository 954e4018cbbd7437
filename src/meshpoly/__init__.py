"""Exact mesh arithmetic for real-rooted polynomials, finite difference
preservers of mesh classes, and replayable counterexample searches.

Everything is computed over the rationals: root comparisons go through
isolating intervals and Sturm counts, never floating point, so class
membership and interlacing answers are decisions rather than estimates.

`import meshpoly` loads no submodule: each public name below is
imported from its submodule on first access (PEP 562), so a caller, the
command line included, pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "poly": ("MONOMIAL", "POCHHAMMER", "Polynomial", "as_fraction",
             "stirling_first", "stirling_second"),
    "roots": ("INF", "MeshReport", "NonHyperbolicInput", "RootProfile",
              "count_real_roots", "is_hyperbolic", "mesh_and_roots",
              "mesh_at_least", "mesh_numeric", "root_approximations",
              "root_profile"),
    "interlace": ("ClassSpec", "ProperPositionVerdict", "class_membership",
                  "negativity_point", "nonneg_on_reals", "proper_position",
                  "quadratic_hp1plus", "wronskian"),
    "operators": ("DiagonalSequence", "FiniteDifferenceOperator", "brenti_map",
                  "bullet_product", "diagonal_apply", "from_symbol",
                  "make_standard", "pochhammer_cofactor", "sequence_from_poly",
                  "symbol"),
    "verify": ("Verdict", "check_altn", "check_mesh_monotone",
               "classical_multiplier_probe", "dms_test", "geometric_witness",
               "hyperbolicity_violation", "monotonicity_witness",
               "symbol_preserver_verdict"),
    "harness": ("SEARCH_KINDS", "CounterexampleCertificate", "SearchConfig",
                "SearchReport", "replay_certificate", "run_search"),
    "suite": ("CriterionResult", "run_suite"),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
