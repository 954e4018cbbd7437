"""Exact mesh arithmetic for real-rooted polynomials, finite difference
preservers of mesh classes, and replayable counterexample searches.

Everything is computed over the rationals: root comparisons go through
isolating intervals and Sturm counts, never floating point, so class
membership and interlacing answers are decisions rather than estimates.
"""

from .harness import (
    SEARCH_KINDS,
    CounterexampleCertificate,
    SearchConfig,
    SearchReport,
    replay_certificate,
    run_search,
)
from .interlace import (
    ClassSpec,
    ProperPositionVerdict,
    class_membership,
    negativity_point,
    nonneg_on_reals,
    proper_position,
    quadratic_hp1plus,
    wronskian,
)
from .operators import (
    DiagonalSequence,
    FiniteDifferenceOperator,
    brenti_map,
    bullet_product,
    diagonal_apply,
    from_symbol,
    make_standard,
    pochhammer_cofactor,
    sequence_from_poly,
    symbol,
)
from .poly import (
    MONOMIAL,
    POCHHAMMER,
    Polynomial,
    as_fraction,
    stirling_first,
    stirling_second,
)
from .roots import (
    INF,
    MeshReport,
    NonHyperbolicInput,
    RootProfile,
    count_real_roots,
    is_hyperbolic,
    mesh_at_least,
    mesh_numeric,
    root_approximations,
    root_profile,
)
from .suite import CriterionResult, run_suite
from .verify import (
    Verdict,
    check_altn,
    check_mesh_monotone,
    classical_multiplier_probe,
    dms_test,
    geometric_witness,
    hyperbolicity_violation,
    monotonicity_witness,
    symbol_preserver_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MONOMIAL", "POCHHAMMER", "Polynomial", "as_fraction",
    "stirling_first", "stirling_second",
    "INF", "MeshReport", "NonHyperbolicInput", "RootProfile",
    "count_real_roots", "is_hyperbolic", "mesh_at_least", "mesh_numeric",
    "root_approximations", "root_profile",
    "ClassSpec", "ProperPositionVerdict", "class_membership",
    "negativity_point", "nonneg_on_reals", "proper_position",
    "quadratic_hp1plus", "wronskian",
    "DiagonalSequence", "FiniteDifferenceOperator", "brenti_map",
    "bullet_product", "diagonal_apply", "from_symbol", "make_standard",
    "pochhammer_cofactor", "sequence_from_poly", "symbol",
    "Verdict", "check_altn", "check_mesh_monotone",
    "classical_multiplier_probe", "dms_test", "geometric_witness",
    "hyperbolicity_violation", "monotonicity_witness",
    "symbol_preserver_verdict",
    "SEARCH_KINDS", "CounterexampleCertificate", "SearchConfig",
    "SearchReport", "replay_certificate", "run_search",
    "CriterionResult", "run_suite",
]
