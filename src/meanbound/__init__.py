"""Reverse Young and Heinz mean bounds, scalar and operator versions, with
a seeded randomized verification harness."""

from .scalar import (
    BoundReport,
    ComparisonReport,
    DomainError,
    GapBound,
    RefinementIndex,
    compare_gap_bounds,
    comparison_poly_f,
    comparison_poly_g,
    corollary_one_term,
    fundamental_log_slack,
    gap_bounds,
    heinz_reverse_main,
    heinz_reverse_sc,
    heinz_scalar,
    kittaneh_manasrah,
    lemma_sm_reverse,
    limit_inequality_slack,
    log_limit_gap,
    refinement_sum_s,
    reverse_young_basic,
    sababheh_choi_forward,
    sababheh_indices,
    theorem_extended_sc,
    theorem_main_reverse,
    weighted_geometric,
    young_lhs,
    zhao_wu_forward,
    zhao_wu_reverse,
)
from .matrices import (
    EigenDecomp,
    JacobiConvergenceError,
    LoewnerVerdict,
    MatrixError,
    MeanCalculator,
    SpdMatrix,
    SymMatrix,
    arithmetic_mean,
    eigh,
    geometric_mean,
    heinz_mean,
    jacobi_eigh,
    loewner_leq,
    spd_power,
)
from .operators import (
    OperatorBoundReport,
    corollary_c3,
    corollary_c33,
    theorem_t6,
    theorem_t66,
)
from .harness import (
    ConfigError,
    EmptyRegionError,
    Region,
    SuiteConfig,
    SuiteReport,
    random_spd,
    run_all,
    run_comparison_suite,
    run_operator_suite,
    run_scalar_suite,
    sample_weight,
)

__version__ = "0.1.0"

# every class and function imported above, each named once
__all__ = [name for name, value in list(globals().items())
           if callable(value) and not name.startswith("_")] + ["__version__"]
