"""Sparse recovery by iteratively re-weighted least squares.

Core pieces: a weighted least-squares kernel over the solution set of an
underdetermined system (:mod:`irlskit.linalg`), the adaptive IRLS
iteration for l1 and l-tau objectives (:mod:`irlskit.solver`),
ground-truth checkers and oracles (:mod:`irlskit.verify`), and a seeded
experiment harness (:mod:`irlskit.experiments`).
"""

from .errors import (
    BudgetExceededError,
    DimensionTooLargeError,
    IllConditionedError,
    InfeasibleError,
    IrlsKitError,
    MissingReferenceError,
    RankDeficientError,
    SchemaMismatchError,
)
from .experiments import (
    ExperimentConfig,
    PhaseTransitionTable,
    TraceStudy,
    TrialRecord,
    gen_gaussian_matrix,
    gen_sparse_vector,
    run_phase_transition,
    run_trace,
)
from .linalg import (
    SensingMatrix,
    null_space_basis,
    weighted_ls_solve,
)
from .solver import (
    IrlsConfig,
    IterationRecord,
    RecoveryResult,
    default_sparsity_order,
    epsilon_update,
    irls_run,
    optimal_weights,
    rate_diagnostics,
    smoothed_objective,
    surrogate_value,
    theoretical_contraction_factor,
)
from .sparsity import rearrangement, sigma_k
from .verify import (
    MinimalityCheck,
    PropertyReport,
    l1_minimality_check,
    l1_oracle,
    nsp_constant,
    rip_constant,
    rip_to_nsp_bound,
    sparse_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DimensionTooLargeError",
    "ExperimentConfig",
    "IllConditionedError",
    "InfeasibleError",
    "IrlsConfig",
    "IrlsKitError",
    "IterationRecord",
    "MinimalityCheck",
    "MissingReferenceError",
    "PhaseTransitionTable",
    "PropertyReport",
    "RankDeficientError",
    "RecoveryResult",
    "SchemaMismatchError",
    "SensingMatrix",
    "TraceStudy",
    "TrialRecord",
    "default_sparsity_order",
    "epsilon_update",
    "gen_gaussian_matrix",
    "gen_sparse_vector",
    "irls_run",
    "l1_minimality_check",
    "l1_oracle",
    "nsp_constant",
    "null_space_basis",
    "optimal_weights",
    "rate_diagnostics",
    "rearrangement",
    "rip_constant",
    "rip_to_nsp_bound",
    "run_phase_transition",
    "run_trace",
    "sigma_k",
    "smoothed_objective",
    "sparse_oracle",
    "surrogate_value",
    "theoretical_contraction_factor",
    "weighted_ls_solve",
]
