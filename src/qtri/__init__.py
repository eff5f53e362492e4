"""Desk-scale laboratory for a sublinear quantum-query triangle detector.

Exact graph kernels, a query-cost ledger, outcome-faithful models of the
quantum search subroutines, the staged detection algorithm, its cost
analysis, and spectral adversary diagnostics.
"""

from .adversary import (
    PartialBooleanFunction,
    adversary_value,
    certificate_size,
    decomposition_diagnostic,
    gamma_i,
    spectral_norm,
    validate_gamma,
)
from .analysis import (
    CostTerms,
    ScalingFit,
    baseline_scaling,
    cost_terms,
    disjointness_prob_approx,
    disjointness_prob_exact,
    folklore_baseline,
    optimize_params,
    threshold_violation_rate,
)
from .graphs import Graph, generate, load_graph, save_graph, triangle_count
from .grover import (
    GroverOutcome,
    SearchSpace,
    edge_restricted_triangle_search,
    grover_success_prob,
    safe_grover,
)
from .oracle import (
    BudgetExceededError,
    LedgerReport,
    QueryOracle,
    StepTag,
    VerificationError,
    default_budget,
    verify_triangle,
)
from .rng import derive_seed, substream
from .solver import Params, RunReport, solve

__all__ = [
    "BudgetExceededError",
    "CostTerms",
    "Graph",
    "GroverOutcome",
    "LedgerReport",
    "Params",
    "PartialBooleanFunction",
    "QueryOracle",
    "RunReport",
    "ScalingFit",
    "SearchSpace",
    "StepTag",
    "VerificationError",
    "adversary_value",
    "baseline_scaling",
    "certificate_size",
    "cost_terms",
    "decomposition_diagnostic",
    "default_budget",
    "derive_seed",
    "disjointness_prob_approx",
    "disjointness_prob_exact",
    "edge_restricted_triangle_search",
    "folklore_baseline",
    "gamma_i",
    "generate",
    "grover_success_prob",
    "load_graph",
    "optimize_params",
    "safe_grover",
    "save_graph",
    "solve",
    "spectral_norm",
    "substream",
    "threshold_violation_rate",
    "triangle_count",
    "validate_gamma",
    "verify_triangle",
]
