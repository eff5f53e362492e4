"""Desk-scale laboratory for a sublinear quantum-query triangle detector.

Exact graph kernels, a query-cost ledger, outcome-faithful models of the
quantum search subroutines, the staged detection algorithm, its cost
analysis, and spectral adversary diagnostics.
"""

from .adversary import (
    PartialBooleanFunction,
    adversary_value,
    barrier_check,
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
    empirical_scaling,
    folklore_baseline,
    optimize_params,
    threshold_violation_rate,
)
from .graphs import Graph, generate, load_graph, save_graph, triangle_count
from .grover import (
    GroverOutcome,
    SearchSpace,
    edge_restricted_triangle_search,
    grover_search,
    grover_success_prob,
    safe_grover,
    schedule_success_prob,
)
from .oracle import (
    BudgetExceededError,
    LedgerReport,
    QueryLedger,
    QueryOracle,
    StepTag,
    VerificationError,
    default_budget,
    verify_triangle,
)
from .rng import derive_seed, substream
from .solver import Hypothesis, Params, RunReport, solve

__all__ = [
    "BudgetExceededError",
    "CostTerms",
    "Graph",
    "GroverOutcome",
    "Hypothesis",
    "LedgerReport",
    "Params",
    "PartialBooleanFunction",
    "QueryLedger",
    "QueryOracle",
    "RunReport",
    "ScalingFit",
    "SearchSpace",
    "StepTag",
    "VerificationError",
    "adversary_value",
    "barrier_check",
    "baseline_scaling",
    "certificate_size",
    "cost_terms",
    "decomposition_diagnostic",
    "default_budget",
    "derive_seed",
    "disjointness_prob_approx",
    "disjointness_prob_exact",
    "edge_restricted_triangle_search",
    "empirical_scaling",
    "folklore_baseline",
    "gamma_i",
    "generate",
    "grover_search",
    "grover_success_prob",
    "load_graph",
    "optimize_params",
    "safe_grover",
    "save_graph",
    "schedule_success_prob",
    "solve",
    "spectral_norm",
    "substream",
    "threshold_violation_rate",
    "triangle_count",
    "validate_gamma",
    "verify_triangle",
]
