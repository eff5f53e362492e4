"""Numeric side of the cost analysis: the total-cost exponents, their grid
optimization, the sampling disjointness probabilities, structural failure
rates, and empirical scaling fits with a folklore search baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, generate, triangle_count
from .grover import grover_success_prob, iteration_cap
from .oracle import QueryOracle
from .rng import derive_seed, substream
from .solver import Params, RunReport, sample_count, solve


@dataclass(frozen=True)
class CostTerms:
    """The four cost exponents of a parameter triple and their maximum."""

    e1: float  # classical sampling + neighborhood-square searches: 1 + eps
    e2: float  # degree classification over the loop: 1 + delta + eps'
    e3: float  # search over the peeled set's triangles: (3 - eps') / 2
    e4: float  # intersection search: (3 - min(delta, eps - delta - eps')) / 2
    dominant: float
    degenerate: bool


def cost_terms(params: Params) -> CostTerms:
    """Evaluate the four total-cost exponents for a parameter triple."""
    eps, epsp, delta = params.epsilon, params.epsilon_prime, params.delta
    slack = min(delta, eps - delta - epsp)
    e1 = 1.0 + eps
    e2 = 1.0 + delta + epsp
    e3 = (3.0 - epsp) / 2.0
    e4 = (3.0 - slack) / 2.0
    return CostTerms(e1, e2, e3, e4, max(e1, e2, e3, e4), degenerate=slack <= 0)


def optimize_params(grid_denominator: int = 210) -> tuple[Params, Fraction]:
    """Exhaustive grid minimization of the dominant exponent over (0,1)^3.

    Grid points are i / grid_denominator for 0 < i < grid_denominator; all
    arithmetic is integer (exponents scaled by 2 * denominator), so the
    returned Fraction is exact.  Any denominator divisible by 7 contains the
    true optimum; 210 is the supported ceiling.
    """
    if not 2 <= grid_denominator <= 210:
        raise ValueError("grid denominator must lie in [2, 210]")
    d = grid_denominator
    idx = np.arange(1, d, dtype=np.int64)
    i_eps = idx[:, None, None]
    i_epsp = idx[None, :, None]
    i_delta = idx[None, None, :]
    e1 = 2 * d + 2 * i_eps
    e2 = 2 * d + 2 * (i_delta + i_epsp)
    e3 = 3 * d - i_epsp
    e4 = 3 * d - np.minimum(i_delta, i_eps - i_delta - i_epsp)
    dominant = np.maximum(np.maximum(e1, e2), np.maximum(e3, e4))
    flat = int(np.argmin(dominant))
    best = int(dominant.reshape(-1)[flat])
    ei, ej, ek = np.unravel_index(flat, dominant.shape)
    params = Params(
        epsilon=float(Fraction(int(idx[ei]), d)),
        epsilon_prime=float(Fraction(int(idx[ej]), d)),
        delta=float(Fraction(int(idx[ek]), d)),
    )
    return params, Fraction(best, 2 * d)


def disjointness_prob_exact(n: int, x: int, y: int) -> float:
    """Probability that a uniformly random y-subset of [n] avoids a fixed x-set.

    C(n-x, y) / C(n, y) with exact integer arithmetic; beyond desk scale the
    binomials are evaluated in log space to dodge huge intermediates.
    """
    if n < 1 or x < 0 or y < 0:
        raise ValueError("need n >= 1 and x, y >= 0")
    if x == 0 or y == 0:
        return 1.0
    if x + y > n:
        return 0.0
    if n > 5000:
        return math.exp(_log_comb(n - x, y) - _log_comb(n, y))
    return math.comb(n - x, y) / math.comb(n, y)


def _log_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def disjointness_prob_approx(n: int, p: float, q: float) -> float:
    """First-order product approximation (1 - p*q)^n.

    It is an upper bound on the exact probability: a y-subset drawn without
    replacement avoids a fixed x-set with probability at most
    (1 - p)^(nq) <= (1 - pq)^n, where the second step is Bernoulli's
    inequality for q in [0, 1].  That is the direction the containment
    argument uses: a pair with many common neighbors escapes the sample's
    neighborhoods at most this often.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must lie in [0, 1]")
    return (1.0 - p * q) ** n


def disjointness_exponent_ratio(n: int, x: int, y: int) -> float:
    """ln(exact) / (n * ln(1 - pq)) with p = x/n, q = y/n; at least 1."""
    p, q = x / n, y / n
    exact = disjointness_prob_exact(n, x, y)
    return math.log(exact) / (n * math.log(1.0 - p * q))


def disjointness_exponent_dev(n: int, x: int, y: int) -> float:
    """|ln(exact) / (n * ln(1 - pq)) - 1| with p = x/n, q = y/n."""
    return abs(disjointness_exponent_ratio(n, x, y) - 1.0)


def disjointness_sweep(
    n_values: range | list[int] | None = None,
    p_low: float = 0.02,
    p_high: float = 0.2,
    slack: float = 1.0,
) -> dict:
    """Sweep the exponent deviation against its second-order expansion.

    Stirling gives ln C(n-x, y) / C(n, y) = n (h(p) + h(q) - h(p + q)) up to
    O(1/n) relative terms, with h(t) = (1 - t) ln(1 - t) = -t + sum_k t^k /
    (k (k - 1)).  Divided by n ln(1 - pq) this is
    1 + (p + q)/2 + (p^2 + q^2)/3 + O(p^3 + q^3 + 1/n): the deviation is first
    order because the y draws are made without replacement.  Each point's
    residual |dev - (p + q)/2 - (p^2 + q^2)/3| is checked against
    slack * (p^3 + q^3 + 1/n), and the signed ratio against 1, since the
    exact probability never exceeds (1 - pq)^n.

    Points are all integer set sizes x, y with x/n and y/n inside
    [p_low, p_high].  Returns the failing points, the worst residual/bound
    ratio and the number of points whose signed ratio is below 1.
    """
    if n_values is None:
        n_values = range(20, 201)
    worst_ratio = 0.0
    worst_point = None
    failures = []
    sign_failures = 0
    points = 0
    for n in n_values:
        lo = math.ceil(p_low * n)
        hi = math.floor(p_high * n)
        for x in range(max(1, lo), hi + 1):
            for y in range(max(1, lo), hi + 1):
                p, q = x / n, y / n
                signed = disjointness_exponent_ratio(n, x, y)
                dev = abs(signed - 1.0)
                residual = abs(dev - (p + q) / 2.0 - (p**2 + q**2) / 3.0)
                bound = slack * (p**3 + q**3 + 1.0 / n)
                points += 1
                sign_failures += signed < 1.0
                ratio = residual / bound
                if ratio > worst_ratio:
                    worst_ratio = ratio
                    worst_point = (n, x, y)
                if residual > bound:
                    failures.append(
                        {"n": n, "x": x, "y": y, "dev": dev, "residual": residual, "bound": bound}
                    )
    return {
        "points": points,
        "failures": len(failures),
        "failing_points": failures[:20],
        "worst_ratio": worst_ratio,
        "worst_point": worst_point,
        "sign_failures": sign_failures,
        "all_within": not failures,
    }


def threshold_violation_rate(
    n: int,
    epsilon: float,
    trials: int,
    seed: int,
    kind: str = "erdos_renyi",
    p: float | None = 0.5,
) -> float:
    """Frequency with which the sampled-neighborhood complement keeps a pair
    whose hidden common-neighbor count exceeds n^(1-epsilon).

    Builds the candidate set directly from the sample (no searches), so the
    purely combinatorial containment property is what gets measured.
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    violations = 0
    thresh = n ** (1.0 - epsilon)
    for trial in range(trials):
        graph = generate(kind, n, seed=derive_seed(seed, "containment", trial), p=p)
        rng = substream(seed, "containment", trial)
        k = sample_count(n, epsilon)
        sample = rng.choice(n, size=k, replace=False) + 1
        adj = graph.adjacency()
        cover = np.zeros_like(adj)
        for v in sample:
            nv = np.flatnonzero(adj[int(v)])
            if len(nv):
                cover[np.ix_(nv, nv)] = True
        float_adj = adj.astype(np.float32)
        common = float_adj @ float_adj
        candidate = ~cover
        candidate[np.tril_indices(n + 1)] = False
        candidate[0, :] = False
        candidate[:, 0] = False
        if bool((common[candidate] > thresh).any()):
            violations += 1
    return violations / trials


# ---------------------------------------------------------------------------
# Folklore baseline and scaling fits


@dataclass(frozen=True)
class BaselineResult:
    found: bool
    total_queries: int
    shots: int


def folklore_baseline(graph: Graph, seed: int, c_safe: float = 2.0) -> BaselineResult:
    """Plain search over all vertex triples, modeled like the safe search:
    independent full-range shots of 3 queries per candidate round, stopping
    at the first verified triangle.
    """
    n = graph.n
    size = n * (n - 1) * (n - 2) // 6
    marked = triangle_count(graph)
    reps = math.ceil(c_safe * math.log2(size))
    cap = iteration_cap(size)
    rng = substream(seed, "baseline", n)
    total = 0
    for shot in range(1, reps + 1):
        k = int(rng.integers(cap))
        total += (k + 1) * 3
        if rng.random() < grover_success_prob(size, marked, k):
            return BaselineResult(True, total, shot)
    return BaselineResult(False, total, reps)


@dataclass(frozen=True)
class ScalingFit:
    """Log-log least-squares fit of mean cost against instance size."""

    points: list[tuple[int, float]]
    slope: float
    intercept: float
    normalized_constants: list[float]

    def to_json(self) -> dict:
        return {
            "points": [[n, mean] for n, mean in self.points],
            "slope": self.slope,
            "intercept": self.intercept,
            "normalized_constants": self.normalized_constants,
        }


def trial_seeds(seed: int, n: int, trial: int) -> tuple[int, int]:
    """(graph seed, run seed) of one trial at one size of a seeded batch."""
    return derive_seed(seed, n, trial, "graph"), derive_seed(seed, n, trial, "run")


def fit_totals(per_size: list[tuple[int, list[int]]]) -> ScalingFit:
    """Log-log fit of the mean total per size, one point per (n, totals) entry."""
    points = [(n, float(np.mean(totals))) for n, totals in per_size]
    if len(points) < 3:
        raise ValueError("need at least 3 sizes for a fit")
    xs = np.log([n for n, _ in points])
    ys = np.log([mean for _, mean in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    normalized = [mean / (n ** (10.0 / 7.0) * math.log(n) ** 2) for n, mean in points]
    return ScalingFit(points, float(slope), float(intercept), normalized)


def run_one(
    n: int, trial: int, seed: int, params: Params, kind: str = "erdos_renyi", p: float = 0.5
) -> RunReport:
    """One seeded solver run on a generated instance."""
    graph_seed, run_seed = trial_seeds(seed, n, trial)
    graph = generate(kind, n, seed=graph_seed, p=p)
    return solve(QueryOracle(graph), params, seed=run_seed)


def empirical_scaling(
    n_values: list[int],
    trials: int,
    params: Params | None = None,
    seed: int = 0,
    kind: str = "erdos_renyi",
    p: float = 0.5,
) -> ScalingFit:
    """Mean total ledger cost per size, fitted on the log-log scale."""
    params = params or Params()
    return fit_totals(
        [(n, [run_one(n, t, seed, params, kind, p).cost.total for t in range(trials)])
         for n in n_values]
    )


def baseline_scaling(
    n_values: list[int],
    trials: int,
    seed: int = 0,
    kind: str = "erdos_renyi",
    p: float = 0.5,
    c_safe: float = 2.0,
) -> ScalingFit:
    """Scaling fit of the folklore triple-search baseline on the same instances."""
    per_size = []
    for n in n_values:
        totals = []
        for t in range(trials):
            graph_seed, run_seed = trial_seeds(seed, n, t)
            graph = generate(kind, n, seed=graph_seed, p=p)
            totals.append(folklore_baseline(graph, run_seed, c_safe).total_queries)
        per_size.append((n, totals))
    return fit_totals(per_size)
