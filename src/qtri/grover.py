"""Cost-faithful outcome models of the quantum search subroutines.

Nothing here manipulates state vectors.  Outcomes are sampled from the exact
rotation-angle success probabilities while every modeled oracle application
is billed to the ledger, which keeps both the distribution and the query
count faithful at any instance size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .graphs import Graph, common_neighbors
from .oracle import QueryOracle, StepTag, verify_triangle

# Growth factor of the iteration-range ramp used when the number of marked
# items is unknown, and the number of extra full-range rounds appended after
# the ramp reaches the cap.
SCHEDULE_GROWTH = 1.2
CAP_ROUNDS = 6

# Multiplier pinning the billing cap of edge_restricted_triangle_search:
# charged <= AA_COST_CONSTANT * (sqrt(|pool|) + sqrt(n*max(1,g))) * ln(n).
AA_COST_CONSTANT = 64
AA_RUNS_MIN = 6


def iteration_cap(size: int) -> int:
    """Largest useful iteration count for a space of the given size."""
    return max(1, math.ceil(math.pi / 4.0 * math.sqrt(size)))


def grover_success_prob(size: int, marked: int, iterations: int) -> float:
    """Success probability after a fixed number of iterations.

    sin^2((2k+1) * asin(sqrt(m/N))); 0 when nothing is marked.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    if not 0 <= marked <= size:
        raise ValueError("marked must be in [0, size]")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if marked == 0:
        return 0.0
    if marked == size:
        return 1.0
    theta = math.asin(math.sqrt(marked / size))
    return math.sin((2 * iterations + 1) * theta) ** 2


def mean_success_prob(size: int, marked: int, k_range: int) -> float:
    """Average success over an iteration count drawn uniformly from [0, k_range)."""
    if k_range <= 0:
        return 0.0
    if marked == 0:
        return 0.0
    if marked == size:
        return 1.0
    theta = math.asin(math.sqrt(marked / size))
    sin2t = math.sin(2.0 * theta)
    if abs(sin2t) < 1e-9:
        return sum(grover_success_prob(size, marked, k) for k in range(k_range)) / k_range
    return 0.5 - math.sin(4.0 * k_range * theta) / (4.0 * k_range * sin2t)


def attempt_ranges(size: int) -> list[int]:
    """Iteration-range schedule: geometric ramp, then CAP_ROUNDS full rounds."""
    cap = iteration_cap(size)
    ranges = []
    grow = SCHEDULE_GROWTH
    while math.ceil(grow) < cap:
        ranges.append(math.ceil(grow))
        grow *= SCHEDULE_GROWTH
    ranges.extend([cap] * CAP_ROUNDS)
    return ranges


def schedule_success_prob(size: int, marked: int) -> float:
    """Overall success probability of grover_search on an (N, m) space."""
    if size < 1:
        return 0.0
    fail = 1.0
    for k_range in attempt_ranges(size):
        fail *= 1.0 - mean_success_prob(size, marked, k_range)
    return 1.0 - fail


def amplified_prob(base: float, iterations: int) -> float:
    """Success of amplitude amplification after k rounds on a p-success base."""
    if base <= 0.0:
        return 0.0
    if base >= 1.0:
        return 1.0
    return math.sin((2 * iterations + 1) * math.asin(math.sqrt(base))) ** 2


@dataclass(frozen=True)
class SearchSpace:
    """An N-item database whose membership test costs q_test queries.

    marked_count and draw_marked are simulator privilege: they let the model
    sample exact outcomes without enumerating the space.  Search logic never
    branches on them beyond the outcome distribution itself.
    """

    size: int
    marked_count: int
    q_test: int
    draw_marked: Callable[[np.random.Generator], Any] | None = None

    def __post_init__(self) -> None:
        if self.size < 0 or not 0 <= self.marked_count <= max(self.size, 0):
            raise ValueError("need 0 <= marked_count <= size")
        if self.q_test < 1:
            raise ValueError("q_test must be >= 1")
        if self.marked_count > 0 and self.draw_marked is None:
            raise ValueError("marked space needs a sampler")

    @classmethod
    def explicit(cls, size: int, marked_items: Iterable[Any], q_test: int = 1) -> "SearchSpace":
        items = tuple(marked_items)
        draw = (lambda rng: items[int(rng.integers(len(items)))]) if items else None
        return cls(size, len(items), q_test, draw)


@dataclass(frozen=True)
class GroverOutcome:
    found: Any | None
    iterations_used: int
    attempts: int
    queries_charged: int


def _attempt(
    space: SearchSpace, k_range: int, oracle: QueryOracle, tag: StepTag, rng: np.random.Generator
) -> tuple[int, Any | None]:
    """One run: draw k, bill k iterations plus the measured-item test, flip."""
    k = int(rng.integers(k_range))
    oracle.charge((k + 1) * space.q_test, tag)
    if rng.random() < grover_success_prob(space.size, space.marked_count, k):
        return k, space.draw_marked(rng)
    return k, None


def grover_search(
    space: SearchSpace, oracle: QueryOracle, tag: StepTag, rng: np.random.Generator
) -> GroverOutcome:
    """Search with the ramped unknown-marked-count schedule.

    Every attempt costs at most iteration_cap(N) * q_test; a returned item is
    always genuinely marked because the measured item is tested before use.
    """
    if space.size == 0:
        return GroverOutcome(None, 0, 0, 0)
    iters = attempts = charged = 0
    for k_range in attempt_ranges(space.size):
        k, hit = _attempt(space, k_range, oracle, tag, rng)
        iters += k
        attempts += 1
        charged += (k + 1) * space.q_test
        if hit is not None:
            return GroverOutcome(hit, iters, attempts, charged)
    return GroverOutcome(None, iters, attempts, charged)


def safe_grover(
    space: SearchSpace,
    c: float,
    oracle: QueryOracle,
    tag: StepTag,
    rng: np.random.Generator,
) -> GroverOutcome:
    """ceil(c * log2(N)) independent capped runs, stopping at the first find.

    Each repetition draws its iteration count uniformly below the cap, so the
    whole call costs at most ceil(c * log2(N)) * iteration_cap(N) * q_test and
    misses a nonempty target with probability at most N**(-c).
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    if space.size == 0:
        return GroverOutcome(None, 0, 0, 0)
    if space.size == 1:
        oracle.charge(space.q_test, tag)
        found = space.draw_marked(rng) if space.marked_count == 1 else None
        return GroverOutcome(found, 0, 1, space.q_test)
    reps = math.ceil(c * math.log2(space.size))
    cap = iteration_cap(space.size)
    iters = attempts = charged = 0
    for _ in range(reps):
        k, hit = _attempt(space, cap, oracle, tag, rng)
        iters += k
        attempts += 1
        charged += (k + 1) * space.q_test
        if hit is not None:
            return GroverOutcome(hit, iters, attempts, charged)
    return GroverOutcome(None, iters, attempts, charged)


def edge_restricted_triangle_search(
    pool: Graph,
    oracle: QueryOracle,
    tag: StepTag,
    rng: np.random.Generator,
) -> tuple[int, int, int] | None:
    """Find a hidden-graph triangle having at least one pair in the `Graph` `pool`.

    Models the amplified two-level search: the base procedure picks a
    hidden-graph edge inside the pool (1 query per candidate round), then an
    apex over all vertices (2 queries per candidate round); amplification
    rounds repeat the base procedure forward and backward.  The intersection
    size is estimated first by a modeled counting sweep of ceil(sqrt(|pool|))
    queries.  One-sided: a returned triangle is verified with 3 classical
    queries before being reported.
    """
    if pool.n != oracle.n:
        raise ValueError(f"pool has n={pool.n}, but the oracle has n={oracle.n}")
    size = pool.edge_count
    if not size:
        return None
    n = oracle.n
    adj = oracle.hidden.adjacency()
    g_rows, g_cols = np.nonzero(np.triu(adj & pool.adjacency(), 1))
    g = len(g_rows)
    oracle.charge(math.ceil(math.sqrt(size)), tag)
    guess = 1 << max(0, (g - 1).bit_length())  # power-of-two estimate, >= g

    common = common_neighbors(adj)[g_rows, g_cols]
    good = np.flatnonzero(common)
    good_rows, good_cols = g_rows[good], g_cols[good]
    good_counts = common[good].tolist()

    k_edge = int(math.pi / 4.0 * math.sqrt(size / guess))
    p_edge = grover_success_prob(size, g, k_edge) if g else 0.0
    cap_apex = iteration_cap(n)
    k_amp_range = max(1, math.ceil(math.pi / 2.0 * math.sqrt(guess)))
    runs = max(AA_RUNS_MIN, math.ceil(math.log(n)))

    for _ in range(runs):
        k_apex = int(rng.integers(cap_apex))
        per_edge = [grover_success_prob(n, count, k_apex) for count in good_counts]
        p_base = p_edge * sum(per_edge) / g if g else 0.0
        k_amp = int(rng.integers(k_amp_range))
        base_cost = k_edge + 2 * k_apex
        oracle.charge(k_amp * (2 * base_cost + 3) + base_cost + 3, tag)
        if p_base > 0.0 and rng.random() < amplified_prob(p_base, k_amp):
            weights = np.asarray(per_edge)
            cum = np.cumsum(weights)
            pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            a, b = int(good_rows[pick]), int(good_cols[pick])
            apexes = np.flatnonzero(adj[a] & adj[b])
            tri = tuple(sorted((a, b, int(apexes[rng.integers(len(apexes))]))))
            verify_triangle(oracle, tri)  # type: ignore[arg-type]
            return tri  # type: ignore[return-value]
    return None
