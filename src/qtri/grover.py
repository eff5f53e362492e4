"""Cost-faithful outcome models of the quantum search subroutines.

Nothing here manipulates state vectors.  Outcomes are sampled from the exact
rotation-angle success probabilities while every modeled oracle application
is billed to the ledger, which keeps both the distribution and the query
count faithful at any instance size.  A search over a set whose number of
marked items is unknown is `safe_grover`: repeated runs, each with an
iteration count drawn uniformly below the cap.  Every search runs its
attempts through the one loop `_attempt_loop`, which stops at the first hit
and bills them all in one `charge_batch` call.  A sure miss, a search with
nothing marked, has a known outcome and only random charges.
`bill_sure_misses` bills a whole run of sure misses on fresh keyed streams,
step 2's searches, with their iteration counts from one `rng.lemire_draws`
call per distinct size, not attempt by attempt, and one `charge_batch` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence

import numpy as np

from .graphs import Graph
from .oracle import QueryOracle, StepTag, verify_triangle
from .rng import lemire_draws

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
    return amplified_prob(marked / size, iterations)


def mean_success_prob(size: int, marked: int, k_range: int) -> float:
    """Average success over an iteration count drawn uniformly from [0, k_range);
    at k_range = iteration_cap(size) it is the success of one `safe_grover` run."""
    if k_range <= 0:
        return 0.0
    if marked == 0:
        return 0.0
    if marked == size:
        return 1.0
    theta = math.asin(math.sqrt(marked / size))
    return 0.5 - math.sin(4.0 * k_range * theta) / (4.0 * k_range * math.sin(2.0 * theta))


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
    attempts: int
    queries_charged: int


Attempt = tuple[int, Any]  # (charge, hit) of one modeled run


def _attempt_loop(
    attempts: Iterable[Attempt], oracle: QueryOracle, tag: StepTag
) -> tuple[list[int], Any]:
    """The one loop over a search's attempts.

    `attempts` yields (charge, hit) per attempt, drawn as it is advanced or,
    for a one-item space, beforehand; a truthy hit ends the search.  The
    charges of every attempt taken are billed in one `charge_batch` call,
    which stops at the first charge that crosses the budget exactly as
    billing each attempt in turn would.  Returns the charges and the last hit.
    """
    charges, hit = [], None
    for charge, hit in attempts:
        charges.append(charge)
        if hit:
            break
    oracle.charge_batch(charges, tag)
    return charges, hit


def safe_grover(
    space: SearchSpace,
    c: float,
    oracle: QueryOracle,
    tag: StepTag,
    rng: np.random.Generator,
) -> GroverOutcome:
    """ceil(c * log2(N)) independent capped runs, stopping at the first find.

    Each run draws its iteration count k uniformly below the cap, then
    measures; it costs k iterations plus the test of the measured item, so
    the whole call costs at most ceil(c * log2(N)) * iteration_cap(N) * q_test
    and misses a nonempty target with probability at most N**(-c).  A
    one-item space is settled by one test of its item, with no draw.  After a
    hit the found item is sampled from the marked ones, so a returned item is
    always genuinely marked.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    size, q_test = space.size, space.q_test
    if size == 0:
        return GroverOutcome(None, 0, 0)
    base = space.marked_count / size
    cap, reps = iteration_cap(size), math.ceil(c * math.log2(size))

    def runs() -> Iterator[Attempt]:
        for _ in range(reps):
            k = int(rng.integers(cap))
            yield (k + 1) * q_test, rng.random() < amplified_prob(base, k)

    charges, hit = _attempt_loop([(q_test, space.marked_count == 1)] if size == 1 else runs(), oracle, tag)
    found = space.draw_marked(rng) if hit else None
    return GroverOutcome(found, len(charges), sum(charges))


def bill_sure_misses(
    sizes: Sequence[int],
    keys: np.ndarray,
    q_test: int,
    c: float,
    oracle: QueryOracle,
    tag: StepTag,
) -> None:
    """Bill consecutive searches with nothing marked as one `safe_grover` call
    per search would: search i is over sizes[i] items, each tested at q_test
    queries, on the fresh stream `rng.keyed(keys[i])`.

    Every charge is billed in order in one `charge_batch` call, so the budget
    is crossed where billing search by search would cross it.  An empty space
    bills nothing and a one-item space one test.  Every other size takes its
    cap and repetition count once, and the iteration counts of all its
    searches from one `rng.lemire_draws` call on their streams.  The streams
    are read, not left where `safe_grover` leaves them, so the caller must
    drop them.
    """
    if c < 1:
        raise ValueError("c must be >= 1")
    rows: list[list[int]] = [[] for _ in sizes]
    groups: dict[int, list[int]] = {}
    for i, size in enumerate(sizes):
        groups.setdefault(size, []).append(i)
    for size, members in groups.items():
        if size == 1:
            for i in members:
                rows[i] = [q_test]
        elif size > 1:
            cap, reps = iteration_cap(size), math.ceil(c * math.log2(size))
            # attempt j draws its k with `integers(cap)`, then its `random()`, one whole output
            counts = lemire_draws(keys[members], cap, reps, stride=3)
            for i, row in zip(members, ((counts + 1) * q_test).tolist()):
                rows[i] = row
    oracle.charge_batch([charge for row in rows for charge in row], tag)


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
    queries.  The hidden edges in the pool are the pairs of the intersection
    `hidden & pool`, and the apex count of each is counted on the packed rows
    of its two ends, `Graph.common_counts`; only a hit unpacks the two rows
    it picks an apex from.  One-sided: a returned triangle is verified with 3
    classical queries before being reported.
    """
    if pool.n != oracle.n:
        raise ValueError(f"pool has n={pool.n}, but the oracle has n={oracle.n}")
    size = pool.edge_count
    if not size:
        return None
    n = oracle.n
    g_rows, g_cols = (oracle.hidden & pool).pairs()
    g = len(g_rows)
    oracle.charge(math.ceil(math.sqrt(size)), tag)
    guess = 1 << max(0, (g - 1).bit_length())  # power-of-two estimate, >= g

    common = oracle.hidden.common_counts(g_rows, g_cols)
    good = np.flatnonzero(common)
    good_rows, good_cols = g_rows[good], g_cols[good]
    good_counts = common[good].tolist()

    k_edge = int(math.pi / 4.0 * math.sqrt(size / guess))
    p_edge = grover_success_prob(size, g, k_edge) if g else 0.0
    cap_apex = iteration_cap(n)
    k_amp_range = max(1, math.ceil(math.pi / 2.0 * math.sqrt(guess)))
    runs = max(AA_RUNS_MIN, math.ceil(math.log(n)))

    def rounds() -> Iterator[Attempt]:
        """One amplified run per round; a hit carries its per-edge apex odds."""
        for _ in range(runs):
            k_apex = int(rng.integers(cap_apex))
            per_edge = [grover_success_prob(n, count, k_apex) for count in good_counts]
            p_base = p_edge * sum(per_edge) / g if g else 0.0
            k_amp = int(rng.integers(k_amp_range))
            base_cost = k_edge + 2 * k_apex
            hit = p_base > 0.0 and rng.random() < amplified_prob(p_base, k_amp)
            yield k_amp * (2 * base_cost + 3) + base_cost + 3, per_edge if hit else None

    _, per_edge = _attempt_loop(rounds(), oracle, tag)
    if per_edge is None:
        return None
    cum = np.cumsum(np.asarray(per_edge))
    pick = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    a, b = int(good_rows[pick]), int(good_cols[pick])
    row_a, row_b = oracle.hidden.rows([a, b]).dense()
    apexes = np.flatnonzero(row_a & row_b)
    tri = tuple(sorted((a, b, int(apexes[rng.integers(len(apexes))]))))
    verify_triangle(oracle, tri)  # type: ignore[arg-type]
    return tri  # type: ignore[return-value]
