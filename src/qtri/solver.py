"""The staged triangle-detection run: build the candidate pair set, peel it,
classify the remainder by degree hypotheses, then run the two final searches.

All adjacency information flows through the oracle and is billed per step:
steps 1, 5 and 7 read whole batches of pairs (v, u) with
`QueryOracle.query_row`, one classical unit per probed pair, and verification
probes single pairs with `QueryOracle.query`.  The pair bookkeeping itself
(the working candidate set, the peeled set T and the classified set E) is
classical and free once built.  The search-space builders read the hidden
graph unbilled, as simulator privilege, through the boolean arrays of
`Graph.row` and `Graph.adjacency`; the working set is a dense boolean
matrix with int32 common-neighbor counts.  Every count matrix comes from
`graphs.common_neighbors`.  The step-4 peel works in rounds, and it and
step 7 drop batches of pairs through the one `WorkingGraph.remove_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .graphs import Graph, common_neighbors, triangle_count
from .grover import SearchSpace, edge_restricted_triangle_search, safe_grover
from .oracle import LedgerReport, QueryOracle, StepTag, verify_triangle
from .rng import substream

Pair = tuple[int, int]
Tri = tuple[int, int, int]


@dataclass(frozen=True)
class Params:
    """Run parameters: the exponent triple plus the two safety constants."""

    epsilon: float = 3.0 / 7.0
    epsilon_prime: float = 1.0 / 7.0
    delta: float = 1.0 / 7.0
    c_safe: float = 2.0
    c0: float = 6.0

    def __post_init__(self) -> None:
        for name in ("epsilon", "epsilon_prime", "delta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.c_safe < 1 or self.c0 < 1:
            raise ValueError("c_safe and c0 must be >= 1")

    @property
    def degenerate(self) -> bool:
        """True when the exponent combination gives no useful bound."""
        return min(self.delta, self.epsilon - self.delta - self.epsilon_prime) <= 0

    def to_json(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "epsilon_prime": self.epsilon_prime,
            "delta": self.delta,
            "c_safe": self.c_safe,
            "c0": self.c0,
        }


class Hypothesis(Enum):
    LOW = "low"
    HIGH = "high"


@dataclass(frozen=True)
class RunReport:
    n: int
    seed: int
    params: Params
    outcome: Tri | None
    cost: LedgerReport
    events: tuple[str, ...]
    measured: dict[str, int]

    def to_json(self) -> dict:
        outcome = (
            {"type": "triangle", "vertices": list(self.outcome)}
            if self.outcome is not None
            else {"type": "no"}
        )
        return {
            "n": self.n,
            "seed": self.seed,
            "params": self.params.to_json(),
            "outcome": outcome,
            "cost": self.cost.to_json(),
            "events": list(self.events),
            "measured": dict(self.measured),
        }


def sample_count(n: int, epsilon: float) -> int:
    """Number of start vertices: min(n, ceil(4 * n^epsilon * ln n))."""
    return min(n, math.ceil(4.0 * n**epsilon * math.log(n)))


def peel_threshold(n: int, epsilon_prime: float) -> int:
    return math.ceil(n ** (1.0 - epsilon_prime))


class WorkingGraph:
    """Mutable candidate pair set with incrementally maintained common-neighbor
    counts.  Indexing is 1-based; row/col 0 are dead."""

    __slots__ = ("n", "adj", "t", "pair_count")

    def __init__(self, n: int, adj: np.ndarray) -> None:
        self.n = n
        self.adj = adj
        self.t = common_neighbors(adj)
        self.pair_count = int(adj.sum()) // 2

    def has(self, a: int, b: int) -> bool:
        return bool(self.adj[a, b])

    def degree(self, v: int) -> int:
        return int(self.adj[v].sum())

    def neighbors(self, v: int) -> np.ndarray:
        return np.flatnonzero(self.adj[v])

    def pairs(self) -> list[Pair]:
        rows, cols = np.nonzero(np.triu(self.adj, 1))
        return list(zip(rows.tolist(), cols.tolist()))

    def first_active_vertex(self) -> int | None:
        degs = self.adj.sum(axis=1)
        hits = np.flatnonzero(degs > 0)
        return int(hits[0]) if len(hits) else None

    def remove_pair(self, a: int, b: int) -> None:
        self.adj[a, b] = self.adj[b, a] = False
        self.pair_count -= 1
        nb = self.adj[b]  # post-removal rows: the removed pair is not a path leg
        na = self.adj[a]
        self.t[a, :] -= nb
        self.t[:, a] -= nb
        self.t[b, :] -= na
        self.t[:, b] -= na

    def remove_incident(self, v: int) -> list[Pair]:
        nv = np.flatnonzero(self.adj[v])
        if not len(nv):
            return []
        moved = [(min(v, int(x)), max(v, int(x))) for x in nv]
        self.adj[v, :] = False
        self.adj[:, v] = False
        self.pair_count -= len(nv)
        # dropping all pairs (v, x) kills one v-midpoint path for each pair in nv^2
        self.t[np.ix_(nv, nv)] -= 1
        self.t[v, :] = 0
        self.t[:, v] = 0
        return moved

    def remove_pairs(self, pairs: np.ndarray | list[Pair]) -> None:
        """Remove distinct working pairs, one (a, b) per row: one by one for a
        small batch, else clear them at once and recount `t` in place."""
        pairs = np.asarray(pairs, dtype=np.intp)
        if len(pairs) * self.n > self.n**3 // 16:
            a, b = pairs.T
            self.adj[a, b] = self.adj[b, a] = False
            self.pair_count -= len(pairs)
            self.t[...] = common_neighbors(self.adj)
        else:
            for a, b in pairs.tolist():
                self.remove_pair(a, b)


# ---------------------------------------------------------------------------
# Search-space builders (simulator privilege: exact marked counts + samplers)


def _induced_pair_space(hidden: Graph, members: list[int], q_test: int = 1) -> SearchSpace:
    """Pairs inside `members`; marked = pairs that are hidden edges."""
    size = len(members) * (len(members) - 1) // 2
    if size == 0:
        return SearchSpace(0, 0, q_test)
    # a member's weight is its number of hidden neighbors among the members
    weights = hidden.adjacency()[members][:, members].sum(axis=1, dtype=np.int64)
    marked = int(weights.sum()) // 2
    if marked == 0:
        return SearchSpace(size, 0, q_test)
    cum = np.cumsum(weights)
    inside = np.zeros(hidden.n + 1, dtype=bool)
    inside[members] = True

    def draw(rng: np.random.Generator) -> Pair:
        pick = int(np.searchsorted(cum, rng.integers(cum[-1]), side="right"))
        v = members[pick]
        hood = np.flatnonzero(hidden.row(v) & inside)
        w = int(hood[rng.integers(len(hood))])
        return (min(v, w), max(v, w))

    return SearchSpace(size, marked, q_test, draw)


def _triangle_space(hidden: Graph, pool: Graph) -> SearchSpace:
    """Triangles of `pool`; marked = those whose three pairs are hidden edges."""
    size = triangle_count(pool)
    if size == 0:
        return SearchSpace(0, 0, 3)
    # upper[a, c]: (a, c) is a pair of both graphs with a < c, so row products
    # count each marked triangle a < b < c once, at its pair (a, b)
    upper = np.triu(hidden.adjacency() & pool.adjacency(), 1)
    common = common_neighbors(upper)
    rows, cols = np.nonzero(upper & (common > 0))
    weights = common[rows, cols].astype(np.int64)
    marked = int(weights.sum())
    if marked == 0:
        return SearchSpace(size, 0, 3)
    cum = np.cumsum(weights)

    def draw(rng: np.random.Generator) -> Tri:
        pick = int(np.searchsorted(cum, rng.integers(cum[-1]), side="right"))
        a, b = int(rows[pick]), int(cols[pick])
        apexes = np.flatnonzero(upper[a] & upper[b])
        return (a, b, int(apexes[rng.integers(len(apexes))]))

    return SearchSpace(size, marked, 3, draw)


def _others(n: int, v: int) -> np.ndarray:
    """Every vertex but v, ascending."""
    others = np.arange(1, n + 1)
    return others[others != v]


def _read_neighborhood(oracle: QueryOracle, v: int, tag: StepTag) -> np.ndarray:
    """Billed classical read of v's whole row: n - 1 probes, neighbors ascending."""
    others = _others(oracle.n, v)
    return others[oracle.query_row(v, others, tag)]


# ---------------------------------------------------------------------------
# The ten steps


def step1_sample(
    oracle: QueryOracle, params: Params, rng: np.random.Generator
) -> tuple[list[int], dict[int, list[int]]]:
    """Sample start vertices and query their full neighborhoods classically."""
    n = oracle.n
    k = sample_count(n, params.epsilon)
    sample = sorted(int(v) + 1 for v in rng.choice(n, size=k, replace=False))
    neighborhoods = {v: _read_neighborhood(oracle, v, StepTag.STEP1).tolist() for v in sample}
    return sample, neighborhoods


def step2_build_gprime(
    oracle: QueryOracle,
    sample: list[int],
    neighborhoods: dict[int, list[int]],
    params: Params,
    rng: np.random.Generator,
) -> tuple[Tri | None, WorkingGraph | None, bool]:
    """Search each sampled neighborhood square for an edge; on a miss for all,
    return the complement of their union as the working candidate set.

    The third return value flags a safety failure: some search missed a
    genuinely nonempty target.
    """
    n = oracle.n
    missed = False
    for i, v in enumerate(sample):
        members = neighborhoods[v]
        space = _induced_pair_space(oracle.hidden, members, q_test=1)
        out = safe_grover(space, params.c_safe, oracle, StepTag.STEP2, _spawn(rng, i))
        if out.found is not None:
            a, b = out.found
            tri = tuple(sorted((v, a, b)))
            verify_triangle(oracle, tri)  # type: ignore[arg-type]
            return tri, None, missed  # type: ignore[return-value]
        if space.marked_count > 0:
            missed = True
    adj = np.ones((n + 1, n + 1), dtype=bool)
    adj[0, :] = adj[:, 0] = False
    np.fill_diagonal(adj, False)
    for v in sample:
        nv = np.asarray(neighborhoods[v], dtype=np.intp)
        if len(nv):
            adj[np.ix_(nv, nv)] = False
    return None, WorkingGraph(n, adj), missed


def _spawn(rng: np.random.Generator, index: int) -> np.random.Generator:
    """Deterministic child stream for the index-th inner call."""
    key = int(rng.integers(0, 2**63 - 1))
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([key, index])))


def step4_peel(working: WorkingGraph, tau: int) -> list[Pair]:
    """Move pairs whose common-neighbor count is below tau until none is left.

    Works in rounds: each round removes every working pair below tau at once,
    and the peel stops when a round finds none.  Counts only fall as pairs
    leave, so any removal order ends at the same set, the largest subset in
    which every pair keeps at least tau common neighbors.  Costs no queries.
    """
    moved: list[Pair] = []
    while True:
        batch = np.argwhere(np.triu(working.adj, 1) & (working.t < tau))
        if not len(batch):
            return moved
        working.remove_pairs(batch)
        moved.extend(zip(batch[:, 0].tolist(), batch[:, 1].tolist()))


def step5_degree_hypothesis(
    oracle: QueryOracle, v: int, params: Params, rng: np.random.Generator
) -> Hypothesis:
    """Classify v's hidden degree by round-sampling random pair candidates.

    Runs ceil(c0 * ln n) rounds of ceil(n^delta) sampled candidates each and
    accepts LOW when fewer than half the rounds saw an edge.  Always issues
    exactly rounds * per_round queries.
    """
    n = oracle.n
    rounds = math.ceil(params.c0 * math.log(n))
    per_round = math.ceil(n**params.delta)
    others = _others(n, v)
    hits = 0
    for _ in range(rounds):
        picks = rng.choice(others, size=per_round, replace=True)
        hits += int(oracle.query_row(v, picks, StepTag.STEP5).any())
    return Hypothesis.LOW if hits < rounds / 2 else Hypothesis.HIGH


def degree_gap(n: int, delta: float) -> tuple[float, float]:
    """The (low, high) degree thresholds between which either verdict is fine."""
    base = math.ceil(n ** (1.0 - delta))
    return 0.1 * base, 10.0 * base


def hypothesis_mismatch(n: int, delta: float, true_degree: int, verdict: Hypothesis) -> bool:
    """True when the verdict is wrong for a degree outside the tolerated gap."""
    low, high = degree_gap(n, delta)
    if verdict is Hypothesis.LOW and true_degree > high:
        return True
    return verdict is Hypothesis.HIGH and true_degree < low


def step6_low_degree(working: WorkingGraph, v: int) -> list[Pair]:
    """Move every candidate pair incident to v out of the working set."""
    return working.remove_incident(v)


def step7_high_degree(
    oracle: QueryOracle,
    working: WorkingGraph,
    v: int,
    params: Params,
    rng: np.random.Generator,
) -> tuple[Tri | None, list[Pair], bool, bool]:
    """Reveal v's hidden neighborhood, search it for an edge, else classify.

    Returns (triangle, moved pairs, search-missed flag, no-progress flag).
    When no pair lies between the two neighborhoods the candidate pairs
    incident to v are moved instead; after a completed peel that situation
    implies none of them is a hidden edge, so the move costs the later
    intersection search nothing.
    """
    hood = _read_neighborhood(oracle, v, StepTag.STEP7)
    space = _induced_pair_space(oracle.hidden, hood.tolist(), q_test=1)
    out = safe_grover(space, params.c_safe, oracle, StepTag.STEP7, rng)
    if out.found is not None:
        a, b = out.found
        tri = tuple(sorted((v, a, b)))
        verify_triangle(oracle, tri)  # type: ignore[arg-type]
        return tri, [], False, False  # type: ignore[return-value]
    missed = space.marked_count > 0

    prime_arr = working.neighbors(v)
    moved: list[Pair] = []
    if len(hood) and len(prime_arr):
        block = working.adj[np.ix_(hood, prime_arr)]
        a_idx, b_idx = np.nonzero(block)
        moved = sorted(
            {
                (min(int(hood[i]), int(prime_arr[j])), max(int(hood[i]), int(prime_arr[j])))
                for i, j in zip(a_idx.tolist(), b_idx.tolist())
            }
        )
    if moved:
        working.remove_pairs(moved)
        return None, moved, missed, False
    return None, working.remove_incident(v), missed, True


def step8_loop(
    oracle: QueryOracle,
    working: WorkingGraph,
    params: Params,
    seed: int,
) -> tuple[Tri | None, list[Pair], list[Pair], set[str]]:
    """Alternate peeling and degree classification until no candidate remains.

    Every cycle strictly shrinks the working set, so the loop terminates and
    each original candidate pair ends up in exactly one of T or E.
    """
    n = oracle.n
    tau = peel_threshold(n, params.epsilon_prime)
    t_pairs: list[Pair] = []
    e_pairs: list[Pair] = []
    events: set[str] = set()
    invocation = 0
    while True:
        t_pairs.extend(step4_peel(working, tau))
        v = working.first_active_vertex()
        if v is None:
            break
        verdict = step5_degree_hypothesis(
            oracle, v, params, substream(seed, "step5", invocation)
        )
        if hypothesis_mismatch(n, params.delta, oracle.hidden.degree(v), verdict):
            events.add("hypothesis_mismatch")
        if verdict is Hypothesis.LOW:
            e_pairs.extend(step6_low_degree(working, v))
        else:
            tri, moved, missed, stalled = step7_high_degree(
                oracle, working, v, params, substream(seed, "step7", invocation)
            )
            if missed:
                events.add("safe_grover_miss")
            if stalled:
                events.add("step7_no_progress")
            if tri is not None:
                return tri, t_pairs, e_pairs, events
            e_pairs.extend(moved)
        invocation += 1
    return None, t_pairs, e_pairs, events


def step9_search_T(
    oracle: QueryOracle,
    t_pairs: list[Pair],
    params: Params,
    rng: np.random.Generator,
) -> tuple[Tri | None, int, bool]:
    """Search the triangles spanned by the peeled pair set.

    Returns (triangle, number of spanned triangles, search-missed flag).
    """
    pool = Graph(oracle.n, t_pairs)
    space = _triangle_space(oracle.hidden, pool)
    if space.size == 0:
        return None, 0, False
    out = safe_grover(space, params.c_safe, oracle, StepTag.STEP9, rng)
    if out.found is not None:
        verify_triangle(oracle, out.found)
        return out.found, space.size, False
    return None, space.size, space.marked_count > 0


def step10_search_E(
    oracle: QueryOracle,
    e_pairs: list[Pair],
    params: Params,
    rng: np.random.Generator,
) -> Tri | None:
    """Search for a hidden triangle with at least one pair in the classified set."""
    return edge_restricted_triangle_search(e_pairs, oracle, StepTag.STEP10, rng)


def solve(oracle: QueryOracle, params: Params | None = None, seed: int = 0) -> RunReport:
    """Run the full staged detection algorithm against a hidden graph.

    One-sided by construction: a triangle is reported only after all three of
    its pairs pass classical verification, and a triangle-free graph always
    yields "No".
    """
    params = params or Params()
    n = oracle.n
    if n < 8:
        raise ValueError("solver needs n >= 8")
    events: set[str] = set()
    measured = {"gprime_size": 0, "T_size": 0, "E_size": 0, "G_cap_E": 0, "t_of_T": 0}

    def report(outcome: Tri | None) -> RunReport:
        return RunReport(
            n=n,
            seed=seed,
            params=params,
            outcome=outcome,
            cost=oracle.report(),
            events=tuple(sorted(events)),
            measured=measured,
        )

    sample, neighborhoods = step1_sample(oracle, params, substream(seed, "step1"))
    tri, working, missed = step2_build_gprime(
        oracle, sample, neighborhoods, params, substream(seed, "step2")
    )
    if missed:
        events.add("safe_grover_miss")
    if tri is not None:
        return report(tri)
    assert working is not None
    measured["gprime_size"] = working.pair_count

    # privileged structural check of the candidate set against the hidden counts
    limit = n ** (1.0 - params.epsilon)
    if bool((common_neighbors(oracle.hidden.adjacency())[np.triu(working.adj, 1)] > limit).any()):
        events.add("gprime_violation")

    tri, t_pairs, e_pairs, loop_events = step8_loop(oracle, working, params, seed)
    events |= loop_events
    measured["T_size"] = len(t_pairs)
    measured["E_size"] = len(e_pairs)
    e_ends = np.array(e_pairs, dtype=np.intp).reshape(-1, 2).T
    measured["G_cap_E"] = int(np.count_nonzero(oracle.hidden.adjacency()[e_ends[0], e_ends[1]]))
    del e_ends  # |E| reaches ~100k pairs; free it before the final searches
    if tri is not None:
        return report(tri)

    tri, t_of_t, missed9 = step9_search_T(oracle, t_pairs, params, substream(seed, "step9"))
    measured["t_of_T"] = t_of_t
    if missed9:
        events.add("safe_grover_miss")
    if tri is not None:
        return report(tri)

    tri = step10_search_E(oracle, e_pairs, params, substream(seed, "step10"))
    return report(tri)
