"""The staged triangle-detection run: build the candidate pair set, peel it,
classify the remainder by degree hypotheses, then run the two final searches.

All adjacency information flows through the oracle and is billed per step,
one classical unit per probed pair: steps 1 and 7 read whole rows with one
`QueryOracle.read_rows` block read, step 5 reads a batch of pairs (v, u) for
each of a batch of vertices with `QueryOracle.query_rows`, and verification
probes single pairs with `QueryOracle.query`.  Step 1 hands step 2 the
sampled rows still packed, a `graphs.Rows`: step 2 reads their (row, member)
pairs a block at a time, and `Graph.uncovered` turns those billed rows alone
into the candidate set G' on packed words.  The pair bookkeeping is classical,
free once built, and stays in `graphs`' packed layout: the loop works on a
`WorkingGraph`, a `graphs.PairSet` of the pairs still working, whose step-4
peels move pairs into T, another `PairSet`; E is the rest of G'.
Between peels `WorkingGraph.floor` keeps a lower bound on the common-neighbor
counts, so a peel that cannot find a pair skips its count, and so does a
round whose degree bound, 2 * min deg - L over the L live vertices, reaches
the threshold.  The search-space builders read the hidden graph unbilled, as
simulator privilege, through the `Graph.rows` reader, `hidden & pool`
and the packed `Graph.common_counts`, a block of rows at a time in the blocks
of `rng.doubling_blocks`.  A step-2 search with nothing marked is a sure miss
whose charges alone are random, so step 2 bills each run of them in a block
with one `grover.bill_sure_misses` call.  The loop classifies a batch of
vertices at a time: the run that it would visit while every verdict is LOW
and every peel skips, read off the packed rows with `PairSet.upper_rows`,
with one step-5 pass over the streams' raw output and one step-6 clear.  A
peel round reads the block of its live vertices with `Graph.block`, counts
it in the upper row bands of `graphs.common_bands` and moves each band's low
pairs out with one `PairSet.move_block` call, so it holds one band of
counts at a time, and step 7 clears a rectangle of packed rows.  Step 9
counts T's triangles and the marked ones, those of `hidden & T`, with
`triangle_count`; only its sampler, after a hit, weighs pairs, a band at a
time.  Step 10 lists and counts the hidden edges of E on packed rows.
Step 2 takes its streams' keys from `rng.child_keys` and the loop its step-5
keys from `rng.substream_keys`, one key per search or visit, a block at a
time; step 7 builds each stream on its own.  `solve` passes one `events` set
down, and each event is added where it is detected: in `_search`, step 7, the
loop's step-5 check and `solve`'s containment check.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .graphs import Graph, PairSet, Rows, common_bands, triangle_count
from .grover import SearchSpace, bill_sure_misses, edge_restricted_triangle_search, safe_grover
from .oracle import LedgerReport, QueryOracle, StepTag, verify_triangle
from .rng import BLOCK_CAP, child_keys, doubling_blocks, keyed, lemire_draws, substream, substream_keys

Pair = tuple[int, int]
Tri = tuple[int, int, int]

MIN_N = 8  # the smallest vertex count `solve` accepts


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
        if not (1 <= self.c_safe < math.inf and 1 <= self.c0 < math.inf):
            raise ValueError("c_safe and c0 must be finite and >= 1")

    def to_json(self) -> dict:
        return asdict(self)


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


class WorkingGraph(PairSet):
    """Mutable candidate pair set: the pairs still working, in `graphs`' packed
    layout, and `peeled`, the set T that the step-4 peels move them into; every
    other removal only clears pairs.  `floor` is a lower bound on the
    common-neighbor count of every working pair; a removal of one pair costs
    each surviving pair at most one path, one of all pairs at k vertices k, and
    another batch drops the bound to 0.  Indexing is 1-based; row/col 0 are dead."""

    __slots__ = ("peeled", "floor")

    def __init__(self, gprime: Graph) -> None:
        super().__init__(gprime)
        self.peeled = PairSet(Graph(gprime.n))
        self.floor = 0

    def first_active_vertex(self, start: int = 1) -> int | None:
        """The smallest vertex from `start` on with a working pair, or None."""
        held = np.flatnonzero(self.degrees()[start:])
        return start + int(held[0]) if len(held) else None

    def remove_pair(self, a: int, b: int) -> None:
        """Remove one working pair."""
        self.clear_between([a], [b])
        self.floor -= 1

    def remove_incident(self, vertices: list[int] | np.ndarray) -> None:
        """Remove every working pair at each of the distinct `vertices`."""
        self.floor -= self.clear_incident(vertices)

    def remove_between(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Remove the working pairs between vertex sets `a` and `b`; say whether one was."""
        if cleared := self.clear_between(a, b):
            self.floor = 0
        return cleared


# ---------------------------------------------------------------------------
# Search-space builders (simulator privilege: exact marked counts + samplers)


def _induced_pair_space(hidden: Graph, members: np.ndarray, weights: np.ndarray) -> SearchSpace:
    """Pairs inside the ascending `members`; marked = pairs that are hidden
    edges.  weights[i] is members[i]'s number of hidden neighbors among the
    members.  The sampler reads its pick's hidden bits at the members off the
    packed row.  Each membership test is one pair query."""
    size = len(members) * (len(members) - 1) // 2
    marked = int(weights.sum()) // 2
    if marked == 0:
        return SearchSpace(size, 0, 1)
    cum = np.cumsum(weights)

    def draw(rng: np.random.Generator) -> Pair:
        pick = int(np.searchsorted(cum, rng.integers(cum[-1]), side="right"))
        v = int(members[pick])
        hood = members[hidden.rows([v]).at(members[None])[0]]
        w = int(hood[rng.integers(len(hood))])
        return (min(v, w), max(v, w))

    return SearchSpace(size, marked, 1, draw)


def _triangle_space(hidden: Graph, pool: Graph) -> SearchSpace:
    """Triangles of `pool`; marked = those whose three pairs are hidden edges.

    Two counts: the size is `triangle_count` of `pool`, and the marked count
    is `triangle_count` of `hidden & pool`.  Only the sampler, which runs
    after a hit, weighs the pairs: it reads the block of the vertices with a
    pair of both graphs and returns a marked triangle in global labels."""
    size = triangle_count(pool)
    if size == 0:
        return SearchSpace(0, 0, 3)
    both = hidden & pool
    marked = triangle_count(both)
    if marked == 0:
        return SearchSpace(size, 0, 3)

    def draw(rng: np.random.Generator) -> Tri:
        live = np.flatnonzero(both.degrees())  # ascending: local order is label order
        # upper[a, c]: (live[a], live[c]) is a pair of both graphs with a < c, so row
        # products count each marked triangle a < b < c once, at its pair (a, b)
        upper = np.triu(both.block(live), 1)
        # the pairs (a, b) weighted by their apex counts, row-major, a band at a time
        target = rng.integers(marked)
        for i, band in common_bands(upper):
            pairs = upper[i : i + len(band), i:]
            weights = band[pairs].astype(np.int64)
            if target < weights.sum():
                pick = np.searchsorted(np.cumsum(weights), target, side="right")
                a, b = (i + side[pick] for side in np.nonzero(pairs))
                break
            target -= weights.sum()
        apexes = np.flatnonzero(upper[a] & upper[b])
        c = apexes[rng.integers(len(apexes))]
        return (int(live[a]), int(live[b]), int(live[c]))

    return SearchSpace(size, marked, 3, draw)


def _search(
    oracle: QueryOracle,
    space: SearchSpace,
    params: Params,
    tag: StepTag,
    rng: np.random.Generator,
    events: set[str],
    *apex: int,
) -> Tri | None:
    """One `safe_grover` search of `space`.  A found item, with the `apex`
    vertex added when the space holds pairs, is sorted into a triangle and
    verified; a miss of a space with marked items adds `safe_grover_miss`
    to `events`."""
    out = safe_grover(space, params.c_safe, oracle, tag, rng)
    if out.found is None:
        if space.marked_count:
            events.add("safe_grover_miss")
        return None
    a, b, c = sorted((*apex, *out.found))
    verify_triangle(oracle, (a, b, c))
    return a, b, c


# ---------------------------------------------------------------------------
# The ten steps


def step1_sample(
    oracle: QueryOracle, params: Params, rng: np.random.Generator
) -> tuple[list[int], Rows]:
    """Sample start vertices, ascending, and read their full neighborhoods
    classically in one block read: row i of the returned packed `Rows` is
    the hidden row of sample[i]."""
    n = oracle.n
    k = sample_count(n, params.epsilon)
    sample = (np.sort(rng.choice(n, size=k, replace=False)) + 1).tolist()
    return sample, oracle.read_rows(sample, StepTag.STEP1)


def step2_build_gprime(
    oracle: QueryOracle,
    sample: list[int],
    hoods: Rows,
    params: Params,
    rng: np.random.Generator,
    events: set[str],
) -> tuple[Tri | None, Graph | None]:
    """Search each sampled neighborhood square for an edge; on a miss for all,
    return the complement of their union as the candidate set G'.

    `hoods` is step 1's packed rows: row i is the neighborhood of sample[i].
    Returns (triangle, G'), G' None after a hit; `_search` adds the misses
    to `events`.  Search i draws from child i of `rng`, keyed by `child_keys`
    a block of `rng.doubling_blocks` at a time, so `rng` may end past the
    last key a search used.  Each block's marked counts come from one
    `Graph.common_counts` call, which pairs every sampled neighbor with its
    sample, so a search that hits early leaves the later blocks uncounted.
    A search with nothing marked is a sure miss: each run of them between
    two marked searches is billed in one `bill_sure_misses` call, and each
    marked search runs through `_search` in its turn.
    """
    sampled = np.asarray(sample)
    for start, size in doubling_blocks():
        size = min(size, len(hoods) - start)
        if size <= 0:
            break
        keys = child_keys(rng, start, size)
        owner, member = hoods.pairs(start, start + size)  # row-major: each row's members ascend
        count = oracle.hidden.common_counts(sampled[start : start + size][owner], member)
        # row i's members are member[bounds[i]:bounds[i + 1]]; a row is marked
        # when one of its members has a hidden neighbor in the row's square
        bounds = np.searchsorted(owner, np.arange(size + 1))
        lengths = np.diff(bounds)
        sizes = (lengths * (lengths - 1) // 2).tolist()
        marked = np.flatnonzero(np.bincount(owner[count > 0], minlength=size))
        i = 0
        for j in marked.tolist() + [size]:
            # the sure misses before the next marked search
            bill_sure_misses(sizes[i:j], keys[i:j], 1, params.c_safe, oracle, StepTag.STEP2)
            if j == size:
                break
            lo, hi = bounds[j], bounds[j + 1]
            space = _induced_pair_space(oracle.hidden, member[lo:hi], count[lo:hi])
            tri = _search(oracle, space, params, StepTag.STEP2, keyed(keys[j]), events, sample[start + j])
            if tri is not None:
                return tri, None
            i = j + 1
    return None, Graph.uncovered(hoods)


def containment_violated(hidden: Graph, candidate: Graph, epsilon: float) -> bool:
    """Privileged structural check: True when the candidate graph keeps a
    pair whose hidden common-neighbor count exceeds n^(1 - epsilon).

    Two vertices share no more neighbors than either has, so only pairs of
    vertices with hidden degree above the threshold can exceed it; their
    counts come a band at a time, and the check stops at the first band with
    such a pair.  Counts are integers, so the threshold is taken as its
    floor: float32 counts compare in float32, which may round
    n^(1 - epsilon) up to an integer."""
    thr = math.floor(hidden.n ** (1.0 - epsilon))
    heavy = np.flatnonzero(hidden.degrees() > thr)
    if not len(heavy):
        return False
    for i, band in common_bands(hidden.rows(heavy).dense()):
        keeps = candidate.rows(heavy[i : i + len(band)]).dense()[:, heavy[i:]]
        if (band[keeps] > thr).any():
            return True
    return False


def step4_peel(working: WorkingGraph, tau: int) -> np.ndarray:
    """Move pairs whose common-neighbor count is below tau to T until none is
    left, and return the moved pairs as (a, b) rows with a < b.

    Works in rounds: each round counts common neighbors once, over the block
    of the live vertices (those with a working pair) only, a band of
    `common_bands` at a time, removes every working pair below tau, a band
    at a time from the round's counts, and the peel stops when a round finds
    none, leaving the smallest count it saw (n when no pair is left) in
    `working.floor`.  While that bound is at least tau no pair can be low, so
    the peel returns without counting.  A round also skips its count when the
    degrees rule a low pair out: the other neighbors of a working pair's ends
    lie among the L - 2 other live vertices, so the pair keeps at least
    deg a + deg b - L common neighbors, and a round whose 2 * min deg - L is
    at least tau sets `floor` to that and stops.  Counts only fall as pairs
    leave, so any removal order ends at the same set, the largest subset in
    which every pair keeps at least tau common neighbors.  Costs no queries.
    """
    n = working.n
    batches = [np.empty((0, 2), dtype=np.intp)]
    while working.floor < tau:
        deg = working.degrees()
        live = np.flatnonzero(deg)
        if not len(live):
            working.floor = n
            break
        bound = 2 * int(deg[live].min()) - len(live)
        if bound >= tau:
            working.floor = bound
            break
        # every common neighbor of a working pair holds a working pair itself, so
        # the block of live rows and columns gives the same counts as the whole matrix
        sub = working.block(live)
        floor, moved = n, False
        for i, band in common_bands(sub):
            keeps = sub[i : i + len(band), i:]
            low = band < tau
            low &= keeps
            # keep a < b, band column c being vertex i + c, then divmod: row-major
            # pairs, and `live` is ascending, so the same order as over the whole block
            width = low.shape[1]
            flat = np.flatnonzero(low)
            flat = flat[flat // width < flat % width]
            if len(flat):
                batches.append(live[i + np.stack(np.divmod(flat, width), axis=1)])
                working.move_block(live[i:], low, working.peeled)
                moved = True
            elif not moved:
                floor = min(floor, int(band.min(where=keeps, initial=n)))
        del sub, keeps, band, low, flat  # not kept alive through the next round's count
        if not moved:
            working.floor = floor
            break
    return np.concatenate(batches)


def step5_degree_hypothesis(
    oracle: QueryOracle, vertices: np.ndarray, params: Params, keys: np.ndarray
) -> np.ndarray:
    """Classify the hidden degree of each of `vertices` in turn, vertex i on
    the fresh stream `rng.keyed(keys[i])`, through the first HIGH verdict.

    Runs ceil(c0 * ln n) rounds of ceil(n^delta) sampled candidates each and
    accepts LOW when fewer than half the rounds saw an edge.  Returns the
    verdicts of the vertices classified as a boolean array, True for HIGH,
    and bills exactly rounds * per_round queries for each in one
    `query_rows` read.  A vertex's draws are those of one `rng.choice` per
    round over every vertex but it, which are one `rng.lemire_draws` call
    for every stream at once.
    """
    n = oracle.n
    rounds = math.ceil(params.c0 * math.log(n))
    per_round = math.ceil(n**params.delta)
    picks = lemire_draws(keys, n - 1, rounds * per_round).astype(np.int64)
    # index i of the ascending vertices other than v is vertex i + 1, or i + 2 from v on
    picks += 1 + (picks + 1 >= np.asarray(vertices)[:, None])

    def high(seen: np.ndarray) -> np.ndarray:
        return seen.reshape(len(seen), rounds, per_round).any(axis=2).sum(axis=1) >= rounds / 2

    return high(oracle.query_rows(vertices, picks, StepTag.STEP5, stop=high))


def degree_gap(n: int, delta: float) -> tuple[float, float]:
    """The (low, high) degree thresholds between which either verdict is fine."""
    base = math.ceil(n ** (1.0 - delta))
    return 0.1 * base, 10.0 * base


def hypothesis_mismatch(n: int, delta: float, true_degrees: np.ndarray, high: np.ndarray) -> bool:
    """True when a verdict, True for HIGH, is wrong for its vertex's true
    degree outside the tolerated gap: HIGH below it, or LOW above it."""
    low, top = degree_gap(n, delta)
    return bool(np.where(high, true_degrees < low, true_degrees > top).any())


def step6_low_degree(working: WorkingGraph, vertices: np.ndarray) -> None:
    """Move every candidate pair at one of `vertices` from the working set to E."""
    working.remove_incident(vertices)


def step7_high_degree(
    oracle: QueryOracle,
    working: WorkingGraph,
    v: int,
    params: Params,
    rng: np.random.Generator,
    events: set[str],
) -> Tri | None:
    """Reveal v's hidden neighborhood, search it for an edge, else move the
    working pairs between it and v's candidate neighbors to E.

    Returns the triangle found, or None.  When no pair lies between the two
    neighborhoods the candidate pairs incident to v are moved instead, and
    `step7_no_progress` is added to `events`; after a completed peel that
    situation implies none of them is a hidden edge, so the move costs the
    later intersection search nothing.
    """
    _, hood = oracle.read_rows([v], StepTag.STEP7).pairs()
    weights = oracle.hidden.common_counts(np.full_like(hood, v), hood)
    space = _induced_pair_space(oracle.hidden, hood, weights)
    tri = _search(oracle, space, params, StepTag.STEP7, rng, events, v)
    if tri is None and not working.remove_between(hood, working.rows([v]).pairs()[1]):
        working.remove_incident([v])
        events.add("step7_no_progress")
    return tri


def step8_loop(
    oracle: QueryOracle,
    working: WorkingGraph,
    params: Params,
    seed: int,
    events: set[str],
) -> Tri | None:
    """Alternate peeling and degree classification until no candidate remains.

    Every cycle strictly shrinks the working set, so the loop terminates.
    Returns the triangle step 7 found, or None, and adds
    `hypothesis_mismatch` to `events` when a verdict falls outside the
    degree gap.  The step-4 peels move pairs to T, `working.peeled`; the
    other candidate pairs that leave go to E.

    A batch is the vertices that the loop would visit while every verdict is
    LOW: the rows below the last vertex visited, v, are empty, so these are
    the rows from v on that hold a pair (u, w) with w > u (`upper_rows`).
    Each LOW removal lowers `floor` by one, so a batch holds at most
    floor - tau + 1 of them, whose peels would return without counting, and
    at most BLOCK_CAP.  Step 5 stops at the first HIGH verdict, step 6 clears
    the LOW vertices before it in one pass, and step 7 runs at it.  Visit i
    draws from `substream(seed, "step5", i)` and `substream(seed, "step7", i)`,
    as a loop of one vertex per cycle would.
    """
    n = oracle.n
    tau = peel_threshold(n, params.epsilon_prime)
    degrees = oracle.hidden.degrees()  # the true degrees, for the mismatch check
    invocation, v = 0, 1
    while True:
        step4_peel(working, tau)
        batch = working.upper_rows(v, min(max(working.floor - tau + 1, 1), BLOCK_CAP))
        if not len(batch):
            break
        # one key per invocation (vertex visit); those past a HIGH verdict are derived again
        keys = substream_keys(seed, "step5", start=invocation, count=len(batch))
        high = step5_degree_hypothesis(oracle, batch, params, keys)
        invocation += len(high)
        if hypothesis_mismatch(n, params.delta, degrees[batch[: len(high)]], high):
            events.add("hypothesis_mismatch")
        low = len(high) - int(high[-1])
        if low:
            step6_low_degree(working, batch[:low])
        v = int(batch[len(high) - 1])
        if low < len(high):  # step 7 at the last visit, number invocation - 1
            tri = step7_high_degree(oracle, working, v, params, substream(seed, "step7", invocation - 1), events)
            if tri is not None:
                return tri
    return None


def step9_search_T(
    oracle: QueryOracle,
    pool: Graph,
    params: Params,
    rng: np.random.Generator,
    events: set[str],
) -> tuple[Tri | None, int]:
    """Search the triangles spanned by the peeled pair set `pool`; return the
    triangle found, or None, and the number of spanned triangles."""
    space = _triangle_space(oracle.hidden, pool)
    return _search(oracle, space, params, StepTag.STEP9, rng, events), space.size


def step10_search_E(oracle: QueryOracle, pool: Graph, rng: np.random.Generator) -> Tri | None:
    """Search for a hidden triangle with at least one pair in the classified set."""
    return edge_restricted_triangle_search(pool, oracle, StepTag.STEP10, rng)


def solve(oracle: QueryOracle, params: Params | None = None, seed: int = 0) -> RunReport:
    """Run the full staged detection algorithm against a hidden graph.

    One-sided by construction: a triangle is reported only after all three of
    its pairs pass classical verification, and a triangle-free graph always
    yields "No".
    """
    params = params or Params()
    n = oracle.n
    if n < MIN_N:
        raise ValueError(f"solver needs n >= {MIN_N}")
    events: set[str] = set()
    measured = {"gprime_size": 0, "T_size": 0, "E_size": 0, "G_cap_E": 0, "t_of_T": 0}

    def report(outcome: Tri | None) -> RunReport:
        return RunReport(n=n, seed=seed, params=params, outcome=outcome, cost=oracle.report(),
                         events=tuple(sorted(events)), measured=measured)

    sample, hoods = step1_sample(oracle, params, substream(seed, "step1"))
    tri, gprime = step2_build_gprime(oracle, sample, hoods, params, substream(seed, "step2"), events)
    del hoods  # the sampled rows are not needed past step 2; free them before step 8
    if tri is not None:
        return report(tri)
    assert gprime is not None
    measured["gprime_size"] = gprime.edge_count
    if containment_violated(oracle.hidden, gprime, params.epsilon):
        events.add("gprime_violation")

    working = WorkingGraph(gprime)
    tri = step8_loop(oracle, working, params, seed, events)
    # E is the rest of G' but T and the pairs still working, which only a step-7 triangle leaves
    t_pool, e_pool = working.peeled.graph(), gprime.graph(working.peeled, working)
    del working, gprime  # free the packed sets the final searches do not read
    measured["T_size"], measured["E_size"] = t_pool.edge_count, e_pool.edge_count
    measured["G_cap_E"] = (oracle.hidden & e_pool).edge_count
    if tri is not None:
        return report(tri)

    tri, measured["t_of_T"] = step9_search_T(oracle, t_pool, params, substream(seed, "step9"), events)
    if tri is not None:
        return report(tri)

    tri = step10_search_E(oracle, e_pool, substream(seed, "step10"))
    return report(tri)
