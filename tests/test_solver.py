"""Step-by-step and end-to-end solver tests."""

import contextlib
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtri import BudgetExceededError, Graph, Params, QueryOracle, generate, graphs, solve, solver, triangle_count
from qtri.analysis import cost_terms
from qtri.graphs import canon_pair
from qtri.grover import grover_success_prob
from qtri.oracle import StepTag
from qtri.rng import BLOCK_CAP, child_keys, doubling_blocks, keyed, seed_keys, substream
from qtri.solver import (
    MIN_N,
    WorkingGraph,
    _induced_pair_space,
    _triangle_space,
    containment_violated,
    degree_gap,
    hypothesis_mismatch,
    peel_threshold,
    sample_count,
    step1_sample,
    step2_build_gprime,
    step4_peel,
    step5_degree_hypothesis,
    step6_low_degree,
    step7_high_degree,
    step8_loop,
    step9_search_T,
    step10_search_E,
)

import test_golden
import test_graphs

DEFAULTS = Params()


def adjacency_of(n, pairs):
    """The symmetric boolean matrix of `pairs`, indexed 0..n."""
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    for a, b in pairs:
        adj[a, b] = adj[b, a] = True
    return adj


def working_from_pairs(n, pairs):
    return WorkingGraph(Graph(n, pairs))


def complete_working(n):
    return WorkingGraph(generate("complete", n, seed=0))


def working_adj(working):
    """The boolean matrix of the working pairs, unpacked from the packed set."""
    return working.graph().adjacency()


def peeled_pairs(working):
    """The pairs the peels moved to T, ascending."""
    return list(working.peeled.graph().edges())


def upper_pairs(mask):
    """The (a, b) pairs with a < b where a square matrix is set, ascending."""
    rows, cols = np.nonzero(np.triu(mask, 1))
    return list(zip(rows.tolist(), cols.tolist()))


def live_pairs(working):
    return upper_pairs(working_adj(working))


def left_pairs(before, working):
    """The pairs of `before` that no longer work, ascending."""
    return sorted(set(before) - set(live_pairs(working)))


def member_pair_space(hidden, members):
    """The pair space of the ascending `members`, each weighted by its number
    of hidden neighbors among them; the solver's members are a neighborhood
    N(s), whose weights `Graph.common_counts` of (s, member) gives."""
    members = np.asarray(members, dtype=np.intp)
    weights = hidden.rows(members).dense()[:, members].sum(axis=1, dtype=np.int64)
    return _induced_pair_space(hidden, members, weights)


def test_search_space_samplers_match_a_set_reference():
    # samplers pick by cumulative weight in the order the members (or the
    # ascending pairs) come, then an ascending neighbor or apex; reports stay
    # byte-identical only while that order holds
    for seed in range(12):
        n = 18 + seed
        hidden = generate("erdos_renyi", n, seed=seed, p=0.5)
        rng = np.random.default_rng(seed)
        pool = Graph(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if rng.random() < 0.6])
        both = {pair for pair in pool.edges() if hidden.has_edge(*pair)}
        apexes = {(a, b): [c for c in range(b + 1, n + 1) if (a, c) in both and (b, c) in both]
                  for a, b in sorted(both)}
        picks = [(pair, cs) for pair, cs in apexes.items() if cs]
        space = _triangle_space(hidden, pool)
        assert space.size == triangle_count(pool)
        assert space.marked_count == sum(len(cs) for _, cs in picks)
        cum = np.cumsum([len(cs) for _, cs in picks])
        ref, rng_space = substream(seed, "tri"), substream(seed, "tri")
        for _ in range(20):
            pair, cs = picks[int(np.searchsorted(cum, ref.integers(cum[-1]), side="right"))]
            assert space.draw_marked(rng_space) == (*pair, cs[int(ref.integers(len(cs)))])

        members = sorted(int(v) + 1 for v in rng.permutation(n)[: n // 2])
        hoods = [[u for u in members if u != v and hidden.has_edge(u, v)] for v in members]
        space = member_pair_space(hidden, members)
        cum = np.cumsum([len(hood) for hood in hoods])
        assert space.marked_count == cum[-1] // 2 > 0
        ref, rng_space = substream(seed, "pair"), substream(seed, "pair")
        for _ in range(20):
            pick = int(np.searchsorted(cum, ref.integers(cum[-1]), side="right"))
            w = hoods[pick][int(ref.integers(len(hoods[pick])))]
            assert space.draw_marked(rng_space) == (min(members[pick], w), max(members[pick], w))


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 30), density=st.sampled_from([0.0, 0.3, 1.0]),
       graph_seed=st.integers(0, 10**6), data=st.data())
def test_induced_pair_space_counts_the_member_edges(n, density, graph_seed, data):
    hidden = generate("erdos_renyi", n, seed=graph_seed, p=density)
    members = sorted(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n), label="members"))
    space = member_pair_space(hidden, members)
    pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]
    assert space.size == len(pairs)
    assert space.marked_count == sum(hidden.has_edge(a, b) for a, b in pairs)
    # the right side of a complete bipartite host: no edge among the members
    right = list(range((n + 1) // 2 + 1, n + 1))
    space = member_pair_space(generate("bipartite_blowup", n, seed=graph_seed), right)
    assert space.size == len(right) * (len(right) - 1) // 2
    assert space.marked_count == 0


def test_sample_count_values():
    assert sample_count(1024, 3 / 7) == 541
    assert math.ceil(4 * 16 ** (3 / 7) * math.log(16)) == 37
    assert sample_count(16, 3 / 7) == 16


def test_step1_charges_exactly():
    oracle = QueryOracle(generate("erdos_renyi", 64, seed=1, p=0.5))
    sample, hoods = step1_sample(oracle, DEFAULTS, substream(0, "s1"))
    k = sample_count(64, DEFAULTS.epsilon)
    assert len(sample) == len(set(sample)) == k
    assert sample == sorted(sample)
    assert oracle.report().per_step["Step1"] == k * 63
    assert oracle.report().total == k * 63
    assert len(hoods) == k and hoods.dense().shape == (k, 65)
    for v, hood in zip(sample, hoods.dense()):
        assert set(np.flatnonzero(hood).tolist()) == {
            u for u in range(1, 65) if u != v and oracle.hidden.has_edge(u, v)
        }


def test_step2_c5_all_vertices():
    # pentagon: every sampled neighborhood square is the single opposite pair
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    oracle = QueryOracle(g, budget=10**6)
    sample = [1, 2, 3, 4, 5]
    tri, gprime = step2_build_gprime(oracle, sample, g.rows(sample), DEFAULTS, substream(0, "s2"), set())
    assert tri is None
    kept = set(gprime.edges())
    diagonals = {(2, 5), (1, 3), (2, 4), (3, 5), (1, 4)}
    assert kept == {(a, b) for a in range(1, 6) for b in range(a + 1, 6)} - diagonals
    assert all(pair in kept for pair in g.edges())  # hidden edges survive


def test_step2_empty_graph_keeps_everything():
    g = Graph(8)
    oracle = QueryOracle(g)
    sample = list(range(1, 9))
    events = set()
    tri, gprime = step2_build_gprime(oracle, sample, g.rows(sample), DEFAULTS, substream(1, "s2"), events)
    assert tri is None and not events
    assert gprime.edge_count == 28


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 14), density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
       graph_seed=st.integers(0, 10**6), data=st.data())
def test_uncovered_pairs_is_the_complement_of_the_sampled_squares(n, density, graph_seed, data):
    g = generate("erdos_renyi", n, seed=graph_seed, p=density)
    sample = data.draw(st.lists(st.integers(1, n), unique=True, max_size=n), label="sample")
    hoods = [np.flatnonzero(row).tolist() for row in g.rows(sample).dense()]
    covered = {(a, b) for hood in hoods for a in hood for b in hood}
    expected = {(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b} - covered
    free = Graph.uncovered(g.rows(sample))
    assert free.n == n
    assert set(map(tuple, np.argwhere(free.adjacency()).tolist())) == expected


def step2_per_vertex(oracle, sample, hoods, params, rng, events):
    """Step 2 as one `_search` per sampled vertex, weighted from the unpacked
    rows: the reference for the block walk."""
    adj = oracle.hidden.adjacency().astype(np.int64)
    children = (keyed(key) for key in child_keys(rng, 0, len(sample)))
    for v, hood, child in zip(sample, hoods.dense(), children):
        members = np.flatnonzero(hood)
        space = _induced_pair_space(oracle.hidden, members, adj[members][:, members].sum(axis=1))
        tri = solver._search(oracle, space, params, StepTag.STEP2, child, events, v)
        if tri is not None:
            return tri
    return None


def blowup_with_pair(n, a, b):
    return Graph(n, [*generate("bipartite_blowup", n, seed=0).edges(), (a, b)])


@pytest.mark.parametrize("graph, hit", [
    # K_{32,32} plus the pair (6, 7) on one side: k = n samples every vertex,
    # ascending, and the first square that holds a hidden edge is vertex 6's,
    # search 5, inside the block of searches 3..6
    (blowup_with_pair(64, 6, 7), 5),
    # triangle-free, with k = 263 < n: every search misses, over blocks of 1 .. 256
    (generate("bipartite_blowup", 300, seed=0), None),
])
def test_step2_block_walk_matches_a_per_vertex_reference(monkeypatch, graph, hit):
    # the block walk hands only the marked searches to `_search`, and bills the
    # sure misses between them in runs: the same charges in the same order
    seen, charges = [], []
    search, charge_batch = solver._search, QueryOracle.charge_batch

    def spy(oracle, space, params, tag, rng, events, v):
        seen.append((v, space.size, space.marked_count))
        return search(oracle, space, params, tag, rng, events, v)

    def recording(oracle, amounts, tag):
        charges.extend(amounts)
        return charge_batch(oracle, amounts, tag)

    monkeypatch.setattr(solver, "_search", spy)
    monkeypatch.setattr(QueryOracle, "charge_batch", recording)
    runs = []
    for walk in (step2_build_gprime, step2_per_vertex):
        oracle = QueryOracle(graph)
        sample, hoods = step1_sample(oracle, DEFAULTS, substream(0, "step1"))
        out = walk(oracle, sample, hoods, DEFAULTS, substream(0, "step2"), set())
        runs.append((out[0] if walk is step2_build_gprime else out, seen[:], charges[:], oracle.report()))
        seen.clear()
        charges.clear()
    (tri, searched, billed, ledger), (ref_tri, searches, ref_billed, ref_ledger) = runs
    assert (tri, billed, ledger) == (ref_tri, ref_billed, ref_ledger)
    assert searched == [search for search in searches if search[2]]
    if hit is None:
        assert tri is None and len(searches) == len(sample) < graph.n and not searched
        assert len(billed) == sum(math.ceil(DEFAULTS.c_safe * math.log2(size)) for _, size, _ in searches)
    else:
        assert tri is not None and len(searches) == hit + 1 and sample[hit] == 6
        assert [marked for _, _, marked in searches] == [0] * hit + [32]
        assert searched == searches[hit:]


def test_a_solve_that_step_2_decides_never_unpacks_a_sampled_row(monkeypatch):
    # step 1 hands step 2 its rows packed; step 2 reads their pairs and bits and,
    # on ER p = 0.5, hits in its first marked search, so no row is ever unpacked
    dense, calls = graphs.Rows.dense, []
    monkeypatch.setattr(graphs.Rows, "dense", lambda rows: calls.append(len(rows)) or dense(rows))
    for seed in range(3):
        report = solve(QueryOracle(generate("erdos_renyi", 256, seed, p=0.5)), DEFAULTS, seed=seed)
        assert report.outcome is not None and deciding_step(report.cost) == "Step2"
    assert calls == []
    Graph.uncovered(Graph(8).rows([1, 2]))  # the one unpack of the sample, G' takes
    assert calls == [2]


def test_steps_1_and_2_keep_the_sample_packed():
    # the sparse host as step 1 samples it at n = 4096, k = 1,176 rows; step 2 misses
    # everywhere and builds G'.  From step 1 through step 2 the traced peak stays
    # within the packed sample, step 2's buffers for its fullest block of searches
    # (the block's (row, member) index pairs, their int64 counts and one
    # `common_counts` chunk of two gathered rows per pair) and `Graph.uncovered`'s
    # per-block buffers (`test_graphs.uncovered_buffers`)
    n = 4096
    oracle = QueryOracle(generate("random_bipartite", n, 0, p=3 / 2048))
    tracemalloc.start()
    try:
        sample, hoods = step1_sample(oracle, DEFAULTS, substream(0, "step1"))
        tri, gprime = step2_build_gprime(oracle, sample, hoods, DEFAULTS, substream(0, "step2"), set())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tri is None and len(hoods) == sample_count(n, DEFAULTS.epsilon) == 1176
    row_bytes = gprime._bits.shape[1]
    owner = hoods.pairs()[0]
    blocks = itertools.takewhile(lambda block: block[0] < len(hoods), doubling_blocks())
    most = max(np.count_nonzero((owner >= start) & (owner < start + size)) for start, size in blocks)
    search = 24 * most + 2 * min(most, graphs.GATHER_ROWS) * row_bytes
    bound = len(hoods) * row_bytes + search + test_graphs.uncovered_buffers(hoods)
    assert peak <= bound, (peak, bound)
    # a whole-sample unpack next to G', as earlier builds made, would not fit
    assert bound < len(hoods) * row_bytes + gprime._bits.nbytes + len(hoods) * (n + 1)


def test_step2_dense_finds_triangle():
    wins = 0
    for seed in range(120):
        g = generate("erdos_renyi", 10, seed=seed, p=1.0)
        oracle = QueryOracle(g, budget=10**6)
        sample = [1]
        hoods = g.rows(sample)
        assert hoods.pairs()[1].tolist() == list(range(2, 11))
        tri, _ = step2_build_gprime(oracle, sample, hoods, DEFAULTS, substream(seed, "s2"), set())
        if tri is not None:
            a, b, c = tri
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            wins += 1
    assert wins >= 0.99 * 120


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 40), hidden_density=st.sampled_from([0.05, 0.3, 0.7, 1.0]),
       candidate_density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       epsilon=st.floats(0.01, 0.99), graph_seed=st.integers(0, 2**32 - 1))
def test_containment_check_matches_the_full_product(
    n, hidden_density, candidate_density, epsilon, graph_seed
):
    rng = np.random.default_rng(graph_seed)
    hidden = Graph(n, random_pairs(rng, n, hidden_density))
    candidate = Graph(n, random_pairs(rng, n, candidate_density))
    common = brute_counts(hidden.adjacency())  # compare exact counts in float64
    want = bool((common[candidate.adjacency()] > n ** (1.0 - epsilon)).any())
    for cells in (graphs.BAND_CELLS, *test_graphs.SMALL_BANDS):
        with mock.patch.object(graphs, "BAND_CELLS", cells):
            assert containment_violated(hidden, candidate, epsilon) is want


def test_containment_check_stops_at_the_first_band_with_a_violation(monkeypatch):
    # on K12 every vertex is heavy and every pair has 10 common neighbors; in
    # one-row bands the candidate pair (1, 2) violates in the first band, (11, 12)
    # only in the eleventh of twelve
    taken, common_bands = [], solver.common_bands

    def counting(rows):
        for start, band in common_bands(rows):
            taken.append(start)
            yield start, band

    monkeypatch.setattr(solver, "common_bands", counting)
    monkeypatch.setattr(graphs, "BAND_CELLS", 1)
    hidden = generate("complete", 12, 0)
    for pair, bands in (((1, 2), [0]), ((11, 12), list(range(11))), ((5, 9), list(range(5)))):
        taken.clear()
        assert containment_violated(hidden, Graph(12, [pair]), 0.5)  # threshold floor(12 ** 0.5) = 3
        assert taken == bands
    taken.clear()
    assert not containment_violated(hidden, Graph(12), 0.5) and taken == list(range(12))


def test_containment_check_compares_counts_with_the_unrounded_threshold():
    # at epsilon = 1 - 2/3 the threshold 27 ** (1 - epsilon) is 8.999999999999998 in
    # float64 and 9.0 in float32, so a pair with 9 common neighbors exceeds it only
    # when the threshold is not rounded to the counts' float32
    hidden = Graph(27, [(a, c) for a in (1, 2) for c in range(3, 12)])
    candidate = Graph(27, [(1, 2)])
    assert 27 ** (2.0 / 3.0) < 9 and np.float32(27 ** (2.0 / 3.0)) == 9
    assert containment_violated(hidden, candidate, 1.0 - 2.0 / 3.0)
    assert not containment_violated(hidden, candidate, 0.2)  # threshold 13.97


def test_step4_peel_complete_candidates():
    working = complete_working(8)
    moved = step4_peel(working, tau=8)  # every pair has 6 common candidates
    assert [tuple(pair) for pair in moved.tolist()] == live_pairs(complete_working(8))
    assert np.count_nonzero(working_adj(working)) // 2 == 0
    assert peeled_pairs(working) == live_pairs(complete_working(8))


def test_step4_peel_empty():
    working = working_from_pairs(8, [])
    assert len(step4_peel(working, tau=5)) == 0
    assert working.floor == 8  # no working pair: the bound is n


def test_step4_postcondition():
    working = complete_working(8)
    tau = peel_threshold(8, DEFAULTS.epsilon_prime)  # 6: all counts are 6, none below
    step4_peel(working, tau)
    t = brute_counts(working_adj(working))
    for a, b in live_pairs(working):
        assert t[a, b] >= tau


def brute_counts(adj):
    """The common-neighbor count of every pair of a boolean matrix, as an int64
    matrix product."""
    ints = adj.astype(np.int64)
    return ints @ ints


def test_peel_counts_only_when_the_floor_allows_a_low_pair(monkeypatch):
    """A peel counts only when neither the floor nor the degree bound rules a
    low pair out: a working pair keeps at least deg a + deg b - L common
    neighbours, L the live vertex count, so a round counts only when
    2 * min deg - L < tau."""
    counted, common_bands = [], solver.common_bands

    def counting(*args):
        counted.append(args)
        return common_bands(*args)

    monkeypatch.setattr(solver, "common_bands", counting)
    working = complete_working(4)  # K4: degrees 3 over L = 4, so every pair keeps 2 * 3 - 4 = 2
    assert len(step4_peel(working, tau=1)) == 0
    assert not counted and working.floor == 2  # the bound, taken without a count
    working.remove_incident([4])  # K3: the floor falls to 1 = tau
    assert len(step4_peel(working, tau=1)) == 0
    assert not counted and working.floor == 1  # the floor alone rules a low pair out
    working.floor = 0
    assert len(step4_peel(working, tau=1)) == 0
    assert not counted and working.floor == 1  # K3's bound: 2 * 2 - 3
    working.remove_incident([3])  # one pair: 2 * 1 - 2 = 0 < tau
    assert step4_peel(working, tau=1).tolist() == [[1, 2]]
    assert len(counted) == 1  # the round that moves (1, 2); the next has no live vertex
    assert working.floor == 4
    assert not working_adj(working).any()
    working = complete_working(4)
    assert len(step4_peel(working, tau=3)) == 6  # the bound 2 < tau: one count moves all
    assert len(counted) == 2 and working.floor == 4


def assert_counts_consistent(working):
    adj = working_adj(working)
    assert np.array_equal(adj, adj.T) and not adj[0].any() and not np.diag(adj).any()
    assert (brute_counts(adj)[adj] >= working.floor).all()


def random_working(data, n_max=16):
    n = data.draw(st.integers(4, n_max), label="n")
    everything = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(everything),
                              max_size=len(everything)), label="keep")
    return working_from_pairs(n, [pair for pair, k in zip(everything, keep) if k])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_removals_keep_counts_consistent(data):
    working = random_working(data)
    # the tightest bound there is, so a removal that lowers it too little shows
    adj = working_adj(working)
    working.floor = int(brute_counts(adj).min(where=adj, initial=working.n))
    for _ in range(data.draw(st.integers(1, 6), label="ops")):
        live = live_pairs(working)
        op = data.draw(st.sampled_from(["pair", "incident", "between"]), label="op")
        removed = []  # the pairs the removal must clear, and no other
        if op == "incident":
            v = data.draw(st.integers(1, working.n), label="v")
            working.remove_incident([v])
            removed = [pair for pair in live if v in pair]
        elif live and op == "pair":
            removed = [data.draw(st.sampled_from(live), label="pair")]
            working.remove_pair(*removed[0])
        elif op == "between":  # two vertex sets that may overlap
            a, b = (data.draw(st.lists(st.integers(1, working.n), unique=True), label=side)
                    for side in ("a", "b"))
            removed = [(x, y) for x, y in live if x in a and y in b or x in b and y in a]
            assert working.remove_between(np.array(a, dtype=np.intp),
                                          np.array(b, dtype=np.intp)) is bool(removed)
        assert left_pairs(live, working) == sorted(removed)
        assert_counts_consistent(working)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_first_active_vertex_is_the_smallest_with_a_live_pair(data):
    working = random_working(data)
    for _ in range(data.draw(st.integers(0, 4), label="clears")):
        working.remove_incident([data.draw(st.integers(1, working.n), label="v")])
    live = live_pairs(working)
    expected = min((a for a, _ in live), default=None)
    assert working.first_active_vertex() == expected
    # any start at or below the first active vertex finds it
    for start in range(1, (working.n if expected is None else expected) + 1):
        assert working.first_active_vertex(start) == expected
    for v in range(1, working.n + 1):
        working.remove_incident([v])
    for start in range(1, working.n + 1):
        assert working.first_active_vertex(start) is None


def peel_rounds_reference(n, pairs, tau):
    """The peel's return value round by round, each round's batch in the
    row-major order of `np.argwhere` over the strict upper triangle."""
    return [tuple(pair) for pair in counting_peel(adjacency_of(n, pairs), tau)]


def peel_reference(n, pairs, tau):
    """Brute-force fixpoint: drop one pair below tau at a time, the largest
    first, recounting every common neighborhood from scratch each time."""
    live = set(pairs)
    while True:
        low = [(a, b) for a, b in live
               if sum((canon_pair(a, c) in live) and (canon_pair(b, c) in live)
                      for c in range(1, n + 1) if c not in (a, b)) < tau]
        if not low:
            return set(pairs) - live
        live.remove(max(low))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_step4_counts_stay_consistent(data):
    working = random_working(data, n_max=12)
    tau = data.draw(st.integers(1, working.n), label="tau")
    before = live_pairs(working)
    moved = [tuple(pair) for pair in step4_peel(working, tau).tolist()]
    assert moved == peel_rounds_reference(working.n, before, tau)  # order included
    assert len(moved) == len(set(moved))
    assert all(a < b for a, b in moved)
    assert set(moved) == peel_reference(working.n, before, tau)
    assert set(live_pairs(working)) == set(before) - set(moved)
    assert peeled_pairs(working) == sorted(moved)
    counts = brute_counts(working_adj(working))
    assert all(counts[a, b] >= tau for a, b in live_pairs(working))
    assert_counts_consistent(working)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_step4_peel_over_scattered_labels(data):
    """A working set on a few scattered labels, the others isolated, possibly
    none: the peel moves the reference batches, and leaves the degree bound as
    the floor when that bound reaches tau, the exact minimum count otherwise."""
    n = data.draw(st.integers(4, 16), label="n")
    labels = sorted(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n), label="labels"))
    everything = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]
    keep = data.draw(st.lists(st.booleans(), min_size=len(everything),
                              max_size=len(everything)), label="keep")
    before = [pair for pair, k in zip(everything, keep) if k]
    tau = data.draw(st.integers(1, n), label="tau")
    working = working_from_pairs(n, before)
    moved = [tuple(pair) for pair in step4_peel(working, tau).tolist()]
    assert moved == peel_rounds_reference(n, before, tau)  # order included
    survivors = sorted(set(before) - set(moved))
    assert np.array_equal(working_adj(working), adjacency_of(n, survivors))
    counts = brute_counts(working_adj(working))
    exact = min((counts[a, b] for a, b in survivors), default=n)
    # a peel that stops after a count left the working set as that round saw it,
    # whose bound was below tau; one that stops on the bound stores it
    degrees = working_adj(working).sum(axis=1)
    live = np.flatnonzero(degrees)
    bound = 2 * int(degrees[live].min()) - len(live) if len(live) else n
    assert working.floor == (bound if bound >= tau else exact)
    assert working.floor <= exact


def counting_peel(adj, tau):
    """The peel without either shortcut on a boolean matrix, which it clears in
    place: every round counts every working pair."""
    moved = []
    while True:
        batch = np.argwhere(np.triu((brute_counts(adj) < tau) & adj, 1))
        if not len(batch):
            return moved
        adj[batch[:, 0], batch[:, 1]] = adj[batch[:, 1], batch[:, 0]] = False
        moved += batch.tolist()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_peel_with_its_shortcuts_matches_a_peel_that_always_counts(data):
    """Peels between vertex removals, as the step-8 loop makes them: the floor
    and the degree bound skip counts, and change no moved row, its order or
    the working set; the floor never exceeds the smallest working count."""
    assert_peels_match_a_peel_that_always_counts(data)


@pytest.mark.parametrize("band_cells", test_graphs.SMALL_BANDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_peel_over_several_bands_matches_a_peel_that_always_counts(band_cells, data):
    """The same peels with a block counted and moved a band at a time."""
    with mock.patch.object(graphs, "BAND_CELLS", band_cells):
        assert_peels_match_a_peel_that_always_counts(data)


def assert_peels_match_a_peel_that_always_counts(data):
    working = random_working(data)
    reference = working_adj(working)
    tau = data.draw(st.integers(1, working.n), label="tau")
    for _ in range(data.draw(st.integers(1, 4), label="peels")):
        assert step4_peel(working, tau).tolist() == counting_peel(reference, tau)
        assert np.array_equal(working_adj(working), reference)
        assert_counts_consistent(working)
        v = data.draw(st.integers(1, working.n), label="v")
        working.remove_incident([v])
        reference[v, :] = reference[:, v] = False


def test_a_peel_round_holds_one_band_of_counts(monkeypatch):
    """The first peel that moves a pair in a solve of the sparse host at
    n = 4096 counts a live block of 1,264 vertices.  With its block cut into
    eight bands, the traced rise of that peel's first round stays within the
    boolean block, its float32 copy and one band's buffers: the counts, the
    low mask, the listing of the band's moved pairs, and the packed scatter of
    one band of rows.  A whole L x L float32 product alone would not fit."""
    n = 4096
    hidden = generate("random_bipartite", n, 0, p=3 / 2048)
    caught = []  # the working pairs that the loop's first moving peel starts from

    def catching(working, tau):
        start = working.graph()
        moved = step4_peel(working, tau)
        if len(moved) and not caught:
            caught.append(start)
        return moved

    with monkeypatch.context() as patch:
        patch.setattr(solver, "step4_peel", catching)
        solve(QueryOracle(hidden), DEFAULTS, seed=0)
    working = WorkingGraph(caught[0])  # floor 0: the round counts
    size = len(np.flatnonzero(working.degrees()))
    height = size // 8
    monkeypatch.setattr(graphs, "BAND_CELLS", height * size)
    opened, degrees = [], WorkingGraph.degrees

    def opening(self):  # each round opens with the degrees; the peak restarts there
        opened.append((*tracemalloc.get_traced_memory(), int(self.peeled.degrees().sum()) // 2))
        tracemalloc.reset_peak()
        return degrees(self)

    monkeypatch.setattr(WorkingGraph, "degrees", opening)
    tracemalloc.start()
    try:
        step4_peel(working, peel_threshold(n, DEFAULTS.epsilon_prime))
    finally:
        tracemalloc.stop()
    (base, _, _), (_, peak, moved) = opened[:2]
    assert size == 1264 and 0 < moved < 100  # a round that moves a few pairs; the later ones cascade
    row_bytes = working._bits.shape[1]
    band = height * size * (4 + 1)  # float32 counts and the boolean low mask
    scatter = height * (n + 1) + 3 * height * row_bytes  # the boolean rows, packed, inverted and gathered
    bound = 5 * size * size + band + scatter + 64 * moved + 16 * (n + 1) + (n + 1) * row_bytes // 8
    assert peak - base <= bound, (peak - base, bound)
    assert bound < 9 * size * size  # the block, its copy and a whole float32 product


def random_pairs(rng, n, density, sides=None):
    """Each pair of 1..n with the given probability; with `sides`, only pairs
    across the two sides, so the graph is bipartite and triangle-free."""
    return [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
            if (sides is None or sides[a] != sides[b]) and rng.random() < density]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 12), working_density=st.sampled_from([0.5, 0.8, 1.0]),
       hidden_density=st.sampled_from([0.1, 0.5, 0.9]), bipartite=st.booleans(),
       eps_prime=st.sampled_from([1 / 7, 0.5, 0.9]), graph_seed=st.integers(0, 2**32 - 1),
       seed=st.integers(0, 2**16))
def test_step8_gives_every_candidate_one_fate(
    n, working_density, hidden_density, bipartite, eps_prime, graph_seed, seed
):
    rng = np.random.default_rng(graph_seed)
    working = working_from_pairs(n, random_pairs(rng, n, working_density))
    sides = rng.random(n + 1) < 0.5 if bipartite else None
    hidden = Graph(n, random_pairs(rng, n, hidden_density, sides))
    params = Params(epsilon_prime=eps_prime)  # a low tau lets steps 5-7 run too
    initial = working_adj(working)
    scanning = working_from_pairs(n, upper_pairs(initial))

    def always_scanning(working, tau):
        working.floor = 0
        return step4_peel(working, tau)

    returned = []

    def recording(working, tau):
        before, peeled_before = working_adj(working), peeled_pairs(working)
        moved = step4_peel(working, tau)
        # the peel clears exactly the pairs it returns, and moves them to T
        assert sorted(map(tuple, moved.tolist())) == upper_pairs(before & ~working_adj(working))
        assert sorted(set(peeled_pairs(working)) - set(peeled_before)) == sorted(map(tuple, moved.tolist()))
        returned.append(moved)
        return moved

    expected_events, events = set(), set()
    with mock.patch("qtri.solver.step4_peel", always_scanning):
        expected = step8_loop(QueryOracle(hidden, budget=10**9), scanning, params, seed, expected_events)
    with mock.patch("qtri.solver.step4_peel", recording):
        tri = step8_loop(QueryOracle(hidden, budget=10**9), working, params, seed, events)
    # a peel that skips its count when `floor` rules out a low pair changes nothing
    assert (tri, events) == (expected, expected_events) and peeled_pairs(working) == peeled_pairs(scanning)
    assert np.array_equal(working_adj(working), working_adj(scanning))
    t = [tuple(pair) for pair in np.concatenate(returned).tolist()]
    assert all(a < b for a, b in t) and len(set(t)) == len(t)
    assert peeled_pairs(working) == sorted(t)  # T: what step 4 removed
    # the working set only loses pairs, and no pair of T still works
    assert not (working_adj(working) & ~initial).any()
    working_pairs, gprime = set(live_pairs(working)), set(upper_pairs(initial))
    assert set(t) <= gprime and not set(t) & working_pairs
    if bipartite:
        assert tri is None
    if tri is None:  # the loop ran to its end: every candidate pair is in T or E
        assert not working_pairs
    assert_counts_consistent(working)


def step5_one_vertex(oracle, v, params, rng):
    """Step 5 at one vertex as one `integers` draw and one billed row: True for HIGH."""
    n = oracle.n
    rounds = math.ceil(params.c0 * math.log(n))
    per_round = math.ceil(n**params.delta)
    picks = rng.integers(0, n - 1, size=rounds * per_round)
    picks += 1 + (picks + 1 >= v)
    seen = oracle.query_rows([v], [picks], StepTag.STEP5).reshape(rounds, per_round)
    return bool(seen.any(axis=1).sum() >= rounds / 2)


def step8_reference(oracle, working, params, seed, events):
    """The step-8 loop one vertex per cycle: a peel, the first active vertex,
    its verdict on `substream(seed, "step5", i)`, then step 6 or step 7."""
    n = oracle.n
    tau = peel_threshold(n, params.epsilon_prime)
    low, high = degree_gap(n, params.delta)
    degrees = oracle.hidden.degrees()
    invocation, v = 0, 1
    while True:
        step4_peel(working, tau)
        v = working.first_active_vertex(v)
        if v is None:
            return None
        verdict = step5_one_vertex(oracle, v, params, substream(seed, "step5", invocation))
        if (degrees[v] < low) if verdict else (degrees[v] > high):
            events.add("hypothesis_mismatch")
        if not verdict:
            working.remove_incident([v])
        else:
            tri = step7_high_degree(oracle, working, v, params, substream(seed, "step7", invocation), events)
            if tri is not None:
                return tri
        invocation += 1


def sparse_host(n, degree, seed, hubs=0, triangle=()):
    """A random bipartite graph with mean degree `degree`, plus `hubs` vertices
    joined to half the other side, and optionally one triangle."""
    rng = np.random.default_rng(seed)
    side = rng.random(n + 1) < 0.5
    p = np.where(side[:, None] != side[None, :], degree / (n / 2), 0.0)
    for hub in rng.choice(np.arange(1, n + 1), size=hubs, replace=False):
        p[hub] = p[:, hub] = np.where(side != side[hub], 0.5, 0.0)
    adj = np.triu(rng.random((n + 1, n + 1)) < p, 1)
    adj[0] = False
    pairs = list(zip(*(side.tolist() for side in np.nonzero(adj))))
    return Graph(n, pairs + ([tuple(sorted(pair)) for pair in itertools.combinations(triangle, 2)]
                             if triangle else []))


def solve_with_loop(loop, hidden, params, seed, budget=None):
    """`solve` with `loop` as the step-8 loop: the report's JSON, or the budget
    error and the ledger when the run is cut."""
    oracle = QueryOracle(hidden, budget)
    with mock.patch.object(solver, "step8_loop", loop):
        try:
            return json.dumps(solve(oracle, params, seed=seed).to_json(), sort_keys=True)
        except BudgetExceededError as err:
            return str(err), oracle.report()


LOOP_PARAMS = [Params(), Params(epsilon_prime=0.3, delta=0.4), Params(epsilon=0.1, delta=0.5)]


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128, 129, 300])
def test_batched_loop_reports_match_the_one_vertex_loop(n):
    """Byte-identical reports on sparse hosts with and without hubs: runs of
    low verdicts, high verdicts inside a batch and step-7 stalls."""
    loop = solver.step8_loop
    reached = set()
    for graph_seed, hubs in [(0, 0), (1, 1), (2, 3)]:
        hidden = sparse_host(n, 3, graph_seed, hubs=hubs)
        for params in LOOP_PARAMS:
            for seed in range(2):
                ours = solve_with_loop(loop, hidden, params, seed)
                assert ours == solve_with_loop(step8_reference, hidden, params, seed)
                report = json.loads(ours)
                reached |= {step for step, count in report["cost"]["per_step"].items() if count}
    assert {"Step5", "Step7"} <= reached


@pytest.mark.parametrize("n", [129, 300])
def test_a_budget_crossed_inside_a_batch_bills_as_the_one_vertex_loop(n):
    hidden = sparse_host(n, 3, 1, hubs=1)
    params = LOOP_PARAMS[2]
    batches = []
    with mock.patch.object(solver, "step5_degree_hypothesis",
                           lambda *args: batches.append(step5_degree_hypothesis(*args)) or batches[-1]):
        full = json.loads(solve_with_loop(solver.step8_loop, hidden, params, 0))["cost"]["per_step"]
    # the first batch bills five low rows or more, then stops at a high verdict
    assert len(batches[0]) > 5 and batches[0].tolist() == [False] * (len(batches[0]) - 1) + [True]
    row = math.ceil(params.c0 * math.log(n)) * math.ceil(n**params.delta)
    before = full["Step1"] + full["Step2"]
    for budget in [before + row // 2, before + row, before + 3 * row + 1, before + 5 * row - 1,
                   before + full["Step5"] + full["Step7"] // 2]:
        ours = solve_with_loop(solver.step8_loop, hidden, params, 0, budget)
        assert ours[1].total == budget + 1  # cut by the budget
        assert ours == solve_with_loop(step8_reference, hidden, params, 0, budget)


def test_the_loop_derives_one_step5_key_per_batch_member(monkeypatch):
    """Each batch's keys are those of its visits, derived in one call: a key
    past a HIGH verdict is derived again, as the first of the next batch."""
    derived, batches = [], []
    real_keys, real_step5 = solver.substream_keys, solver.step5_degree_hypothesis

    def keys(seed, *path, start, count):
        derived.append((path, start, count))
        return real_keys(seed, *path, start=start, count=count)

    def step5(oracle, vertices, params, keys):
        verdicts = real_step5(oracle, vertices, params, keys)
        batches.append((len(vertices), len(keys), len(verdicts)))
        return verdicts

    monkeypatch.setattr(solver, "substream_keys", keys)
    monkeypatch.setattr(solver, "step5_degree_hypothesis", step5)
    solve(QueryOracle(sparse_host(300, 3, 1, hubs=1)), LOOP_PARAMS[2], seed=0)
    assert len(derived) == len(batches) > 1
    invocation = 0
    for (path, start, count), (members, taken, visited) in zip(derived, batches):
        assert path == ("step5",) and start == invocation and count == members == taken
        invocation += visited
    assert any(visited < members for members, _, visited in batches)  # a HIGH verdict ended a batch


def test_batched_loop_on_a_yes_instance_finds_the_same_triangle():
    for n, hubs in [(64, 1), (128, 2)]:
        hidden = sparse_host(n, 3, 5, hubs=hubs, triangle=(3, n // 2, n - 1))
        for params in [Params(epsilon=0.1, epsilon_prime=0.3, delta=0.4), Params(epsilon=0.1)]:
            for seed in range(3):
                assert solve_with_loop(solver.step8_loop, hidden, params, seed) == \
                    solve_with_loop(step8_reference, hidden, params, seed)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_upper_rows_are_the_vertices_a_run_of_low_verdicts_visits(data):
    """From a start below which every row is empty, the first `limit` vertices
    that repeated `first_active_vertex` calls visit, each cleared in turn, are
    `upper_rows`; clearing them in one pass leaves the same pairs and floor."""
    working = random_working(data)
    n = working.n
    start = data.draw(st.integers(1, n), label="start")
    working.remove_incident(np.arange(1, start))
    working.floor = data.draw(st.integers(0, n), label="floor")
    limit = data.draw(st.integers(1, BLOCK_CAP), label="limit")
    reference = WorkingGraph(working.graph())
    reference.floor = working.floor
    visited, v = [], start
    while len(visited) < limit and (v := reference.first_active_vertex(v)) is not None:
        visited.append(v)
        reference.remove_incident([v])
    run = working.upper_rows(start, limit)
    assert run.tolist() == visited
    step6_low_degree(working, run)
    assert np.array_equal(working_adj(working), working_adj(reference))
    assert working.floor == reference.floor


def step5_keys(count, *path):
    """`count` Philox keys; `keyed(key)` builds each stream."""
    return seed_keys([[i, *path] for i in range(count)])


def test_step5_zero_degree_is_low():
    oracle = QueryOracle(Graph(64))
    keys = step5_keys(20, 5)
    verdicts = step5_degree_hypothesis(oracle, np.full(20, 5), DEFAULTS, keys)
    assert verdicts.dtype == bool and verdicts.tolist() == [False] * 20  # True is HIGH
    for key in keys:
        assert step5_degree_hypothesis(oracle, [5], DEFAULTS, key[None]).tolist() == [False]


def test_step5_full_degree_is_high():
    g = generate("complete", 64, seed=0)
    oracle = QueryOracle(g, budget=10**9)
    trials = 10_000
    highs = sum(step5_degree_hypothesis(oracle, [1], DEFAULTS, key[None]).tolist() == [True]
                for key in step5_keys(trials, 1))
    assert highs / trials >= 0.999


def step5_reference(oracle, v, params, rng):
    """Step 5 at one vertex as one draw and one billed read per round: True for HIGH."""
    n = oracle.n
    rounds = math.ceil(params.c0 * math.log(n))
    per_round = math.ceil(n**params.delta)
    others = np.array([u for u in range(1, n + 1) if u != v])
    hits = 0
    for _ in range(rounds):
        picks = rng.choice(others, size=per_round, replace=True)
        hits += int(oracle.query_rows([v], [picks], StepTag.STEP5).any())
    return hits >= rounds / 2


def step5_batch_reference(oracle, vertices, params, keys):
    """`step5_reference` vertex by vertex, each on its own stream, through the
    first HIGH verdict."""
    verdicts = []
    for v, key in zip(vertices, keys):
        verdicts.append(step5_reference(oracle, int(v), params, keyed(key)))
        if verdicts[-1]:
            break
    return np.array(verdicts, dtype=bool)


def star(n, v, degree, seed):
    rng = np.random.default_rng(seed)
    others = [u for u in range(1, n + 1) if u != v]
    return Graph(n, [(v, int(u)) for u in rng.choice(others, size=degree, replace=False)])


def test_step5_batch_matches_the_per_round_reference():
    for n in (64, 200):
        v = n // 3
        rounds = math.ceil(DEFAULTS.c0 * math.log(n))
        per_round = math.ceil(n**DEFAULTS.delta)
        for degree in (0, round(n ** (6 / 7)), n - 1):
            hidden = star(n, v, degree, seed=degree)
            # one row; v among low vertices; v near a batch's end; distinct vertices up to BLOCK_CAP
            for vertices in ([v], [1, 2, v, n], list(range(v - 9, v + 1)) + [n], list(range(1, n + 1))):
                for seed in range(3):
                    keys = step5_keys(len(vertices), seed, n)
                    ours, ref = QueryOracle(hidden, budget=10**9), QueryOracle(hidden, budget=10**9)
                    verdicts = step5_degree_hypothesis(ours, np.array(vertices), DEFAULTS, keys)
                    assert verdicts.dtype == bool
                    assert np.array_equal(verdicts, step5_batch_reference(ref, vertices, DEFAULTS, keys))
                    assert ours.report() == ref.report()
                    assert ours.report().per_step["Step5"] == len(verdicts) * rounds * per_round
            # a budget that runs out inside a round, part way through a row of the batch
            vertices = [1, 2, v, n]
            for budget in (rounds // 2 * per_round + per_round // 2,
                           rounds * per_round + 1, 3 * rounds * per_round - 2):
                results = []
                for step5 in (step5_degree_hypothesis, step5_batch_reference):
                    oracle = QueryOracle(hidden, budget=budget)
                    try:
                        results.append(step5(oracle, vertices, DEFAULTS, step5_keys(4, n)).tolist())
                    except BudgetExceededError as err:
                        results.append(str(err))
                    results.append(oracle.report())
                assert results[:2] == results[2:]


@pytest.mark.parametrize("n, v", [(8, 1), (8, 4), (8, 8), (9, 2), (64, 1), (64, 32), (64, 63),
                                  (64, 64), (513, 1), (513, 257), (513, 513)])
def test_step5_draws_are_a_choice_over_the_other_vertices(n, v, monkeypatch):
    drawn = []
    real_query_rows = QueryOracle.query_rows

    def recording(self, vertices, targets, tag, stop=None):
        drawn.append(np.array(targets))
        return real_query_rows(self, vertices, targets, tag, stop)

    monkeypatch.setattr(QueryOracle, "query_rows", recording)
    size = math.ceil(DEFAULTS.c0 * math.log(n)) * math.ceil(n**DEFAULTS.delta)
    vertices = [v, n + 1 - v, v]  # no edge, so every row is low and billed
    for seed in range(5):
        keys = step5_keys(3, seed, n, v)
        drawn.clear()
        step5_degree_hypothesis(QueryOracle(Graph(n), budget=10**9), vertices, DEFAULTS, keys)
        assert len(drawn) == 1 and drawn[0].shape == (3, size)
        for u, key, row in zip(vertices, keys, drawn[0]):
            others = np.array([w for w in range(1, n + 1) if w != u])
            assert np.array_equal(row, keyed(key).choice(others, size=size, replace=True))


def test_step5_charges_exactly():
    n = 64
    oracle = QueryOracle(Graph(n))
    rounds = math.ceil(DEFAULTS.c0 * math.log(n))
    per_round = math.ceil(n**DEFAULTS.delta)
    step5_degree_hypothesis(oracle, [1], DEFAULTS, step5_keys(1))
    assert oracle.report().per_step["Step5"] == rounds * per_round
    step5_degree_hypothesis(oracle, [1, 9, 64], DEFAULTS, step5_keys(3))
    assert oracle.report().per_step["Step5"] == 4 * rounds * per_round


def test_hypothesis_mismatch_logic():
    # verdicts are True for HIGH; a batch mismatches when one of them is wrong
    # for a degree outside the gap, and the gap's own ends are inside it
    low, high = degree_gap(64, 1 / 7)
    mid = int((low + high) / 2)

    def mismatch(degrees, verdicts):
        return hypothesis_mismatch(64, 1 / 7, np.array(degrees), np.array(verdicts, dtype=bool))

    assert mismatch([int(high) + 5], [False])
    assert mismatch([0], [True])
    assert not mismatch([mid, mid], [False, True])
    assert not mismatch([math.floor(high), math.ceil(low)], [False, True])
    assert mismatch([mid, 0, mid], [False, True, True])
    assert mismatch([mid, mid, int(high) + 1], [True, True, False])
    assert not mismatch([], [])


def test_step6_moves_incident_pairs():
    pairs = [(1, 2), (1, 3), (1, 7), (2, 3), (4, 5), (5, 8), (6, 8)]
    working = working_from_pairs(8, pairs)
    working.floor = 9
    step6_low_degree(working, [1])
    assert left_pairs(pairs, working) == [(1, 2), (1, 3), (1, 7)]
    held = working_adj(working)
    step6_low_degree(working, [1])  # a second removal changes neither the pairs nor floor
    assert np.array_equal(working_adj(working), held) and working.floor == 8
    # one pass over a batch: 4 and 5 hold pairs, 1 no longer does
    step6_low_degree(working, np.array([1, 4, 5]))
    assert left_pairs(pairs, working) == [(1, 2), (1, 3), (1, 7), (4, 5), (5, 8)]
    assert working.floor == 6


def test_step7_k4_finds_triangle():
    wins = 0
    for seed in range(120):
        g = generate("complete", 4, seed=0)
        oracle = QueryOracle(g, budget=10**6)
        working = complete_working(4)
        tri = step7_high_degree(oracle, working, 1, DEFAULTS, substream(seed, "s7"), set())
        if tri is not None:  # nothing moves when a triangle is found
            assert np.array_equal(working_adj(working), working_adj(complete_working(4)))
            wins += 1
    assert wins >= 0.99 * 120


def test_step7_bipartite_classifies():
    # hidden star at v=1 with a candidate pair bridging its neighborhood and
    # its candidate neighbors: the bridge moves out, v keeps its own pairs
    g = Graph(8, [(1, 2), (1, 3)])
    oracle = QueryOracle(g, budget=10**6)
    pairs = [(1, 5), (2, 5), (2, 3)]
    working = working_from_pairs(8, pairs)
    events = set()
    tri = step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"), events)
    assert tri is None and not events
    assert left_pairs(pairs, working) == [(2, 5)]
    assert working_adj(working)[1, 5] and working_adj(working)[2, 3]


def test_step7_overlapping_neighborhoods_move_each_pair_once():
    # hidden neighbors 2, 3, 4 of v=1 are also among its candidate neighbors
    # 2..5, so the pairs inside {2, 3, 4} lie between the two sets both ways round
    g = Graph(8, [(1, 2), (1, 3), (1, 4)])
    oracle = QueryOracle(g, budget=10**6)
    v_pairs = [(1, 2), (1, 3), (1, 4), (1, 5)]
    pairs = v_pairs + [(2, 3), (2, 4), (3, 4), (2, 5), (2, 6)]
    working = working_from_pairs(8, pairs)
    with mock.patch.object(WorkingGraph, "remove_between", autospec=True,
                           side_effect=WorkingGraph.remove_between) as spy:
        events = set()
        tri = step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"), events)
    assert tri is None and not events
    (_, hood, nbrs), = [call.args for call in spy.call_args_list]
    assert hood.tolist() == [2, 3, 4] and nbrs.tolist() == [2, 3, 4, 5]
    # the rectangle is cleared both ways round: (2, 3) lies between the sets as
    # (2, 3) and as (3, 2), and leaves once, from both rows
    assert left_pairs(pairs, working) == [(2, 3), (2, 4), (2, 5), (3, 4)]
    assert working.floor == 0  # a batch drops the bound
    assert live_pairs(working) == v_pairs + [(2, 6)]
    assert_counts_consistent(working)


def test_step7_query_accounting():
    g = Graph(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])
    oracle = QueryOracle(g, budget=10**6)
    working = working_from_pairs(8, list(g.edges()))
    step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"), set())
    rep = oracle.report()
    assert rep.per_step["Step7"] >= 7  # the classical neighborhood reveal
    cap = math.ceil(2.0 * math.log2(6)) * math.ceil(math.pi / 4 * math.sqrt(6))
    assert rep.per_step["Step7"] <= 7 + cap


def test_step7_no_progress_fallback():
    # v=1 is adjacent (hidden) to 2,3, but its only candidate pairs go to 5,6:
    # nothing lies between the two sets, so the fallback clears v's pairs,
    # and none of them is a hidden edge
    g = Graph(6, [(1, 2), (1, 3)])
    oracle = QueryOracle(g, budget=10**6)
    working = working_from_pairs(6, [(1, 5), (1, 6)])
    events = set()
    tri = step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"), events)
    assert tri is None and events == {"step7_no_progress"}
    moved = left_pairs([(1, 5), (1, 6)], working)
    assert moved == [(1, 5), (1, 6)]
    assert all(not g.has_edge(a, b) for a, b in moved)
    assert np.count_nonzero(working_adj(working)) // 2 == 0


def test_step9_trivial_cases():
    oracle = QueryOracle(Graph(8))
    tri, count = step9_search_T(oracle, Graph(8, [(1, 2), (3, 4)]), DEFAULTS, substream(0, "s9"), set())
    assert tri is None and count == 0
    assert oracle.report().total == 0


def test_step9_finds_spanned_triangle():
    g = Graph(8, [(1, 2), (2, 3), (1, 3)])
    wins = 0
    for seed in range(100):
        oracle = QueryOracle(g, budget=10**6)
        tri, count = step9_search_T(
            oracle, Graph(8, [(1, 2), (2, 3), (1, 3), (4, 5)]), DEFAULTS, substream(seed, "s9"), set()
        )
        assert count == 1
        if tri == (1, 2, 3):
            wins += 1
    assert wins >= 95


def test_step9_triangle_free_hidden_graph():
    g = Graph(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])
    pool = Graph(8, [(1, 2), (2, 3), (1, 3)])  # spans a triangle, not in the hidden graph
    for seed in range(50):
        oracle = QueryOracle(g, budget=10**6)
        tri, count = step9_search_T(oracle, pool, DEFAULTS, substream(seed, "s9"), set())
        assert tri is None and count == 1


@pytest.mark.parametrize("seed", range(6))
def test_triangle_space_counts_marked_triangles_in_the_intersection(seed, monkeypatch):
    # the marked count is `triangle_count(hidden & pool)`, with size 0 (the
    # intersection never formed) and marked 0 among the cases; every draw is marked
    n = 12 + 3 * seed
    rng = np.random.default_rng(seed)
    blowup = generate("bipartite_blowup", n, seed=seed)
    intersections = []
    real_and = Graph.__and__
    monkeypatch.setattr(Graph, "__and__", lambda a, b: intersections.append(1) or real_and(a, b))
    for hidden, density in [(generate("erdos_renyi", n, seed=seed, p=0.6), 0.5), (blowup, 0.7),
                            (generate("complete", n, seed=seed), 0.3), (blowup, 0.0)]:
        pool = Graph(n, [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if rng.random() < density])
        intersections.clear()
        space = _triangle_space(hidden, pool)
        assert space.size == triangle_count(pool)
        assert len(intersections) == (space.size > 0)
        assert space.marked_count == triangle_count(real_and(hidden, pool))
        marked = marked_triangles(hidden, pool)
        assert space.marked_count == len(marked)
        assert (space.draw_marked is None) == (not marked)
        for draw in range(20 if marked else 0):
            tri = space.draw_marked(substream(seed, "draw", draw))
            assert tri in marked
            for cells in test_graphs.SMALL_BANDS:  # a band at a time, the same pick from the same draws
                with monkeypatch.context() as patch:
                    patch.setattr(graphs, "BAND_CELLS", cells)
                    assert space.draw_marked(substream(seed, "draw", draw)) == tri


def test_step9_weighs_no_pair_when_its_search_misses(monkeypatch):
    # the pair weights are built by the sampler only, which runs after a hit
    calls, common_bands = [], solver.common_bands
    monkeypatch.setattr(solver, "common_bands", lambda x: calls.append(x.shape) or common_bands(x))
    hidden = Graph(8, [(1, 2), (2, 3), (1, 3), (5, 6), (6, 7), (5, 7)])
    blowup = Graph(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])
    pool = Graph(8, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    events = set()
    tri, count = step9_search_T(QueryOracle(blowup), pool, DEFAULTS, substream(0, "s9"), events)
    assert (tri, count, events) == (None, 2, set()) and calls == []  # nothing marked
    with monkeypatch.context() as patch:
        patch.setattr("qtri.grover.amplified_prob", lambda base, iterations: 0.0)
        tri, count = step9_search_T(QueryOracle(hidden), pool, DEFAULTS, substream(0, "s9"), events)
    assert (tri, count, events) == (None, 2, {"safe_grover_miss"}) and calls == []  # one marked, every attempt missed
    tri, count = step9_search_T(QueryOracle(hidden), pool, DEFAULTS, substream(0, "s9"), set())
    assert tri == (1, 2, 3) and len(calls) == 1


def test_step10_empty():
    oracle = QueryOracle(Graph(8))
    assert step10_search_E(oracle, Graph(8), substream(0, "s10")) is None


def test_step10_planted_edge_in_pool():
    g = Graph(8, [(1, 2), (2, 3), (1, 3)])
    wins = 0
    for seed in range(200):
        oracle = QueryOracle(g, budget=10**6)
        pool = Graph(8, [(1, 2), (4, 5), (6, 7)])
        tri = step10_search_E(oracle, pool, substream(seed, "s10"))
        if tri == (1, 2, 3):
            wins += 1
    assert wins / 200 >= 2 / 3


def marked_triangles(hidden, pool):
    """Brute force: the triangles a < b < c of `pool` whose pairs are all hidden edges."""
    both = {pair for pair in pool.edges() if hidden.has_edge(*pair)}
    return {(a, b, c) for a, b in both for c in range(b + 1, hidden.n + 1)
            if (a, c) in both and (b, c) in both}


def step10_apex_counts(hidden, pool):
    """The (pool size, g) of step 10's edge search and the nonzero per-pair apex
    counts of its first amplified round, in g-pair order, read off the calls to
    `grover_success_prob`."""
    calls = []

    def recording(size, marked, iterations):
        calls.append((size, marked))
        return grover_success_prob(size, marked, iterations)

    with mock.patch("qtri.grover.grover_success_prob", recording):
        step10_search_E(QueryOracle(hidden, budget=10**9), pool, substream(0, "s10"))
    return calls[0], [marked for _, marked in calls[1:]]


def expected_apex_counts(hidden, pool):
    """Step 10's (pool size, g) and nonzero per-pair counts, from the whole hidden matrix."""
    adj = hidden.adjacency()
    rows, cols = np.nonzero(np.triu(adj & pool.adjacency(), 1))
    counts = brute_counts(adj)[rows, cols]
    return (pool.edge_count, len(rows)), counts[counts > 0].tolist()


def assert_late_steps_use_global_labels(hidden, pool, seeds):
    marked = marked_triangles(hidden, pool)
    space = _triangle_space(hidden, pool)
    assert space.size == triangle_count(pool)
    assert space.marked_count == len(marked)
    drawn = [space.draw_marked(substream(seed, "draw")) for seed in range(seeds)] if marked else []
    assert set(drawn) <= marked
    with mock.patch.object(graphs, "BAND_CELLS", 1):  # one-row bands: the same counts and picks
        assert triangle_count(pool) == space.size
        if marked:
            assert [space.draw_marked(substream(seed, "draw")) for seed in range(seeds)] == drawn
    (size, g), counts = expected_apex_counts(hidden, pool)
    if g:  # step 10 runs its edge search only when the pool holds a hidden edge
        first, recorded = step10_apex_counts(hidden, pool)
        assert first == (size, g)
        assert recorded[:len(counts)] == counts
    return set(drawn)


def test_late_steps_at_high_sparse_labels():
    # hidden triangles (3, 6, 8) and (5, 6, 8); vertex 2 hangs off 8
    hidden = Graph(8, [(3, 6), (3, 8), (6, 8), (5, 6), (5, 8), (2, 8)])
    # pool triangles (3, 6, 8), (5, 6, 8) and (6, 7, 8); 1, 2 and 4 are isolated
    t_pool = Graph(8, [(3, 6), (3, 8), (6, 8), (5, 6), (5, 8), (6, 7), (7, 8)])
    assert assert_late_steps_use_global_labels(hidden, t_pool, 200) == {(3, 6, 8), (5, 6, 8)}
    # step 10 over the g pairs (2, 8), (3, 8), (5, 6), (6, 8): the apexes are 6, 8 and {3, 5}
    e_pool = Graph(8, [(2, 8), (3, 8), (5, 6), (6, 8), (1, 4)])
    assert expected_apex_counts(hidden, e_pool) == ((5, 4), [1, 1, 2])
    assert_late_steps_use_global_labels(hidden, e_pool, 200)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_late_steps_over_scattered_labels(data):
    n = data.draw(st.integers(MIN_N, 14), label="n")
    labels = sorted(data.draw(st.lists(st.integers(1, n), unique=True, max_size=n), label="labels"))
    everything = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]]

    def subset(label):
        keep = data.draw(st.lists(st.booleans(), min_size=len(everything),
                                  max_size=len(everything)), label=label)
        return [pair for pair, k in zip(everything, keep) if k]

    assert_late_steps_use_global_labels(Graph(n, subset("hidden")), Graph(n, subset("pool")), 20)


# ---------------------------------------------------------------------------
# End-to-end


def test_solve_requires_n_at_least_8():
    assert MIN_N == 8
    with pytest.raises(ValueError, match="solver needs n >= 8"):
        solve(QueryOracle(Graph(MIN_N - 1)), DEFAULTS, seed=0)
    solve(QueryOracle(Graph(MIN_N)), DEFAULTS, seed=0)


def test_one_sided_on_triangle_free_families():
    fixtures = [
        generate("bipartite_blowup", 8, seed=0),
        generate("bipartite_blowup", 16, seed=0),
        generate("triangle_free_dense", 40, seed=0),
    ]
    for g in fixtures:
        for seed in range(25):
            report = solve(QueryOracle(g), DEFAULTS, seed=seed)
            assert report.outcome is None


@settings(max_examples=25, deadline=None)
@given(n=st.integers(MIN_N, 40), density=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
       graph_seed=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**16))
def test_solve_on_random_bipartite_hosts(n, density, graph_seed, seed):
    rng = np.random.default_rng(graph_seed)
    host = Graph(n, random_pairs(rng, n, density, sides=rng.random(n + 1) < 0.5))
    report = solve(QueryOracle(host), DEFAULTS, seed=seed)
    assert report.outcome is None  # one-sided: a triangle-free graph yields "no"
    cost = report.cost
    assert cost.total == cost.classical + cost.charged == sum(cost.per_step.values())
    m = report.measured
    assert m["T_size"] + m["E_size"] == m["gprime_size"]
    assert m["G_cap_E"] <= m["E_size"]


def test_small_planted_triangle_found():
    g = Graph(8, [(1, 2), (2, 3), (1, 3)])
    wins = 0
    for seed in range(100):
        report = solve(QueryOracle(g), DEFAULTS, seed=seed)
        if report.outcome is not None:
            assert report.outcome == (1, 2, 3)
            wins += 1
    assert wins / 100 >= 2 / 3


def test_planted_dense_found():
    wins = 0
    for seed in range(60):
        g = generate("planted_triangle", 64, seed=seed, p=0.5)
        report = solve(QueryOracle(g), DEFAULTS, seed=seed)
        if report.outcome is not None:
            a, b, c = report.outcome
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            wins += 1
    assert wins / 60 >= 2 / 3


def host_with_unseen_triangle(n, params, graph_seed, seed):
    """A random bipartite host of mean degree 3 plus one triangle on vertices
    that step 1 of `solve(..., params, seed)` does not sample, so step 2
    cannot see it.  Returns the graph and the triangle, its only one."""
    rng = np.random.default_rng(graph_seed)
    pairs = random_pairs(rng, n, 6 / n, sides=rng.random(n + 1) < 0.5)
    host = Graph(n, pairs)
    sample, _ = step1_sample(QueryOracle(Graph(n)), params, substream(seed, "step1"))
    unseen = np.setdiff1d(np.arange(1, n + 1), sample)
    while True:  # no two triangle vertices may share a host neighbour
        tri = tuple(sorted(int(x) for x in rng.choice(unseen, size=3, replace=False)))
        hoods = [set(np.flatnonzero(row).tolist()) for row in host.rows(tri).dense()]
        if not (hoods[0] & hoods[1] or hoods[0] & hoods[2] or hoods[1] & hoods[2]):
            a, b, c = tri
            return Graph(n, pairs + [(a, b), (b, c), (a, c)]), tri


def host_with_unseen_hub_triangle(n, params, graph_seed, seed):
    """The host of `host_with_unseen_triangle` whose one triangle hangs off a
    hub: h, the smallest vertex that step 1 of `solve(..., params, seed)` does
    not sample, is joined to each vertex on the other side with probability
    1/2, and two more unsampled vertices a and b lose their host pairs and
    gain (h, a), (h, b) and (a, b).  No sampled vertex is adjacent to two of
    h, a and b.  Returns the graph and the triangle."""
    rng = np.random.default_rng(graph_seed)
    sides = rng.random(n + 1) < 0.5
    pairs = random_pairs(rng, n, 6 / n, sides=sides)
    sample, _ = step1_sample(QueryOracle(Graph(n)), params, substream(seed, "step1"))
    unseen = np.setdiff1d(np.arange(1, n + 1), sample)
    h = int(unseen[0])
    pairs += [canon_pair(h, u) for u in range(1, n + 1) if sides[u] != sides[h] and rng.random() < 0.5]
    a, b = sorted(int(x) for x in rng.choice(unseen[1:], size=2, replace=False))
    pairs = {pair for pair in pairs if a not in pair and b not in pair}
    return Graph(n, sorted(pairs | {canon_pair(h, a), canon_pair(h, b), (a, b)})), tuple(sorted((h, a, b)))


def deciding_step(cost):
    """The last step before verification that billed anything."""
    return [step for step, count in cost.per_step.items() if count and step != "Verify"][-1]


@pytest.mark.parametrize("n", [128, 256])
def test_unseen_planted_triangle_is_found_by_the_late_steps(n):
    # a cut epsilon keeps the sample far below n, so the triangle is left to
    # the peel, the degree classification and the searches over T and E
    late = []
    for params in (Params(epsilon=0.1), Params(epsilon=0.1, epsilon_prime=0.3, delta=0.4)):
        for seed in range(6):
            g, tri = host_with_unseen_triangle(n, params, graph_seed=seed, seed=seed)
            assert triangle_count(g) == 1
            report = solve(QueryOracle(g), params, seed=seed)
            assert report.outcome == tri
            assert report.cost.per_step["Verify"] >= 3
            assert report.measured["gprime_size"] > 0  # step 2 saw nothing
            late.append(deciding_step(report.cost))
    assert set(late) & {"Step7", "Step9", "Step10"}


def test_unseen_hub_triangle_is_the_host_s_only_one():
    for seed in range(4):
        g, tri = host_with_unseen_hub_triangle(256, DEFAULTS, graph_seed=seed, seed=seed)
        sample, _ = step1_sample(QueryOracle(Graph(256)), DEFAULTS, substream(seed, "step1"))
        assert triangle_count(g) == 1 and all(g.has_edge(*pair) for pair in itertools.combinations(tri, 2))
        assert not set(tri) & set(sample)
        assert (g.rows(sample).at(np.repeat([tri], len(sample), axis=0)).sum(axis=1) <= 1).all()
        assert tri[0] == min(set(range(1, 257)) - set(sample))  # the hub is the smallest unsampled label
        assert g.degrees()[tri[0]] > 40


EVENT_HOSTS = {
    # every safe search misses, so step 2's marked searches do
    "safe_grover_miss": (lambda: generate("planted_triangle", 64, 2, p=0.3), Params(),
                         ("qtri.grover.amplified_prob", lambda base, iterations: 0.0)),
    # with no sampled row G' keeps every pair of K_64, each with 62 common neighbours
    "gprime_violation": (lambda: generate("complete", 64, 0), Params(),
                         ("qtri.solver.step1_sample",
                          lambda oracle, params, rng: ([], oracle.read_rows([], StepTag.STEP1)))),
    # an empty gap puts every verdict outside it
    "hypothesis_mismatch": (test_golden.CASES["host64_no"][0], Params(),
                            ("qtri.solver.degree_gap", lambda n, delta: (n, -1))),
    # the golden stall host raises it unpatched
    "step7_no_progress": (*test_golden.CASES["host128_hub_step7_stall_no"][:2], None),
}


@pytest.mark.parametrize("event", sorted(EVENT_HOSTS))
def test_every_event_reaches_the_report(event):
    # each event is detected inside one step and must reach the run's report;
    # a patched run raises it, and the same run without its patch does not
    build, params, patch = EVENT_HOSTS[event]
    hidden = build()
    if patch is not None:
        assert event not in solve(QueryOracle(hidden), params, seed=0).events
    with mock.patch(*patch) if patch else contextlib.nullcontext():
        assert event in solve(QueryOracle(hidden), params, seed=0).events


def test_run_is_deterministic_per_seed():
    g = generate("planted_triangle", 32, seed=9, p=0.2)
    a = solve(QueryOracle(g), DEFAULTS, seed=4)
    b = solve(QueryOracle(g), DEFAULTS, seed=4)
    assert a.to_json() == b.to_json()


def test_partition_and_peeled_triangle_bound():
    for seed in range(10):
        g = generate("erdos_renyi", 24, seed=seed, p=0.15)
        report = solve(QueryOracle(g), DEFAULTS, seed=seed)
        m = report.measured
        if report.outcome is None:
            assert m["T_size"] + m["E_size"] == m["gprime_size"]
        n = g.n
        tau = peel_threshold(n, DEFAULTS.epsilon_prime)
        assert m["t_of_T"] <= m["T_size"] * (tau - 1)


def test_ledger_step1_exact_in_solve():
    g = generate("erdos_renyi", 32, seed=2, p=0.1)
    report = solve(QueryOracle(g), DEFAULTS, seed=2)
    k = sample_count(32, DEFAULTS.epsilon)
    assert report.cost.per_step["Step1"] == k * 31


def test_budget_never_trips_on_defaults():
    for seed in range(5):
        g = generate("erdos_renyi", 48, seed=seed, p=0.3)
        report = solve(QueryOracle(g), DEFAULTS, seed=seed)
        assert report.cost.budget is not None
        assert report.cost.total <= report.cost.budget


def test_intersection_size_within_analysis_bound():
    n = 64
    bound = 10 * (n ** (2 - 1 / 7) + n ** (2 - 3 / 7 + 2 / 7))
    for seed in range(25):
        g = generate("erdos_renyi", n, seed=seed, p=0.5)
        report = solve(QueryOracle(g), DEFAULTS, seed=seed)
        assert report.measured["G_cap_E"] <= bound


def test_report_json_schema():
    g = generate("planted_triangle", 16, seed=0, p=0.3)
    report = solve(QueryOracle(g), DEFAULTS, seed=1)
    obj = report.to_json()
    assert set(obj) == {"n", "seed", "params", "outcome", "cost", "events", "measured"}
    assert set(obj["params"]) == {"epsilon", "epsilon_prime", "delta", "c_safe", "c0"}
    assert obj["outcome"]["type"] in {"triangle", "no"}
    assert set(obj["measured"]) == {"gprime_size", "T_size", "E_size", "G_cap_E", "t_of_T"}
    json.dumps(obj)  # serialisable


def test_params_validation():
    with pytest.raises(ValueError):
        Params(epsilon=0.0)
    with pytest.raises(ValueError):
        Params(c_safe=0.5)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            Params(c_safe=bad)
        with pytest.raises(ValueError, match="must be finite"):
            Params(c0=bad)
    assert cost_terms(Params(epsilon=0.1, epsilon_prime=0.05, delta=0.06)).degenerate
    assert not cost_terms(Params()).degenerate
