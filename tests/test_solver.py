"""Step-by-step and end-to-end solver tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtri import Graph, Params, QueryOracle, generate, solve, triangle_count
from qtri.graphs import canon_pair
from qtri.rng import substream
from qtri.solver import (
    Hypothesis,
    WorkingGraph,
    _induced_pair_space,
    _triangle_space,
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
    step9_search_T,
    step10_search_E,
)

DEFAULTS = Params()


def working_from_pairs(n, pairs):
    adj = np.zeros((n + 1, n + 1), dtype=bool)
    for a, b in pairs:
        adj[a, b] = adj[b, a] = True
    return WorkingGraph(n, adj)


def complete_working(n):
    adj = np.ones((n + 1, n + 1), dtype=bool)
    adj[0, :] = adj[:, 0] = False
    np.fill_diagonal(adj, False)
    return WorkingGraph(n, adj)


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

        members = [int(v) + 1 for v in rng.permutation(n)[: n // 2]]  # not sorted
        hoods = [[u for u in sorted(members) if u != v and hidden.has_edge(u, v)] for v in members]
        space = _induced_pair_space(hidden, members)
        cum = np.cumsum([len(hood) for hood in hoods])
        assert space.marked_count == cum[-1] // 2 > 0
        ref, rng_space = substream(seed, "pair"), substream(seed, "pair")
        for _ in range(20):
            pick = int(np.searchsorted(cum, ref.integers(cum[-1]), side="right"))
            w = hoods[pick][int(ref.integers(len(hoods[pick])))]
            assert space.draw_marked(rng_space) == (min(members[pick], w), max(members[pick], w))


def test_sample_count_values():
    assert sample_count(1024, 3 / 7) == 541
    assert math.ceil(4 * 16 ** (3 / 7) * math.log(16)) == 37
    assert sample_count(16, 3 / 7) == 16


def test_step1_charges_exactly():
    oracle = QueryOracle(generate("erdos_renyi", 64, seed=1, p=0.5))
    sample, hoods = step1_sample(oracle, DEFAULTS, substream(0, "s1"))
    k = sample_count(64, DEFAULTS.epsilon)
    assert len(sample) == len(set(sample)) == k
    assert oracle.report().per_step["Step1"] == k * 63
    assert oracle.report().total == k * 63
    for v, hood in hoods.items():
        assert set(hood) == {u for u in range(1, 65) if u != v and oracle.hidden.has_edge(u, v)}


def test_step2_c5_all_vertices():
    # pentagon: every sampled neighborhood square is the single opposite pair
    g = Graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    oracle = QueryOracle(g, budget=10**6)
    sample = [1, 2, 3, 4, 5]
    hoods = {v: sorted({u for u in range(1, 6) if u != v and g.has_edge(u, v)}) for v in sample}
    tri, working, _ = step2_build_gprime(oracle, sample, hoods, DEFAULTS, substream(0, "s2"))
    assert tri is None
    kept = {(a, b) for a, b in working.pairs()}
    diagonals = {(2, 5), (1, 3), (2, 4), (3, 5), (1, 4)}
    assert kept == {(a, b) for a in range(1, 6) for b in range(a + 1, 6)} - diagonals
    assert all(pair in kept for pair in g.edges())  # hidden edges survive


def test_step2_empty_graph_keeps_everything():
    g = Graph(8)
    oracle = QueryOracle(g)
    sample = list(range(1, 9))
    hoods = {v: [] for v in sample}
    tri, working, missed = step2_build_gprime(oracle, sample, hoods, DEFAULTS, substream(1, "s2"))
    assert tri is None and not missed
    assert working.pair_count == 28


def test_step2_dense_finds_triangle():
    wins = 0
    for seed in range(120):
        g = generate("erdos_renyi", 10, seed=seed, p=1.0)
        oracle = QueryOracle(g, budget=10**6)
        sample = [1]
        hoods = {1: list(range(2, 11))}
        tri, _, _ = step2_build_gprime(oracle, sample, hoods, DEFAULTS, substream(seed, "s2"))
        if tri is not None:
            a, b, c = tri
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            wins += 1
    assert wins >= 0.99 * 120


def test_step4_peel_complete_candidates():
    working = complete_working(8)
    moved = step4_peel(working, tau=8)  # every pair has 6 common candidates
    assert len(moved) == 28
    assert working.pair_count == 0


def test_step4_peel_empty():
    working = working_from_pairs(8, [])
    assert step4_peel(working, tau=5) == []


def test_step4_postcondition():
    working = complete_working(8)
    tau = peel_threshold(8, DEFAULTS.epsilon_prime)  # 6: all counts are 6, none below
    step4_peel(working, tau)
    t = working.t
    for a, b in working.pairs():
        assert t[a, b] >= tau


def assert_counts_consistent(working):
    adj = working.adj
    assert np.array_equal(adj, adj.T) and not adj[0].any() and not np.diag(adj).any()
    assert working.pair_count == int(np.count_nonzero(adj)) // 2
    ints = adj.astype(np.int64)
    ref = ints @ ints
    off = ~np.eye(working.n + 1, dtype=bool)  # the diagonal is never read
    assert np.array_equal(working.t[off], ref[off])


def random_working(data, n_max=16):
    n = data.draw(st.integers(4, n_max), label="n")
    everything = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(everything),
                              max_size=len(everything)), label="keep")
    return working_from_pairs(n, [pair for pair, k in zip(everything, keep) if k])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_removals_keep_counts_consistent(data):
    # batches of every size up to the whole set fall on both sides of
    # remove_pairs' switch between pair-by-pair updates and a recount
    working = random_working(data)
    held_t = working.t  # a caller holding the count matrix must see every update
    for _ in range(data.draw(st.integers(1, 6), label="ops")):
        live = working.pairs()
        op = data.draw(st.sampled_from(["pair", "incident", "pairs"]), label="op")
        if op == "incident":
            v = data.draw(st.integers(1, working.n), label="v")
            moved = working.remove_incident(v)
            assert sorted(moved) == [pair for pair in live if v in pair]
        elif live and op == "pair":
            working.remove_pair(*data.draw(st.sampled_from(live), label="pair"))
        elif live:
            size = data.draw(st.integers(0, len(live)), label="size")
            batch = data.draw(st.permutations(live), label="batch")[:size]
            working.remove_pairs(batch)
            assert not any(working.has(a, b) for a, b in batch)
        assert working.t is held_t
        assert_counts_consistent(working)


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
    before = working.pairs()
    moved = step4_peel(working, tau)
    assert len(moved) == len(set(moved))
    assert set(moved) == peel_reference(working.n, before, tau)
    assert set(working.pairs()) == set(before) - set(moved)
    assert all(working.t[a, b] >= tau for a, b in working.pairs())
    assert_counts_consistent(working)


def test_step5_zero_degree_is_low():
    oracle = QueryOracle(Graph(64))
    for seed in range(20):
        verdict = step5_degree_hypothesis(oracle, 5, DEFAULTS, substream(seed, "s5"))
        assert verdict is Hypothesis.LOW


def test_step5_full_degree_is_high():
    g = generate("complete", 64, seed=0)
    oracle = QueryOracle(g, budget=10**9)
    highs = 0
    trials = 10_000
    for seed in range(trials):
        if step5_degree_hypothesis(oracle, 1, DEFAULTS, substream(seed, "s5")) is Hypothesis.HIGH:
            highs += 1
    assert highs / trials >= 0.999


def test_step5_charges_exactly():
    n = 64
    oracle = QueryOracle(Graph(n))
    step5_degree_hypothesis(oracle, 1, DEFAULTS, substream(0, "s5"))
    rounds = math.ceil(DEFAULTS.c0 * math.log(n))
    per_round = math.ceil(n**DEFAULTS.delta)
    assert oracle.report().per_step["Step5"] == rounds * per_round


def test_hypothesis_mismatch_logic():
    low, high = degree_gap(64, 1 / 7)
    assert hypothesis_mismatch(64, 1 / 7, int(high) + 5, Hypothesis.LOW)
    assert hypothesis_mismatch(64, 1 / 7, 0, Hypothesis.HIGH)
    assert not hypothesis_mismatch(64, 1 / 7, int((low + high) / 2), Hypothesis.LOW)
    assert not hypothesis_mismatch(64, 1 / 7, int((low + high) / 2), Hypothesis.HIGH)


def test_step6_moves_incident_pairs():
    working = working_from_pairs(8, [(1, 2), (1, 3), (1, 7), (2, 3)])
    moved = step6_low_degree(working, 1)
    assert sorted(moved) == [(1, 2), (1, 3), (1, 7)]
    assert working.degree(1) == 0
    assert step6_low_degree(working, 1) == []  # idempotent
    assert working.pair_count == 1


def test_step7_k4_finds_triangle():
    wins = 0
    for seed in range(120):
        g = generate("complete", 4, seed=0)
        oracle = QueryOracle(g, budget=10**6)
        working = complete_working(4)
        tri, moved, _, _ = step7_high_degree(oracle, working, 1, DEFAULTS, substream(seed, "s7"))
        if tri is not None:
            wins += 1
    assert wins >= 0.99 * 120


def test_step7_bipartite_classifies():
    # hidden star at v=1 with a candidate pair bridging its neighborhood and
    # its candidate neighbors: the bridge moves out, v keeps its own pairs
    g = Graph(8, [(1, 2), (1, 3)])
    oracle = QueryOracle(g, budget=10**6)
    working = working_from_pairs(8, [(1, 5), (2, 5), (2, 3)])
    tri, moved, missed, stalled = step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"))
    assert tri is None and not missed and not stalled
    assert sorted(moved) == [(2, 5)]
    assert working.has(1, 5) and working.has(2, 3)


def test_step7_query_accounting():
    g = Graph(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])
    oracle = QueryOracle(g, budget=10**6)
    working = working_from_pairs(8, list(g.edges()))
    step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"))
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
    tri, moved, _, stalled = step7_high_degree(oracle, working, 1, DEFAULTS, substream(0, "s7"))
    assert tri is None and stalled
    assert sorted(moved) == [(1, 5), (1, 6)]
    assert all(not g.has_edge(a, b) for a, b in moved)
    assert working.pair_count == 0


def test_step9_trivial_cases():
    oracle = QueryOracle(Graph(8))
    tri, count, _ = step9_search_T(oracle, [(1, 2), (3, 4)], DEFAULTS, substream(0, "s9"))
    assert tri is None and count == 0
    assert oracle.report().total == 0


def test_step9_finds_spanned_triangle():
    g = Graph(8, [(1, 2), (2, 3), (1, 3)])
    wins = 0
    for seed in range(100):
        oracle = QueryOracle(g, budget=10**6)
        tri, count, _ = step9_search_T(
            oracle, [(1, 2), (2, 3), (1, 3), (4, 5)], DEFAULTS, substream(seed, "s9")
        )
        assert count == 1
        if tri == (1, 2, 3):
            wins += 1
    assert wins >= 95


def test_step9_triangle_free_hidden_graph():
    g = Graph(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])
    pairs = [(1, 2), (2, 3), (1, 3)]  # spans a triangle, but not in the hidden graph
    for seed in range(50):
        oracle = QueryOracle(g, budget=10**6)
        tri, count, _ = step9_search_T(oracle, pairs, DEFAULTS, substream(seed, "s9"))
        assert tri is None and count == 1


def test_step10_empty():
    oracle = QueryOracle(Graph(8))
    assert step10_search_E(oracle, [], DEFAULTS, substream(0, "s10")) is None


def test_step10_planted_edge_in_pool():
    g = Graph(8, [(1, 2), (2, 3), (1, 3)])
    wins = 0
    for seed in range(200):
        oracle = QueryOracle(g, budget=10**6)
        tri = step10_search_E(oracle, [(1, 2), (4, 5), (6, 7)], DEFAULTS, substream(seed, "s10"))
        if tri == (1, 2, 3):
            wins += 1
    assert wins / 200 >= 2 / 3


# ---------------------------------------------------------------------------
# End-to-end


def test_solve_requires_n_at_least_8():
    with pytest.raises(ValueError):
        solve(QueryOracle(Graph(5)), DEFAULTS, seed=0)


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
        assert m["t_of_T"] <= (n * (n - 1) // 2) * tau


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
    assert Params(epsilon=0.1, epsilon_prime=0.05, delta=0.06).degenerate
    assert not Params().degenerate
