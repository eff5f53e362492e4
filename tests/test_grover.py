"""Search-model tests: exact probabilities against a state-vector oracle,
`safe_grover`'s success rate against its analytic value, and billing caps."""

import copy
import math

import numpy as np
import pytest
import qtri.rng
from hypothesis import given, settings
from hypothesis import strategies as st

from qtri import (
    BudgetExceededError,
    Graph,
    QueryOracle,
    SearchSpace,
    StepTag,
    edge_restricted_triangle_search,
    grover_success_prob,
    safe_grover,
)
from qtri import grover
from qtri.grover import (
    AA_COST_CONSTANT,
    GroverOutcome,
    bill_sure_misses,
    iteration_cap,
    mean_success_prob,
)
from qtri.rng import keyed, lemire_draws, seed_keys, substream

DUMMY = Graph(8)


def statevector_success(size: int, marked: set[int], iterations: int) -> float:
    """Independent oracle: run the textbook iteration on an explicit vector."""
    state = np.full(size, 1.0 / math.sqrt(size))
    mask = np.array([i in marked for i in range(size)])
    for _ in range(iterations):
        state = np.where(mask, -state, state)  # phase flip
        state = 2.0 * state.mean() - state  # inversion about the mean
    return float((state[mask] ** 2).sum())


def fresh_oracle() -> QueryOracle:
    return QueryOracle(DUMMY, budget=10**9)


def test_success_prob_trivial_cases():
    assert grover_success_prob(10, 0, 3) == 0.0
    assert grover_success_prob(7, 7, 0) == 1.0
    assert grover_success_prob(4, 1, 1) == pytest.approx(1.0, abs=1e-12)


def test_success_prob_matches_statevector():
    for size, marked, k in [(4, {2}, 1), (8, {1, 5}, 2), (16, {3}, 3), (32, {0, 7, 9}, 2)]:
        want = statevector_success(size, marked, k)
        got = grover_success_prob(size, len(marked), k)
        assert got == pytest.approx(want, abs=1e-12)


def test_success_prob_validation():
    with pytest.raises(ValueError):
        grover_success_prob(0, 0, 0)
    with pytest.raises(ValueError):
        grover_success_prob(4, 5, 0)
    with pytest.raises(ValueError):
        grover_success_prob(4, 1, -1)


def test_mean_success_prob_matches_direct_sum():
    for size, marked, k_range in [(64, 1, 7), (256, 16, 13), (9, 4, 3), (10**15, 1, 1000)]:
        direct = sum(grover_success_prob(size, marked, k) for k in range(k_range)) / k_range
        assert mean_success_prob(size, marked, k_range) == pytest.approx(direct, abs=1e-12)


def test_all_marked_found_on_first_attempt():
    space = SearchSpace.explicit(16, range(16), q_test=2)
    out = safe_grover(space, 1.0, fresh_oracle(), StepTag.STEP2, substream(0, "a"))
    assert out.found is not None
    assert out.attempts == 1
    assert out.queries_charged <= iteration_cap(16) * space.q_test


def test_nothing_marked_costs_capped_per_attempt():
    space = SearchSpace.explicit(256, [], q_test=1)
    cap = iteration_cap(256)
    for seed in range(20):
        oracle = fresh_oracle()
        out = safe_grover(space, 1.0, oracle, StepTag.STEP2, substream(seed, "b"))
        assert out.found is None
        assert out.attempts == math.ceil(math.log2(256))
        assert out.queries_charged == oracle.report().charged
        assert out.queries_charged <= out.attempts * cap * space.q_test


def test_found_items_are_marked():
    marked = {3, 11, 17}
    space = SearchSpace.explicit(32, marked, q_test=1)
    for seed in range(200):
        out = safe_grover(space, 1.0, fresh_oracle(), StepTag.STEP2, substream(seed, "c"))
        if out.found is not None:
            assert out.found in marked


def safe_success_prob(size: int, marked: int, c: float) -> float:
    """ceil(c * log2(N)) independent runs, each a uniform draw below the cap."""
    miss = 1.0 - mean_success_prob(size, marked, iteration_cap(size))
    return 1.0 - miss ** math.ceil(c * math.log2(size))


def test_schedule_statistics_match_mixture():
    trials = 3000
    for size, marked in [(4, 1), (64, 1), (256, 16)]:
        analytic = safe_success_prob(size, marked, 1.0)
        wins = 0
        space = SearchSpace.explicit(size, range(marked), q_test=1)
        for seed in range(trials):
            out = safe_grover(space, 1.0, fresh_oracle(), StepTag.STEP2, substream(seed, "d", size))
            wins += out.found is not None
        se = math.sqrt(max(analytic * (1 - analytic), 1e-9) / trials)
        assert abs(wins / trials - analytic) <= 4 * se


def test_unknown_count_mean_cost():
    # expected cost stays within a small multiple of the iteration cap
    space = SearchSpace.explicit(1024, [0], q_test=1)
    costs = []
    wins = 0
    for seed in range(1000):
        out = safe_grover(space, 1.0, fresh_oracle(), StepTag.STEP2, substream(seed, "e"))
        costs.append(out.queries_charged)
        wins += out.found is not None
    assert np.mean(costs) <= 4 * iteration_cap(1024) * space.q_test
    assert wins / 1000 >= 0.99


def test_safe_grover_empty_target():
    space = SearchSpace.explicit(64, [], q_test=1)
    for seed in range(10):
        out = safe_grover(space, 2.0, fresh_oracle(), StepTag.STEP2, substream(seed, "f"))
        assert out.found is None


def test_safe_grover_cost_cap():
    space = SearchSpace.explicit(64, [5], q_test=2)
    cap = iteration_cap(64)
    reps = math.ceil(2.0 * math.log2(64))
    for seed in range(50):
        oracle = fresh_oracle()
        out = safe_grover(space, 2.0, oracle, StepTag.STEP2, substream(seed, "g"))
        assert oracle.report().charged <= reps * cap * space.q_test


def test_safe_grover_failure_rate_wilson():
    # estimate against the size**(-c) target with a Wilson upper-confidence gate
    trials = 10_000
    space = SearchSpace.explicit(64, [0], q_test=1)
    fails = 0
    for seed in range(trials):
        out = safe_grover(space, 2.0, fresh_oracle(), StepTag.STEP2, substream(seed, "h"))
        fails += out.found is None
    z = 1.96
    phat = fails / trials
    lower = (phat + z * z / (2 * trials) - z * math.sqrt(
        (phat * (1 - phat) + z * z / (4 * trials)) / trials
    )) / (1 + z * z / trials)
    assert lower <= 1 / 64**2


def test_safe_grover_single_item_space():
    space = SearchSpace.explicit(1, [0], q_test=3)
    oracle = fresh_oracle()
    out = safe_grover(space, 2.0, oracle, StepTag.STEP2, substream(0, "i"))
    assert out.found == 0
    assert oracle.report().charged == 3


# Per-attempt reference: each attempt billed with its own `charge` call, as
# `safe_grover` did before its attempts were billed in one ledger call.


def reference_safe_grover(space, c, oracle, tag, rng):
    if space.size == 0:
        return GroverOutcome(None, 0, 0)
    if space.size == 1:
        oracle.charge(space.q_test, tag)
        found = space.draw_marked(rng) if space.marked_count == 1 else None
        return GroverOutcome(found, 1, space.q_test)
    cap = iteration_cap(space.size)
    reps = math.ceil(c * math.log2(space.size))
    charged = 0
    for attempt in range(1, reps + 1):
        k = int(rng.integers(cap))
        oracle.charge((k + 1) * space.q_test, tag)
        charged += (k + 1) * space.q_test
        if rng.random() < grover_success_prob(space.size, space.marked_count, k):
            return GroverOutcome(space.draw_marked(rng), attempt, charged)
    return GroverOutcome(None, reps, charged)


@settings(max_examples=300, deadline=None)
@given(
    size=st.sampled_from([0, 1, 2, 3, 16, 100, 1000]),
    marked_share=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
    q_test=st.integers(1, 4),
    c=st.sampled_from([1.0, 2.0, 3.5]),
    budget=st.one_of(st.none(), st.integers(0, 400)),
    spent=st.integers(0, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_searches_match_the_per_attempt_reference(
    size, marked_share, q_test, c, budget, spent, seed
):
    marked = min(size, math.ceil(marked_share * size))
    space = SearchSpace.explicit(size, range(marked), q_test=q_test)
    results = []
    for search in (safe_grover, reference_safe_grover):
        oracle = QueryOracle(DUMMY)
        oracle.budget = budget
        try:
            oracle.charge(spent, StepTag.STEP7)
        except BudgetExceededError:
            pass
        rng = substream(seed, "ref")
        try:
            out = search(space, c, oracle, StepTag.STEP2, rng)
        except BudgetExceededError as err:
            results.append(("raised", str(err), oracle.report()))
        else:
            # the same draws in the same order leave the stream in the same place
            results.append((out, oracle.report(), rng.random()))
    assert results[0] == results[1]


def next_draws(rng):
    return int(rng.integers(1000)), rng.random(), int(rng.integers(2**40)), rng.random()


def miss_stream(kind, seed):
    """A Philox substream, one with half a raw output cached, or a PCG64 stream."""
    if kind == "pcg64":
        return np.random.default_rng(seed)
    rng = substream(seed, "miss")
    if kind == "philox, half cached":
        rng.integers(5)  # caches the high half of a raw output
    return rng


# Sizes from a two-item space to 7e18, whose cap is close to 2**32, so the raw
# pass cannot settle the counts on nearly every seed from 10**18 on.
MISS_SIZES = [2, 3, 5, 16, 1000, 32640, 10**12, 10**18, 7 * 10**18]


@settings(max_examples=300, deadline=None)
@given(
    size=st.sampled_from(MISS_SIZES),
    q_test=st.integers(1, 4),
    c=st.sampled_from([1.0, 1.5, 2.0, 3.5]),
    budget_share=st.one_of(st.none(), st.floats(0.0, 1.0)),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["philox", "philox, half cached", "pcg64"]),
)
def test_sure_misses_match_the_per_attempt_reference(size, q_test, c, budget_share, seed, kind):
    # a budget share below about one half crosses the budget inside the batch
    space = SearchSpace.explicit(size, [], q_test=q_test)
    most = math.ceil(c * math.log2(size)) * iteration_cap(size) * q_test
    results = []
    for search in (safe_grover, reference_safe_grover):
        oracle = QueryOracle(DUMMY)
        oracle.budget = None if budget_share is None else int(budget_share * most)
        rng = miss_stream(kind, seed)
        try:
            out = search(space, c, oracle, StepTag.STEP2, rng)
        except BudgetExceededError as err:
            results.append(("raised", str(err), oracle.report()))
        else:
            # the next draws show the stream is left where the reference leaves it
            results.append((out, oracle.report(), next_draws(rng)))
    assert results[0] == results[1]


def spent_stream(kind, seed):
    """`miss_stream` with any half output it cached spent, as a fresh stream
    has none."""
    rng = miss_stream(kind, seed)
    while rng.bit_generator.state["has_uint32"]:
        rng.integers(5)
    return rng


def per_attempt_iterations(rng, cap, reps):
    """The iteration counts of `reps` missed attempts, drawn as `safe_grover` draws them."""
    counts = []
    for _ in range(reps):
        counts.append(int(rng.integers(cap)))
        rng.random()
    return counts


@pytest.mark.parametrize("kind", ["philox", "philox, half cached", "pcg64"])
def test_miss_iterations_equal_the_per_attempt_draws(monkeypatch, kind):
    # `lemire_draws` builds each key's stream through `rng.keyed`; handed a
    # stream of each kind there, it decodes any 64-bit stream's raw output,
    # every third output as `bill_sure_misses` reads it, as the per-attempt
    # draws do, and draws a row it cannot settle again on a fresh copy
    keys = sure_miss_keys(40)
    streams = {tuple(key.tolist()): spent_stream(kind, seed) for seed, key in enumerate(keys)}
    built = []
    monkeypatch.setattr(qtri.rng, "keyed",
                        lambda key: built.append(key) or copy.deepcopy(streams[tuple(key.tolist())]))
    redrawn = 0
    for size in MISS_SIZES:
        cap = iteration_cap(size)
        for reps in (0, 1, 2, 3, 30, 31):
            built.clear()
            counts = lemire_draws(keys, cap, reps, stride=3)
            assert counts.shape == (40, reps)
            redrawn += len(built) - 40  # one read per key, then one per row drawn again
            for key, row in zip(keys, counts.tolist()):
                assert row == per_attempt_iterations(copy.deepcopy(streams[tuple(key.tolist())]), cap, reps)
    assert redrawn > 50  # MISS_SIZES' largest caps reject often


def test_miss_iterations_leave_caps_beyond_32_bits_to_the_per_attempt_draws():
    # a cap of 2**32 or more reads whole outputs, so every row is drawn attempt by attempt
    keys = sure_miss_keys(3)
    for cap in (1 << 32, (1 << 40) + 5):
        for key, row in zip(keys, lemire_draws(keys, cap, 4, stride=3).tolist()):
            assert row == per_attempt_iterations(keyed(key), cap, 4)


# A run of sure misses as step 2 meets them: sizes 0 and 1, even reps (2, 30),
# odd reps (7 at size 10, 9 at size 21) and two sizes seen twice, at c = 2
MISS_RUN = [0, 10, 1, 2, 32640, 21, 0, 10, 1, 32640, 3, 21]


class RecordingOracle(QueryOracle):
    """A ledger that also keeps every charge it was handed, in order."""

    def __init__(self, budget):
        super().__init__(DUMMY, budget=budget)
        self.handed = []

    def charge_batch(self, amounts, tag):
        self.handed.append(list(amounts))
        super().charge_batch(amounts, tag)


def sure_miss_keys(count, seed=0):
    return seed_keys([[seed, i] for i in range(count)])


def bill_per_search(searches, keys, c, q_test, oracle):
    """The reference: one `safe_grover` call per search, each on its own stream."""
    for (size, marked), key in zip(searches, keys):
        space = SearchSpace.explicit(size, range(marked), q_test)
        safe_grover(space, c, oracle, StepTag.STEP2, keyed(key))


def bill_in_runs(searches, keys, c, q_test, oracle):
    """Step 2's walk: each run of sure misses in one `bill_sure_misses` call,
    each marked search through `safe_grover` in its turn."""
    start = 0
    stops = [i for i, (_, marked) in enumerate(searches) if marked] + [len(searches)]
    for stop in stops:
        sizes = [size for size, _ in searches[start:stop]]
        bill_sure_misses(sizes, keys[start:stop], q_test, c, oracle, StepTag.STEP2)
        if stop < len(searches):
            space = SearchSpace.explicit(searches[stop][0], range(searches[stop][1]), q_test)
            safe_grover(space, c, oracle, StepTag.STEP2, keyed(keys[stop]))
        start = stop + 1


def both_ledgers(searches, c=2.0, q_test=1, budget=10**9, seed=0):
    keys = sure_miss_keys(len(searches), seed)
    results = []
    for walk in (bill_in_runs, bill_per_search):
        oracle = RecordingOracle(budget)
        try:
            walk(searches, keys, c, q_test, oracle)
        except BudgetExceededError as err:
            results.append(("raised", str(err), oracle.report()))
        else:
            results.append(("billed", oracle.report()))
        results.append([charge for batch in oracle.handed for charge in batch])
    return results


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("c, q_test", [(1.0, 1), (2.0, 1), (3.5, 1), (2.0, 3)])
def test_runs_of_sure_misses_bill_as_per_search_calls(seed, c, q_test):
    # a marked search in the middle of the run, and each half billed in one pass
    searches = [(size, 0) for size in MISS_RUN]
    searches.insert(6, (45, 3))
    block_ledger, block_charges, ledger, charges = both_ledgers(searches, c, q_test, seed=seed)
    assert block_ledger == ledger and block_charges == charges
    reps = [math.ceil(c * math.log2(size)) if size > 1 else size for size, _ in searches]
    assert len(charges) >= sum(reps[:6]) + 1 + sum(reps[7:])


def test_a_budget_crossed_inside_a_run_of_sure_misses_bills_as_per_search_calls():
    searches = [(size, 0) for size in MISS_RUN]
    total = both_ledgers(searches)[0][1].charged
    for budget in (0, 1, 5, total // 3, total // 2, total - 1, total):
        block, _, reference, _ = both_ledgers(searches, budget=budget)
        assert block == reference
        assert (block[0] == "raised") == (budget < total)


def test_runs_whose_halves_lemire_may_reject_bill_as_per_search_calls(monkeypatch):
    # caps near 2**31 reject about every other half, so nearly every row of these
    # sizes is drawn again inside `lemire_draws`; no search falls back to `safe_grover`
    monkeypatch.setattr(grover, "safe_grover", None)
    searches = [(size, 0) for size in [10**18, 2, 7 * 10**18, 10**18, 32640]]
    block_ledger, block_charges, ledger, charges = both_ledgers(searches, budget=10**15)
    assert block_ledger == ledger and block_charges == charges and block_ledger[0] == "billed"
    block, _, reference, _ = both_ledgers(searches, budget=10**9)  # crossed inside the run
    assert block == reference and block[0] == "raised"


def test_edge_restricted_empty_pool_is_free():
    oracle = fresh_oracle()
    pool = Graph(oracle.n)
    got = edge_restricted_triangle_search(pool, oracle, StepTag.STEP10, substream(0, "j"))
    assert got is None
    assert oracle.report().total == 0


def test_edge_restricted_pool_on_another_vertex_set_is_rejected_before_billing():
    g = Graph(8, [(1, 2), (2, 3), (1, 3)])
    oracle = QueryOracle(g, budget=10**9)
    for n in (7, 9):
        with pytest.raises(ValueError, match="pool has n="):
            edge_restricted_triangle_search(Graph(n, [(1, 2)]), oracle, StepTag.STEP10,
                                            substream(0, "p"))
    assert oracle.report().total == 0


def test_edge_restricted_single_edge_triangle():
    g = Graph(3, [(1, 2), (2, 3), (1, 3)])
    wins = 0
    for seed in range(300):
        oracle = QueryOracle(g, budget=10**9)
        pool = Graph(3, [(1, 2)])
        tri = edge_restricted_triangle_search(pool, oracle, StepTag.STEP10, substream(seed, "k"))
        if tri is not None:
            assert tri == (1, 2, 3)
            wins += 1
    assert wins / 300 >= 2 / 3


def test_edge_restricted_triangle_free_never_finds():
    g = Graph(8, [(a, b) for a in (1, 2, 3, 4) for b in (5, 6, 7, 8)])
    for seed in range(100):
        oracle = QueryOracle(g, budget=10**9)  # the pool is every hidden edge
        assert edge_restricted_triangle_search(g, oracle, StepTag.STEP10, substream(seed, "l")) is None


def test_edge_restricted_no_false_positives_fuzz():
    from qtri import generate

    for seed in range(60):
        g = generate("erdos_renyi", 16, seed=seed, p=0.25)
        pool = [(a, b) for a in range(1, 17) for b in range(a + 1, 17) if (a + b + seed) % 3 == 0]
        oracle = QueryOracle(g, budget=10**9)
        tri = edge_restricted_triangle_search(Graph(16, pool), oracle, StepTag.STEP10,
                                              substream(seed, "m"))
        if tri is not None:
            a, b, c = tri
            assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            assert any((x, y) in {(a, b), (b, c), (a, c)} for x, y in pool)


def test_edge_restricted_cost_cap():
    from qtri import generate

    for seed in range(40):
        g = generate("erdos_renyi", 24, seed=seed, p=0.4)
        pool = [(a, b) for a in range(1, 25) for b in range(a + 1, 25) if (a * b + seed) % 4 == 0]
        if not pool:
            continue
        oracle = QueryOracle(g, budget=10**9)
        edge_restricted_triangle_search(Graph(24, pool), oracle, StepTag.STEP10,
                                        substream(seed, "n"))
        g_cap = sum(1 for a, b in pool if g.has_edge(a, b))
        cap = AA_COST_CONSTANT * (
            math.sqrt(len(pool)) + math.sqrt(g.n * max(1, g_cap))
        ) * math.log(g.n)
        assert oracle.report().total <= cap
