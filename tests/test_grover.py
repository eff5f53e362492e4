"""Search-model tests: exact probabilities against a state-vector oracle,
schedule statistics against the analytic mixture, and billing caps."""

import math

import numpy as np
import pytest

from qtri import (
    Graph,
    QueryOracle,
    SearchSpace,
    StepTag,
    edge_restricted_triangle_search,
    grover_search,
    grover_success_prob,
    safe_grover,
    schedule_success_prob,
)
from qtri.grover import (
    AA_COST_CONSTANT,
    attempt_ranges,
    iteration_cap,
    mean_success_prob,
)
from qtri.rng import substream

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
    for size, marked, k_range in [(64, 1, 7), (256, 16, 13), (9, 4, 3)]:
        direct = sum(grover_success_prob(size, marked, k) for k in range(k_range)) / k_range
        assert mean_success_prob(size, marked, k_range) == pytest.approx(direct, abs=1e-12)


def test_attempt_ranges_shape():
    ranges = attempt_ranges(64)
    cap = iteration_cap(64)
    assert ranges[-1] == cap
    assert all(r <= cap for r in ranges)
    assert ranges == sorted(ranges)


def test_all_marked_found_on_first_attempt():
    space = SearchSpace.explicit(16, range(16), q_test=2)
    out = grover_search(space, fresh_oracle(), StepTag.STEP2, substream(0, "a"))
    assert out.found is not None
    assert out.attempts == 1
    assert out.queries_charged <= 2 * space.q_test


def test_nothing_marked_costs_capped_per_attempt():
    space = SearchSpace.explicit(256, [], q_test=1)
    cap = iteration_cap(256)
    for seed in range(20):
        oracle = fresh_oracle()
        out = grover_search(space, oracle, StepTag.STEP2, substream(seed, "b"))
        assert out.found is None
        assert out.queries_charged == oracle.report().charged
        assert out.queries_charged <= out.attempts * cap * space.q_test


def test_found_items_are_marked():
    marked = {3, 11, 17}
    space = SearchSpace.explicit(32, marked, q_test=1)
    for seed in range(200):
        out = grover_search(space, fresh_oracle(), StepTag.STEP2, substream(seed, "c"))
        if out.found is not None:
            assert out.found in marked


def test_schedule_statistics_match_mixture():
    trials = 3000
    for size, marked in [(4, 1), (64, 1), (256, 16)]:
        analytic = schedule_success_prob(size, marked)
        wins = 0
        space = SearchSpace.explicit(size, range(marked), q_test=1)
        for seed in range(trials):
            out = grover_search(space, fresh_oracle(), StepTag.STEP2, substream(seed, "d", size))
            wins += out.found is not None
        se = math.sqrt(max(analytic * (1 - analytic), 1e-9) / trials)
        assert abs(wins / trials - analytic) <= 4 * se


def test_unknown_count_mean_cost():
    # expected cost stays within a small multiple of the iteration cap
    space = SearchSpace.explicit(1024, [0], q_test=1)
    costs = []
    wins = 0
    for seed in range(1000):
        out = grover_search(space, fresh_oracle(), StepTag.STEP2, substream(seed, "e"))
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
