"""Cost-exponent, disjointness, and scaling-fit tests."""

import math
from fractions import Fraction

import pytest

from qtri import (
    Params,
    baseline_scaling,
    cost_terms,
    disjointness_prob_approx,
    disjointness_prob_exact,
    folklore_baseline,
    generate,
    optimize_params,
    threshold_violation_rate,
    triangle_count,
)
from qtri.analysis import (
    disjointness_exponent_ratio,
    disjointness_sweep,
    fit_rows,
    trial_rows,
)
from qtri.graphs import MAX_VERTICES
from qtri.grover import GroverOutcome, iteration_cap
from qtri.oracle import default_budget


def test_cost_terms_default_triple():
    terms = cost_terms(Params(3 / 7, 1 / 7, 1 / 7))
    assert terms.e1 == pytest.approx(10 / 7, abs=1e-12)
    assert terms.e2 == pytest.approx(9 / 7, abs=1e-12)
    assert terms.e3 == pytest.approx(10 / 7, abs=1e-12)
    assert terms.e4 == pytest.approx(10 / 7, abs=1e-12)
    assert terms.dominant == pytest.approx(10 / 7, abs=1e-12)
    assert not terms.degenerate


def test_cost_terms_degenerate_flag():
    terms = cost_terms(Params(0.01, 0.01, 0.01))
    assert terms.degenerate
    assert terms.dominant >= 1.5


def test_cost_terms_arbitrary_triple():
    terms = cost_terms(Params(1 / 2, 1 / 4, 1 / 8))
    # independent evaluation: max(1.5, 1 + 1/8 + 1/4, (3 - 1/4)/2, (3 - 1/8)/2)
    assert terms.dominant == pytest.approx(1.5, abs=1e-12)


def test_cost_terms_not_symmetric_in_arguments():
    a = cost_terms(Params(3 / 7, 1 / 7, 1 / 7)).dominant
    b = cost_terms(Params(1 / 7, 3 / 7, 1 / 7)).dominant
    assert a != b


def test_optimizer_reproduces_seventh_point():
    for grid in (210, 7):
        params, dominant = optimize_params(grid)
        assert dominant == Fraction(10, 7)
        assert params.epsilon == pytest.approx(3 / 7, abs=1e-12)
        assert params.epsilon_prime == pytest.approx(1 / 7, abs=1e-12)
        assert params.delta == pytest.approx(1 / 7, abs=1e-12)


def test_optimizer_never_beats_the_claimed_exponent():
    for grid in (5, 11, 35, 70):
        _, dominant = optimize_params(grid)
        assert dominant >= Fraction(10, 7)


def test_optimizer_equalizes_active_terms_on_diagonal_slice():
    # restricted to delta == epsilon_prime the optimum balances
    # 1 + eps = (3 - eps')/2 = (3 - (eps - 2 eps'))/2
    best = None
    d = 210
    for i_eps in range(1, d):
        for i_common in range(1, d):
            p = Params(i_eps / d, i_common / d, i_common / d)
            t = cost_terms(p)
            if best is None or t.dominant < best[0]:
                best = (t.dominant, p)
    _, p = best
    t = cost_terms(p)
    assert t.e1 == pytest.approx(t.e3, abs=1e-12)
    assert t.e1 == pytest.approx(t.e4, abs=1e-12)
    assert p.epsilon == pytest.approx(3 / 7, abs=1e-12)


def test_disjointness_exact_values():
    assert disjointness_prob_exact(4, 1, 1) == pytest.approx(0.75, abs=1e-15)
    assert disjointness_prob_exact(10, 0, 4) == 1.0
    assert disjointness_prob_exact(10, 4, 0) == 1.0
    assert disjointness_prob_exact(6, 4, 3) == 0.0  # overlapping sizes force a hit


def test_disjointness_exact_against_fractions():
    from math import comb

    for n, x, y in [(12, 3, 4), (30, 6, 6), (50, 10, 5), (200, 40, 40)]:
        want = comb(n - x, y) / comb(n, y)
        assert disjointness_prob_exact(n, x, y) == pytest.approx(want, rel=1e-12)


def test_disjointness_exact_in_log_space_beyond_5000():
    from math import comb

    # above n = 5000 the binomials are taken through lgamma; the relative error
    # seen on this grid is below 1e-10
    for n in (5001, 6000, 20000):
        for x, y in [(1, 1), (1, n - 1), (70, 70), (n // 10, 50), (50, n // 10),
                     (100, 300), (n // 3, 20), (5, n // 2)]:
            want = comb(n - x, y) / comb(n, y)
            assert disjointness_prob_exact(n, x, y) == pytest.approx(want, rel=1e-9)


def test_disjointness_monotone_in_sizes():
    for n in (15, 40):
        for x in range(0, n // 2):
            assert disjointness_prob_exact(n, x, 3) >= disjointness_prob_exact(n, x + 1, 3)
        for y in range(0, n // 2):
            assert disjointness_prob_exact(n, 3, y) >= disjointness_prob_exact(n, 3, y + 1)


def test_disjointness_approx_example():
    got = disjointness_prob_approx(4, 0.25, 0.25)
    assert got == pytest.approx((15 / 16) ** 4, abs=1e-15)
    assert disjointness_prob_approx(9, 0.0, 0.5) == 1.0


def test_disjointness_dev_small_point_within_band():
    dev = abs(disjointness_exponent_ratio(4, 1, 1) - 1.0)
    assert dev <= 10 * (0.25**3 + 0.25**3 + 0.25)


def test_disjointness_sweep_reports_shape():
    # the whole output, pinned: x/n and y/n in [0.02, 0.2], bound p^3 + q^3 + 1/n
    assert disjointness_sweep(n_values=range(20, 61)) == {
        "points": 2400,
        "failures": 0,
        "worst_ratio": 0.5607622390095778,
        "worst_point": (20, 2, 2),
        "sign_failures": 0,
        "all_within": True,
    }


def test_containment_violation_rate_empty_graph():
    # nothing exceeds any threshold when there are no common neighbors at all
    rate = threshold_violation_rate(16, 3 / 7, trials=10, seed=0, kind="erdos_renyi", p=0.0)
    assert rate == 0.0


def test_containment_violation_rate_dense():
    rate = threshold_violation_rate(64, 3 / 7, trials=50, seed=1, kind="erdos_renyi", p=0.5)
    assert rate <= 0.05


def test_containment_full_sample_on_bipartite():
    # with every vertex sampled, any pair with a common neighbor is excluded
    rate = threshold_violation_rate(8, 3 / 7, trials=20, seed=2, kind="bipartite_blowup", p=None)
    assert rate == 0.0


def test_containment_rejects_no_trials():
    with pytest.raises(ValueError, match="trials must be >= 1"):
        threshold_violation_rate(16, 3 / 7, trials=0, seed=0)


@pytest.mark.parametrize("epsilon", [0.0, 1.0, -0.5, 1.5])
def test_containment_rejects_epsilon_outside_the_unit_interval(epsilon):
    with pytest.raises(ValueError, match="epsilon must lie in"):
        threshold_violation_rate(16, epsilon, trials=1, seed=0)


@pytest.mark.parametrize("sizes", [[16, 24], [16, 16, 24]], ids=["two-sizes", "repeated-size"])
def test_fit_rows_needs_three_distinct_sizes(sizes):
    with pytest.raises(ValueError, match="3 distinct sizes"):
        fit_rows([{"n": n, "total": 5 + i} for i, n in enumerate(sizes)])


def test_baseline_always_verifies():
    g = generate("bipartite_blowup", 16, seed=0)
    assert triangle_count(g) == 0
    for seed in range(20):
        assert folklore_baseline(g, seed).found is None


@pytest.mark.parametrize("p, found", [(1.0, True), (0.0, False)], ids=["K3", "empty"])
def test_baseline_takes_one_shot_on_three_vertices(p, found):
    # one triple: log2(1) = 0 would give no shot; safe_grover settles one item with one test
    g = generate("erdos_renyi", 3, seed=0, p=p)
    assert triangle_count(g) == found
    for seed in range(5):
        assert folklore_baseline(g, seed) == GroverOutcome(True if found else None, 1, 3)


def test_baseline_rejects_c_safe_below_one():
    with pytest.raises(ValueError, match="c must be >= 1"):
        folklore_baseline(generate("complete", 4, seed=0), 0, c_safe=0.5)


def test_baseline_worst_case_charge_fits_the_default_budget():
    # the baseline bills a default-budget ledger: its largest possible charge, every shot
    # missing at the top iteration count, must stay below that budget at every size
    worst = 0.0
    for n in range(3, MAX_VERTICES + 1):
        size = math.comb(n, 3)
        charge = max(1, math.ceil(2 * math.log2(size))) * iteration_cap(size) * 3
        worst = max(worst, charge / default_budget(n))
    assert worst < 0.06


# (found, total_queries, shots) per n for graph and baseline seeds 0, 1, 2
BASELINE_OUTPUTS = {
    ("erdos_renyi", 0.5): {
        3: [(False, 3, 1), (False, 3, 1), (True, 3, 1)],
        4: [(True, 6, 1), (False, 21, 4), (False, 21, 4)],
        5: [(True, 15, 3), (False, 30, 7), (False, 51, 7)],
        11: [(True, 36, 2), (True, 21, 1), (True, 60, 5)],
        64: [(True, 870, 2), (True, 1173, 4), (True, 111, 1)],
    },
    ("erdos_renyi", 0.02): {
        3: [(False, 3, 1), (False, 3, 1), (False, 3, 1)],
        4: [(False, 18, 4), (False, 21, 4), (False, 21, 4)],
        5: [(False, 51, 7), (False, 30, 7), (False, 51, 7)],
        11: [(False, 309, 15), (False, 291, 15), (False, 222, 15)],
        64: [(True, 420, 1), (False, 7014, 31), (False, 7863, 31)],
    },
    ("bipartite_blowup", None): {
        3: [(False, 3, 1), (False, 3, 1), (False, 3, 1)],
        4: [(False, 18, 4), (False, 21, 4), (False, 21, 4)],
        5: [(False, 51, 7), (False, 30, 7), (False, 51, 7)],
        11: [(False, 309, 15), (False, 291, 15), (False, 222, 15)],
        64: [(False, 6966, 31), (False, 7014, 31), (False, 7863, 31)],
    },
}


@pytest.mark.parametrize("kind, p", list(BASELINE_OUTPUTS))
def test_baseline_outputs_are_pinned(kind, p):
    for n, expected in BASELINE_OUTPUTS[kind, p].items():
        for seed, (found, total, shots) in enumerate(expected):
            g = generate(kind, n, seed=seed, p=p)
            want = GroverOutcome(True if found else None, shots, total)
            assert folklore_baseline(g, seed) == want, (n, seed)


def test_baseline_slope_near_three_halves():
    fit = baseline_scaling([64, 128, 256, 512], trials=300, seed=0)
    assert abs(fit.slope - 1.5) <= 0.1


def test_empirical_scaling_smoke():
    fit = fit_rows(trial_rows("staged", [32, 48, 64], trials=3, params=Params(), seed=0))
    assert len(fit.points) == 3
    assert all(mean > 0 for _, mean in fit.points)
    assert len(fit.normalized_constants) == 3
    obj = fit.to_json()
    assert set(obj) == {"points", "slope", "intercept", "normalized_constants"}
