"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 5 checks the disjointness exponent against its
second-order expansion (the deviation from the product form is first order,
because the sample is drawn without replacement).  Criterion 8 compares
polylog-free cost exponents: the staged bound O(n^(10/7) log^2 n) improves on
the baseline's n^(3/2) in the polynomial exponent, while its raw log-log
slope stays above 3/2 for every n below e^28.
"""

import math

import numpy as np
import pytest

from qtri import (
    Params,
    QueryOracle,
    SearchSpace,
    baseline_scaling,
    disjointness_prob_exact,
    generate,
    grover_success_prob,
    optimize_params,
    safe_grover,
    solve,
)
from qtri.adversary import (
    adversary_value,
    and_function,
    decomposition_diagnostic,
    gamma_i,
    or_function,
    or_star_instance,
    random_valid_gamma,
    spectral_norm_batch,
    triangle_property_function,
)
from qtri.analysis import disjointness_sweep, fit_rows, trial_rows
from qtri.graphs import Graph
from qtri.grover import iteration_cap, mean_success_prob
from qtri.oracle import StepTag
from qtri.rng import substream
from qtri.solver import peel_threshold

DEFAULTS = Params()


def report_line(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {index:2d}] {name}: {status}" + (f"  ({detail})" if detail else ""))


def test_criterion_01_one_sided_correctness():
    fixtures = [
        ("bipartite n=8", generate("bipartite_blowup", 8, seed=0)),
        ("bipartite n=16", generate("bipartite_blowup", 16, seed=0)),
        ("cycle blowup n=40", generate("triangle_free_dense", 40, seed=0)),
    ]
    false_positives = 0
    for _, g in fixtures:
        for seed in range(100):
            if solve(QueryOracle(g), DEFAULTS, seed=seed).outcome is not None:
                false_positives += 1
    ok = false_positives == 0
    report_line(1, "one-sided correctness", ok, f"{false_positives} false positives / 300 runs")
    assert ok


def _completeness_runs():
    reports = []
    for n in (64, 128):
        for seed in range(200):
            g = generate("planted_triangle", n, seed=seed, p=0.5)
            rep = solve(QueryOracle(g), DEFAULTS, seed=seed)
            if rep.outcome is not None:
                a, b, c = rep.outcome
                assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
            reports.append((n, rep))
    return reports


@pytest.fixture(scope="module")
def completeness_reports():
    return _completeness_runs()


def test_criterion_02_completeness(completeness_reports):
    ok = True
    details = []
    for n in (64, 128):
        wins = sum(1 for m, rep in completeness_reports if m == n and rep.outcome is not None)
        rate = wins / 200
        details.append(f"n={n}: {rate:.3f}")
        ok &= rate >= 2 / 3
    report_line(2, "completeness on planted instances", ok, ", ".join(details))
    assert ok


def test_criterion_03_peeled_triangle_bound(completeness_reports):
    violations = 0
    for n, rep in completeness_reports:
        # each triangle of T is charged to its first-peeled pair, which then had
        # fewer than tau common neighbors among the working pairs
        bound = rep.measured["T_size"] * (peel_threshold(n, DEFAULTS.epsilon_prime) - 1)
        if rep.measured["t_of_T"] > bound:
            violations += 1
    ok = violations == 0
    report_line(3, "peeled-set triangle bound", ok, f"{violations} violations / 400 runs")
    assert ok


def test_criterion_04_parameter_optimum():
    params, dominant = optimize_params(210)
    from fractions import Fraction

    ok = (
        dominant == Fraction(10, 7)
        and abs(params.epsilon - 3 / 7) < 1e-12
        and abs(params.epsilon_prime - 1 / 7) < 1e-12
        and abs(params.delta - 1 / 7) < 1e-12
    )
    report_line(4, "grid optimum is 10/7 at (3/7, 1/7, 1/7)", ok, f"dominant={dominant}")
    assert ok


def test_criterion_05_disjointness_band():
    spot_ok = disjointness_prob_exact(4, 1, 1) == 0.75
    sweep = disjointness_sweep(n_values=range(20, 201))
    sign_ok = sweep["sign_failures"] == 0
    ok = spot_ok and sign_ok and sweep["all_within"]
    report_line(
        5,
        "disjointness exponent band",
        ok,
        f"spot={spot_ok}, {sweep['sign_failures']} points with ratio < 1, "
        f"{sweep['failures']}/{sweep['points']} grid points out of band, "
        f"worst residual/bound={sweep['worst_ratio']:.3f} at {sweep['worst_point']}",
    )
    assert spot_ok
    # Stirling: ln C(n-x, y)/C(n, y) = n ln(1-pq) (1 + (p+q)/2 + (p^2+q^2)/3
    # + O(p^3 + q^3 + 1/n)), so the deviation itself is first order; the band
    # holds the residual after the expansion.  Exact <= (1-p)^(nq) <=
    # (1-pq)^n, so the signed ratio is at least 1 at every point.
    assert sign_ok, f"{sweep['sign_failures']} grid points have a signed ratio below 1"
    assert sweep["all_within"], (
        f"{sweep['failures']} of {sweep['points']} grid points exceed the band; "
        f"worst residual/bound = {sweep['worst_ratio']:.3f} at (n, x, y) = {sweep['worst_point']}"
    )


def test_criterion_06_search_model_fidelity():
    # exact single-iteration value against an explicit state-vector run
    state = np.full(4, 0.5)
    for _ in range(1):
        state[1] = -state[1]
        state = 2.0 * state.mean() - state
    sv = float(state[1] ** 2)
    exact_ok = abs(grover_success_prob(4, 1, 1) - sv) <= 1e-12 and abs(sv - 1.0) <= 1e-12

    trials = 10_000
    stats_ok = True
    details = [f"sv(4,1,1) ok={exact_ok}"]
    dummy = Graph(8)
    for size, marked in ((4, 1), (64, 1), (256, 16)):
        # the solver's search at c = 1: ceil(log2 N) runs, k uniform below the cap
        miss = 1.0 - mean_success_prob(size, marked, iteration_cap(size))
        analytic = 1.0 - miss ** math.ceil(math.log2(size))
        space = SearchSpace.explicit(size, range(marked), q_test=1)
        wins = 0
        for seed in range(trials):
            oracle = QueryOracle(dummy, budget=10**9)
            out = safe_grover(space, 1.0, oracle, StepTag.STEP2, substream(seed, "c6", size))
            wins += out.found is not None
        se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / trials)
        dev = abs(wins / trials - analytic)
        stats_ok &= dev <= 3 * se
        details.append(f"N={size},m={marked}: dev={dev:.5f} vs 3se={3 * se:.5f}")
    ok = exact_ok and stats_ok
    report_line(6, "search model fidelity", ok, "; ".join(details))
    assert ok


def test_criterion_07_safe_search_failure_rate():
    trials = 100_000
    space = SearchSpace.explicit(64, [0], q_test=1)
    oracle = QueryOracle(Graph(8), budget=10**12)
    fails = 0
    for seed in range(trials):
        out = safe_grover(space, 2.0, oracle, StepTag.STEP2, substream(seed, "c7"))
        fails += out.found is None
    rate = fails / trials
    ok = rate <= 1 / 64**2
    report_line(7, "safe-search failure rate", ok, f"rate={rate:.2e} vs 2.44e-04")
    assert ok


def _loglog_slope(sizes, values):
    return float(np.polyfit(np.log(sizes), np.log(values), 1)[0])


def test_criterion_08_scaling_sanity():
    sizes = [64, 128, 256, 512]
    fit = fit_rows(trial_rows("staged", sizes, trials=30, params=DEFAULTS, seed=0))
    base = baseline_scaling(sizes, trials=30, seed=0)
    consts = fit.normalized_constants
    spread = max(consts) / min(consts)
    spread_ok = spread <= 3.0
    bound_slope = _loglog_slope(sizes, [n ** (10 / 7) * math.log(n) ** 2 for n in sizes])
    exponent = 10 / 7 + _loglog_slope(sizes, consts)
    exponent_ok = exponent < base.slope
    ok = spread_ok and exponent_ok
    report_line(
        8,
        "scaling sanity",
        ok,
        f"normalized spread={spread:.2f} (<=3: {spread_ok}); "
        f"raw slope={fit.slope:.3f} (bound n^(10/7) ln^2 n: {bound_slope:.3f}); "
        f"polylog-free exponent={exponent:.3f} vs baseline={base.slope:.3f} "
        f"(strictly below: {exponent_ok})",
    )
    assert spread_ok, f"normalized constant spread {spread:.2f} exceeds 3x"
    # The bound n^(10/7) ln^2 n has local log-log slope 10/7 + 2/ln n (1.818
    # fitted on this grid), so raw slopes cannot show the improvement over
    # n^(3/2) here.  Dividing the mean cost by ln^2 n compares the polynomial
    # exponents the paper states: 10/7 plus the slope of the normalized constants.
    assert exponent_ok, (
        f"polylog-free exponent {exponent:.3f} is not below the baseline slope {base.slope:.3f}"
    )


def test_criterion_09_adversary_barrier():
    trials = 10_000
    fuzz_ok = True
    details = []
    for f, label in (
        (or_function(4), "or4"),
        (and_function(4), "and4"),
        (triangle_property_function(), "triangle"),
    ):
        from qtri.adversary import certificate_size

        k = certificate_size(f)
        ceiling = 2.0 * math.sqrt(f.n * k)
        rng = substream(0, "c9", label)
        gammas = np.stack([random_valid_gamma(f, rng) for _ in range(trials)])
        lam = spectral_norm_batch(gammas)
        worst = 0.0
        for pos in range(1, f.n + 1):
            chars = np.array([w[pos - 1] for w in f.domain])
            differ = chars[:, None] != chars[None, :]
            restricted = np.where(differ[None, :, :], gammas, 0.0)
            part = spectral_norm_batch(restricted)
            worst = np.maximum(worst, part)
        nonzero = lam > 0
        ratios = lam[nonzero] / worst[nonzero]
        bad = int((ratios > ceiling + 1e-8).sum())
        fuzz_ok &= bad == 0
        details.append(f"{label}: {bad} over ceiling, max ratio {ratios.max():.4f} vs {ceiling:.4f}")

    star_ok = True
    for n in (2, 4, 9, 16):
        f, gamma = or_star_instance(n)
        raw, _ = adversary_value(f, gamma)
        star_ok &= abs(raw - math.sqrt(n)) <= 1e-9
    ok = fuzz_ok and star_ok
    report_line(9, "adversary certificate ceiling", ok, "; ".join(details) + f"; stars ok={star_ok}")
    assert ok


def test_criterion_10_decomposition_diagnostic():
    f, gamma = or_star_instance(4)
    out = decomposition_diagnostic(f, gamma)
    ok = out["ok"]
    report_line(
        10,
        "decomposition diagnostic",
        ok,
        f"identity={out['identity_error']:.2e}, entrywise={out['entrywise_excess']:.2e}, "
        f"pairing {out['pairing_lhs']:.6f}>={out['pairing_rhs']:.6f}",
    )
    assert ok


def test_criterion_11_completeness_where_the_late_steps_decide():
    # criterion 2's rate on triangles that step 2 cannot see: each run's host is the
    # sparse bipartite host plus one triangle on unsampled vertices, no two of which
    # share a sampled neighbour, so the peel, the classification and the searches
    # over T and E must find it (default Params, n = 256, k = 239)
    from test_solver import deciding_step, host_with_unseen_triangle

    n, seeds = 256, 200
    found, steps = 0, []
    for seed in range(seeds):
        g, tri = host_with_unseen_triangle(n, DEFAULTS, graph_seed=seed, seed=seed)
        rep = solve(QueryOracle(g), DEFAULTS, seed=seed)
        assert rep.outcome in (None, tri) and rep.measured["gprime_size"] > 0
        found += rep.outcome is not None
        steps.append(deciding_step(rep.cost).removeprefix("Step") + ("" if rep.outcome else "(missed)"))
    ok = found / seeds >= 2 / 3
    counts = ", ".join(f"Step{step}: {steps.count(step)}" for step in sorted(set(steps)))
    report_line(11, "completeness where the late steps decide", ok, f"{found}/{seeds} found; {counts}")
    print("  deciding step per seed:", " ".join(steps))
    assert ok


def test_criterion_12_completeness_where_step_7_decides():
    # criterion 11's host with its one triangle hung off a hub: the hub is the smallest
    # unsampled label, joined to half the other side, and the triangle's other two
    # vertices keep no host pair, so no sampled vertex sees two of its vertices; the
    # hub's high verdict runs step 7, whose search of its neighbourhood can find it
    # (default Params, n = 256, k = 239)
    from test_solver import deciding_step, host_with_unseen_hub_triangle

    n, seeds = 256, 60
    found, steps = 0, []
    for seed in range(seeds):
        g, tri = host_with_unseen_hub_triangle(n, DEFAULTS, graph_seed=seed, seed=seed)
        rep = solve(QueryOracle(g), DEFAULTS, seed=seed)
        assert rep.outcome in (None, tri) and rep.measured["gprime_size"] > 0
        found += rep.outcome is not None
        steps.append(deciding_step(rep.cost).removeprefix("Step") + ("" if rep.outcome else "(missed)"))
    ok = found / seeds >= 2 / 3 and "7" in steps
    counts = ", ".join(f"Step{step}: {steps.count(step)}" for step in sorted(set(steps)))
    report_line(12, "completeness where step 7 decides", ok, f"{found}/{seeds} found; {counts}")
    print("  deciding step per seed:", " ".join(steps))
    assert ok
