"""End-to-end command-line tests in a temp directory."""

import csv
import json
import math

import numpy as np
import pytest

import qtri.adversary
import qtri.analysis
import qtri.cli
from qtri.adversary import or_star_instance, random_valid_gamma, triangle_property_function
from qtri.cli import main
from qtri.graphs import load_graph, triangle_count
from qtri.oracle import VerificationError
from qtri.solver import Params


def run(args):
    return main(args)


def test_gen_graph_complete(tmp_path):
    out = tmp_path / "k4.txt"
    assert run(["gen-graph", "--kind", "complete", "--n", "4", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "4"
    assert len(lines) == 1 + 6


def test_gen_graph_bipartite_blowup(tmp_path):
    out = tmp_path / "b.txt"
    assert run(["gen-graph", "--kind", "bipartite_blowup", "--n", "6", "--out", str(out)]) == 0
    g = load_graph(str(out))
    assert g.edge_count == 9
    assert triangle_count(g) == 0


def test_gen_graph_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        run(["gen-graph", "--kind", "erdos_renyi", "--n", "20", "--p", "0.5",
             "--seed", "3", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_graph_rejects_bad_args(tmp_path):
    out = tmp_path / "x.txt"
    assert run(["gen-graph", "--kind", "erdos_renyi", "--n", "2", "--p", "0.5", "--out", str(out)]) == 2
    assert run(["gen-graph", "--kind", "erdos_renyi", "--n", "10", "--p", "2.0", "--out", str(out)]) == 2


def test_solve_writes_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["solve", "--n", "64", "--gen", "planted_triangle", "--p", "0.5",
                "--seed", "7", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["n"] == 64
    assert obj["outcome"]["type"] in {"triangle", "no"}
    assert obj["cost"]["total"] > 0


def test_solve_from_file_and_determinism(tmp_path):
    gpath = tmp_path / "g.txt"
    run(["gen-graph", "--kind", "planted_triangle", "--n", "32", "--p", "0.3",
         "--seed", "5", "--out", str(gpath)])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (r1, r2):
        assert run(["solve", "--graph", str(gpath), "--seed", "11", "--out", str(out)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_solve_needs_instance(tmp_path):
    assert run(["solve", "--seed", "1"]) == 2


def test_bench_paper_csv_and_fit(tmp_path):
    csv_path = tmp_path / "bench.csv"
    json_path = tmp_path / "fit.json"
    code = run(["bench", "--sizes", "32,48,64", "--trials", "3", "--gen", "erdos_renyi",
                "--p", "0.5", "--seed", "1", "--out-csv", str(csv_path),
                "--out-json", str(json_path)])
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    header = rows[0].keys()
    assert list(header)[:6] == ["n", "seed", "outcome", "total", "classical", "charged"]
    for i in range(1, 11):
        assert f"step{i}" in header
    assert "verify" in header
    for row in rows:
        parts = sum(int(row[f"step{i}"]) for i in range(1, 11)) + int(row["verify"])
        assert parts == int(row["total"])
    fit = json.loads(json_path.read_text())
    assert set(fit) == {"points", "slope", "intercept", "normalized_constants"}


@pytest.mark.parametrize("args", [["solve"], ["bench", "--sizes", "8", "--out-csv", "x.csv"]],
                         ids=["solve", "bench"])
def test_param_flags_default_to_params(args):
    parser = qtri.cli.build_parser()
    assert qtri.cli._params_from(parser.parse_args(args)) == Params()
    tuned = parser.parse_args(args + ["--epsilon-prime", "0.2", "--c-safe", "3"])
    assert qtri.cli._params_from(tuned) == Params(epsilon_prime=0.2, c_safe=3.0)


def test_bench_deterministic_output(tmp_path):
    outs = []
    for name in ("one.csv", "two.csv"):
        path = tmp_path / name
        run(["bench", "--sizes", "32,48", "--trials", "2", "--seed", "9",
             "--out-csv", str(path)])
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("algo", ["staged", "baseline"])
def test_bench_fits_the_rows_it_ran(tmp_path, monkeypatch, algo):
    # every instance runs once: the fit comes from the CSV rows, not a second pass
    name = "solve" if algo == "staged" else "folklore_baseline"
    calls = []
    original = getattr(qtri.analysis, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qtri.analysis, name, counted)
    sizes, trials, seed = [16, 24, 32], 2, 6
    json_path = tmp_path / "fit.json"
    assert run(["bench", "--algo", algo, "--sizes", ",".join(map(str, sizes)),
                "--trials", str(trials), "--seed", str(seed),
                "--out-csv", str(tmp_path / "runs.csv"), "--out-json", str(json_path)]) == 0
    assert len(calls) == len(sizes) * trials
    monkeypatch.setattr(qtri.analysis, name, original)
    if algo == "staged":
        fit = qtri.analysis.empirical_scaling(sizes, trials, Params(), seed, "erdos_renyi", 0.5)
    else:
        fit = qtri.analysis.baseline_scaling(sizes, trials, seed, "erdos_renyi", 0.5, 2.0)
    assert json.loads(json_path.read_text()) == fit.to_json()


def test_bench_baseline(tmp_path):
    csv_path = tmp_path / "base.csv"
    code = run(["bench", "--algo", "baseline", "--sizes", "32,48,64", "--trials", "4",
                "--seed", "2", "--out-csv", str(csv_path)])
    assert code == 0
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert list(rows[0].keys()) == ["n", "seed", "outcome", "total"]


def test_optimize_params_output(tmp_path):
    out = tmp_path / "opt.json"
    assert run(["optimize-params", "--grid", "210", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["exponent_exact"] == "10/7"
    assert obj["params"] == pytest.approx([3 / 7, 1 / 7, 1 / 7], abs=1e-12)
    assert obj["exponent"] == pytest.approx(10 / 7, abs=1e-12)


def test_lemma_checks_runs(tmp_path):
    out = tmp_path / "checks.json"
    code = run(["lemma-checks", "--n", "16", "--trials", "5", "--seed", "0",
                "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["disjointness_sweep"]["all_within"] is True
    assert obj["disjointness_sweep"]["sign_failures"] == 0
    assert "containment_violation_rate" in obj


@pytest.mark.parametrize("args, message", [
    (["bench", "--sizes", "16,24,32", "--trials", "0"], "--trials must be >= 1"),
    (["bench", "--sizes", "16,16,24"], "--sizes must be distinct"),
    (["bench", "--sizes", "16,24"], "at least 3 --sizes"),
    (["bench", "--sizes", "16,24,4"], "--algo staged needs --sizes >= 8"),
    (["bench", "--sizes", "16,24,7"], "--algo staged needs --sizes >= 8"),
    (["bench", "--algo", "baseline", "--sizes", "2,16,24"], "--algo baseline needs --sizes >= 3"),
    (["lemma-checks", "--trials", "0"], "trials must be >= 1"),
], ids=["bench-no-trials", "bench-repeated-size", "bench-two-sizes", "bench-staged-too-small",
        "bench-staged-just-below", "bench-baseline-too-small", "lemma-no-trials"])
def test_bad_counts_exit_2_before_any_work(tmp_path, monkeypatch, capsys, args, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on bad input")

    for name in ("run_one", "folklore_baseline", "disjointness_sweep"):
        monkeypatch.setattr(qtri.analysis, name, no_work)
    outs = {"bench": ["--out-csv", str(tmp_path / "rows.csv"),
                      "--out-json", str(tmp_path / "fit.json")],
            "lemma-checks": ["--out", str(tmp_path / "checks.json")]}
    assert run(args + outs[args[0]]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_adversary_command(tmp_path):
    f, gamma = or_star_instance(2)
    fpath = tmp_path / "or2.json"
    gpath = tmp_path / "star.json"
    fpath.write_text(json.dumps(f.to_json()))
    gpath.write_text(json.dumps({"matrix": gamma.tolist()}))
    out = tmp_path / "adv.json"
    code = run(["adversary", "--function", str(fpath), "--gamma", str(gpath),
                "--diagnostic", "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert obj["raw_ratio"] == pytest.approx(math.sqrt(2), abs=1e-9)
    assert obj["barrier"] == pytest.approx(2 * math.sqrt(2), abs=1e-9)
    assert obj["within_barrier"] is True
    assert obj["decomposition"]["ok"] is True


def test_adversary_command_computes_each_quantity_once(tmp_path, monkeypatch):
    f = triangle_property_function()
    gamma = random_valid_gamma(f, np.random.default_rng(0))
    fpath, gpath = tmp_path / "tri.json", tmp_path / "gamma.json"
    fpath.write_text(json.dumps(f.to_json()))
    gpath.write_text(json.dumps(gamma.tolist()))
    certificates, stacks = [], []
    real_certificate_size = qtri.adversary.certificate_size
    real_kernel = qtri.adversary._dominant_eigenpairs

    def counting_certificate_size(g):
        certificates.append(g)
        return real_certificate_size(g)

    def counting_kernel(mats, tol, max_iter):
        stacks.append(len(mats))
        return real_kernel(mats, tol, max_iter)

    monkeypatch.setattr(qtri.adversary, "certificate_size", counting_certificate_size)
    monkeypatch.setattr(qtri.cli, "certificate_size", counting_certificate_size)
    monkeypatch.setattr(qtri.adversary, "_dominant_eigenpairs", counting_kernel)
    assert run(["adversary", "--function", str(fpath), "--gamma", str(gpath),
                "--out", str(tmp_path / "adv.json")]) == 0
    assert len(certificates) == 1
    assert stacks == [1] * (f.n + 1)  # gamma and its n restrictions, one kernel call each


def test_adversary_rejects_invalid_gamma(tmp_path):
    f, _ = or_star_instance(2)
    fpath = tmp_path / "or2.json"
    gpath = tmp_path / "bad.json"
    fpath.write_text(json.dumps(f.to_json()))
    gpath.write_text(json.dumps(np.ones((3, 3)).tolist()))
    assert run(["adversary", "--function", str(fpath), "--gamma", str(gpath)]) == 2


def test_unreadable_input_fails(tmp_path):
    assert run(["solve", "--graph", str(tmp_path / "missing.txt")]) == 2


def test_oversized_graph_file_is_bad_input(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1000000000000\n")
    assert run(["solve", "--graph", str(path)]) == 2
    assert "exceeds the maximum" in capsys.readouterr().err


def test_internal_invariant_failure_is_not_bad_input(monkeypatch):
    def broken(*args, **kwargs):
        raise VerificationError("candidate (1, 2, 3) failed verification")

    monkeypatch.setattr(qtri.cli, "solve", broken)
    with pytest.raises(VerificationError):
        run(["solve", "--n", "16", "--gen", "complete"])
