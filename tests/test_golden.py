"""Golden run reports: byte-identity gate for speed-ups.

Every case below is one (instance, params, seed) run whose full
`RunReport.to_json()` is frozen in golden_reports.json.  A change that only
makes the simulation faster must leave every report byte-identical; a change
that means to alter the algorithm's output re-records the fixture with

    PYTHONPATH=src python tests/test_golden.py --record

and says why in its change notes.

The cases cover runs that end at step 2 (dense random and planted-triangle
instances), triangle-free hosts that go through the peel, the degree
classification (steps 5-7) and both final searches, a host large enough that
the default sample is cut below n, and yes-instances that are only settled by
steps 7, 9 or 10 because the sample is cut below n, two of them at default
Params.
"""

import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from qtri import Graph, Params, QueryOracle, generate, graphs, solve, solver

FIXTURE = Path(__file__).with_name("golden_reports.json")


def bipartite_host(n, degree, seed, hub=0.0, triangle=(), hub_at=1):
    """Random bipartite graph on sides 1..n//2 and the rest, mean degree `degree`.

    Vertex 1 is joined to each right-side vertex with probability `hub`
    (0 keeps it ordinary); `triangle` optionally adds the three pairs of one
    vertex triple, which makes the host a yes-instance.  Last, labels 1 and
    `hub_at` swap, triangle included, which moves the hub to `hub_at`.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    prob = np.full((half, n - half), degree / (n - half))
    prob[0, :] = hub
    rows, cols = np.nonzero(rng.random(prob.shape) < prob)
    edges = list(zip((rows + 1).tolist(), (cols + half + 1).tolist()))
    if triangle:
        a, b, c = triangle
        edges += [(a, b), (b, c), (a, c)]
    label = np.arange(n + 1)
    label[[1, hub_at]] = label[[hub_at, 1]]
    return Graph(n, label[np.array(edges, dtype=np.intp).reshape(-1, 2)].tolist())


STEP7 = Params(epsilon_prime=0.3, delta=0.4)  # high-degree verdicts reach step 7
SMALL_SAMPLE = Params(epsilon=0.1)  # k < n, so step 2 can miss a triangle

# name -> (instance builder, params, solve seed)
CASES = {
    "er64_dense_yes": (lambda: generate("erdos_renyi", 64, 3, p=0.5), Params(), 0),
    "planted128_yes": (lambda: generate("planted_triangle", 128, 4, p=0.02), Params(), 1),
    "planted96_yes": (lambda: generate("planted_triangle", 96, 5, p=0.03), Params(), 0),
    "blowup64_no": (lambda: generate("bipartite_blowup", 64, 0), Params(), 0),
    "five_cycle64_no": (lambda: generate("triangle_free_dense", 64, 1), Params(), 0),
    "er100_sparse_no": (lambda: generate("erdos_renyi", 100, 3, p=0.01), Params(), 0),
    "host64_no": (lambda: bipartite_host(64, 3, 1), Params(), 0),
    # default Params cut the sample below n here, so the peel's live rows shrink well below n
    "host1024_no": (lambda: bipartite_host(1024, 3, 7), Params(), 0),
    "host128_hub_step7_no": (
        lambda: bipartite_host(128, 2, 5, hub=0.3), Params(delta=0.5), 0,
    ),
    "host96_hub_step7_no": (lambda: bipartite_host(96, 4, 3, hub=0.6), STEP7, 0),
    "host128_hub_step7_stall_no": (lambda: bipartite_host(128, 3, 2, hub=0.5), STEP7, 0),
    "host128_step10_yes": (
        lambda: bipartite_host(128, 3, 1, triangle=(2, 3, 70)), SMALL_SAMPLE, 1,
    ),
    "host128_hub_step7_yes": (
        lambda: bipartite_host(128, 3, 2, hub=0.5, triangle=(1, 2, 100)),
        Params(epsilon=0.1, epsilon_prime=0.3, delta=0.4),
        3,
    ),
    # vertices below the hub are classified first and move pairs to E; then
    # step 7 at the hub, vertex 40, finds (2, 40, 75) with pairs still working
    "host96_hub40_step7_late_yes": (
        lambda: bipartite_host(96, 3, 3, hub=0.5, triangle=(1, 2, 91), hub_at=40),
        Params(epsilon=0.1, epsilon_prime=0.3, delta=0.4),
        3,
    ),
    "host96_step10_yes": (
        lambda: bipartite_host(96, 3, 3, triangle=(10, 20, 60)),
        Params(epsilon=0.1, epsilon_prime=0.3, delta=0.4),
        3,
    ),
    # default Params: solve seed 0 samples 801 of the 2048 vertices, and both
    # triangles avoid the sample.  The loop classifies vertices in ascending
    # order, so 2041, 2045 and 2048 still hold their pairs when the working set
    # has shrunk below the peel threshold: they are peeled into T and step 9
    # finds the triangle.  Vertex 1 is the first vertex classified, low, so the
    # pairs of 1, 3 and 5 go to E and step 10 finds the triangle.
    "host2048_step9_yes": (
        lambda: bipartite_host(2048, 3, 0, triangle=(2041, 2045, 2048)), Params(), 0,
    ),
    "host2048_step10_yes": (
        lambda: bipartite_host(2048, 3, 0, triangle=(1, 3, 5)), Params(), 0,
    ),
    # default Params: the loop classifies a long run of low vertices below the
    # hub, vertex 2048, whose high verdict then runs step 7 in the middle of the
    # run that the loop reads in one batch
    "host4096_hub2048_step7_no": (
        lambda: bipartite_host(4096, 3, 0, hub=0.5, hub_at=2048), Params(), 0,
    ),
}


def run_case(name):
    build, params, seed = CASES[name]
    return solve(QueryOracle(build()), params, seed=seed).to_json()


def canonical(report):
    return json.dumps(report, sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="ascii"))


def test_fixture_covers_every_case(golden):
    assert set(golden) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(golden, name):
    assert canonical(run_case(name)) == canonical(golden[name])


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical_with_blocks_in_several_bands(golden, name, monkeypatch):
    """The same reports when every block is counted in bands of n^2 / 32
    cells, so a block of n / 2 vertices spans 16 bands: the peel, the
    containment check, triangle counts and step 9's sampler reduce their
    counts a band at a time."""
    build, params, seed = CASES[name]
    hidden = build()
    monkeypatch.setattr(graphs, "BAND_CELLS", hidden.n ** 2 // 32)
    assert canonical(solve(QueryOracle(hidden), params, seed=seed).to_json()) == canonical(golden[name])


def test_peeled_triangles_stay_below_the_peel_threshold_per_pair(golden):
    """Criterion 3's bound t(T) <= |T| * (tau - 1) on every frozen report: each
    triangle of T is charged to its first-peeled pair, which then had fewer
    than tau common neighbors among the working pairs."""
    for report in golden.values():
        tau = solver.peel_threshold(report["n"], report["params"]["epsilon_prime"])
        assert report["measured"]["t_of_T"] <= report["measured"]["T_size"] * (tau - 1)
    assert max(r["measured"]["t_of_T"] for r in golden.values()) > 10**8  # the hub host at n = 4096


def test_cases_reach_the_late_steps(golden):
    """The fixture keeps exercising steps 5, 7, 9 and 10 and the verifier, and
    at default Params steps 9 and 10 each find a triangle."""
    billed = {step for report in golden.values()
              for step, count in report["cost"]["per_step"].items() if count}
    assert {"Step5", "Step7", "Step9", "Step10", "Verify"} <= billed
    found_by = {last_billed_step(r) for r in golden.values()
                if r["outcome"]["type"] == "triangle" and r["params"] == Params().to_json()}
    assert {9, 10} <= found_by
    # a step-7 triangle found after pairs moved to E leaves pairs working
    assert any(m["E_size"] and m["T_size"] + m["E_size"] < m["gprime_size"]
               for m in (r["measured"] for r in golden.values()))


@pytest.mark.parametrize("name", ["host96_hub_step7_no", "host96_hub40_step7_late_yes"])
def test_pools_and_working_pairs_partition_gprime(name):
    """T is the pairs the peels returned and E the rest of G' that left the
    working set, on a full run and on a run that step 7 ends mid-loop."""
    seen = {}
    build_gprime, loop = solver.step2_build_gprime, solver.step8_loop

    def step2(*args):
        out = build_gprime(*args)
        seen["gprime"] = out[1]
        return out

    def step8(oracle, working, *args):
        out = loop(oracle, working, *args)
        seen["peeled"], seen["working"] = working.peeled.graph(), working.graph()
        return out

    build, params, seed = CASES[name]
    with mock.patch.object(solver, "step2_build_gprime", step2), \
            mock.patch.object(solver, "step8_loop", step8), \
            mock.patch.object(Graph, "__and__", autospec=True, side_effect=Graph.__and__) as spy:
        report = solve(QueryOracle(build()), params, seed=seed)
    gprime, t, working = (set(seen[key].edges()) for key in ("gprime", "peeled", "working"))
    e = set(spy.call_args_list[0].args[1].edges())  # solve counts G_cap_E on E first
    assert not (t & e or t & working or e & working)
    assert t | e | working == gprime
    assert (len(t), len(e)) == (report.measured["T_size"], report.measured["E_size"])
    assert bool(working) is (report.outcome is not None)


LATE_CASES = ["host128_step10_yes", "host96_step10_yes", "host2048_step9_yes", "host2048_step10_yes",
              "host1024_no", "host96_hub_step7_no"]


@pytest.mark.parametrize("name", LATE_CASES)
def test_no_whole_boolean_matrix_after_step2(golden, name, monkeypatch):
    """A solve holds its pair sets packed: step 2 builds G' on packed words, so
    no step before step 9 multiplies n + 1 rows in `common_bands`, and
    `adjacency` runs only inside step 9's `triangle_count`."""
    assert {"Step9", "Step10"} & {step for step, count in golden[name]["cost"]["per_step"].items() if count}
    build, params, seed = CASES[name]
    hidden = build()
    where, calls = [], []  # the traced steps open at each moment; (call, steps) per whole-matrix call

    def traced(label, fn):
        def run(*args, **kwargs):
            where.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                where.pop()
        return run

    for label in ("step2_build_gprime", "step9_search_T", "triangle_count"):
        monkeypatch.setattr(solver, label, traced(label, getattr(solver, label)))
    common_bands, adjacency = graphs.common_bands, Graph.adjacency

    def counted(rows):
        if len(rows) == hidden.n + 1:
            calls.append(("common_bands", tuple(where)))
        return common_bands(rows)

    for owner in (graphs, solver):
        monkeypatch.setattr(owner, "common_bands", counted)
    monkeypatch.setattr(Graph, "adjacency",
                        lambda self: calls.append(("adjacency", tuple(where))) or adjacency(self))
    solve(QueryOracle(hidden), params, seed=seed)
    assert all(steps == ("step9_search_T", "triangle_count") for _, steps in calls), calls


def last_billed_step(report):
    """The number of the last step that billed anything; the verifier is no step."""
    return max(int(step[len("Step"):]) for step, count in report["cost"]["per_step"].items()
               if count and step.startswith("Step"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    reports = {name: run_case(name) for name in sorted(CASES)}
    FIXTURE.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n", encoding="ascii")
    print(f"recorded {len(reports)} reports in {FIXTURE}")
