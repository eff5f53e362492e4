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

import numpy as np
import pytest

from qtri import Graph, Params, QueryOracle, generate, solve

FIXTURE = Path(__file__).with_name("golden_reports.json")


def bipartite_host(n, degree, seed, hub=0.0, triangle=()):
    """Random bipartite graph on sides 1..n//2 and the rest, mean degree `degree`.

    Vertex 1 is joined to each right-side vertex with probability `hub`
    (0 keeps it ordinary); `triangle` optionally adds the three pairs of one
    vertex triple, which makes the host a yes-instance.
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
    return Graph(n, edges)


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


def test_cases_reach_the_late_steps(golden):
    """The fixture keeps exercising steps 5, 7, 9 and 10 and the verifier, and
    at default Params steps 9 and 10 each find a triangle."""
    billed = {step for report in golden.values()
              for step, count in report["cost"]["per_step"].items() if count}
    assert {"Step5", "Step7", "Step9", "Step10", "Verify"} <= billed
    found_by = {last_billed_step(r) for r in golden.values()
                if r["outcome"]["type"] == "triangle" and r["params"] == Params().to_json()}
    assert {9, 10} <= found_by


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
