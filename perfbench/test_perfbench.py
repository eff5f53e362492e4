"""Self-test of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest perfbench/test_perfbench.py
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="ascii"))


@pytest.fixture(scope="module")
def qtri():
    return run._load_qtri()


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_traced_run_matches_untraced_and_prints_every_metric(qtri, name):
    wl = run.make_workloads(qtri, tiny=True)[name]
    plain = run.measure(qtri, wl, seed=3, seconds=0.0, trace=False)
    traced = run.measure(qtri, wl, seed=3, seconds=0.0, trace=True)

    # the wrappers must not perturb random streams or outputs
    assert plain.digests == traced.digests
    assert len(plain.digests) == run.JOBS

    for outcome, section in ((plain, "end_to_end"), (traced, "per_layer")):
        result = outcome.result
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.JOBS
        printed = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == printed
        for metric, unit in printed.items():
            [line] = [ln for ln in outcome.lines if ln.startswith(f"  {metric} = ")]
            assert line.split()[3] == unit


def test_tracing_restores_every_patched_name(qtri):
    points = spans._points(qtri)
    before = [vars(owner)[attr] for owner, attr, *_ in points]
    with spans.installed(spans.Tracer(), qtri):
        assert all(vars(owner)[attr] is not fn for (owner, attr, *_), fn in zip(points, before))
    assert [vars(owner)[attr] for owner, attr, *_ in points] == before


def test_structural_check_catches_a_wrong_answer(qtri):
    wl = run.make_workloads(qtri, tiny=True)["sparse_no"]
    job = wl.build(3)[0]
    report = wl.run(job)
    assert wl.check(job, report) is None
    forged = dataclasses.replace(report, outcome=(1, 2, 3))
    assert "triangle-free" in wl.check(job, forged)
