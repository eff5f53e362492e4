"""Ledger semantics: billing, budgets, snapshots, and privileged reads."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qtri import (
    BudgetExceededError,
    Graph,
    QueryOracle,
    StepTag,
    VerificationError,
    default_budget,
    generate,
    triangle_count,
    verify_triangle,
)

K3 = Graph(3, [(1, 2), (2, 3), (1, 3)])


def test_query_returns_bit_and_bills():
    o = QueryOracle(K3)
    assert o.query(1, 2, StepTag.STEP1) == 1
    assert o.report().total == 1
    empty = QueryOracle(Graph(4))
    assert empty.query(1, 2, StepTag.STEP1) == 0
    assert empty.report().total == 1


def test_query_additivity():
    o = QueryOracle(Graph(6))
    pairs = [(a, b) for a in range(1, 6) for b in range(a + 1, 7)][:10]
    for a, b in pairs:
        o.query(a, b, StepTag.STEP2)
    rep = o.report()
    assert rep.total == rep.classical == 10
    assert rep.per_step["Step2"] == 10


def test_query_rejects_loops_and_range():
    o = QueryOracle(K3)
    with pytest.raises(ValueError):
        o.query(2, 2, StepTag.STEP1)
    with pytest.raises(ValueError):
        o.query(1, 9, StepTag.STEP1)
    with pytest.raises(ValueError):
        o.query(0, 2, StepTag.STEP1)
    assert o.report().total == 0  # failed probes are not billed


def test_charge_examples():
    o = QueryOracle(K3)
    o.charge(26, StepTag.STEP2)
    assert o.report().charged == 26
    o.charge(0, StepTag.STEP2)
    assert o.report().charged == 26
    o.query(1, 2, StepTag.STEP2)
    rep = o.report()
    assert rep.total == 27 and rep.classical == 1
    assert rep.per_step["Step2"] == 27
    with pytest.raises(ValueError):
        o.charge(-1, StepTag.STEP2)


def test_budget_exceeded():
    o = QueryOracle(Graph(8), budget=3)
    o.charge(3, StepTag.STEP9)
    with pytest.raises(BudgetExceededError):
        o.query(1, 2, StepTag.STEP9)


def test_default_budget_grows():
    assert default_budget(8) < default_budget(64) < default_budget(512)


def test_fresh_report_all_zero():
    rep = QueryOracle(K3).report()
    assert rep.total == rep.classical == rep.charged == 0
    assert all(v == 0 for v in rep.per_step.values())
    assert set(rep.per_step) == {f"Step{i}" for i in range(1, 11)} | {"Verify"}


def test_report_is_a_snapshot():
    o = QueryOracle(K3)
    o.query(1, 2, StepTag.STEP1)
    rep = o.report()
    o.query(1, 3, StepTag.STEP1)
    o.charge(5, StepTag.STEP9)
    assert rep.total == 1
    assert rep.per_step["Step1"] == 1
    assert o.report().total == 7


def test_totals_identity():
    o = QueryOracle(K3)
    o.query(1, 2, StepTag.STEP1)
    o.charge(4, StepTag.STEP2)
    rep = o.report()
    assert rep.total == rep.classical + rep.charged == sum(rep.per_step.values())


def test_privileged_reads_do_not_bill():
    o = QueryOracle(Graph(10, [(1, 2), (2, 3), (1, 3), (4, 5)]))
    g = o.hidden
    g.has_edge(1, 2)
    g.degree(1)
    g.row(1)
    g.adjacency()
    triangle_count(g)
    list(g.edges())
    assert o.report().total == 0


def test_report_json_shape():
    o = QueryOracle(K3, budget=99)
    o.query(1, 2, StepTag.STEP1)
    obj = o.report().to_json()
    assert set(obj) == {"classical", "charged", "total", "per_step", "budget"}
    assert obj["budget"] == 99
    assert obj["per_step"]["Step1"] == 1


# ---------------------------------------------------------------------------
# query_row: bulk billed reads


def test_graph_row_matches_has_edge():
    g = generate("erdos_renyi", 37, seed=4, p=0.4)
    for v in (1, 9, 37):
        row = g.row(v)
        assert row.dtype == bool and row.shape == (38,)
        assert not row[0] and not row[v]
        assert [u for u in range(1, 38) if row[u]] == [
            u for u in range(1, 38) if u != v and g.has_edge(u, v)
        ]
    with pytest.raises(ValueError):
        g.row(38)


def test_query_row_matches_per_probe_queries():
    g = generate("erdos_renyi", 40, seed=2, p=0.5)
    bulk, single = QueryOracle(g), QueryOracle(g)
    targets = [3, 40, 1, 3, 17, 2, 39, 3]
    bits = bulk.query_row(5, targets, StepTag.STEP5)
    assert bits.dtype == bool
    assert bits.tolist() == [bool(single.query(5, u, StepTag.STEP5)) for u in targets]
    assert bulk.report() == single.report()


def test_query_row_bills_every_target_including_duplicates():
    o = QueryOracle(generate("erdos_renyi", 20, seed=1, p=0.5))
    o.query(1, 2, StepTag.STEP7)
    o.query_row(4, np.array([1, 1, 1, 2, 20]), StepTag.STEP7)
    rep = o.report()
    assert rep.classical == 6
    assert rep.per_step["Step7"] == 6
    assert rep.total == rep.classical + rep.charged == sum(rep.per_step.values())


def test_query_row_empty_targets_bill_nothing():
    o = QueryOracle(K3)
    bits = o.query_row(2, [], StepTag.STEP1)
    assert bits.shape == (0,)
    assert o.report().total == 0
    with pytest.raises(ValueError):
        o.ledger.record_queries(-1, StepTag.STEP1)


@pytest.mark.parametrize(
    "v, targets",
    [(2, [1, 2]), (1, [2, 4]), (1, [0, 2]), (1, [-1]), (0, [1]), (4, [1])],
)
def test_query_row_rejects_loops_and_range_before_billing(v, targets):
    o = QueryOracle(K3)
    with pytest.raises(ValueError):
        o.query_row(v, targets, StepTag.STEP1)
    assert o.report().total == 0


def test_query_row_budget_crossing_matches_per_probe_billing():
    g = Graph(8, [(1, 2), (1, 5)])
    bulk, single = QueryOracle(g, budget=10), QueryOracle(g, budget=10)
    for o in (bulk, single):
        o.query_row(1, [2, 3, 4], StepTag.STEP1)
    with pytest.raises(BudgetExceededError) as bulk_err:
        bulk.query_row(1, [2, 3, 4, 5, 6, 7, 8, 2, 3], StepTag.STEP1)
    with pytest.raises(BudgetExceededError) as single_err:
        for u in [2, 3, 4, 5, 6, 7, 8, 2, 3]:
            single.query(1, u, StepTag.STEP1)
    assert str(bulk_err.value) == str(single_err.value)
    assert bulk.report() == single.report()
    assert bulk.report().classical == 11  # budget + 1


def test_query_row_over_an_exceeded_budget_bills_one_probe():
    g = Graph(8)
    bulk, single = QueryOracle(g, budget=3), QueryOracle(g, budget=3)
    for o in (bulk, single):
        with pytest.raises(BudgetExceededError):
            o.charge(5, StepTag.STEP9)
    with pytest.raises(BudgetExceededError) as bulk_err:
        bulk.query_row(1, [2, 3, 4], StepTag.STEP9)
    with pytest.raises(BudgetExceededError) as single_err:
        single.query(1, 2, StepTag.STEP9)
    assert str(bulk_err.value) == str(single_err.value)
    assert bulk.report() == single.report()


# ---------------------------------------------------------------------------
# Triangle verification


def test_verify_triangle_bills_three_verify_probes_in_order():
    calls = []

    class Recording(QueryOracle):
        __slots__ = ()

        def query(self, a, b, tag):
            calls.append((a, b, tag))
            return super().query(a, b, tag)

    o = Recording(K3)
    verify_triangle(o, (1, 2, 3))
    assert calls == [(1, 2, StepTag.VERIFY), (2, 3, StepTag.VERIFY), (1, 3, StepTag.VERIFY)]
    assert o.report().per_step["Verify"] == 3


def test_verify_triangle_rejects_a_non_triangle_after_billing():
    o = QueryOracle(Graph(4, [(1, 2), (2, 3)]))
    with pytest.raises(VerificationError, match="failed verification"):
        verify_triangle(o, (1, 2, 3))
    assert o.report().per_step["Verify"] == 3


def test_verify_triangle_raises_under_optimize_flag():
    """`python -O` strips asserts; the verification must still refuse."""
    script = textwrap.dedent(
        """
        from qtri import Graph, QueryOracle, VerificationError, verify_triangle
        oracle = QueryOracle(Graph(4, [(1, 2), (2, 3)]))
        try:
            verify_triangle(oracle, (1, 2, 3))
        except VerificationError:
            print("raised", oracle.report().per_step["Verify"])
        else:
            print("accepted")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.split() == ["raised", "3"]
