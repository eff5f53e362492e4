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
    g.degrees()
    g.rows([1])
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
# query_rows: bulk billed reads, one row of targets per vertex


def test_graph_row_matches_has_edge():
    g = generate("erdos_renyi", 37, seed=4, p=0.4)
    for v in (1, 9, 37):
        [row] = g.rows([v]).dense()
        assert row.dtype == bool and row.shape == (38,)
        assert not row[0] and not row[v]
        assert [u for u in range(1, 38) if row[u]] == [
            u for u in range(1, 38) if u != v and g.has_edge(u, v)
        ]
    with pytest.raises(ValueError):
        g.rows([38])


def test_query_row_matches_per_probe_queries():
    g = generate("erdos_renyi", 40, seed=2, p=0.5)
    bulk, single = QueryOracle(g), QueryOracle(g)
    targets = [3, 40, 1, 3, 17, 2, 39, 3]
    bits = bulk.query_rows([5], [targets], StepTag.STEP5)
    assert bits.dtype == bool and bits.shape == (1, 8)
    assert bits[0].tolist() == [bool(single.query(5, u, StepTag.STEP5)) for u in targets]
    assert bulk.report() == single.report()
    # several rows, a vertex repeated, bill as their probes in row-major order
    vertices, rows = [7, 1, 7], [[1, 2, 40, 2], [3, 3, 5, 40], [40, 39, 38, 8]]
    bits = bulk.query_rows(np.array(vertices), np.array(rows), StepTag.STEP7)
    assert bits.tolist() == [[bool(single.query(v, u, StepTag.STEP7)) for u in row]
                             for v, row in zip(vertices, rows)]
    assert bulk.report() == single.report()


def test_query_row_bills_every_target_including_duplicates():
    o = QueryOracle(generate("erdos_renyi", 20, seed=1, p=0.5))
    o.query(1, 2, StepTag.STEP7)
    o.query_rows([4, 4], np.array([[1, 1, 1, 2, 20], [1, 1, 1, 1, 1]]), StepTag.STEP7)
    rep = o.report()
    assert rep.classical == 11
    assert rep.per_step["Step7"] == 11
    assert rep.total == rep.classical + rep.charged == sum(rep.per_step.values())


def test_query_row_empty_targets_bill_nothing():
    o = QueryOracle(K3)
    assert o.query_rows([2], [[]], StepTag.STEP1).shape == (1, 0)
    assert o.query_rows([], np.empty((0, 3), dtype=int), StepTag.STEP1).shape == (0, 3)
    assert o.report().total == 0


@pytest.mark.parametrize(
    "v, targets",
    [(2, [1, 2]), (1, [2, 4]), (1, [0, 2]), (1, [-1]), (0, [1]), (4, [1])],
)
def test_query_row_rejects_loops_and_range_before_billing(v, targets):
    o = QueryOracle(K3)
    with pytest.raises(ValueError):
        o.query_rows([v], [targets], StepTag.STEP1)
    # a bad row after a good one, even past a stop, bills nothing either
    with pytest.raises(ValueError):
        o.query_rows([3, v], [[1] * len(targets), targets], StepTag.STEP1, stop=lambda bits: [True, True])
    assert o.report().total == 0


@pytest.mark.parametrize(
    "vertices, targets",
    [([1, 2], [[3]]), ([1], [2, 3]), ([1], [[[2]]]), ([], [[1]]), ([1, 2], [[3], [3], [1]])],
)
def test_query_rows_reject_bad_shapes_before_billing(vertices, targets):
    # one row of targets per vertex, two-dimensional: the packed read checks the
    # shape before the loop check, the predicate and the bill
    o = QueryOracle(K3)
    seen = []
    with pytest.raises(ValueError, match="do not give one row per vertex"):
        o.query_rows(vertices, targets, StepTag.STEP5, stop=lambda bits: seen.append(bits) or [True])
    assert not seen and o.report().total == 0


def test_query_row_budget_crossing_matches_per_probe_billing():
    g = Graph(8, [(1, 2), (1, 5)])
    bulk, single = QueryOracle(g, budget=10), QueryOracle(g, budget=10)
    for o in (bulk, single):
        o.query_rows([1], [[2, 3, 4]], StepTag.STEP1)
    with pytest.raises(BudgetExceededError) as bulk_err:
        bulk.query_rows([1], [[2, 3, 4, 5, 6, 7, 8, 2, 3]], StepTag.STEP1)
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
        bulk.query_rows([1, 2], [[2, 3, 4], [1, 3, 4]], StepTag.STEP9)
    with pytest.raises(BudgetExceededError) as single_err:
        single.query(1, 2, StepTag.STEP9)
    assert str(bulk_err.value) == str(single_err.value)
    assert bulk.report() == single.report()


@pytest.mark.parametrize("stop_at", [0, 1, 3, 4, None])
def test_query_rows_bill_through_the_first_stopped_row(stop_at):
    g = generate("erdos_renyi", 30, seed=6, p=0.5)
    o = QueryOracle(g)
    vertices = np.array([3, 9, 1, 30, 17])
    targets = np.array([[u for u in range(1, 31) if u != v][:7] for v in vertices])
    seen = []

    def stop(bits):
        seen.append(bits.copy())
        flags = np.zeros(len(bits), dtype=bool)
        flags[stop_at:] = stop_at is not None
        return flags

    bits = o.query_rows(vertices, targets, StepTag.STEP5, stop=stop)
    rows = len(vertices) if stop_at is None else stop_at + 1
    assert bits.shape == (rows, 7) and o.report().classical == rows * 7
    assert o.report().per_step["Step5"] == rows * 7
    # the predicate saw every row's bits, and the read returns the billed ones
    assert np.array_equal(seen[0], g.rows(vertices).dense()[np.arange(5)[:, None], targets])
    assert np.array_equal(bits, seen[0][:rows])


@pytest.mark.parametrize("budget", [0, 6, 7, 8, 13, 20, 21, 34, 35])
@pytest.mark.parametrize("stop_at", [2, None])
def test_query_rows_budget_crossing_inside_a_row_matches_per_probe_billing(budget, stop_at):
    # five rows of seven: a budget below 35 runs out inside a row of the batch,
    # unless a stop at row 2 ends the read first
    g = generate("erdos_renyi", 12, seed=2, p=0.5)
    vertices = [1, 12, 5, 5, 8]
    targets = [[u for u in range(1, 13) if u != v][:7] for v in vertices]
    bulk, single = QueryOracle(g, budget=budget), QueryOracle(g, budget=budget)
    billed = 5 if stop_at is None else stop_at + 1
    errors = []
    try:
        bulk.query_rows(vertices, targets, StepTag.STEP5,
                        stop=lambda bits: np.arange(len(bits)) == stop_at)
    except BudgetExceededError as err:
        errors.append(str(err))
    try:
        for v, row in list(zip(vertices, targets))[:billed]:
            for u in row:
                single.query(v, u, StepTag.STEP5)
    except BudgetExceededError as err:
        errors.append(str(err))
    assert len(errors) == (2 if budget < 7 * billed else 0) and len(set(errors)) <= 1
    assert bulk.report() == single.report()
    assert bulk.report().classical == min(budget + 1, 7 * billed)


# ---------------------------------------------------------------------------
# read_rows and charge_batch: one ledger call per batch


def test_read_rows_matches_graph_row_and_bills_every_row():
    g = generate("erdos_renyi", 30, seed=3, p=0.5)
    o = QueryOracle(g)
    o.query(1, 2, StepTag.STEP7)
    vertices = [5, 30, 1, 5, 12]  # unsorted, with a duplicate
    rows = o.read_rows(vertices, StepTag.STEP1).dense()
    assert rows.dtype == bool and rows.shape == (5, 31)
    for v, row in zip(vertices, rows):
        assert row.tolist() == g.rows([v]).dense()[0].tolist()
    rep = o.report()
    assert rep.per_step["Step1"] == 5 * 29  # duplicates billed
    assert rep.classical == 5 * 29 + 1
    assert o.read_rows([], StepTag.STEP1).dense().shape == (0, 31)
    assert o.report() == rep


@pytest.mark.parametrize("vertices", [[1, 0], [4], [-1, 2], [[1, 2]]])
def test_read_rows_rejects_bad_vertices_before_billing(vertices):
    o = QueryOracle(K3)
    with pytest.raises(ValueError):
        o.read_rows(vertices, StepTag.STEP1)
    assert o.report().total == 0


def test_reads_reject_non_integer_labels_before_billing():
    # a float label must not be truncated to a vertex and read, nor fail as a bad index
    o = QueryOracle(generate("erdos_renyi", 6, seed=1, p=0.5))
    reads = [
        lambda: o.query(1.5, 2, StepTag.STEP1),
        lambda: o.query(1, 2.0, StepTag.STEP1),
        lambda: o.query(True, 2, StepTag.STEP1),
        lambda: o.query_rows([1], [[2.9, 3.2]], StepTag.STEP5),
        lambda: o.query_rows([1], np.array([[True, False]]), StepTag.STEP5),
        lambda: o.query_rows([1.0], [[2, 3]], StepTag.STEP5),
        lambda: o.query_rows(np.array([True]), [[2, 3]], StepTag.STEP5),
        lambda: o.read_rows([2.5], StepTag.STEP1),
        lambda: o.read_rows(np.array([True]), StepTag.STEP1),
    ]
    for read in reads:
        with pytest.raises(ValueError, match="vertex labels must be integers"):
            read()
    assert o.report().total == 0
    assert o.query_rows([1], np.array([[]], dtype=float), StepTag.STEP5).shape == (1, 0)
    assert o.read_rows([], StepTag.STEP1).dense().shape == (0, 7)
    assert o.report().total == 0


def spend(oracle, amount):
    """Charge `amount` to Step2, letting it go over the budget."""
    try:
        oracle.charge(amount, StepTag.STEP2)
    except BudgetExceededError:
        pass


@pytest.mark.parametrize("budget, spent", [(40, 0), (20, 3), (3, 5)])
def test_read_rows_budget_crossing_matches_per_row_reads(budget, spent):
    g = Graph(8, [(1, 2), (1, 5)])
    bulk, single = QueryOracle(g, budget=budget), QueryOracle(g, budget=budget)
    errors = []
    for o, read in ((bulk, lambda o, vs: o.read_rows(vs, StepTag.STEP1)),
                    (single, lambda o, vs: [o.query_rows([v], [[u for u in range(1, 9) if u != v]],
                                                         StepTag.STEP1) for v in vs])):
        spend(o, spent)
        try:
            read(o, [1, 2, 3, 4])
        except BudgetExceededError as err:
            errors.append(str(err))
    assert len(errors) == (0 if budget >= spent + 4 * 7 else 2)
    assert len(set(errors)) <= 1
    assert bulk.report() == single.report()


def per_charge(oracle, amounts, tag):
    """Reference: bill the amounts one at a time, checking the budget after each."""
    for amount in amounts:
        oracle.charged += amount
        oracle.per_step[tag] += amount
        oracle._check_budget()


@pytest.mark.parametrize(
    "budget, spent, amounts",
    [
        (100, 7, [5, 0, 12, 30]),  # fits
        (100, 7, [40, 40, 40, 40]),  # crosses at the third charge
        (100, 7, [93, 1, 2]),  # reaches the budget exactly, then crosses
        (100, 7, [0, 0, 94, 5]),  # crosses at the third charge after free ones
        (10, 15, [4, 4]),  # issued over an already-exceeded budget
        (10, 15, [0, 4]),  # a free first charge still meets the exceeded budget
        (10, 15, []),  # an empty batch bills nothing and raises nothing
        (None, 7, [10**9, 5]),  # no budget
    ],
)
def test_charge_batch_matches_per_charge_billing(budget, spent, amounts):
    g = Graph(8)
    batched, single = QueryOracle(g), QueryOracle(g)
    errors = []
    for o, bill in ((batched, QueryOracle.charge_batch), (single, per_charge)):
        o.budget = budget
        spend(o, spent)
        try:
            bill(o, amounts, StepTag.STEP9)
        except BudgetExceededError as err:
            errors.append(str(err))
    assert len(errors) in (0, 2)
    assert len(set(errors)) <= 1
    assert batched.report() == single.report()
    rep = batched.report()
    assert rep.total == rep.classical + rep.charged == sum(rep.per_step.values())


def test_empty_batches_on_an_exceeded_budget_bill_nothing_and_raise_nothing():
    o = QueryOracle(Graph(8), budget=3)
    spend(o, 5)
    rep = o.report()
    assert o.query_rows([1], [[]], StepTag.STEP5).shape == (1, 0)
    assert o.read_rows([], StepTag.STEP7).dense().shape == (0, 9)
    o.charge_batch([], StepTag.STEP9)
    assert o.report() == rep


def test_charge_batch_rejects_a_negative_amount_before_billing():
    o = QueryOracle(K3)
    with pytest.raises(ValueError):
        o.charge_batch([3, -1, 2], StepTag.STEP2)
    assert o.report().total == 0


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
