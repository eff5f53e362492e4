"""Query accounting: the only billed gateway to the hidden graph.

Algorithm code reads adjacency only through `QueryOracle.query` (one probe),
`QueryOracle.query_row` (the probes (v, u) for a batch of u in one
vectorised read) or `QueryOracle.read_rows` (the whole rows of a batch of
vertices in one block read); each bills one classical unit per probed pair,
duplicates included.  Modeled quantum subroutines bill their iteration counts
via `charge`, or via `charge_batch` for all the attempts of one search in one
ledger call.  A batch that crosses the budget bills and raises exactly as its
items billed one at a time would.  Simulator-privileged reads of the hidden
graph (used to sample subroutine outcomes) never touch the counters.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .graphs import Graph


class StepTag(Enum):
    STEP1 = "Step1"
    STEP2 = "Step2"
    STEP3 = "Step3"
    STEP4 = "Step4"
    STEP5 = "Step5"
    STEP6 = "Step6"
    STEP7 = "Step7"
    STEP8 = "Step8"
    STEP9 = "Step9"
    STEP10 = "Step10"
    VERIFY = "Verify"


class BudgetExceededError(RuntimeError):
    """The run consumed more queries than its budget allows.

    This signals a malformed cost analysis, not bad luck; the run aborts.
    """


class VerificationError(RuntimeError):
    """A reported triangle failed classical verification.

    Every search model returns only genuinely marked items, so this is an
    internal invariant failure, never a property of the input graph.
    """


def default_budget(n: int) -> int:
    """Generous multiple of the expected total so legitimate runs never trip."""
    return math.ceil(50.0 * n ** (10.0 / 7.0) * math.log(n) ** 2)


@dataclass(frozen=True)
class LedgerReport:
    """Immutable snapshot of all counters."""

    classical: int
    charged: int
    total: int
    per_step: dict[str, int]
    budget: int | None

    def to_json(self) -> dict:
        return {
            "classical": self.classical,
            "charged": self.charged,
            "total": self.total,
            "per_step": dict(self.per_step),
            "budget": self.budget,
        }


class QueryLedger:
    """Monotone query-cost accumulator with a per-step breakdown."""

    __slots__ = ("classical", "charged", "per_step", "budget")

    def __init__(self, budget: int | None = None) -> None:
        self.classical = 0
        self.charged = 0
        self.per_step: dict[StepTag, int] = {tag: 0 for tag in StepTag}
        self.budget = budget

    @property
    def total(self) -> int:
        return self.classical + self.charged

    def _check_budget(self) -> None:
        if self.budget is not None and self.total > self.budget:
            raise BudgetExceededError(
                f"query budget exceeded: total={self.total} > budget={self.budget}"
            )

    def record_queries(self, count: int, tag: StepTag) -> None:
        """Bill `count` classical probes, one unit each.

        A batch that crosses the budget bills only up to the first probe over
        it, then raises the same error as billing its probes one at a time.
        """
        if count < 0:
            raise ValueError("query count must be >= 0")
        if count and self.budget is not None:
            count = min(count, max(1, self.budget + 1 - self.total))
        self.classical += count
        self.per_step[tag] += count
        self._check_budget()

    def record_charges(self, amounts: Sequence[int], tag: StepTag) -> None:
        """Bill a run of charges in one call.

        The counters and the error are those of billing each amount in turn:
        a run that crosses the budget bills through its first amount that
        leaves the total over it, then raises.  A negative amount raises
        ValueError before anything is billed.
        """
        if not amounts:
            return
        if min(amounts) < 0:
            raise ValueError("charge amount must be >= 0")
        amount = sum(amounts)
        if self.budget is not None and self.total + amount > self.budget:
            running = list(itertools.accumulate(amounts))
            amount = running[bisect.bisect_right(running, self.budget - self.total)]
        self.charged += amount
        self.per_step[tag] += amount
        self._check_budget()

    def snapshot(self) -> LedgerReport:
        return LedgerReport(
            classical=self.classical,
            charged=self.charged,
            total=self.total,
            per_step={tag.value: count for tag, count in self.per_step.items()},
            budget=self.budget,
        )


class QueryOracle:
    """Hidden graph plus its ledger.

    `hidden` is simulator privilege: outcome samplers and report code may
    read it, the algorithm under test must not.
    """

    __slots__ = ("hidden", "ledger")

    def __init__(self, graph: Graph, budget: int | None = None) -> None:
        self.hidden = graph
        if budget is None:
            budget = default_budget(graph.n)
        self.ledger = QueryLedger(budget)

    @property
    def n(self) -> int:
        return self.hidden.n

    def query(self, a: int, b: int, tag: StepTag) -> int:
        """Billed read of one adjacency bit."""
        bit = 1 if self.hidden.has_edge(a, b) else 0
        self.ledger.record_queries(1, tag)
        return bit

    def query_row(self, v: int, targets: Sequence[int] | np.ndarray, tag: StepTag) -> np.ndarray:
        """Billed read of the bits (v, u) for every u in `targets`, in order.

        Bills one unit per entry of `targets`, duplicates included, so it is
        the same cost as calling `query(v, u, tag)` for each u; a loop or an
        out-of-range vertex raises ValueError before anything is billed.
        """
        targets = np.asarray(targets, dtype=np.intp)
        if targets.ndim != 1:
            raise ValueError("targets must be one-dimensional")
        row = self.hidden.row(v)
        if targets.size:
            low, high = int(targets.min()), int(targets.max())
            if low < 1 or high > self.n:
                bad = low if low < 1 else high
                raise ValueError(f"vertex {bad} out of range 1..{self.n}")
            if (targets == v).any():
                raise ValueError(f"loops are not allowed: ({v},{v})")
        bits = row[targets]
        self.ledger.record_queries(targets.size, tag)
        return bits

    def read_rows(self, vertices: Sequence[int] | np.ndarray, tag: StepTag) -> np.ndarray:
        """Billed block read of the whole rows of `vertices`, in order.

        Bills n - 1 units per entry of `vertices`, duplicates included, so it
        is the same cost as reading each row with `query_row`; an
        out-of-range vertex raises ValueError before anything is billed.
        Returns the len(vertices) x (n+1) boolean matrix of the rows, columns
        indexed 0..n (column 0 unused).
        """
        rows = self.hidden.rows(vertices)
        self.ledger.record_queries(len(rows) * (self.n - 1), tag)
        return rows

    def charge(self, amount: int, tag: StepTag) -> None:
        """Bill a modeled quantum subroutine's oracle applications."""
        self.ledger.record_charges((amount,), tag)

    def charge_batch(self, amounts: Sequence[int], tag: StepTag) -> None:
        """Bill consecutive modeled runs in one ledger call, stopping at the
        first that crosses the budget as billing each with `charge` would."""
        self.ledger.record_charges(amounts, tag)

    def report(self) -> LedgerReport:
        return self.ledger.snapshot()


def verify_triangle(oracle: QueryOracle, tri: tuple[int, int, int]) -> None:
    """Bill the three classical probes (a,b), (b,c), (a,c) that confirm a
    candidate triangle before it is reported.

    Raises VerificationError (not an assert, so `python -O` keeps the run
    one-sided) when any of the three pairs is not a hidden edge.
    """
    a, b, c = tri
    hits = [
        oracle.query(a, b, StepTag.VERIFY),
        oracle.query(b, c, StepTag.VERIFY),
        oracle.query(a, c, StepTag.VERIFY),
    ]
    if not all(hits):
        raise VerificationError(f"candidate {tri} failed verification")
