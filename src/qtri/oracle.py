"""Query accounting: the only billed gateway to the hidden graph.

`QueryOracle` holds the hidden graph, the query counters and the budget.
Algorithm code reads adjacency only through `QueryOracle.query` (one probe),
`QueryOracle.query_rows` (the probes (v, u) for a batch of u per vertex v,
in one vectorised read of the packed rows, billed through the first row that
a caller's predicate stops at) or `QueryOracle.read_rows` (the whole rows of
a batch of vertices in one block read, handed back still packed as a
`graphs.Rows`); each bills one classical unit per probed pair, duplicates
included.  Modeled quantum subroutines bill their iteration counts via
`charge`, or via `charge_batch` for all the attempts of one search in one
call.  Reads and charges share one crossing rule: a batch that crosses the
budget bills and raises exactly as its items billed one at a time would, and
an empty batch bills nothing.  Simulator-privileged reads of the hidden
graph (used to sample subroutine outcomes) never touch the counters.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .graphs import Graph, Rows


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
        return asdict(self)


class QueryOracle:
    """Hidden graph plus the query counters and the budget.

    `hidden` is simulator privilege: outcome samplers and report code may
    read it, the algorithm under test must not.  `classical` and `charged`
    count billed probes and modeled oracle applications, `per_step` splits
    their sum by step.
    """

    __slots__ = ("hidden", "classical", "charged", "per_step", "budget")

    def __init__(self, graph: Graph, budget: int | None = None) -> None:
        self.hidden = graph
        self.classical = 0
        self.charged = 0
        self.per_step: dict[StepTag, int] = {tag: 0 for tag in StepTag}
        self.budget = default_budget(graph.n) if budget is None else budget

    @property
    def n(self) -> int:
        return self.hidden.n

    def _check_budget(self) -> None:
        total = self.classical + self.charged
        if self.budget is not None and total > self.budget:
            raise BudgetExceededError(f"query budget exceeded: total={total} > budget={self.budget}")

    def _bill(self, running: Sequence[int], tag: StepTag, charged: bool) -> None:
        """Bill a batch given the running totals of its items.

        Bills the whole batch or, if it crosses the budget, everything through
        its first item that takes the total over it, then raises: the counters
        and the error of billing the items one at a time.  An empty batch
        bills nothing and raises nothing.
        """
        if not running:
            return
        amount = running[-1]
        if self.budget is not None:
            room = self.budget - self.classical - self.charged
            if amount > room:
                amount = running[bisect.bisect_right(running, room)]
        if charged:
            self.charged += amount
        else:
            self.classical += amount
        self.per_step[tag] += amount
        self._check_budget()

    def query(self, a: int, b: int, tag: StepTag) -> int:
        """Billed read of one adjacency bit."""
        bit = 1 if self.hidden.has_edge(a, b) else 0
        self._bill(range(1, 2), tag, charged=False)
        return bit

    def query_rows(self, vertices: Sequence[int] | np.ndarray, targets: Sequence[Sequence[int]] | np.ndarray,
                   tag: StepTag, stop: Callable[[np.ndarray], np.ndarray] | None = None) -> np.ndarray:
        """Billed read of the bits (vertices[i], u) for every u in row i of the
        two-dimensional `targets`, one unit per entry, duplicates included, so
        the same cost as `query(v, u, tag)` for each pair in row-major order.
        `stop` maps the rows' bits to a flag per row: the read bills and
        returns the rows through the first flagged one.  A loop or a label
        that is no integer in 1..n raises ValueError before anything is billed.
        """
        bits = self.hidden.rows(vertices).at(targets)  # checks every label and range
        if (np.asarray(targets) == np.asarray(vertices)[:, None]).any():
            raise ValueError("loops are not allowed")
        if stop is not None and len(flagged := np.flatnonzero(stop(bits))):
            bits = bits[: flagged[0] + 1]
        self._bill(range(1, bits.size + 1), tag, charged=False)
        return bits

    def read_rows(self, vertices: Sequence[int] | np.ndarray, tag: StepTag) -> Rows:
        """Billed block read of the whole rows of `vertices`, in order.

        Bills n - 1 units per entry of `vertices`, duplicates included, so it
        is the same cost as reading each row with `query_rows`; a label that
        is no integer in 1..n raises ValueError before anything is billed.
        Returns the rows still packed, as the `graphs.Rows` reader.
        """
        rows = self.hidden.rows(vertices)
        self._bill(range(1, len(rows) * (self.n - 1) + 1), tag, charged=False)
        return rows

    def charge(self, amount: int, tag: StepTag) -> None:
        """Bill a modeled quantum subroutine's oracle applications."""
        self.charge_batch((amount,), tag)

    def charge_batch(self, amounts: Sequence[int], tag: StepTag) -> None:
        """Bill consecutive modeled runs in one call, stopping at the first
        that crosses the budget as billing each with `charge` would; a
        negative amount raises ValueError before anything is billed."""
        if amounts and min(amounts) < 0:
            raise ValueError("charge amount must be >= 0")
        self._bill(list(itertools.accumulate(amounts)), tag, charged=True)

    def report(self) -> LedgerReport:
        return LedgerReport(
            classical=self.classical,
            charged=self.charged,
            total=self.classical + self.charged,
            per_step={tag.value: count for tag, count in self.per_step.items()},
            budget=self.budget,
        )


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
