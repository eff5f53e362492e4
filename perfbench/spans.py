"""In-memory spans around calls into the qtri package.

A `Tracer` wraps public functions and methods by replacing the name where
each caller looks it up (the solver calls `qtri.solver.safe_grover`, not
`qtri.grover.safe_grover`), so wrapping only the defining module would miss
the calls.  `installed` patches every point for the duration of a `with`
block and restores the originals afterwards.

Two kinds of wrapper:

* a span records (name, start, end, parent, run id) for every call;
* a leaf only adds to its call count and time.  Leaves are the calls made up
  to a million times per run (billed reads, pair removals) and call nothing
  traced themselves; recording each of them would cost more memory than the
  run.  Their time still counts as child time of the enclosing span, so
  self times stay exact.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from typing import Any, Callable, Iterator

LAYERS = ("graphs", "oracle", "grover", "solver", "analysis", "cli", "rng")


class Tracer:
    """Spans and per-name totals for one traced benchmark run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int | None, Any] | None] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.extra: dict[str, float] = {}  # counts read off results
        self.run_id: Any = None
        self._open: list[list[int]] = []  # [span index, child ns] per open span

    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    def span(
        self, name: str, fn: Callable, on_result: Callable[["Tracer", Any], None] | None = None
    ) -> Callable:
        stat = self._stat(name)
        open_ = self._open

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = open_[-1][0] if open_ else None
            frame = [len(self.spans), 0]
            self.spans.append(None)
            open_.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                open_.pop()
                self.spans[frame[0]] = (name, start, end, parent, self.run_id)
                stat[0] += 1
                stat[1] += end - start
                stat[2] += end - start - frame[1]
                if open_:
                    open_[-1][1] += end - start
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)
        open_ = self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed
            if open_:
                open_[-1][1] += elapsed
            return result

        return wrapper

    def take(self) -> tuple[dict[str, list[int]], dict[str, float]]:
        """Return the totals so far and start counting from zero."""
        stats = {name: list(stat) for name, stat in self.stats.items()}
        extra = dict(self.extra)
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.extra.clear()
        return stats, extra

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for record in self.spans:
                if record is None:  # a span still open when the run aborted
                    continue
                name, start, end, parent, run = record
                fh.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "run": run}
                    )
                    + "\n"
                )


def _count_pairs(tracer: Tracer, moved: list) -> None:
    tracer.add("solver.step4.pairs_moved", len(moved))


def _count_search(tracer: Tracer, outcome: Any) -> None:
    tracer.add("grover.safe_grover.found", outcome.found is not None)
    tracer.add("grover.attempts", outcome.attempts)


def _points(qtri: Any) -> list[tuple[Any, str, str, str, Callable | None]]:
    """(owner, attribute, metric name, span|leaf, result hook) per call site."""
    analysis, cli, graphs, solver = qtri.analysis, qtri.cli, qtri.graphs, qtri.solver
    return [
        (solver, "solve", "solver.solve", "span", None),
        (solver, "step1_sample", "solver.step1", "span", None),
        (solver, "step2_build_gprime", "solver.step2", "span", None),
        (solver, "step4_peel", "solver.step4", "span", _count_pairs),
        (solver, "step5_degree_hypothesis", "solver.step5", "span", None),
        (solver, "step6_low_degree", "solver.step6", "span", None),
        (solver, "step7_high_degree", "solver.step7", "span", None),
        (solver, "step8_loop", "solver.step8", "span", None),
        (solver, "step9_search_T", "solver.step9", "span", None),
        (solver, "step10_search_E", "solver.step10", "span", None),
        (solver, "safe_grover", "grover.safe_grover", "span", _count_search),
        (solver, "edge_restricted_triangle_search", "grover.edge_restricted", "span", None),
        (solver, "triangle_count", "graphs.triangle_count", "span", None),
        (analysis, "triangle_count", "graphs.triangle_count", "span", None),
        (graphs, "generate", "graphs.generate", "span", None),
        (analysis, "generate", "graphs.generate", "span", None),
        (cli, "generate", "graphs.generate", "span", None),
        (analysis, "folklore_baseline", "analysis.folklore_baseline", "span", None),
        (analysis, "baseline_scaling", "analysis.baseline_scaling", "span", None),
        (cli, "main", "cli.main", "span", None),
        (qtri.oracle.QueryOracle, "query", "oracle.query", "leaf", None),
        (qtri.oracle.QueryOracle, "charge", "oracle.charge", "leaf", None),
        (solver.WorkingGraph, "remove_pair", "solver.working.remove_pair", "leaf", None),
        (solver.WorkingGraph, "first_active_vertex",
         "solver.working.first_active_vertex", "leaf", None),
        (graphs.Graph, "adjacency", "graphs.adjacency", "leaf", None),
        (solver, "substream", "rng.substream", "leaf", None),
        (analysis, "substream", "rng.substream", "leaf", None),
        (graphs, "substream", "rng.substream", "leaf", None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer, qtri: Any) -> Iterator[Tracer]:
    """Patch every call site of `_points` for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, kind, hook in _points(qtri):
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            if kind == "span":
                setattr(owner, attr, tracer.span(name, original, hook))
            else:
                setattr(owner, attr, tracer.leaf(name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
