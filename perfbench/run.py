"""qtri benchmark: wall time per run on four instance families, timed per layer.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload dense_yes --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, untraced and traced
    python3 perfbench/run.py --record              # rewrite perfbench/digests.json

One run is one `solve` on one instance (or one `qtri bench --algo baseline`
through `qtri.cli.main` for `baseline_fit`).  A closed loop with one caller
repeats the workload's JOBS jobs in order until `--seconds` have passed and
at least one full cycle is done.  `QTRI_WORKERS` is removed from the
environment, so nothing fans out.

Every run is checked.  On every seed: triangle-free hosts answer "no", a
reported triangle is a triangle of the hidden graph, the ledger adds up
(total == classical + charged == sum of the per-step counts, total <= budget)
and the baseline CSV/JSON have the expected shape.  On the default seed the
sha256 of every `RunReport.to_json()` (and of the baseline CSV and JSON bytes)
must also equal the digest recorded in digests.json: this is the byte-identity
gate for speed-ups.  A failed check, an exception or a budget abort counts as
a failed run.

Times are wall seconds scaled to a fixed host speed (see ReferenceKernel);
the raw figures are printed too.  failed_ratio is printed as a line and
carried by the "attempted" and "failed" fields of the result.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs whole cycles with
every public call into the package wrapped (see spans.py), prints the
per-layer metrics as means per run, and writes the spans to
.perfbench_out/spans-<workload>-<seed>.jsonl.  The last line of stdout is
always one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from spans import LAYERS, Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
JOBS = 6  # distinct (instance, solve seed) pairs per workload, run in a cycle
SETUP_REPS = 5  # set-up is measured this many times per run; the median is reported

E2E_UNITS = {"runs_per_s": "runs/s", "run_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics, all means per run unless the name says otherwise.
_TIMED = [
    "oracle.query", "oracle.charge", "solver.step1", "solver.step2", "solver.step4",
    "solver.step5", "solver.step6", "solver.step7", "solver.step8", "solver.step9",
    "solver.step10", "solver.working.first_active_vertex", "grover.safe_grover",
    "grover.edge_restricted", "graphs.triangle_count", "graphs.adjacency", "graphs.generate",
    "analysis.folklore_baseline", "analysis.baseline_scaling", "cli.main", "rng.substream",
]
_COUNTED = [
    "oracle.query", "oracle.charge", "solver.step4", "solver.working.remove_pair",
    "grover.safe_grover", "graphs.triangle_count", "graphs.generate",
    "analysis.folklore_baseline", "rng.substream",
]
LAYER_UNITS = {
    **{f"{name}.s": "s" for name in _TIMED},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "oracle.query.ns_per_call": "ns",
    "oracle.classical": "count",
    "oracle.charged": "count",
    "solver.step4.pairs_moved": "count",
    "solver.loop_iterations": "count",
    "solver.gprime_pairs": "count",
    "solver.self.s": "s",
    "grover.safe_grover.found_ratio": "ratio",
    "grover.attempts": "count",
    "cli.self.s": "s",
    "setup.graphs.generate.calls": "count",
    "setup.graphs.generate.s": "s",
    "trace.runs_per_s": "runs/s",
    "trace.run_s.p50": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
}


def _load_qtri() -> Any:
    """Import qtri from this checkout's src/, never from anywhere else."""
    if not (SRC / "qtri" / "__init__.py").is_file():
        sys.exit(f"perfbench: no qtri package under {SRC}")
    sys.path.insert(0, str(SRC))
    import qtri
    import qtri.cli

    if Path(qtri.__file__).resolve().parent != SRC / "qtri":
        sys.exit(f"perfbench: imported qtri from {qtri.__file__}, not from {SRC}")
    return qtri


def child_seed(*path: object) -> int:
    """Stable 32-bit seed for a path of names; inputs depend on nothing else."""
    return int.from_bytes(hashlib.sha256(repr(path).encode("utf-8")).digest()[:4], "big")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Workloads


@dataclass(frozen=True)
class Workload:
    """A family of runs: `build(seed)` makes the JOBS jobs (the set-up),
    `run(job)` is one timed run, `check(job, out)` returns a problem or None,
    `digest(out)` fingerprints the run's output bytes."""

    name: str
    build: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], str | None]
    digest: Callable[[Any], str]


def bipartite_host(qtri: Any, n: int, degree: float, seed: int) -> Any:
    """Random bipartite graph with the given mean degree: triangle-free by construction."""
    import numpy as np

    rng = np.random.default_rng(seed)
    perm = rng.permutation(n) + 1
    left, right = perm[: n // 2], perm[n // 2 :]
    hit = rng.random((len(left), len(right))) < degree / len(right)
    rows, cols = np.nonzero(hit)
    return qtri.graphs.Graph(n, zip(left[rows].tolist(), right[cols].tolist()))


def _solver_workload(qtri: Any, name: str, make_graphs: Callable, expect: str) -> Workload:
    def build(seed: int) -> list:
        graphs = make_graphs(seed)
        return [
            (graphs[j % len(graphs)], child_seed(seed, name, j, "solve")) for j in range(JOBS)
        ]

    def run(job: tuple) -> Any:
        graph, solve_seed = job
        return qtri.solver.solve(qtri.oracle.QueryOracle(graph), seed=solve_seed)

    def check(job: tuple, report: Any) -> str | None:
        graph = job[0]
        cost = report.cost
        if not cost.total == cost.classical + cost.charged == sum(cost.per_step.values()):
            return f"ledger does not add up: {cost.to_json()}"
        if cost.budget is None or cost.total > cost.budget:
            return f"total {cost.total} over budget {cost.budget}"
        if report.outcome is None:
            return "expected a triangle, got no" if expect == "yes" else None
        if expect == "no":
            return f"triangle {report.outcome} reported on a triangle-free host"
        a, b, c = report.outcome
        if len({a, b, c}) != 3 or not all(
            graph.has_edge(x, y) for x, y in ((a, b), (b, c), (a, c))
        ):
            return f"reported {report.outcome} is not a triangle of the hidden graph"
        return None

    def digest(report: Any) -> str:
        return sha256(json.dumps(report.to_json(), sort_keys=True).encode("utf-8"))

    return Workload(name, build, run, check, digest)


def _baseline_workload(qtri: Any, sizes: tuple[int, ...], trials: int) -> Workload:
    name = "baseline_fit"
    csv_path = OUT / f"baseline-{os.getpid()}.csv"
    json_path = OUT / f"baseline-{os.getpid()}.json"

    def build(seed: int) -> list:
        OUT.mkdir(exist_ok=True)
        return [child_seed(seed, name, j) for j in range(JOBS)]

    def run(cli_seed: int) -> tuple[int, bytes, bytes]:
        code = qtri.cli.main([
            "bench", "--algo", "baseline", "--sizes", ",".join(map(str, sizes)),
            "--trials", str(trials), "--seed", str(cli_seed),
            "--out-csv", str(csv_path), "--out-json", str(json_path),
        ])
        out = code, csv_path.read_bytes(), json_path.read_bytes()
        csv_path.unlink()
        json_path.unlink()
        return out

    def check(cli_seed: int, out: tuple[int, bytes, bytes]) -> str | None:
        code, csv_bytes, json_bytes = out
        if code != 0:
            return f"qtri bench exited {code}"
        lines = csv_bytes.decode("ascii").splitlines()
        if lines[:1] != ["n,seed,outcome,total"] or len(lines) != 1 + len(sizes) * trials:
            return f"unexpected CSV shape: {lines[:2]} ... {len(lines)} lines"
        if any(line.split(",")[2] != "triangle" for line in lines[1:]):
            return "baseline missed a triangle on a dense random graph"
        fit = json.loads(json_bytes)
        if [point[0] for point in fit["points"]] != list(sizes) or not math.isfinite(fit["slope"]):
            return f"unexpected fit: {fit}"
        return None

    def digest(out: tuple[int, bytes, bytes]) -> str:
        return sha256(out[1] + b"\n--\n" + out[2])

    return Workload(name, build, run, check, digest)


def make_workloads(qtri: Any, tiny: bool = False) -> dict[str, Workload]:
    """The four workloads; `tiny` shrinks every instance for a quick self-test."""
    dense_n, sparse_n, blowup_n = (48, 48, 48) if tiny else (1024, 512, 512)
    sizes, trials = ((16, 24, 32), 1) if tiny else ((64, 128, 256, 512), 5)
    graphs = qtri.graphs  # `graphs.generate` is looked up per call, so tracing sees it

    # Why each workload exists is recorded in BENCHMARK.json and RESULTS.json.
    workloads = [
        _solver_workload(
            qtri, "dense_yes",
            lambda seed: [graphs.generate("erdos_renyi", dense_n, child_seed(seed, "dense_yes", j),
                                            p=0.5) for j in range(JOBS)],
            "yes",
        ),
        _solver_workload(
            qtri, "sparse_no",
            lambda seed: [bipartite_host(qtri, sparse_n, 3.0, child_seed(seed, "sparse_no", j))
                          for j in range(JOBS)],
            "no",
        ),
        _solver_workload(
            qtri, "dense_no",
            lambda seed: [graphs.generate("bipartite_blowup", blowup_n, seed)],
            "no",
        ),
        _baseline_workload(qtri, sizes, trials),
    ]
    return {wl.name: wl for wl in workloads}


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Outcome:
    result: dict
    digests: dict[int, str] = field(default_factory=dict)  # job index -> first digest
    lines: list[str] = field(default_factory=list)  # human-readable report


def import_seconds() -> float:
    """Time `import qtri, qtri.cli` in a fresh interpreter."""
    code = "import time;t=time.perf_counter();import qtri, qtri.cli;print(time.perf_counter()-t)"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class ReferenceKernel:
    """Fixed work that uses no qtri code, timed before and after every run.

    The 2-core host this benchmark was written on shares its cores: the same
    solve takes from 1x to 2x its best time, in phases of seconds to a minute.
    Over ten seeds the raw median run time spread by 24-37% (IQR / median).
    The kernel slows down with the host, so each run's wall time is scaled by
    REF_KERNEL_S / (mean of the kernel times just before and after it), which
    gives seconds at a fixed host speed; over the same ten seeds the spread
    fell to 4-8%.  A change to qtri cannot move the kernel, so the scaled
    times still show it.  The kernel mixes the work qtri does: an interpreter
    loop, many small calls on big-int bitsets and numpy over 4 MB arrays.
    """

    def __init__(self) -> None:
        import numpy as np

        mask = (1 << 1025) - 2
        self.rows = tuple((v * 0x9E3779B97F4A7C15 ^ v << 512) & mask for v in range(1025))
        self.a = np.ones((1024, 1024), dtype=np.int32)
        self.b = np.zeros((1024, 1024), dtype=np.int32)
        self.add = np.add

    def _bit(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        if not 1 <= b <= 1024:
            raise ValueError(b)
        return bool((self.rows[a] >> b) & 1)

    def _once(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(35_000):
            total += i
        for v in range(1, 21):
            for u in range(1, 1025):
                if u != v and self._bit(v, u):
                    total += 1
        for _ in range(4):
            self.add(self.a, self.b, out=self.b)
        return time.perf_counter() - start

    def __call__(self) -> float:
        """Median of three timings, so one interrupted sample does not count."""
        return statistics.median(self._once() for _ in range(3))


REF_KERNEL_S = 0.006  # median ReferenceKernel() time on the 2-core Xeon of RESULTS.json


def measure(
    qtri: Any,
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    warmup: Workload | None = None,
    expected: list[str] | None = None,
    spans_path: Path | None = None,
) -> Outcome:
    """One benchmark run of one workload; see the module docstring."""
    kernel = ReferenceKernel()
    if warmup is not None:  # fill lazy state and caches outside the timed region
        warmup.run(warmup.build(seed)[0])

    outcome = Outcome({})
    tracer = Tracer()
    kernel_times: list[float] = []
    with installed(tracer, qtri) if trace else contextlib.nullcontext():
        tracer.run_id = "setup"
        setup_raw: list[float] = []
        setup_scaled: list[float] = []
        for _ in range(1 if trace else SETUP_REPS):
            before = kernel()
            start = time.perf_counter()
            jobs = wl.build(seed)
            setup_raw.append(time.perf_counter() - start + (0.0 if trace else import_seconds()))
            kernel_times += [before, kernel()]
            setup_scaled.append(setup_raw[-1] * 2 * REF_KERNEL_S / sum(kernel_times[-2:]))
        setup_stats, _ = tracer.take()

        durations: list[float] = []
        scaled: list[float] = []
        outputs: list[Any] = []
        failures: list[str] = []
        start_all = time.perf_counter()
        while True:
            index = len(durations)
            job_index = index % JOBS
            tracer.run_id = index
            start = time.perf_counter()
            try:
                out = wl.run(jobs[job_index])
                problem = None
            except Exception as exc:  # a run that raises is a failed run, not a crash
                out, problem = None, f"{type(exc).__name__}: {exc}"
            durations.append(time.perf_counter() - start)
            kernel_times.append(kernel())
            scaled.append(durations[-1] * 2 * REF_KERNEL_S / sum(kernel_times[-2:]))
            if problem is None:
                problem = wl.check(jobs[job_index], out)
            if problem is None:
                digest = wl.digest(out)
                outcome.digests.setdefault(job_index, digest)
                if expected is not None and digest != expected[job_index]:
                    problem = f"digest {digest[:12]} != recorded {expected[job_index][:12]}"
            if problem is None:
                outputs.append(out)
            else:
                failures.append(f"run {index} (job {job_index}): {problem}")
            done = len(durations)
            elapsed = time.perf_counter() - start_all
            if done < JOBS:
                continue
            if not trace and elapsed >= seconds:
                break
            # traced runs end on the cycle boundary nearest to `seconds`, so
            # that counts per run repeat exactly
            if trace and done % JOBS == 0 and elapsed * (1 + JOBS / (2 * done)) >= seconds:
                break
        wall = time.perf_counter() - start_all
        run_stats, extra = tracer.take()

    attempted = len(durations)
    completed = attempted - len(failures)
    runs_per_s = completed / sum(scaled)
    p50 = statistics.median(scaled)
    lines = outcome.lines
    lines.append(f"{wl.name}: seed {seed}, {attempted} runs in {wall:.3f} s, trace {int(trace)}")
    lines.append("  run_s samples, raw:    " + " ".join(f"{d:.3f}" for d in durations))
    lines.append("  run_s samples, scaled: " + " ".join(f"{d:.3f}" for d in scaled))
    lines.append(f"  raw: {completed / wall:.6g} runs/s, run_s.p50 {statistics.median(durations):.6g} s,"
                 f" setup {statistics.median(setup_raw):.6g} s; reference kernel median"
                 f" {statistics.median(kernel_times) * 1e3:.4g} ms (nominal {REF_KERNEL_S * 1e3:g} ms)")
    for failure in failures:
        lines.append(f"  FAILED {failure}")
    lines.append(f"  failed_ratio = {len(failures)}/{attempted} = "
                 f"{len(failures) / attempted:.4g} failed runs/attempted runs")
    if trace:
        metrics = _layer_metrics(wl, run_stats, extra, setup_stats, outputs, attempted)
        window_scale = REF_KERNEL_S / statistics.median(kernel_times)
        for name in metrics:
            if LAYER_UNITS[name] in ("s", "ns"):
                metrics[name] *= window_scale
        metrics["trace.runs_per_s"] = runs_per_s
        metrics["trace.run_s.p50"] = p50
        units = LAYER_UNITS
        if spans_path is not None:
            tracer.write(str(spans_path))
            lines.append(f"  spans written to {spans_path}")
    else:
        metrics = {
            "runs_per_s": runs_per_s,
            "run_s.p50": p50,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = E2E_UNITS
    for name, value in metrics.items():
        note = f"  (median of {attempted} runs)" if name.endswith("run_s.p50") else ""
        lines.append(f"  {name} = {value:.6g} {units[name]}{note}")
    outcome.result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return outcome


def _layer_metrics(
    wl: Workload,
    stats: dict[str, list[int]],
    extra: dict[str, float],
    setup_stats: dict[str, list[int]],
    outputs: list[Any],
    runs: int,
) -> dict[str, float]:
    def calls(name: str) -> int:
        return stats.get(name, [0, 0, 0])[0]

    def seconds(name: str, slot: int = 1) -> float:
        return stats.get(name, [0, 0, 0])[slot] / 1e9

    metrics: dict[str, float] = {}
    for name in _TIMED:
        metrics[f"{name}.s"] = seconds(name) / runs
    for name in _COUNTED:
        metrics[f"{name}.calls"] = calls(name) / runs
    metrics["oracle.query.ns_per_call"] = (
        stats["oracle.query"][1] / calls("oracle.query") if calls("oracle.query") else 0.0
    )
    reports = outputs if wl.name != "baseline_fit" else []
    metrics["oracle.classical"] = sum(r.cost.classical for r in reports) / runs
    metrics["oracle.charged"] = sum(r.cost.charged for r in reports) / runs
    metrics["solver.gprime_pairs"] = sum(r.measured["gprime_size"] for r in reports) / runs
    metrics["solver.step4.pairs_moved"] = extra.get("solver.step4.pairs_moved", 0.0) / runs
    metrics["solver.loop_iterations"] = calls("solver.step5") / runs
    metrics["solver.self.s"] = seconds("solver.solve", 2) / runs
    searches = calls("grover.safe_grover")
    metrics["grover.safe_grover.found_ratio"] = (
        extra.get("grover.safe_grover.found", 0.0) / searches if searches else 0.0
    )
    metrics["grover.attempts"] = extra.get("grover.attempts", 0.0) / runs
    metrics["cli.self.s"] = seconds("cli.main", 2) / runs
    metrics["setup.graphs.generate.calls"] = float(setup_stats.get("graphs.generate", [0])[0])
    metrics["setup.graphs.generate.s"] = setup_stats.get("graphs.generate", [0, 0])[1] / 1e9
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_s"] = sum(
            stat[2] for name, stat in stats.items() if name.split(".")[0] == layer
        ) / 1e9 / runs
    return metrics


# ---------------------------------------------------------------------------
# Command line


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in its own interpreter so that
    peak_rss_mb is per workload; prints a summary with the tracing overhead."""
    results: dict[str, dict[int, dict]] = {}
    for name in ("dense_yes", "sparse_no", "dense_no", "baseline_fit"):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
            )
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results.setdefault(name, {})[trace] = json.loads(lines[-1])
    print("\nworkload      runs/s  run_s.p50  setup_s  peak_rss_mb  failed_ratio  traced runs/s  overhead")
    for name, pair in results.items():
        plain, traced = pair[0], pair[1]
        m = {key: value["value"] for key, value in plain["metrics"].items()}
        traced_rate = traced["metrics"]["trace.runs_per_s"]["value"]
        print(f"{name:12s} {m['runs_per_s']:7.4f} {m['run_s.p50']:9.4f} {m['setup_s']:8.4f} "
              f"{m['peak_rss_mb']:11.1f}  {plain['failed']:5d}/{plain['attempted']:<6d}"
              f" {traced_rate:13.4f}  {1 - traced_rate / m['runs_per_s']:7.1%}")
    summary = {
        "correct": all(r["correct"] for pair in results.values() for r in pair.values()),
        "attempted": sum(r["attempted"] for pair in results.values() for r in pair.values()),
        "failed": sum(r["failed"] for pair in results.values() for r in pair.values()),
        "metrics": {},
    }
    print(json.dumps(summary))
    return 0


def record_digests(qtri: Any) -> int:
    """Run one cycle of every workload on the default seed and store its digests."""
    table = {}
    for wl in make_workloads(qtri).values():
        outcome = measure(qtri, wl, DEFAULT_SEED, 0.0, trace=False)
        print("\n".join(outcome.lines), flush=True)
        if not outcome.result["correct"]:
            return 1
        table[wl.name] = [outcome.digests[j] for j in range(JOBS)]
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "dense_yes", "sparse_no", "dense_no", "baseline_fit"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)
    os.environ.pop("QTRI_WORKERS", None)
    qtri = _load_qtri()
    if args.record:
        return record_digests(qtri)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    wl = make_workloads(qtri)[args.workload]
    expected = None
    if args.seed == DEFAULT_SEED:
        expected = json.loads(DIGESTS.read_text(encoding="ascii"))[wl.name]
    spans_path = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{wl.name}-{args.seed}.jsonl"
    outcome = measure(
        qtri, wl, args.seed, args.seconds, bool(args.trace),
        warmup=make_workloads(qtri, tiny=True)[wl.name], expected=expected,
        spans_path=spans_path,
    )
    print("\n".join(outcome.lines))
    print(json.dumps(outcome.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
