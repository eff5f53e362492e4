"""Command-line front door: generate instances, run detection/bench/optimize/
adversary jobs, and emit machine-readable JSON/CSV artifacts.

Identical arguments and seed always produce byte-identical outputs.  Bad
input or an exhausted query budget exits 2 with a diagnostic on stderr; an
internal invariant failure (such as `VerificationError`) is not caught and
exits with a traceback.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

from . import analysis
from .adversary import (
    _diagnostic,
    _value,
    certificate_size,
    ceiling_check,
    load_function,
    load_matrix,
)
from .graphs import GENERATOR_KINDS, MAX_VERTICES, MIN_GRAPH_N, generate, load_graph, save_graph
from .oracle import BudgetExceededError, QueryOracle, StepTag
from .rng import derive_seed
from .solver import MIN_N, Params, solve

_GEN_CHOICES = sorted(GENERATOR_KINDS)


def _write_json(path: str | None, obj: dict) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for field in dataclasses.fields(Params):
        parser.add_argument("--" + field.name.replace("_", "-"), type=float, default=field.default)


def _params_from(args: argparse.Namespace) -> Params:
    return Params(**{field.name: getattr(args, field.name) for field in dataclasses.fields(Params)})


def _cmd_gen_graph(args: argparse.Namespace) -> int:
    graph = generate(args.kind, args.n, args.seed, p=args.p)
    save_graph(graph, args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    if args.graph:
        graph = load_graph(args.graph)
    else:
        if args.n is None:
            raise ValueError("provide --graph FILE or --n with --gen")
        graph = generate(args.gen, args.n, derive_seed(args.seed, "instance"), p=args.p)
    oracle = QueryOracle(graph, budget=args.budget)
    report = solve(oracle, _params_from(args), seed=args.seed)
    _write_json(args.out, report.to_json())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"--sizes must be distinct, got {args.sizes}")
    if args.out_json and len(sizes) < 3:
        raise ValueError("--out-json needs at least 3 --sizes for a fit")
    least = MIN_N if args.algo == "staged" else MIN_GRAPH_N
    if min(sizes, default=least) < least:
        raise ValueError(f"--algo {args.algo} needs --sizes >= {least}, got {args.sizes}")
    if max(sizes, default=0) > MAX_VERTICES:
        raise ValueError(f"--sizes must be <= {MAX_VERTICES}, got {args.sizes}")
    rows = analysis.trial_rows(args.algo, sizes, args.trials, _params_from(args), args.seed,
                               args.gen, args.p)
    fit = analysis.fit_rows(rows) if args.out_json else None
    rows.sort(key=lambda r: (r["n"], r["seed"]))
    header = ["n", "seed", "outcome", "total"]
    if args.algo == "staged":
        header += ["classical", "charged"] + [tag.value.lower() for tag in StepTag]

    with open(args.out_csv, "w", encoding="ascii", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        writer.writerows(rows)
    if fit is not None:
        _write_json(args.out_json, fit.to_json())
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    params, dominant = analysis.optimize_params(args.grid)
    _write_json(
        args.out,
        {
            "params": [params.epsilon, params.epsilon_prime, params.delta],
            "exponent": float(dominant),
            "exponent_exact": f"{dominant.numerator}/{dominant.denominator}",
            "grid": args.grid,
        },
    )
    return 0


def _cmd_lemma_checks(args: argparse.Namespace) -> int:
    # the rate goes first: it rejects a bad --n or --trials before the long sweep
    rate = analysis.threshold_violation_rate(
        args.n, args.epsilon, args.trials, args.seed, kind=args.gen, p=args.p
    )
    sweep = analysis.disjointness_sweep()
    payload = {
        "disjointness_sweep": {
            "points": sweep["points"],
            "failures": sweep["failures"],
            "worst_ratio": sweep["worst_ratio"],
            "sign_failures": sweep["sign_failures"],
            "all_within": sweep["all_within"],
        },
        "containment_violation_rate": rate,
        "n": args.n,
        "trials": args.trials,
    }
    _write_json(args.out, payload)
    return 0


def _cmd_adversary(args: argparse.Namespace) -> int:
    f = load_function(args.function)
    gamma = load_matrix(args.gamma)
    # the restricted norms are computed once, for the ratio and the diagnostic
    raw_ratio, qqc, denom = _value(f, gamma, args.epsilon)
    k = certificate_size(f)
    barrier, ok, slack = ceiling_check(f.n, k, raw_ratio)
    payload = {
        "raw_ratio": raw_ratio,
        "qqc_lower_bound": qqc,
        "certificate_size": k,
        "barrier": barrier,
        "slack": slack,
        "within_barrier": ok,
    }
    if args.diagnostic:
        payload["decomposition"] = _diagnostic(f, gamma, denom)
    _write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtri", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="write a generated instance in the text format")
    p.add_argument("--kind", choices=_GEN_CHOICES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("solve", help="run the detection algorithm, write a run report")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gen", choices=_GEN_CHOICES, default="erdos_renyi")
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--graph", default=None, help="read the instance from a text-format file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--out", default=None)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="batch runs with a CSV of costs and a scaling fit")
    p.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--gen", choices=_GEN_CHOICES, default="erdos_renyi")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--algo", choices=["staged", "baseline"], default="staged")
    p.add_argument("--out-csv", required=True)
    p.add_argument("--out-json", default=None)
    _add_param_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("optimize-params", help="grid-minimize the dominant cost exponent")
    p.add_argument("--grid", type=int, default=210, help="grid denominator")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("lemma-checks", help="numeric structural checks")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--gen", choices=_GEN_CHOICES, default="erdos_renyi")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=Params().epsilon)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_lemma_checks)

    p = sub.add_parser("adversary", help="spectral adversary ratio and certificate ceiling")
    p.add_argument("--function", required=True, help="JSON function file")
    p.add_argument("--gamma", required=True, help="JSON matrix file")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--diagnostic", action="store_true", help="include the decomposition checks")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_adversary)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, BudgetExceededError) as exc:
        print(f"qtri: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
