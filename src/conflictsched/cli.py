"""Command-line front end: generate, schedule, validate, bound, bench, oracle."""

from __future__ import annotations

import argparse
import sys

from .bench import ExperimentGrid, run_grid
from .metrics import BoundParams, metrics_report, upper_bound_chromatic, upper_bound_closed_form
from .model import (
    DEFAULT_CONFLICT_MODEL,
    DEFAULT_CORE_COUNT,
    DEFAULT_TIME_DIST,
    ConflictModel,
    CoreProfile,
    TimeDistribution,
    _json_text,
    _schedule_document,
    generate_workload,
    load_schedule,
    load_workload,
    save_schedule,
    save_workload,
)
from .oracle import DEFAULT_NODE_BUDGET, exact_optimal, validate_schedule
from .scheduler import DEFAULT_STRATEGY, AssignType, SortType, Strategy, schedule

__all__ = ["cli", "main"]


def _time_dist(args: argparse.Namespace) -> TimeDistribution:
    if args.dist == "constant":
        return TimeDistribution.constant(args.t_const)
    return TimeDistribution.uniform(args.t_min, args.t_max)


def _add_dist_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", choices=["uniform", "constant"], default=DEFAULT_TIME_DIST.kind,
                   help="execution time distribution (default %(default)s)")
    p.add_argument("--t-min", type=int, default=DEFAULT_TIME_DIST.low,
                   help="uniform low, ms (default %(default)s)")
    p.add_argument("--t-max", type=int, default=DEFAULT_TIME_DIST.high,
                   help="uniform high, ms (default %(default)s)")
    p.add_argument("--t-const", type=int, default=8, help="constant value, ms (default 8)")


# the `--model` choices of `generate` and `bench`
_MODEL_NAMES = [model.value.lower() for model in ConflictModel]


def _joined(values) -> str:
    return ",".join(map(str, values))


def _cmd_generate(args: argparse.Namespace) -> int:
    w = generate_workload(
        args.n,
        args.rate,
        model=ConflictModel(args.model.upper()),
        seed=args.seed,
        cores=CoreProfile(args.cores, args.cost_per_op, args.cost_per_idle),
        attestor=args.attestor,
        time_dist=_time_dist(args),
    )
    save_workload(w, args.out)
    print(f"wrote workload n={w.n} conflicts={len(w.conflicts)} to {args.out}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    w = load_workload(args.workload)
    strat = Strategy(SortType(args.sort), AssignType(args.assign), args.rounds)
    sch = schedule(w, strat)
    if args.out:
        save_schedule(sch, args.out)
    else:
        print(_json_text(_schedule_document(sch)))
    report = metrics_report(sch, w)
    speedups = ""  # undefined for the zero makespan of an empty workload
    if report.speedup_total is not None:
        speedups = (
            f"speedup={report.speedup_makespan_only:.3f} speedup_total={report.speedup_total:.3f} "
        )
    print(
        f"makespan={sch.schedule_makespan_ms}ms horizon={sch.horizon_ms}ms "
        f"{speedups}pce={report.pce:.6g} wall={sch.wall_time_ms:.3f}ms"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    w = load_workload(args.workload)
    sch = load_schedule(args.schedule)
    report = validate_schedule(sch, w)
    if report.ok:
        print("schedule is valid (C1, C2, C3, completeness)")
        return 0
    for v in report.violations:
        print(f"{v.constraint}: {v.detail}")
    print(f"{len(report.violations)} violation(s)")
    return 1


def _cmd_bound(args: argparse.Namespace) -> int:
    params = BoundParams(n=args.n, mean_time_ms=args.mean_t, m=args.m, cr=args.cr)
    # both before either is printed: an error leaves stdout empty
    closed, chromatic = upper_bound_closed_form(params), upper_bound_chromatic(params)
    print(f"UB-closed: {closed:.6g} ms")
    print(f"UB-chromatic: {chromatic:.6g} ms")
    return 0


def _parse_list(text: str, cast) -> tuple:
    return tuple(cast(item) for item in text.split(",") if item)


def _cmd_bench(args: argparse.Namespace) -> int:
    # one strategy per distinct label, first one first: a repeated sort, or
    # any sort under EVENT (which reads no sort key), repeats a schedule
    strategies: dict[str, Strategy] = {}
    for s in _parse_list(args.sorts, str):
        strat = Strategy(SortType(s), AssignType(args.assign), args.rounds)
        strategies.setdefault(strat.label, strat)
    grid = ExperimentGrid(
        process_counts=_parse_list(args.n_list, int),
        conflict_rates=_parse_list(args.rates, float),
        seeds=_parse_list(args.seeds, int),
        core_counts=_parse_list(args.cores, int),
        strategies=tuple(strategies.values()),
        modes=_parse_list(args.modes, str),
        conflict_model=ConflictModel(args.model.upper()),
        time_dist=_time_dist(args),
    )
    rows = run_grid(grid, args.out_dir)
    print(f"wrote {len(rows)} rows to {args.out_dir}/results.csv and results.md")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    w = load_workload(args.workload)
    result = exact_optimal(w, node_budget=args.budget)
    payload = {
        "optimalMakespanMs": result.makespan_ms,
        "optimal": result.optimal,
        "nodes": result.nodes,
        "schedule": _schedule_document(result.schedule),
    }
    print(_json_text(payload))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conflictsched",
        description="Conflict-aware multi-core transaction scheduling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic workload file")
    p.add_argument("--n", type=int, required=True, help="process count")
    p.add_argument("--rate", type=float, required=True, help="conflict rate in [0, 1]")
    p.add_argument("--model", choices=_MODEL_NAMES,
                   default=DEFAULT_CONFLICT_MODEL.value.lower(),
                   help="conflict model (default %(default)s)")
    p.add_argument("--seed", type=int, required=True, help="generator seed")
    p.add_argument("--cores", type=int, default=DEFAULT_CORE_COUNT,
                   help="core count (default %(default)s)")
    p.add_argument("--cost-per-op", type=float, default=0.0)
    p.add_argument("--cost-per-idle", type=float, default=0.0)
    p.add_argument("--attestor", action="store_true", help="mark the workload attestor-mode")
    _add_dist_flags(p)
    p.add_argument("--out", required=True, help="output workload JSON path")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("schedule", help="schedule a workload file")
    p.add_argument("--workload", required=True)
    p.add_argument("--sort", choices=[s.value for s in SortType],
                   default=DEFAULT_STRATEGY.sort_type.value)
    p.add_argument("--assign", choices=[a.value for a in AssignType],
                   default=DEFAULT_STRATEGY.assign_type.value)
    p.add_argument("--rounds", type=int, default=DEFAULT_STRATEGY.loose_review_round,
                   help="loose review rounds (default %(default)s)")
    p.add_argument("--out", help="schedule JSON path (stdout when omitted)")
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser("validate", help="validate a schedule against a workload")
    p.add_argument("--workload", required=True)
    p.add_argument("--schedule", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("bound", help="print the paper's two analytic makespan estimates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mean-t", type=float, required=True, help="mean process time, ms")
    p.add_argument("--m", type=int, required=True, help="core count")
    p.add_argument("--cr", type=float, required=True, help="conflict rate in [0, 1]")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("bench", help="run the benchmark grid, write CSV and markdown")
    p.add_argument("--out-dir", required=True)
    grid = ExperimentGrid()
    p.add_argument("--n-list", default=_joined(grid.process_counts))
    p.add_argument("--rates", default=_joined(grid.conflict_rates))
    p.add_argument("--seeds", default=_joined(grid.seeds))
    p.add_argument("--cores", default=_joined(grid.core_counts))
    p.add_argument("--sorts", default=_joined(s.sort_type.value for s in grid.strategies))
    p.add_argument("--assign", choices=[a.value for a in AssignType],
                   default=DEFAULT_STRATEGY.assign_type.value)
    p.add_argument("--rounds", type=int, default=DEFAULT_STRATEGY.loose_review_round)
    p.add_argument("--modes", default=_joined(grid.modes))
    p.add_argument("--model", choices=_MODEL_NAMES,
                   default=grid.conflict_model.value.lower())
    _add_dist_flags(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("oracle", help="exact optimum, searched within a node budget")
    p.add_argument("--workload", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET, help="search node budget")
    p.set_defaults(func=_cmd_oracle)

    return parser


def cli(argv: list[str] | None = None) -> int:
    """Run one subcommand; returns the process exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    # a bad file or flag value is a ValueError (WorkloadValidationError and
    # json.JSONDecodeError among them); a bad path is an OSError
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
