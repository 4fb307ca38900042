"""The benchmark's four workloads.

Each workload turns the seed into a fixed list of items in `make_inputs`
(its set-up: generation, derivation, file writing) and sends one item
through its pipeline in `run_item`. Only calls into the library are timed;
the checks in `checks.py` run after them. With a `Tracer`, `run_item` also
replays every schedule() call phase by phase.

Why these four: block-stream is the paper's own traffic (many small
blocks, per-call costs and placement rounds dominate); block-file is the
CLI path on large blocks (file loading and the conflict index dominate);
grid is the researcher's sweep, the only user of `bench`; oracle-small is
the only user of the branch-and-bound solver.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from statistics import median
from time import perf_counter

import conflictsched.bench as bench
from conflictsched import (
    AssignType,
    ConflictModel,
    CoreProfile,
    ExperimentGrid,
    SortType,
    Strategy,
    exact_optimal,
    generate_workload,
    load_schedule,
    load_workload,
    metrics_report,
    run_grid,
    save_schedule,
    save_workload,
    schedule,
    validate_schedule,
)

from checks import check_schedule, lower_bound, workload_facts
from tracer import Clock, trace_schedule

DEFAULT_STRATEGY = Strategy(SortType.MCDF, AssignType.LOOSE, 3)

Interval = tuple[float, float]  # raw perf_counter seconds, scaled by the harness


@dataclass
class ItemResult:
    """What one item through its pipeline measured and produced."""

    block: Interval
    sched: list[Interval] = field(default_factory=list)
    # (makespan ms, certified lower bound ms, horizon ms, its schedule() intervals)
    quality: list[tuple[float, float, float, list[Interval]]] = field(default_factory=list)
    tokens: list = field(default_factory=list)  # exact outputs for the digest
    problems: list[str] = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


class Item:
    """One workload value plus the checker's view of it, computed once."""

    def __init__(self, w, path: Path | None = None) -> None:
        self.w = w
        self.path = path

    @cached_property
    def facts(self):
        return workload_facts(self.w)

    @cached_property
    def lb(self) -> int:
        return lower_bound(*self.facts)


def sub_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


def verify(sch, item: Item, problems: list[str], tr: Clock, where: str) -> int:
    """Independent check of one schedule; returns its idle time."""
    found, idle = check_schedule(sch, *item.facts)
    problems.extend(f"{where}: {p}" for p in found)
    if sch.schedule_makespan_ms < item.lb:
        problems.append(f"{where}: makespan {sch.schedule_makespan_ms} below the certified bound {item.lb}")
    if tr.enabled:
        tr.counts["idle"] += idle
        tr.counts["capacity"] += item.facts[2] * sch.schedule_makespan_ms
    return idle


def both_modes(tr: Clock, base, m: int) -> tuple:
    """The proposer and the attestor workload of ``base`` on m cores."""
    sized, _ = tr.call("model.derive", base.with_cores, CoreProfile(m))
    attestor, _ = tr.call("model.derive", sized.with_attestor, True)
    return sized, attestor


class Workload:
    """Set-up, one item's pipeline, and workload-specific summary lines."""

    name = ""
    warm_up_items = 0

    def make_inputs(self, seed: int, work_dir: Path, tr: Clock) -> list:
        raise NotImplementedError

    def run_item(self, item, tr: Clock) -> ItemResult:
        raise NotImplementedError

    def warm_up(self, items: list, work_dir: Path, tr: Clock) -> None:
        """Send the first few items through the pipeline, unchecked."""
        for item in items[: self.warm_up_items]:
            self.run_item(item, tr)

    def summary(self, first_pass: list[ItemResult], pass_s: list[float]) -> list[str]:
        return []


class BlockStream(Workload):
    """Many in-memory n = 200 blocks: schedule -> validate -> metrics_report."""

    name = "block-stream"
    n = 200
    models = tuple((ConflictModel.PARTICIPATION, r) for r in (0.15, 0.25, 0.35, 0.45)) + tuple(
        (ConflictModel.PAIRWISE, r) for r in (0.01, 0.03)
    )
    bases_per_model = 4
    core_counts = (2, 4, 8, 16, 32)
    warm_up_items = 20

    def make_inputs(self, seed: int, work_dir: Path, tr: Clock) -> list[Item]:
        items = []
        for k, (model, rate) in enumerate(self.models):
            for rep in range(self.bases_per_model):
                base, _ = tr.call(
                    "model.generate_workload", generate_workload, self.n, rate,
                    model=model, seed=sub_seed(seed, k * self.bases_per_model + rep),
                )
                tr.call("model.save_workload", save_workload, base, work_dir / f"stream-{k}-{rep}.json")
                for m in self.core_counts:
                    items.extend(Item(w) for w in both_modes(tr, base, m))
        return items

    def run_item(self, item: Item, tr: Clock) -> ItemResult:
        w = item.w
        t0 = perf_counter()
        sch, sched = tr.call("scheduler.schedule", schedule, w)
        report, _ = tr.call("oracle.validate_schedule", validate_schedule, sch, w)
        metrics, _ = tr.call("metrics.metrics_report", metrics_report, sch, w)
        res = ItemResult(block=(t0, perf_counter()), sched=[sched])

        idle = verify(sch, item, res.problems, tr, "schedule")
        if not report.ok:
            res.problems.append(f"validate_schedule rejected: {report.violations[0].detail}")
        if metrics.te_ms != sch.schedule_makespan_ms or sum(metrics.idle_per_core_ms) != idle:
            res.problems.append("metrics_report makespan or idle time disagrees with the schedule")
        res.quality.append((sch.schedule_makespan_ms, item.lb, sch.horizon_ms, [sched]))
        res.tokens.append(sch.schedule_makespan_ms)
        if tr.enabled:
            trace_schedule(w, DEFAULT_STRATEGY, sch, tr)
        return res


class BlockFile(Workload):
    """The CLI path on n = 2 000 blocks, one file per (model, m, mode),
    written in set-up: load_workload -> schedule -> save_schedule ->
    load_schedule -> validate."""

    name = "block-file"
    n = 2000
    models = ((ConflictModel.PARTICIPATION, 0.45), (ConflictModel.PAIRWISE, 0.02))
    core_counts = (16, 64)
    # The files are the same for every seed: with eight large blocks, the
    # blocks a seed draws move schedule()'s median time by about 9%, more
    # than a third of its bound.
    instance_seed = 0
    warm_up_items = 1

    def make_inputs(self, seed: int, work_dir: Path, tr: Clock) -> list[Item]:
        items = []
        for k, (model, rate) in enumerate(self.models):
            base, _ = tr.call(
                "model.generate_workload", generate_workload, self.n, rate,
                model=model, seed=sub_seed(self.instance_seed, k),
            )
            for m in self.core_counts:
                for attestor, w in enumerate(both_modes(tr, base, m)):
                    path = work_dir / f"file-{k}-{m}-{attestor}.json"
                    tr.call("model.save_workload", save_workload, w, path)
                    items.append(Item(w, path))
        return items

    def run_item(self, item: Item, tr: Clock) -> ItemResult:
        sched_path = item.path.with_suffix(".schedule.json")
        t0 = perf_counter()
        w, _ = tr.call("model.load_workload", load_workload, item.path)
        sch, sched = tr.call("scheduler.schedule", schedule, w)
        tr.call("scheduler.save_schedule", save_schedule, sch, sched_path)
        loaded, _ = tr.call("scheduler.load_schedule", load_schedule, sched_path)
        report, _ = tr.call("oracle.validate_schedule", validate_schedule, loaded, w)
        res = ItemResult(block=(t0, perf_counter()), sched=[sched])

        ref = item.w
        if (w.processes, w.conflicts, w.cores, w.attestor) != (ref.processes, ref.conflicts, ref.cores, ref.attestor):
            res.problems.append("load_workload returned a different workload than set-up wrote")
        if loaded != sch:
            res.problems.append("load_schedule returned a different schedule than save_schedule wrote")
        verify(sch, item, res.problems, tr, "schedule")
        if not report.ok:
            res.problems.append(f"validate_schedule rejected: {report.violations[0].detail}")
        res.quality.append((sch.schedule_makespan_ms, item.lb, sch.horizon_ms, [sched]))
        res.tokens.append(sch.schedule_makespan_ms)
        if tr.enabled:
            trace_schedule(w, DEFAULT_STRATEGY, sch, tr)
        return res


class GridItem:
    def __init__(self, grid: ExperimentGrid, out_dir: Path) -> None:
        self.grid = grid
        self.out_dir = out_dir
        # (n, rate, grid seed, m, mode) -> the cell's workload, built as run_cells builds it
        self.cells: dict[tuple, object] = {}

    @cached_property
    def bounds(self) -> dict:
        """(n, rate, m, mode) -> (mean certified lower bound, mean horizon) over the seeds."""
        acc: dict = {}
        for (n, rate, _, m, mode), w in self.cells.items():
            times, pairs, _, attestor = workload_facts(w)
            lb_sum, h_sum, k = acc.get((n, rate, m, mode), (0, 0, 0))
            acc[(n, rate, m, mode)] = (lb_sum + lower_bound(times, pairs, m, attestor), h_sum + sum(times), k + 1)
        return {key: (lb / k, h / k) for key, (lb, h, k) in acc.items()}


def _strip_wall_columns(csv_text: str) -> str:
    lines = [line.split(",") for line in csv_text.splitlines()]
    keep = [i for i, name in enumerate(lines[0]) if not name.startswith("wall_")]
    return "\n".join(",".join(cols[i] for i in keep) for cols in lines)


class Grid(Workload):
    """`run_grid` on the default experiment grid (2 880 schedules) into a
    directory; the seed picks the grid's three generator seeds."""

    name = "grid"

    def make_inputs(self, seed: int, work_dir: Path, tr: Clock) -> list[GridItem]:
        # seed 0 gives the default grid's own seeds (1, 2, 3)
        grid = ExperimentGrid(seeds=(3 * seed + 1, 3 * seed + 2, 3 * seed + 3))
        item = GridItem(grid, work_dir / "grid")
        for n in grid.process_counts:
            for rate in grid.conflict_rates:
                for s in grid.seeds:
                    base, _ = tr.call(
                        "model.generate_workload", generate_workload, n, rate,
                        model=grid.conflict_model, seed=s, time_dist=grid.time_dist,
                        cores=CoreProfile(1, grid.cost_per_op, grid.cost_per_idle_ms),
                    )
                    for m in grid.core_counts:
                        for mode, w in zip(("proposer", "attestor"), both_modes(tr, base, m)):
                            item.cells[(n, rate, s, m, mode)] = w
        return [item]

    def warm_up(self, items: list, work_dir: Path, tr: Clock) -> None:
        """A one-cell grid through the same code."""
        tiny = ExperimentGrid(
            process_counts=(50,), conflict_rates=(0.45,), seeds=items[0].grid.seeds[:1],
            core_counts=(4,), modes=("attestor",), strategies=(DEFAULT_STRATEGY,),
        )
        tr.call("bench.run_grid", run_grid, tiny, work_dir / "warm-up")

    def run_item(self, item: GridItem, tr: Clock) -> ItemResult:
        problems: list[str] = []
        timed: dict[tuple, list[Interval]] = {}
        with instrument_bench(tr, problems, timed):
            rows, block = tr.call("bench.run_grid", run_grid, item.grid, item.out_dir)
        res = ItemResult(block=block, problems=problems)
        res.sched = [iv for ivs in timed.values() for iv in ivs]

        grid = item.grid
        expected = (len(grid.process_counts) * len(grid.conflict_rates) * len(grid.core_counts)
                    * len(grid.modes) * len(grid.strategies))
        if len(rows) != expected:
            res.problems.append(f"run_grid returned {len(rows)} rows, expected {expected}")
        bounds = item.bounds
        for r in rows:
            where = f"row n={r.n} rate={r.conflict_rate} m={r.m} {r.mode} {r.strategy}"
            lb, horizon = bounds[(r.n, r.conflict_rate, r.m, r.mode)]
            if abs(r.horizon_ms_mean - horizon) > 1e-6:
                res.problems.append(f"{where}: horizon {r.horizon_ms_mean} != {horizon}")
            if not lb - 1e-9 <= r.makespan_ms_mean <= horizon + 1e-9:
                res.problems.append(f"{where}: makespan {r.makespan_ms_mean} outside [{lb}, {horizon}]")
            if not 1 - 1e-9 <= r.speedup_min <= r.speedup_mean <= r.speedup_max <= r.m + 1e-9:
                res.problems.append(f"{where}: speedups out of order or above m")
            calls = timed.get((r.n, r.conflict_rate, r.m, r.mode, r.strategy), [])
            if len(calls) != len(grid.seeds):
                res.problems.append(f"{where}: {len(calls)} schedule() calls, expected {len(grid.seeds)}")
            res.quality.append((r.makespan_ms_mean, lb, horizon, calls))
        csv_text = (item.out_dir / "results.csv").read_text(encoding="utf-8")
        if len(csv_text.splitlines()) != expected + 1:
            res.problems.append("results.csv does not hold one line per row")
        if not (item.out_dir / "results.md").read_text(encoding="utf-8").startswith("# Benchmark"):
            res.problems.append("results.md is missing its heading")
        res.tokens.append(_strip_wall_columns(csv_text))
        return res

    def summary(self, first_pass: list[ItemResult], pass_s: list[float]) -> list[str]:
        return [f"grid_s = {median(pass_s):.6g} s (median of {len(pass_s)} runs of run_grid)"]


@contextmanager
def instrument_bench(tr: Clock, problems: list[str], timed: dict):
    """Time every schedule() call `run_grid` makes, from outside.

    Replaces names in `conflictsched.bench` for one run and restores them
    afterwards. ``timed`` collects each call's interval under its row key
    (n, rate, m, mode, strategy). With a `Tracer`, the other calls get
    spans too, and each schedule is checked and replayed; that work is cut
    out of the timed intervals.
    """
    names = ("generate_workload", "schedule", "validate_schedule", "run_cells",
             "aggregate_cells", "rows_to_csv", "rows_to_markdown")
    saved = {name: getattr(bench, name) for name in names}
    seen_orders: dict[tuple, set] = {}

    def timed_schedule(w, strategy):
        sch, interval = tr.call("scheduler.schedule", saved["schedule"], w, strategy)
        mode = "attestor" if w.attestor else "proposer"
        key = (w.n, w.meta.get("conflictRate"), w.cores.core_count, mode, strategy.label)
        timed.setdefault(key, []).append(interval)
        if tr.enabled:
            t0 = perf_counter()
            verify(sch, Item(w), problems, tr, f"cell n={w.n} m={w.cores.core_count} {mode} {strategy.label}")
            order = trace_schedule(w, strategy, sch, tr)
            tr.counts["bench.cells"] += 1
            if order is not None:
                workload_key = (w.n, w.meta.get("conflictRate"), w.meta.get("seed"), w.cores.core_count, w.attestor)
                orders = seen_orders.setdefault(workload_key, set())
                tr.counts["bench.repeats"] += tuple(order) in orders
                orders.add(tuple(order))
            tr.speed.cut(t0, perf_counter())
        return sch

    def spanned(name, span_name):
        fn = saved[name]

        def wrapper(*args, **kwargs):
            return tr.call(span_name, fn, *args, **kwargs)[0]
        return wrapper

    def spanned_run_cells(grid):
        with tr.span("bench.run_cells"):
            yield from saved["run_cells"](grid)

    replacements = {"schedule": timed_schedule}
    if tr.enabled:
        tr.counts["bench.grid_runs"] += 1
        replacements.update({
            "generate_workload": spanned("generate_workload", "model.generate_workload"),
            "validate_schedule": spanned("validate_schedule", "oracle.validate_schedule"),
            "run_cells": spanned_run_cells,
            "aggregate_cells": spanned("aggregate_cells", "bench.aggregate_cells"),
            "rows_to_csv": spanned("rows_to_csv", "bench.emit"),
            "rows_to_markdown": spanned("rows_to_markdown", "bench.emit"),
        })
    try:
        for name, fn in replacements.items():
            setattr(bench, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(bench, name, fn)


class OracleSmall(Workload):
    """exact_optimal on a fixed set of small instances (n in {8, 10}, m = 2,
    participation 0.25 / 0.45, both modes) next to the default greedy.

    The instance set is the same for every seed: the solver's time and
    memory are heavy-tailed in the instance, so a seed-drawn set would make
    oracle time and peak memory depend on which hard instances it drew.
    """

    name = "oracle-small"
    sizes = (8, 10)
    rates = (0.25, 0.45)
    per_shape = 20
    instance_seed = 0
    warm_up_items = 10
    all_strategies = tuple(Strategy(s, a, 3) for s in SortType for a in AssignType)

    def make_inputs(self, seed: int, work_dir: Path, tr: Clock) -> list[Item]:
        items = []
        k = 0
        for n in self.sizes:
            for rate in self.rates:
                for _ in range(self.per_shape):
                    base, _ = tr.call(
                        "model.generate_workload", generate_workload, n, rate,
                        seed=sub_seed(self.instance_seed, k), cores=CoreProfile(2),
                    )
                    k += 1
                    for attestor in (False, True):
                        w, _ = tr.call("model.derive", base.with_attestor, attestor)
                        items.append(Item(w))
        return items

    def run_item(self, item: Item, tr: Clock) -> ItemResult:
        w = item.w
        t0 = perf_counter()
        sch, sched = tr.call("scheduler.schedule", schedule, w)
        opt, _ = tr.call("oracle.exact_optimal", exact_optimal, w)
        report, _ = tr.call("oracle.validate_schedule", validate_schedule, opt.schedule, w)
        res = ItemResult(block=(t0, perf_counter()), sched=[sched])

        verify(sch, item, res.problems, tr, "greedy")
        verify(opt.schedule, item, res.problems, tr, "optimum")
        if not report.ok:
            res.problems.append(f"validate_schedule rejected the optimum: {report.violations[0].detail}")
        if not opt.optimal:
            res.problems.append("exact_optimal did not decide the instance within its node budget")
        if opt.makespan_ms != opt.schedule.schedule_makespan_ms:
            res.problems.append("exact_optimal's makespan disagrees with its witness schedule")
        if not item.lb <= opt.makespan_ms <= sch.schedule_makespan_ms:
            res.problems.append(
                f"bound {item.lb} <= optimum {opt.makespan_ms} <= greedy {sch.schedule_makespan_ms} fails"
            )
        res.quality.append((sch.schedule_makespan_ms, item.lb, sch.horizon_ms, [sched]))
        res.tokens.append((sch.schedule_makespan_ms, opt.makespan_ms))
        res.extra = {
            "decided": float(opt.optimal),
            "lb_tight": float(item.lb == opt.makespan_ms),
            "log_greedy_over_opt": math.log(sch.schedule_makespan_ms / opt.makespan_ms),
        }
        if tr.enabled:
            tr.counts["oracle.nodes"] += opt.nodes
            tr.counts["oracle.calls"] += 1
            for strategy in self.all_strategies:
                incumbent, _ = tr.call("oracle.incumbent", schedule, w, strategy)
                if incumbent.schedule_makespan_ms < opt.makespan_ms:
                    res.problems.append(f"{strategy.label} beats the proven optimum")
            trace_schedule(w, DEFAULT_STRATEGY, sch, tr)
        return res

    def summary(self, first_pass: list[ItemResult], pass_s: list[float]) -> list[str]:
        k = len(first_pass)
        decided = sum(r.extra.get("decided", 0.0) for r in first_pass)
        tight = sum(r.extra.get("lb_tight", 0.0) for r in first_pass)
        logs = [r.extra["log_greedy_over_opt"] for r in first_pass if "log_greedy_over_opt" in r.extra]
        lines = [
            f"oracle_s = {median(pass_s):.6g} s (median of {len(pass_s)} passes over {k} instances)",
            f"oracle_decided = {decided / k:.6g} ratio ({int(decided)} of {k} proven optimal)",
            f"lower_bound_tight = {tight / k:.6g} ratio ({int(tight)} of {k} instances)",
        ]
        if logs:
            lines.append(f"greedy_over_opt = {math.exp(sum(logs) / len(logs)):.6g} ratio (geomean, MCDF-LOOSE-3)")
        return lines


WORKLOADS = {wl.name: wl for wl in (BlockStream(), BlockFile(), Grid(), OracleSmall())}
