"""Experiment harness: run the benchmark grid and emit CSV/markdown tables.

The default grid mirrors the benchmark protocol used throughout this
project: 50..200 processes, conflict participation rates 15%..45%, seeds
1..3, 1..32 cores, both proposer and attestor modes, sweeping all five
sort heuristics under the loose placement strategy. Every schedule is
validated, or equals one already validated on the same workload, before it
contributes to an aggregate; a validation failure aborts the run, since it
can only mean a scheduler bug.

Output files are byte-deterministic for a fixed grid except for the
wall-time columns, which are isolated under ``wall_``-prefixed names.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterator

from .metrics import BoundParams, upper_bound_chromatic, upper_bound_closed_form
from .model import (
    DEFAULT_TIME_DIST,
    ConflictModel,
    CoreProfile,
    TimeDistribution,
    generate_workload,
)
from .oracle import validate_schedule
from .scheduler import SortType, Strategy, schedule

__all__ = [
    "CSV_COLUMNS",
    "CellResult",
    "DEFAULT_STRATEGIES",
    "ExperimentGrid",
    "ResultRow",
    "aggregate_cells",
    "run_cells",
    "run_grid",
]

DEFAULT_STRATEGIES = tuple(Strategy(sort) for sort in SortType)


@dataclass(frozen=True)
class ExperimentGrid:
    process_counts: tuple[int, ...] = (50, 100, 150, 200)
    conflict_rates: tuple[float, ...] = (0.15, 0.25, 0.35, 0.45)
    seeds: tuple[int, ...] = (1, 2, 3)
    core_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32)
    strategies: tuple[Strategy, ...] = DEFAULT_STRATEGIES
    modes: tuple[str, ...] = ("proposer", "attestor")
    conflict_model: ConflictModel = ConflictModel.PARTICIPATION
    time_dist: TimeDistribution = DEFAULT_TIME_DIST
    cost_per_op: float = 0.0
    cost_per_idle_ms: float = 0.0

    def __post_init__(self) -> None:
        if not (self.process_counts and self.conflict_rates and self.seeds
                and self.core_counts and self.strategies and self.modes):
            raise ValueError("grid lists must be non-empty")
        for rate in self.conflict_rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"conflict rate {rate} outside [0, 1]")
        if min(self.core_counts) < 1:
            raise ValueError(f"core count must be >= 1, got {min(self.core_counts)}")
        # asked here, not when the rows are aggregated after every cell ran
        for n in self.process_counts:
            for rate in self.conflict_rates:
                upper_bound_chromatic(BoundParams(n, self.time_dist.mean_ms, 1, rate))
        for mode in self.modes:
            if mode not in ("proposer", "attestor"):
                raise ValueError(f"unknown mode {mode!r}")
        # rows and columns are keyed by these values (a strategy by its
        # label): a repeated one would merge cells into one row, repeat a
        # column, or count one seed twice in a mean
        axes = {
            "process count": self.process_counts,
            "conflict rate": self.conflict_rates,
            "seed": self.seeds,
            "core count": self.core_counts,
            "strategy": [strat.label for strat in self.strategies],
            "mode": self.modes,
        }
        for axis, values in axes.items():
            for value in values:
                if values.count(value) > 1:
                    raise ValueError(f"{axis} {value} appears more than once")


@dataclass(frozen=True)
class CellResult:
    """One scheduled instance: a single (workload, cores, mode, strategy) run."""

    group: int
    n: int
    conflict_rate: float
    seed: int
    m: int
    mode: str
    strategy: str
    horizon_ms: int
    makespan_ms: int
    wall_ms: float
    speedup_makespan_only: float


@dataclass(frozen=True)
class ResultRow:
    group: int
    n: int
    conflict_rate: float
    m: int
    mode: str
    strategy: str
    speedup_mean: float
    speedup_min: float
    speedup_max: float
    makespan_ms_mean: float
    wall_ms_mean: float
    wall_ms_median: float
    horizon_ms_mean: float
    ub_closed_ms: float
    ub_chromatic_ms: float


# the CSV header: one column per ResultRow field, in field order
CSV_COLUMNS = ",".join(f.name for f in fields(ResultRow))


class BenchValidationError(RuntimeError):
    """A benchmark schedule failed validation; indicates a scheduler bug."""


def run_cells(grid: ExperimentGrid) -> Iterator[CellResult]:
    """Generate, schedule, validate, and measure every grid cell.

    Workloads are generated once per (n, rate, seed) and reused across core
    counts, modes, and strategies, so generation is independent of those
    axes; their `with_cores`/`with_attestor` copies share one conflict
    index. Each strategy is scheduled, but a schedule equal to one already
    validated on the same workload is not validated again: attestor mode
    ignores the sort key, so its strategies repeat one schedule. Cells are
    yielded in canonical grid order.
    """
    group = 0
    for n in grid.process_counts:
        for rate in grid.conflict_rates:
            group += 1
            for seed in grid.seeds:
                base = generate_workload(
                    n,
                    rate,
                    model=grid.conflict_model,
                    seed=seed,
                    cores=CoreProfile(1, grid.cost_per_op, grid.cost_per_idle_ms),
                    time_dist=grid.time_dist,
                )
                for m in grid.core_counts:
                    sized = base.with_cores(
                        CoreProfile(m, grid.cost_per_op, grid.cost_per_idle_ms)
                    )
                    for mode in grid.modes:
                        w = sized.with_attestor(mode == "attestor")
                        validated = set()
                        for strat in grid.strategies:
                            sch = schedule(w, strat)
                            key = (sch.assignments, sch.schedule_makespan_ms)
                            if key not in validated:
                                report = validate_schedule(sch, w)
                                if not report.ok:
                                    raise BenchValidationError(
                                        f"invalid schedule for n={n} rate={rate} seed={seed} "
                                        f"m={m} mode={mode} strategy={strat.label}: "
                                        f"{report.violations[0].detail}"
                                    )
                                validated.add(key)
                            yield CellResult(
                                group=group,
                                n=n,
                                conflict_rate=rate,
                                seed=seed,
                                m=m,
                                mode=mode,
                                strategy=strat.label,
                                horizon_ms=sch.horizon_ms,
                                makespan_ms=sch.schedule_makespan_ms,
                                wall_ms=sch.wall_time_ms,
                                speedup_makespan_only=sch.horizon_ms / sch.schedule_makespan_ms,
                            )


def aggregate_cells(cells: list[CellResult], grid: ExperimentGrid) -> list[ResultRow]:
    """Fold per-seed cells into one row per (n, rate, m, mode, strategy)."""
    buckets: dict[tuple, list[CellResult]] = {}
    for cell in cells:
        key = (cell.group, cell.n, cell.conflict_rate, cell.m, cell.mode, cell.strategy)
        buckets.setdefault(key, []).append(cell)

    strategy_order = {s.label: i for i, s in enumerate(grid.strategies)}
    mode_order = {mode: i for i, mode in enumerate(grid.modes)}
    rows = []
    for key in sorted(
        buckets,
        key=lambda k: (k[0], k[3], mode_order[k[4]], strategy_order[k[5]]),
    ):
        group, n, rate, m, mode, strategy = key
        group_cells = buckets[key]
        speedups = [c.speedup_makespan_only for c in group_cells]
        # int sum / len is correctly rounded, as statistics.mean is, without
        # its Fraction arithmetic
        horizon_mean = sum(c.horizon_ms for c in group_cells) / len(group_cells)
        params = BoundParams(n=n, mean_time_ms=horizon_mean / n, m=m, cr=rate)
        rows.append(
            ResultRow(
                group=group,
                n=n,
                conflict_rate=rate,
                m=m,
                mode=mode,
                strategy=strategy,
                speedup_mean=statistics.mean(speedups),
                speedup_min=min(speedups),
                speedup_max=max(speedups),
                makespan_ms_mean=sum(c.makespan_ms for c in group_cells) / len(group_cells),
                wall_ms_mean=statistics.mean(c.wall_ms for c in group_cells),
                wall_ms_median=statistics.median(c.wall_ms for c in group_cells),
                horizon_ms_mean=horizon_mean,
                ub_closed_ms=upper_bound_closed_form(params),
                ub_chromatic_ms=upper_bound_chromatic(params),
            )
        )
    return rows


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_COLUMNS]
    for r in rows:
        lines.append(
            f"{r.group},{r.n},{r.conflict_rate:g},{r.m},{r.mode},{r.strategy},"
            f"{r.speedup_mean:.6f},{r.speedup_min:.6f},{r.speedup_max:.6f},"
            f"{r.makespan_ms_mean:.6f},{r.wall_ms_mean:.6f},{r.wall_ms_median:.6f},"
            f"{r.horizon_ms_mean:.6f},{r.ub_closed_ms:.6f},{r.ub_chromatic_ms:.6f}"
        )
    return "\n".join(lines) + "\n"


def rows_to_markdown(rows: list[ResultRow], grid: ExperimentGrid) -> str:
    """Speedup matrices (one per strategy): groups as rows, cores as columns."""
    # the rows cover the full grid, so every cell of every matrix is filled
    columns = [(m, mode) for m in grid.core_counts for mode in grid.modes]
    header = "| Group | n | conflict % |" + "".join(f" {m}c {mode} |" for m, mode in columns)
    divider = "|---|---|---|" + "---|" * len(columns)
    out = ["# Benchmark speedups", ""]
    for strat in grid.strategies:
        cells: dict[tuple, dict[tuple, float]] = {}
        for r in rows:
            if r.strategy == strat.label:
                cells.setdefault((r.group, r.n, r.conflict_rate), {})[r.m, r.mode] = r.speedup_mean
        out += [f"## Strategy {strat.label}", "", header, divider]
        for (group, n, rate), speedups in sorted(cells.items()):
            values = "".join(f" {speedups[col]:.2f} |" for col in columns)
            out.append(f"| {group} | {n} | {rate * 100:g} |{values}")
        means = [statistics.mean(speedups[col] for speedups in cells.values()) for col in columns]
        out += ["| AVG | | |" + "".join(f" {mean:.2f} |" for mean in means), ""]
    return "\n".join(out)


def run_grid(grid: ExperimentGrid, out_dir: str | Path) -> list[ResultRow]:
    """Run the whole grid and write ``results.csv`` and ``results.md``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cells = list(run_cells(grid))
    rows = aggregate_cells(cells, grid)
    (out / "results.csv").write_text(rows_to_csv(rows), encoding="utf-8")
    (out / "results.md").write_text(rows_to_markdown(rows, grid), encoding="utf-8")
    return rows
