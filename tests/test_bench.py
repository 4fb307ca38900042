"""Benchmark grid runner, aggregation, and output writers."""

import dataclasses
import hashlib
import statistics

import pytest

import conflictsched.bench
import conflictsched.model
from conflictsched.bench import (
    CSV_COLUMNS,
    DEFAULT_STRATEGIES,
    ExperimentGrid,
    aggregate_cells,
    rows_to_csv,
    run_cells,
    run_grid,
)
from conflictsched.model import build_conflict_index
from conflictsched.oracle import validate_schedule
from conflictsched.scheduler import AssignType, SortType, Strategy

TINY = ExperimentGrid(
    process_counts=(20, 30),
    conflict_rates=(0.2, 0.4),
    seeds=(1, 2),
    core_counts=(1, 4),
    strategies=(
        Strategy(SortType.MCDF, AssignType.LOOSE, 3),
        Strategy(SortType.FIFO, AssignType.STRICT),
    ),
)


def strip_wall_columns(csv_text):
    header, *rows = csv_text.strip().split("\n")
    names = header.split(",")
    keep = [i for i, name in enumerate(names) if not name.startswith("wall_")]
    out = []
    for line in [header] + rows:
        parts = line.split(",")
        out.append(",".join(parts[i] for i in keep))
    return "\n".join(out)


def test_row_count_matches_grid_combinatorics():
    rows = aggregate_cells(list(run_cells(TINY)), TINY)
    assert len(rows) == 2 * 2 * 2 * 2 * 2  # n x rates x cores x modes x strategies


def test_cell_count_includes_seeds():
    cells = list(run_cells(TINY))
    assert len(cells) == 2 * 2 * 2 * 2 * 2 * 2


def test_single_core_grid_speedups_are_one():
    grid = ExperimentGrid(
        process_counts=(25,), conflict_rates=(0.3,), seeds=(1, 2, 3),
        core_counts=(1,), strategies=(Strategy(),),
    )
    rows = aggregate_cells(list(run_cells(grid)), grid)
    assert all(r.speedup_mean == 1.0 and r.speedup_min == 1.0 and r.speedup_max == 1.0 for r in rows)


def test_csv_column_contract():
    assert CSV_COLUMNS == (
        "group,n,conflict_rate,m,mode,strategy,"
        "speedup_mean,speedup_min,speedup_max,makespan_ms_mean,"
        "wall_ms_mean,wall_ms_median,horizon_ms_mean,ub_closed_ms,ub_chromatic_ms"
    )
    rows = aggregate_cells(list(run_cells(TINY)), TINY)
    header = rows_to_csv(rows).split("\n", 1)[0]
    assert header == CSV_COLUMNS


def test_aggregates_cover_exactly_the_grid_seeds():
    cells = list(run_cells(TINY))
    rows = aggregate_cells(cells, TINY)
    row = rows[0]
    matching = [
        c for c in cells
        if (c.group, c.m, c.mode, c.strategy) == (row.group, row.m, row.mode, row.strategy)
    ]
    assert len(matching) == len(TINY.seeds)
    assert row.speedup_mean == pytest.approx(
        statistics.mean(c.speedup_makespan_only for c in matching)
    )
    assert row.speedup_min == min(c.speedup_makespan_only for c in matching)
    assert row.speedup_max == max(c.speedup_makespan_only for c in matching)


def test_run_grid_writes_deterministic_outputs(tmp_path):
    rows_a = run_grid(TINY, tmp_path / "a")
    rows_b = run_grid(TINY, tmp_path / "b")
    assert len(rows_a) == len(rows_b)
    csv_a = (tmp_path / "a" / "results.csv").read_text()
    csv_b = (tmp_path / "b" / "results.csv").read_text()
    assert strip_wall_columns(csv_a) == strip_wall_columns(csv_b)
    assert (tmp_path / "a" / "results.md").read_bytes() == (tmp_path / "b" / "results.md").read_bytes()


def test_results_csv_matches_reference_digest(tmp_path):
    # three seeds, so row means are thirds and their rounding shows; the
    # digest is the one the statistics.mean-based aggregation produced
    grid = dataclasses.replace(TINY, seeds=(1, 2, 3))
    run_grid(grid, tmp_path)
    text = strip_wall_columns((tmp_path / "results.csv").read_text())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f2391d81daa5b0d6092ab1fe0d4b76c1b5d7db6397135e0d16ed2f3478857782"
    )


# cores out of order, attestor first, process counts descending, one
# seed, and an EVENT and a STRICT strategy
ODD = ExperimentGrid(
    process_counts=(60, 20),
    seeds=(5,),
    core_counts=(4, 1, 2),
    strategies=(Strategy(assign_type=AssignType.EVENT), Strategy(SortType.LCCF, AssignType.STRICT)),
    modes=("attestor", "proposer"),
)


@pytest.mark.parametrize("grid,digest", [
    (TINY, "fc8187b4da39eca5d1135518759ee8c89003413c30cf54c0ab30c72e288d9e2f"),
    (ODD, "62ce9a187e12dcde2a1b961e780a7cf0b0b7d1472ddd82dd3ce9cd033bd4520d"),
], ids=["tiny", "odd"])
def test_results_md_matches_reference_digest(tmp_path, grid, digest):
    # columns follow the grid's core and mode order, rows its group order
    run_grid(grid, tmp_path)
    assert hashlib.sha256((tmp_path / "results.md").read_bytes()).hexdigest() == digest


def test_markdown_contains_speedup_matrix(tmp_path):
    run_grid(TINY, tmp_path)
    md = (tmp_path / "results.md").read_text()
    assert "## Strategy MCDF-LOOSE-3" in md
    assert "| Group | n | conflict % |" in md
    assert "| AVG |" in md


def test_grid_validation():
    with pytest.raises(ValueError):
        ExperimentGrid(process_counts=())
    with pytest.raises(ValueError):
        ExperimentGrid(conflict_rates=(1.5,))
    with pytest.raises(ValueError):
        ExperimentGrid(modes=("verifier",))


@pytest.mark.parametrize(
    "strategies",
    [
        (Strategy(SortType.MCDF), Strategy(SortType.FIFO), Strategy(SortType.MCDF)),
        (Strategy(SortType.MCDF, AssignType.EVENT), Strategy(SortType.FIFO, AssignType.EVENT, 0)),
    ],
)
def test_grid_rejects_two_strategies_with_one_label(strategies):
    # rows are keyed by label, so the two would merge into one row
    label = strategies[-1].label
    with pytest.raises(ValueError, match=f"strategy {label} appears more than once"):
        ExperimentGrid(strategies=strategies)


@pytest.mark.parametrize(
    "field,values,message",
    [
        ("process_counts", (20, 30, 20), "process count 20"),
        ("conflict_rates", (0.25, 0.25), "conflict rate 0.25"),
        ("seeds", (1, 1), "seed 1"),
        ("core_counts", (2, 4, 2), "core count 2"),
        ("modes", ("proposer", "proposer"), "mode proposer"),
    ],
)
def test_grid_rejects_a_value_repeated_on_any_axis(field, values, message):
    # a repeated value merges cells into one row, repeats a markdown
    # column, or counts one seed twice in a mean; the strategy axis is
    # the test above
    with pytest.raises(ValueError) as exc_info:
        ExperimentGrid(**{field: values})
    assert str(exc_info.value) == f"{message} appears more than once"


def test_grid_rejects_one_process_with_a_fractional_rate(tmp_path):
    # the chromatic estimate of every row needs n >= 2 for 0 < rate < 1
    with pytest.raises(ValueError, match="needs n >= 2"):
        ExperimentGrid(process_counts=(5, 1), conflict_rates=(0.0, 0.5))
    grid = ExperimentGrid(
        process_counts=(1, 3), conflict_rates=(0.0, 1.0), seeds=(1,), core_counts=(1, 2),
        strategies=DEFAULT_STRATEGIES[:1],
    )
    assert len(run_grid(grid, tmp_path)) == 2 * 2 * 2 * 2


def test_default_grid_builds_one_conflict_index_per_base_workload(monkeypatch):
    # 4 process counts x 4 rates x 3 seeds = 48 base workloads, 2 880 cells
    built = []

    def counted(w):
        built.append(w)
        return build_conflict_index(w)

    monkeypatch.setattr(conflictsched.model, "build_conflict_index", counted)
    cells = list(run_cells(ExperimentGrid()))
    assert len(cells) == 2880
    assert len(built) == 48


def test_default_grid_validates_each_distinct_schedule_once(monkeypatch):
    # attestor mode ignores the sort key, so each attestor workload's five
    # strategies give one schedule: 1 440 proposer + 1 440 / 5 attestor
    validated = []

    def counted(sch, w):
        validated.append(sch)
        return validate_schedule(sch, w)

    monkeypatch.setattr(conflictsched.bench, "validate_schedule", counted)
    cells = list(run_cells(ExperimentGrid()))
    assert len(cells) == 2880
    assert len(validated) == 1728

