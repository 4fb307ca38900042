"""Conflict-aware scheduling of transactions onto homogeneous cores.

The package assigns n processes with pairwise conflicts to m cores using the
paper's greedy iterative heuristic or an event-driven list scheduler
(EVENT), minimizing makespan while guaranteeing conflict-free parallel
execution; attestor mode additionally preserves the original order of
conflicting pairs. Includes workload generation and I/O,
schedule validation, an exact small-instance solver, objective metrics with
the paper's analytic makespan estimates, and a benchmark harness.
"""

from .bench import (
    CellResult,
    ExperimentGrid,
    ResultRow,
    aggregate_cells,
    run_cells,
    run_grid,
)
from .metrics import (
    BoundParams,
    MetricsReport,
    compute_idle_and_energy,
    compute_speedups,
    compute_te,
    metrics_report,
    upper_bound_chromatic,
    upper_bound_closed_form,
    weighted_objective,
)
from .model import (
    Assignment,
    ConflictIndex,
    ConflictModel,
    ConflictPair,
    CoreProfile,
    GasTimeModel,
    Process,
    Schedule,
    TimeDistribution,
    Weights,
    Workload,
    WorkloadValidationError,
    build_conflict_index,
    conflicts_with,
    estimate_exec_time,
    generate_workload,
    load_schedule,
    load_workload,
    save_schedule,
    save_workload,
)
from .oracle import OracleResult, ValidationReport, Violation, exact_optimal, validate_schedule
from .scheduler import (
    AssignType,
    Plan,
    SortType,
    Strategy,
    assign_loosely,
    assign_strictly,
    schedule,
    sort_processes,
)

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "AssignType",
    "BoundParams",
    "CellResult",
    "ConflictIndex",
    "ConflictModel",
    "ConflictPair",
    "CoreProfile",
    "ExperimentGrid",
    "GasTimeModel",
    "MetricsReport",
    "OracleResult",
    "Plan",
    "Process",
    "ResultRow",
    "Schedule",
    "SortType",
    "Strategy",
    "TimeDistribution",
    "ValidationReport",
    "Violation",
    "Weights",
    "Workload",
    "WorkloadValidationError",
    "aggregate_cells",
    "assign_loosely",
    "assign_strictly",
    "build_conflict_index",
    "compute_idle_and_energy",
    "compute_speedups",
    "compute_te",
    "conflicts_with",
    "estimate_exec_time",
    "exact_optimal",
    "generate_workload",
    "load_schedule",
    "load_workload",
    "metrics_report",
    "run_cells",
    "run_grid",
    "save_schedule",
    "save_workload",
    "schedule",
    "sort_processes",
    "upper_bound_chromatic",
    "upper_bound_closed_form",
    "validate_schedule",
    "weighted_objective",
]
