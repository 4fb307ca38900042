"""Objective evaluation: makespan, idle/energy accounting, speedups, estimates.

These are post-hoc reports over a finished schedule; nothing here feeds
back into placement decisions (the greedy scheduler optimizes time only).
The paper's two analytic makespan estimates (a closed form in the conflict
rate, and layers from a chromatic-number approximation of a random conflict
graph) are exposed side by side, neither "corrected" toward the other.
Neither is a guaranteed upper bound: both fall below the greedy makespan
on every default bench grid row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Schedule, Weights, Workload

__all__ = [
    "BoundParams",
    "MetricsReport",
    "compute_idle_and_energy",
    "compute_speedups",
    "compute_te",
    "metrics_report",
    "upper_bound_chromatic",
    "upper_bound_closed_form",
    "weighted_objective",
]


@dataclass(frozen=True, slots=True)
class MetricsReport:
    """One schedule's objectives; no speedups (None) for a zero makespan."""

    te_ms: int
    idle_per_core_ms: tuple[int, ...]
    energy_per_core: tuple[float, ...]
    pce: float
    weighted_objective: float
    speedup_makespan_only: float | None
    speedup_total: float | None


@dataclass(frozen=True, slots=True)
class BoundParams:
    """Inputs to the analytic estimates: size, mean time, cores, conflict rate."""

    n: int
    mean_time_ms: float
    m: int
    cr: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if not 0.0 <= self.cr <= 1.0:
            raise ValueError(f"cr must be in [0, 1], got {self.cr}")
        # written so that nan fails it too
        if not 0.0 < self.mean_time_ms < math.inf:
            raise ValueError(f"mean_time_ms must be finite and > 0, got {self.mean_time_ms}")


def compute_te(sch: Schedule) -> int:
    """Makespan: the latest finish time across all cores (0 when empty)."""
    return max(sch.assignments.finishes, default=0)


def compute_idle_and_energy(
    sch: Schedule, w: Workload
) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    """Per-core idle time, per-core energy, and their total.

    Idle is measured against the global makespan: a core draws idle power
    until the whole block finishes, not just until its own last interval.
    Energy per core is op_count * cost_per_op summed over its processes
    plus idle * cost_per_idle_ms.
    """
    return _idle_and_energy(sch, w, compute_te(sch))


def _idle_and_energy(
    sch: Schedule, w: Workload, te: int
) -> tuple[tuple[int, ...], tuple[float, ...], float]:
    # `compute_idle_and_energy` against a makespan the caller already has
    m = w.cores.core_count
    busy = [0] * m
    ops = [0] * m
    processes = w.processes
    for pid, core_id, start, finish in zip(*sch.assignments.columns):
        busy[core_id] += finish - start
        ops[core_id] += processes[pid].op_count
    idle = tuple(te - b for b in busy)
    energy = tuple(
        ops[k] * w.cores.cost_per_op + idle[k] * w.cores.cost_per_idle_ms
        for k in range(m)
    )
    return idle, energy, sum(energy)


def weighted_objective(te_ms: float, pce: float, weights: Weights) -> float:
    """alpha_time * TE + alpha_cost * PCE."""
    return weights.alpha_time * te_ms + weights.alpha_cost * pce


def compute_speedups(sch: Schedule) -> tuple[float, float]:
    """(horizon / makespan, horizon / (makespan + wall time))."""
    if sch.schedule_makespan_ms <= 0:
        raise ValueError("speedup is undefined for a zero makespan")
    makespan_only = sch.horizon_ms / sch.schedule_makespan_ms
    total = sch.horizon_ms / (sch.schedule_makespan_ms + sch.wall_time_ms)
    return makespan_only, total


def metrics_report(sch: Schedule, w: Workload, weights: Weights = Weights(1.0)) -> MetricsReport:
    """Assemble a full report for one schedule; see `MetricsReport`."""
    te = compute_te(sch)
    idle, energy, pce = _idle_and_energy(sch, w, te)
    speedup_mk = speedup_total = None
    if sch.schedule_makespan_ms:
        speedup_mk, speedup_total = compute_speedups(sch)
    return MetricsReport(
        te_ms=te,
        idle_per_core_ms=idle,
        energy_per_core=energy,
        pce=pce,
        weighted_objective=weighted_objective(te, pce, weights),
        speedup_makespan_only=speedup_mk,
        speedup_total=speedup_total,
    )


def upper_bound_closed_form(p: BoundParams) -> float:
    """The paper's closed-form makespan estimate in ms; not a guaranteed bound.

    UB = (n * cr / (2 * ln(1 / (1 - cr)))) * (mean_time / m). The cr = 0
    case takes the removable limit (n / 2) * (mean_time / m); cr = 1
    returns n * mean_time (full serialization).
    """
    if p.cr == 0.0:
        return (p.n / 2) * (p.mean_time_ms / p.m)
    if p.cr == 1.0:
        return p.n * p.mean_time_ms
    return (p.n * p.cr / (2 * math.log(1 / (1 - p.cr)))) * (p.mean_time_ms / p.m)


def upper_bound_chromatic(p: BoundParams) -> float:
    """The paper's layering makespan estimate in ms; not a guaranteed bound.

    Approximates the chromatic number of a random conflict graph as
    chi = n / (2 * log_{1/(1-cr)} n), giving UB = mean_time * ceil(chi / m).
    Boundary cases: cr = 0 gives mean_time * ceil(n / m) (no edges) and
    cr = 1 gives mean_time * n (complete graph). The approximation needs
    n >= 2 for 0 < cr < 1.
    """
    if p.cr == 0.0:
        return p.mean_time_ms * math.ceil(p.n / p.m)
    if p.cr == 1.0:
        return p.mean_time_ms * p.n
    if p.n < 2:
        raise ValueError("chromatic approximation needs n >= 2 for 0 < cr < 1")
    chi = p.n * math.log(1 / (1 - p.cr)) / (2 * math.log(p.n))
    return p.mean_time_ms * math.ceil(chi / p.m)
