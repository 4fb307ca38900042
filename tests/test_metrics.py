"""Objective metrics, energy accounting, speedups, and analytic bounds."""

import dataclasses
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched.metrics import (
    BoundParams,
    compute_idle_and_energy,
    compute_speedups,
    compute_te,
    metrics_report,
    upper_bound_chromatic,
    upper_bound_closed_form,
    weighted_objective,
)
from conflictsched.model import (
    Assignment,
    ConflictModel,
    ConflictPair,
    CoreProfile,
    Process,
    Schedule,
    TimeDistribution,
    Weights,
    Workload,
    generate_workload,
)
from conflictsched.scheduler import AssignType, SortType, Strategy, schedule


def make_workload(times, pairs, m=2, cost_op=0.0, cost_idle=0.0):
    return Workload(
        processes=tuple(Process(i, t, t * 10) for i, t in enumerate(times)),
        conflicts=tuple(ConflictPair(a, b) for a, b in pairs),
        cores=CoreProfile(m, cost_op, cost_idle),
    )


THREE = make_workload([4, 3, 2], [(0, 1)], m=2, cost_op=0.001, cost_idle=0.5)
THREE_SCHEDULE = schedule(THREE, Strategy(SortType.FIFO, AssignType.STRICT))


class TestComputeTe:
    def test_empty_schedule_is_zero(self):
        empty = Schedule(assignments=(), horizon_ms=0, schedule_makespan_ms=0, wall_time_ms=0.0)
        assert compute_te(empty) == 0

    def test_serial_equals_horizon(self):
        w = generate_workload(25, 0.4, seed=5, cores=CoreProfile(1))
        sch = schedule(w)
        assert compute_te(sch) == sch.horizon_ms

    def test_hand_example(self):
        assert compute_te(THREE_SCHEDULE) == 7


class TestIdleAndEnergy:
    def test_hand_example_idle(self):
        # makespan 7: core0 busy 6, core1 busy 3
        idle, energy, pce = compute_idle_and_energy(THREE_SCHEDULE, THREE)
        assert idle == (1, 4)
        assert energy[0] == pytest.approx(60 * 0.001 + 1 * 0.5)
        assert energy[1] == pytest.approx(30 * 0.001 + 4 * 0.5)
        assert pce == pytest.approx(sum(energy))

    def test_zero_cost_coefficients_give_zero_pce(self):
        w = make_workload([4, 3, 2], [(0, 1)], m=2)
        _, _, pce = compute_idle_and_energy(schedule(w), w)
        assert pce == 0.0

    def test_single_core_has_no_idle(self):
        w = make_workload([5, 1, 7], [], m=1, cost_op=2.0)
        sch = schedule(w)
        idle, energy, pce = compute_idle_and_energy(sch, w)
        assert idle == (0,)
        assert pce == pytest.approx(2.0 * sum(p.op_count for p in w.processes))

    @given(n=st.integers(1, 40), m=st.integers(1, 8), seed=st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_busy_plus_idle_accounts_for_all_core_time(self, n, m, seed):
        w = generate_workload(n, 0.3, seed=seed, cores=CoreProfile(m))
        sch = schedule(w)
        idle, _, _ = compute_idle_and_energy(sch, w)
        busy = [0] * m
        for a in sch.assignments:
            busy[a.core_id] += a.finish_ms - a.start_ms
        te = compute_te(sch)
        assert sum(busy) + sum(idle) == m * te


class TestWeightedObjective:
    def test_pure_time_weight_returns_te(self):
        assert weighted_objective(10.0, 999.0, Weights(1.0)) == 10.0

    def test_pure_cost_weight_returns_pce(self):
        assert weighted_objective(10.0, 999.0, Weights(0.0)) == 999.0

    def test_midpoint(self):
        assert weighted_objective(10.0, 20.0, Weights(0.5)) == pytest.approx(15.0)


class TestClosedFormBound:
    def test_vanishing_rate_matches_taylor_limit(self):
        got = upper_bound_closed_form(BoundParams(n=100, mean_time_ms=8, m=4, cr=1e-9))
        assert math.isclose(got, (100 / 2) * (8 / 4), rel_tol=1e-6)

    def test_exact_zero_uses_removable_limit(self):
        assert upper_bound_closed_form(BoundParams(n=100, mean_time_ms=8, m=4, cr=0.0)) == 100.0

    def test_full_rate_is_serial(self):
        assert upper_bound_closed_form(BoundParams(n=50, mean_time_ms=8, m=4, cr=1.0)) == 400.0

    def test_half_rate_frozen_value(self):
        # frozen from a 50-digit evaluation of the same expression
        got = upper_bound_closed_form(BoundParams(n=100, mean_time_ms=8, m=4, cr=0.5))
        assert math.isclose(got, 72.13475204444817, rel_tol=1e-12)


class TestChromaticBound:
    def test_zero_rate_is_load_bound(self):
        assert upper_bound_chromatic(BoundParams(n=100, mean_time_ms=8, m=8, cr=0.0)) == 8 * 13

    def test_full_rate_is_serial(self):
        assert upper_bound_chromatic(BoundParams(n=50, mean_time_ms=8, m=3, cr=1.0)) == 400.0

    def test_quarter_rate_frozen_value(self):
        # chi ~= 3.1235 for n=100 at cr=0.25, so one layer block per 4 cores
        got = upper_bound_chromatic(BoundParams(n=100, mean_time_ms=8, m=4, cr=0.25))
        assert got == 8.0

    def test_half_rate_frozen_value(self):
        # chi ~= 13.0824 for n=200 at cr=0.5 -> ceil(13.0824 / 2) = 7 layers
        got = upper_bound_chromatic(BoundParams(n=200, mean_time_ms=8, m=2, cr=0.5))
        assert got == 56.0

    def test_needs_two_vertices_mid_range(self):
        with pytest.raises(ValueError):
            upper_bound_chromatic(BoundParams(n=1, mean_time_ms=8, m=1, cr=0.5))

    @pytest.mark.parametrize("n,m", [(50, 4), (200, 16)])
    def test_monotone_non_decreasing_in_rate(self, n, m):
        rates = [0.05 + 0.1 * k for k in range(10)]
        values = [
            upper_bound_chromatic(BoundParams(n=n, mean_time_ms=8, m=m, cr=r)) for r in rates
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSpeedups:
    def test_single_core_speedup_is_one(self):
        w = generate_workload(30, 0.2, seed=8, cores=CoreProfile(1))
        mk, total = compute_speedups(schedule(w))
        assert mk == 1.0
        assert total < 1.0

    def test_balanced_load_reaches_core_count(self):
        w = generate_workload(
            40, 0.0, seed=1, cores=CoreProfile(4), time_dist=TimeDistribution.constant(6)
        )
        mk, _ = compute_speedups(schedule(w))
        assert mk == 4.0

    def test_zero_makespan_guarded(self):
        empty = Schedule(assignments=(), horizon_ms=0, schedule_makespan_ms=0, wall_time_ms=0.0)
        with pytest.raises(ValueError):
            compute_speedups(empty)

    @given(n=st.integers(1, 50), m=st.integers(1, 16), seed=st.integers(0, 300))
    @settings(max_examples=60, deadline=None)
    def test_no_superlinear_speedup(self, n, m, seed):
        w = generate_workload(n, 0.2, seed=seed, cores=CoreProfile(m))
        mk, _ = compute_speedups(schedule(w))
        assert mk <= m + 1e-9


class TestMetricsReport:
    def test_report_is_consistent(self):
        report = metrics_report(THREE_SCHEDULE, THREE, Weights(1.0))
        assert report.te_ms == 7
        assert report.weighted_objective == 7.0
        assert report.pce == pytest.approx(sum(report.energy_per_core))
        assert report.speedup_makespan_only == pytest.approx(9 / 7)
        assert report.speedup_total < report.speedup_makespan_only

    def test_empty_workload_has_no_speedups(self):
        w = make_workload([], [], m=3, cost_op=0.001, cost_idle=0.5)
        report = metrics_report(schedule(w), w, Weights(0.5))
        assert report.te_ms == 0
        assert report.idle_per_core_ms == (0, 0, 0)
        assert report.energy_per_core == (0.0, 0.0, 0.0)
        assert report.pce == 0.0 and report.weighted_objective == 0.0
        assert report.speedup_makespan_only is None and report.speedup_total is None

    def test_reports_are_pinned(self):
        # every field of every report, floats to the last bit: seeded
        # workloads of both models with nonzero energy costs, 1 to 5
        # cores, both modes, EVENT and the 10 greedy strategies, with a
        # fixed wall time. A change to how a report is computed keeps it.
        strategies = [Strategy(assign_type=AssignType.EVENT)] + [
            Strategy(sort, assign, 3)
            for sort in SortType
            for assign in (AssignType.LOOSE, AssignType.STRICT)
        ]
        reports = []
        for seed in range(12):
            base = generate_workload(
                20 + 7 * seed, (0.05, 0.2, 0.45)[seed % 3], seed=seed,
                model=list(ConflictModel)[seed % 2],
                cores=CoreProfile(1 + seed % 5, 0.0013 * (seed + 1), 0.37 + seed / 7),
            )
            for attestor in (False, True):
                w = base.with_attestor(attestor)
                for strat in strategies:
                    sch = dataclasses.replace(schedule(w, strat), wall_time_ms=0.125 * (seed + 1))
                    reports.append(metrics_report(sch, w, Weights(0.3)))
        digest = hashlib.sha256(repr(reports).encode()).hexdigest()
        assert digest == "fb258e85760ed010ad3a52cc60951d67f2d40bda0d36cd73a3472aee9c007692"


class TestBoundParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            BoundParams(n=0, mean_time_ms=1, m=1, cr=0.5)
        with pytest.raises(ValueError):
            BoundParams(n=1, mean_time_ms=1, m=0, cr=0.5)
        with pytest.raises(ValueError):
            BoundParams(n=1, mean_time_ms=1, m=1, cr=1.5)

    @pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, -5.0, 0.0])
    def test_rejects_a_mean_time_that_is_not_finite_and_positive(self, mean):
        with pytest.raises(ValueError) as exc_info:
            BoundParams(n=100, mean_time_ms=mean, m=4, cr=0.5)
        assert str(exc_info.value) == f"mean_time_ms must be finite and > 0, got {mean}"
