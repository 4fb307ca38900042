"""Metrics: makespan, energy, speedups, and the paper's analytic estimates.

Run:  python demos/04_metrics_and_bounds.py
"""

from conflictsched import (
    BoundParams,
    CoreProfile,
    Weights,
    generate_workload,
    metrics_report,
    schedule,
    upper_bound_chromatic,
    upper_bound_closed_form,
)

# ---------------------------------------------------------------------------
# A metrics report rolls up the schedule quality numbers: makespan (TE),
# per-core idle and energy, total power consumption (PCE), the weighted
# objective, and both speedup variants. Cores draw idle power until the
# whole block finishes, so idle is measured against the global makespan.

w = generate_workload(
    40, 0.4, seed=5,
    cores=CoreProfile(core_count=4, cost_per_op=2e-6, cost_per_idle_ms=0.05),
)
sch = schedule(w)
report = metrics_report(sch, w, Weights(alpha_time=0.7))

print(f"makespan (TE):     {report.te_ms} ms  (serial horizon {sch.horizon_ms} ms)")
print(f"idle per core:     {report.idle_per_core_ms}")
print(f"energy per core:   {tuple(round(e, 3) for e in report.energy_per_core)}")
print(f"PCE:               {report.pce:.3f}")
print(f"objective (a=0.7): {report.weighted_objective:.3f}")
print(f"speedups:          {report.speedup_makespan_only:.2f}x makespan-only, "
      f"{report.speedup_total:.2f}x including scheduling wall time")

# ---------------------------------------------------------------------------
# The paper's two analytic makespan estimates, exposed side by side. They
# are named upper bounds but are not guaranteed ones: real schedules can
# land above them. The closed form divides conflict-discounted work across
# cores; the chromatic estimate counts scheduling layers from a
# random-graph coloring approximation. They scale differently and neither
# is adjusted toward the other.

print(f"\n{'cr':>5} {'UB-closed':>12} {'UB-chromatic':>13}   (n=100, mean 8 ms, m=4)")
for cr in (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
    p = BoundParams(n=100, mean_time_ms=8.0, m=4, cr=cr)
    print(f"{cr:>5.2f} {upper_bound_closed_form(p):>12.2f} {upper_bound_chromatic(p):>13.2f}")

# ---------------------------------------------------------------------------
# Only the boundary cases are exact: cr=0 collapses to the load bound
# ceil(n/m) * mean and cr=1 to full serialization n * mean. The mid-range
# values use an asymptotic coloring approximation and describe an idealized
# best case, so expect real schedules to land above them at low rates and
# the two formulas to disagree with each other.

from conflictsched import ConflictModel  # noqa: E402

inst = generate_workload(100, 1.0, model=ConflictModel.PAIRWISE, seed=2, cores=CoreProfile(4))
got = schedule(inst)
bound = upper_bound_chromatic(BoundParams(n=100, mean_time_ms=8.0, m=4, cr=1.0))
print(f"\nfully conflicting block: greedy makespan {got.schedule_makespan_ms} ms, "
      f"serial ceiling {bound:.0f} ms (mean-time model)")
