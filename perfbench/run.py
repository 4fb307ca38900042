#!/usr/bin/env python3
"""Benchmark for conflictsched: one workload, one seed, one closed-loop caller.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload block-stream --seed 0 --seconds 20 --trace 0

Workloads: block-stream, block-file, grid, oracle-small (see workloads.py).
Set-up (import, input generation and file writing, warm-up) runs five
times and reports its median. The timed phase then sends the workload's
fixed item list through the library in whole passes, one item at a time,
until ``--seconds`` have passed. A timing metric takes each item's (or each
schedule() call's) median over the passes, then the median or the 90th
percentile over items, so every input counts once however many passes it
got, and a percentile does not land on one block's stray sample. Every
output is checked independently of the library; a failed check or an
exception counts the item as failed, and later passes must reproduce the
first pass's makespans exactly.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
passes alternate untraced and traced, the traced ones record spans around
every library call plus a phase-by-phase replay of schedule(), and the
per-layer metrics are reported. Each metric is printed by name with its
unit, and the last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 5

END_TO_END = {
    "sched_ms_p50": "ms",
    "sched_ms_p90": "ms",
    "block_ms_p50": "ms",
    "makespan_over_lb": "ratio",
    "speedup_total": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_ms": "ms",
    "model.generate_ms": "ms",
    "model.derive_ms": "ms",
    "conflict.index_ms": "ms",
    "conflict.edges": "count",
    "scheduler.sort_ms": "ms",
    "scheduler.loose_r0_ms": "ms",
    "scheduler.loose_r1_ms": "ms",
    "scheduler.loose_r2_ms": "ms",
    "scheduler.loose_r3_ms": "ms",
    "scheduler.strict_ms": "ms",
    "scheduler.loose_attempts": "count",
    "scheduler.loose_accept_ratio": "ratio",
    "scheduler.strict_share": "ratio",
    "scheduler.replay_mismatch": "count",
    "metrics.idle_share": "ratio",
    "oracle.validate_ms": "ms",
    "oracle.nodes": "count",
    "bench.cells": "count",
    "bench.repeat_share": "ratio",
    "trace.overhead_ms": "ms",
}

# layers only some workloads call: printed and kept in the trace file
WORKLOAD_LAYERS = {
    "model.save_workload_ms": "model.save_workload",
    "model.load_workload_ms": "model.load_workload",
    "metrics.report_ms": "metrics.metrics_report",
    "oracle.exact_ms": "oracle.exact_optimal",
    "oracle.incumbent_ms": "oracle.incumbent",
    "scheduler.save_schedule_ms": "scheduler.save_schedule",
    "scheduler.load_schedule_ms": "scheduler.load_schedule",
    "bench.aggregate_ms": "bench.aggregate_cells",
    "bench.emit_ms": "bench.emit",
}


def probe_import() -> float:
    """Seconds a fresh interpreter takes to import the package and its CLI."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import conflictsched.cli; print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the samples around it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run(wl, seed: int, seconds: float, trace: bool, work_dir: Path):
    from checks import digest
    from speed import Speed
    from tracer import Clock, Tracer

    speed = Speed()
    speed.sample()
    tr = Tracer(speed) if trace else Clock(speed)
    plain_clock = Clock(speed)

    setups = []  # (import seconds, its instant, set-up interval)
    for _ in range(SETUP_REPS):
        t_import = perf_counter()
        imported = probe_import()
        at = (t_import + perf_counter()) / 2
        t0 = perf_counter()
        items = wl.make_inputs(seed, work_dir, tr)
        wl.warm_up(items, work_dir, plain_clock)
        setups.append((imported, at, (t0, perf_counter())))

    # Every item starts from the same collector state: a collection runs
    # before it, outside the timed calls, and the benchmark's own long-lived
    # objects (inputs, reference workloads, results) leave the collector's
    # view after set-up and after every pass, so they cannot make the
    # library's collections slower as the run goes on.
    gc.collect()
    gc.freeze()
    reference: list = [None] * len(items)
    first: list = []  # the first result of every item, kept whole for quality and digest
    # later results keep only their raw intervals, so memory stays flat however long the run
    item_blocks: list[list] = [[] for _ in items]  # untraced passes
    item_sched: list[list] = [[] for _ in items]  # per schedule() call of the item, untraced passes
    traced_blocks: list[list] = [[] for _ in items]
    plain_passes: list[list] = []  # per untraced pass, its items' block intervals
    attempted = failed = 0
    problems: list[str] = []
    deadline = perf_counter() + seconds
    passes = 0
    while passes < (2 if trace else 1) or perf_counter() < deadline:
        traced = trace and passes % 2 == 1
        clock = tr if traced else plain_clock
        pass_blocks = []
        for i, item in enumerate(items):
            if traced:
                tr.item = i
            gc.collect()
            attempted += 1
            try:
                res = wl.run_item(item, clock)
            except Exception:  # counted as a failed operation; the run goes on
                failed += 1
                if failed == 1:
                    traceback.print_exc(file=sys.stderr)
                continue
            if reference[i] is None:
                reference[i] = res.tokens
                first.append(res)
            elif res.tokens != reference[i]:
                res.problems.append("outputs differ from the first pass")
            if res.problems:
                failed += 1
                problems.extend(res.problems)
                del problems[5:]
            if traced:
                traced_blocks[i].append(res.block)
                continue
            item_blocks[i].append(res.block)
            pass_blocks.append(res.block)
            for j, interval in enumerate(res.sched):
                if j == len(item_sched[i]):
                    item_sched[i].append([])
                item_sched[i][j].append(interval)
        if not traced:
            plain_passes.append(pass_blocks)
        passes += 1
        gc.collect()
        gc.freeze()
    speed.sample()
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)

    def scaled(intervals) -> list[float]:
        return [speed.scale(*iv) for iv in intervals]

    def per_item(interval_lists) -> list[float]:
        """Each item's (or call's) median over the passes, in seconds."""
        return [statistics.median(scaled(ivs)) for ivs in interval_lists if ivs]

    blocks = per_item(item_blocks)
    sched = per_item(calls for per_item_calls in item_sched for calls in per_item_calls)
    pass_s = [sum(scaled(pass_blocks)) for pass_blocks in plain_passes]
    quality = [(mk, lb, h, statistics.mean(scaled(ivs)) * 1e3) for r in first for mk, lb, h, ivs in r.quality]

    lines = [
        f"workload {wl.name} seed {seed} trace {int(trace)}: {passes} passes over {len(items)} items; "
        f"times at reference speed (host ran at {statistics.median(speed.factor(t) for t in speed.sample_at):.3g}x "
        f"of it, {len(speed.sample_at)} samples)",
        f"fail_ratio = {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)",
        f"makespan_digest = {digest(t for r in first for t in r.tokens)}",
    ]
    lines += wl.summary(first, pass_s)

    if not trace:
        units = END_TO_END
        metrics, notes = end_to_end_metrics(sched, blocks, quality, setups, speed)
    else:
        units = PER_LAYER
        traced_blocks = per_item(traced_blocks)
        metrics = layer_metrics(tr, [imported * speed.factor(at) for imported, at, _ in setups])
        metrics["trace.overhead_ms"] = (statistics.median(traced_blocks) - statistics.median(blocks)) * 1e3
        notes = {"trace.overhead_ms": (
            f"median traced item {statistics.median(traced_blocks) * 1e3:.6g} ms "
            f"vs untraced {statistics.median(blocks) * 1e3:.6g} ms"
        )}
        lines += workload_layer_lines(tr)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{wl.name}-seed{seed}.json"
        tr.dump(trace_path)
        lines.append(f"spans written to {trace_path.relative_to(ROOT)}")

    for name, unit in units.items():
        note = notes.get(name)
        lines.append(f"{name} = {metrics[name]:.6g} {unit}" + (f" ({note})" if note else ""))
    print("\n".join(lines))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def end_to_end_metrics(sched, blocks, quality, setups, speed) -> tuple[dict, dict]:
    """The end-to-end metrics, and a note on each one's sample."""
    from checks import geomean

    p90 = percentile(sched, 90)
    metrics = {
        "sched_ms_p50": statistics.median(sched) * 1e3,
        "sched_ms_p90": p90 * 1e3,
        "block_ms_p50": statistics.median(blocks) * 1e3,
        "makespan_over_lb": geomean(mk / lb for mk, lb, _, _ in quality),
        "speedup_total": geomean(h / (mk + wall) for mk, _, h, wall in quality),
        "setup_s": statistics.median(
            imported * speed.factor(at) + speed.scale(*interval) for imported, at, interval in setups
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "sched_ms_p50": f"over {len(sched)} schedule() calls, each its median over the passes",
        "sched_ms_p90": f"over the same calls, {sum(1 for x in sched if x > p90)} beyond it",
        "block_ms_p50": f"over {len(blocks)} items, each its median over the passes",
        "makespan_over_lb": f"geomean over {len(quality)} schedules of the first pass",
        "speedup_total": "geomean of horizon / (makespan + scheduling wall time)",
        "setup_s": f"median of {SETUP_REPS} set-ups",
        "peak_rss_mb": "peak resident set of this process",
    }
    return metrics, notes


def workload_layer_lines(tr) -> list[str]:
    """Layers that only some workloads call, one line each where called."""
    lines = []
    for name, span_name in WORKLOAD_LAYERS.items():
        durations = tr.durations(span_name)
        if durations:
            lines.append(f"{name} = {statistics.median(durations) * 1e3:.6g} ms (median of {len(durations)} calls)")
    run_cells = tr.durations("bench.run_cells")
    if run_cells:
        lines.append(f"bench.run_cells_s = {statistics.median(run_cells):.6g} s (median of {len(run_cells)} runs)")
    return lines


def layer_metrics(tr, import_s: list[float]) -> dict[str, float]:
    counts = tr.counts

    def median_ms(span_name: str) -> float:
        durations = tr.durations(span_name)
        return statistics.median(durations) * 1e3 if durations else 0.0

    def per(numerator: str, denominator: str) -> float:
        return counts.get(numerator, 0.0) / counts[denominator] if counts.get(denominator) else 0.0

    replays = counts.get("replays") or 1
    metrics = {
        "cli.import_ms": statistics.median(import_s) * 1e3,
        "model.generate_ms": median_ms("model.generate_workload"),
        "model.derive_ms": median_ms("model.derive"),
        "conflict.index_ms": median_ms("conflict.build_conflict_index"),
        "conflict.edges": per("edges", "replays"),
        "scheduler.sort_ms": median_ms("scheduler.sort_processes"),
        "scheduler.strict_ms": sum(tr.durations("scheduler.strict")) / replays * 1e3,
        "scheduler.loose_attempts": per("loose_attempts", "replays"),
        "scheduler.loose_accept_ratio": per("loose_accepted", "loose_attempts"),
        "scheduler.strict_share": per("strict", "processes"),
        "scheduler.replay_mismatch": counts.get("replay_mismatch", 0.0),
        "metrics.idle_share": per("idle", "capacity"),
        "oracle.validate_ms": median_ms("oracle.validate_schedule"),
        "oracle.nodes": per("oracle.nodes", "oracle.calls"),
        "bench.cells": per("bench.cells", "bench.grid_runs"),
        "bench.repeat_share": per("bench.repeats", "bench.cells"),
    }
    for round_no in range(4):
        # mean per schedule() call; a round that was not needed counts as 0
        total = sum(tr.durations(f"scheduler.loose_r{round_no}"))
        metrics[f"scheduler.loose_r{round_no}_ms"] = total / replays * 1e3
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conflictsched" / "__init__.py").is_file():
        print(f"error: no conflictsched sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conflictsched

    if Path(conflictsched.__file__).resolve().parent != SRC / "conflictsched":
        print(f"error: imported conflictsched from {conflictsched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir()
    try:
        result = run(wl, args.seed, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
