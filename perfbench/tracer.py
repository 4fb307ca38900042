"""Spans around calls into the library, kept in memory, and a replay of schedule().

The untraced runs time only the calls the end-to-end metrics need, through
`Clock`. The traced run uses `Tracer`, which records one span per call
(name, item, parent span, start, end; raw `perf_counter` seconds) plus
named counters, and writes them out once the run ends. Spans are taken
from outside the library: around its public functions, and around the
public parts `replay_schedule` calls.
"""

from __future__ import annotations

import json
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from conflictsched import (
    AssignType,
    Plan,
    assign_loosely,
    assign_strictly,
    build_conflict_index,
    sort_processes,
)

from speed import Speed


class Clock:
    """Times calls into the library; records nothing else.

    Before each call it lets `speed` take a calibration sample (outside the
    timed interval). `call` returns the result and the raw (start, end)
    interval; the harness scales intervals to reference speed at the end.
    """

    enabled = False

    def __init__(self, speed: Speed) -> None:
        self.speed = speed

    def call(self, name: str, fn, *args, **kwargs):
        self.speed.maybe_sample()
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        return out, (t0, perf_counter())


class Tracer(Clock):
    """Records a span for every call and sums named counters."""

    enabled = True

    def __init__(self, speed: Speed) -> None:
        super().__init__(speed)
        self.spans: list[list] = []  # [name, item, parent index, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        self.speed.maybe_sample()
        index = len(self.spans)
        span = [name, self.item, self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[3] = perf_counter()
        try:
            yield span
        finally:
            span[4] = perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name) as span:
            out = fn(*args, **kwargs)
        return out, (span[3], span[4])

    def durations(self, name: str) -> list[float]:
        """Reference-speed seconds of every span with this name."""
        return [self.speed.scale(s[3], s[4]) for s in self.spans if s[0] == name]

    def dump(self, path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def replay_schedule(w, strategy, tr: Tracer):
    """Run schedule()'s phases one by one through the library's public parts.

    Mirrors `conflictsched.schedule`: build the conflict index, sort, run
    loose rounds 0..R over the unassigned processes (stopping once a round
    refuses nothing), then place the survivors strictly. Each phase gets a
    span; attempts, acceptances and strict fallbacks are counted. Returns
    the assignments in process-id order and the placement order.
    """
    idx, _ = tr.call("conflict.build_conflict_index", build_conflict_index, w)
    order, _ = tr.call(
        "scheduler.sort_processes", sort_processes, w, idx, strategy.sort_type, w.attestor
    )
    plan, _ = tr.call("scheduler.plan_empty", Plan.empty, w)
    procs = w.processes
    if strategy.assign_type is AssignType.LOOSE:
        for round_no in range(strategy.loose_review_round + 1):
            attempts = refused = 0
            with tr.span(f"scheduler.loose_r{round_no}"):
                for pid in order:
                    if pid in plan.assigned:
                        continue
                    attempts += 1
                    if assign_loosely(procs[pid], plan, idx, w.attestor) is None:
                        refused += 1
            tr.counts["loose_attempts"] += attempts
            tr.counts["loose_accepted"] += attempts - refused
            if refused == 0:
                break
    strict = 0
    with tr.span("scheduler.strict"):
        for pid in order:
            if pid not in plan.assigned:
                assign_strictly(procs[pid], plan, idx, w.attestor)
                strict += 1
    tr.counts["strict"] += strict
    tr.counts["replays"] += 1
    tr.counts["processes"] += w.n
    tr.counts["edges"] += len(w.conflicts)
    return tuple(plan.assigned[pid] for pid in range(w.n)), order


def trace_schedule(w, strategy, sch, tr: Tracer):
    """Replay one schedule() call and count a mismatch or a failed replay.

    A replay that no longer reproduces schedule()'s assignments means the
    trace is stale (the scheduler changed); the timed run goes on either
    way. Returns the placement order, or None when the replay failed.
    """
    try:
        assignments, order = replay_schedule(w, strategy, tr)
    except Exception:  # a stale replay must not stop the timed run
        tr.counts["replay_mismatch"] += 1
        tr.counts["replay_errors"] += 1
        if tr.counts["replay_errors"] == 1:
            traceback.print_exc(file=sys.stderr)
        return None
    if assignments != sch.assignments:
        tr.counts["replay_mismatch"] += 1
    return order
