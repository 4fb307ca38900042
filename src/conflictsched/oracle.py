"""Correctness backstop: full schedule validation and an exact solver.

The validator checks arbitrary candidate schedules against every constraint
and reports all violations, not just the first. The exact solver is a
depth-first branch-and-bound search over (placement order, core choice)
used to measure the greedy scheduler's optimality gap. It runs as one loop
over an explicit stack, so it takes any block size; its time is bounded by
its node budget. It computes its cheap static bound before any incumbent,
and tries EVENT first: the first incumbent that meets the bound is
certified at the root, whatever the size of the block, and no later
strategy runs. A schedule at a lower bound is optimal, so the search, too,
ends at the first schedule it finds that meets its bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from operator import add, itemgetter
from typing import Sequence

from .model import Schedule, Workload
from .scheduler import AssignType, SortType, Strategy, schedule

__all__ = [
    "DEFAULT_NODE_BUDGET",
    "OracleResult",
    "ValidationReport",
    "Violation",
    "exact_optimal",
    "validate_schedule",
]


# search nodes `exact_optimal` may visit before it gives up undecided
DEFAULT_NODE_BUDGET = 2_000_000


@dataclass(frozen=True, slots=True)
class Violation:
    constraint: str  # C1, C2, C3, or COMPLETENESS
    process_ids: tuple[int, ...]
    detail: str


@dataclass(frozen=True, slots=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


_VALID = ValidationReport(True, ())


def validate_schedule(sch: Schedule, w: Workload) -> ValidationReport:
    """Check COMPLETENESS, C1, C2, and (in attestor mode) C3.

    COMPLETENESS: every process assigned exactly once, with a sane
    interval (finish = start + exec time, start >= 0, core id in range),
    the stated makespan equal to the latest finish, and the stated horizon
    equal to the total execution time.
    C1: intervals on one core are pairwise disjoint; each interval that
    overlaps an earlier one on its core is reported with the one of those
    that finishes last. C2: conflicting processes never overlap, even
    across cores. C3: a conflicting pair must finish in original order when
    the workload is attestor-mode. Intervals are half-open, so
    back-to-back placement is legal.

    A schedule listed in id order, as the scheduler, the oracle and
    `load_schedule` emit one, is checked in whole-column passes; the
    per-entry pass runs only when those fail, to name the violations.
    """
    if _proves_valid(sch, w):
        return _VALID
    return _report(sch, w)


def _proves_valid(sch: Schedule, w: Workload) -> bool:
    """True only for a schedule that `_report` finds valid.

    Reads the assignments' columns; False for any schedule not listed in id
    order, whatever its validity.
    """
    times = w.exec_times()
    n = len(times)
    pids, core_ids, starts, finishes = sch.assignments.columns
    if not n or pids != w.process_ids():
        return False
    if min(core_ids) < 0 or max(core_ids) >= w.cores.core_count:
        return False
    if tuple(map(add, starts, times)) != finishes:
        return False
    if sch.schedule_makespan_ms != max(finishes) or sch.horizon_ms != sum(times):
        return False
    # C1: in start order, each interval starts at or after the last finish
    # on its core; ties go to the lower id, as in `_report`. Each core is
    # free from 0, so a negative start fails here too.
    last = [0] * w.cores.core_count
    for pid in sorted(range(n), key=starts.__getitem__):
        k = core_ids[pid]
        if starts[pid] < last[k]:
            return False
        last[k] = finishes[pid]
    pairs = zip(w.conflicts.firsts, w.conflicts.seconds)
    if w.attestor:
        # C3, and with it C2: each pair's lower id finishes first
        for a, b in pairs:
            if finishes[a] > starts[b]:
                return False
    else:
        for a, b in pairs:
            if starts[a] < finishes[b] and starts[b] < finishes[a]:
                return False
    return True


def _report(sch: Schedule, w: Workload) -> ValidationReport:
    """`validate_schedule` one entry at a time, naming every violation."""
    violations: list[Violation] = []
    n = w.n
    m = w.cores.core_count
    times = w.exec_times()
    # process id -> (start, finish); per core, (start, process id, finish)
    # tuples, which sort by start with ties to the lower id
    spans: dict[int, tuple[int, int]] = {}
    per_core: dict[int, list[tuple[int, int, int]]] = {}

    for pid, core_id, start, finish in zip(*sch.assignments.columns):
        if pid < 0 or pid >= n:
            violations.append(Violation("COMPLETENESS", (pid,), f"unknown process id {pid}"))
            continue
        if pid in spans:
            violations.append(Violation("COMPLETENESS", (pid,), f"process {pid} assigned twice"))
            continue
        spans[pid] = (start, finish)
        per_core.setdefault(core_id, []).append((start, pid, finish))
        t = times[pid]
        if start < 0:
            violations.append(
                Violation("COMPLETENESS", (pid,), f"process {pid} starts at {start} < 0")
            )
        if finish != start + t:
            violations.append(
                Violation(
                    "COMPLETENESS",
                    (pid,),
                    f"process {pid} finish {finish} != start {start} + time {t}",
                )
            )
        if core_id < 0 or core_id >= m:
            violations.append(
                Violation("COMPLETENESS", (pid,), f"core id {core_id} out of range 0..{m - 1}")
            )

    # spans holds only distinct in-range ids, so n of them means all of them
    if len(spans) < n:
        for pid in range(n):
            if pid not in spans:
                violations.append(Violation("COMPLETENESS", (pid,), f"process {pid} is unassigned"))
    latest = max(sch.assignments.finishes, default=0)
    if sch.schedule_makespan_ms != latest:
        detail = f"schedule makespan {sch.schedule_makespan_ms} != latest finish {latest}"
        violations.append(Violation("COMPLETENESS", (), detail))
    if sch.horizon_ms != sum(times):
        detail = f"schedule horizon {sch.horizon_ms} != total execution time {sum(times)}"
        violations.append(Violation("COMPLETENESS", (), detail))

    for core_id, items in sorted(per_core.items()):
        items.sort()
        # each interval against the earlier one on its core that finishes
        # last: any earlier interval it overlaps, that one overlaps too
        _, last_pid, last_finish = items[0]
        for start, pid, finish in items[1:]:
            if start < last_finish:
                violations.append(
                    Violation(
                        "C1",
                        (last_pid, pid),
                        f"processes {last_pid} and {pid} overlap on core {core_id}",
                    )
                )
            if finish > last_finish:
                last_pid, last_finish = pid, finish

    attestor = w.attestor
    for a, b in zip(w.conflicts.firsts, w.conflicts.seconds):
        span_a, span_b = spans.get(a), spans.get(b)
        if span_a is None or span_b is None:
            continue
        a_start, a_finish = span_a
        b_start, b_finish = span_b
        if a_start < b_finish and b_start < a_finish:
            violations.append(
                Violation(
                    "C2",
                    (a, b),
                    f"conflicting processes {a} and {b} overlap in time",
                )
            )
        if attestor and a_finish > b_start:
            violations.append(
                Violation(
                    "C3",
                    (a, b),
                    f"conflicting process {b} starts at {b_start} "
                    f"before predecessor {a} finishes at {a_finish}",
                )
            )

    return ValidationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class OracleResult:
    makespan_ms: int
    schedule: Schedule
    optimal: bool
    nodes: int


def _clique_weight_table(times: tuple[int, ...], adj_mask: list[int]) -> list[int]:
    # exact max-weight clique per vertex subset; any clique must serialize,
    # so its summed time lower-bounds the makespan
    n = len(times)
    table = [0] * (1 << n)
    for subset in range(1, 1 << n):
        v = (subset & -subset).bit_length() - 1
        without = table[subset & (subset - 1)]
        with_v = times[v] + table[subset & adj_mask[v]]
        table[subset] = max(without, with_v)
    return table


def _static_lower_bound(w: Workload) -> int:
    times = w.exec_times()
    m = w.cores.core_count
    lb = math.ceil(sum(times) / m)
    for a, b in zip(w.conflicts.firsts, w.conflicts.seconds):
        lb = max(lb, times[a] + times[b])
    for t, hood in zip(times, w.conflict_index.conflict_duration_ms):
        if hood:
            lb = max(lb, t + math.ceil(hood / m))
    if w.attestor:
        # an id-ordered conflict chain runs in order
        lb = max(lb, max(w.attestor_chain(), default=0))
    return lb


def _incumbent(w: Workload, bound: int) -> Schedule:
    # EVENT first: it meets the bound most often, and a schedule at a lower
    # bound is optimal, so the sweep stops there; otherwise the earliest of
    # the shortest wins. Attestor sorting ignores the sort key, so one sort
    # covers them all.
    best = schedule(w, Strategy(assign_type=AssignType.EVENT))
    sorts = [SortType.FIFO] if w.attestor else list(SortType)
    for sort in sorts:
        for assign in (AssignType.LOOSE, AssignType.STRICT):
            if best.schedule_makespan_ms <= bound:
                return best
            sch = schedule(w, Strategy(sort, assign, 3))
            if sch.schedule_makespan_ms < best.schedule_makespan_ms:
                best = sch
    return best


def exact_optimal(w: Workload, *, node_budget: int = DEFAULT_NODE_BUDGET) -> OracleResult:
    """Find a minimum-makespan schedule by branch and bound.

    Branches over which process to place next and on which core; each
    placement starts at the earliest time that respects conflict freedom
    (and original order, in attestor mode). The load, pair, neighbourhood
    and (in attestor mode) chain bound comes first. The incumbent is EVENT,
    then each greedy strategy in turn: the first schedule that meets the
    bound ends that sweep, else the earliest of the shortest is kept, so
    EVENT wins a tie. An incumbent at the bound is optimal, and is returned
    without a search and without the O(2^n) clique table. Otherwise the
    search skips children by admissible lower bounds (with the clique table
    up to n = 16) and dominance memoization. The memo keeps every key for
    the whole search, each one flat tuple: the sorted core ends, the mask
    of processes left to place, then the ids of the placed processes that
    finish after the earliest core end, then those finishes. As the key
    holds the sorted ends, it also catches a placement on an empty core
    that one on another empty core already covered. The search replaces
    the incumbent only with a shorter schedule, and ends as soon as one
    meets the bound. If the node budget is exhausted first, the best
    schedule found so far is returned with ``optimal=False``. Raises
    ``ValueError`` for a node budget that is not an int (a bool is not)
    or is below 1.
    """
    t0 = time.perf_counter()
    if isinstance(node_budget, bool) or not isinstance(node_budget, int):
        raise ValueError(f"node_budget must be an int, got {node_budget!r}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be >= 1, got {node_budget}")
    static_lb = _static_lower_bound(w)
    incumbent = _incumbent(w, static_lb)
    best_ms = incumbent.schedule_makespan_ms
    best_assign = incumbent.assignments
    nodes = 0
    if best_ms > static_lb:
        best_ms, best_assign, nodes = _search(w, static_lb, best_ms, best_assign, node_budget)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    witness = Schedule(
        assignments=best_assign,
        horizon_ms=sum(w.exec_times()),
        schedule_makespan_ms=best_ms,
        wall_time_ms=wall_ms,
    )
    return OracleResult(
        makespan_ms=best_ms,
        schedule=witness,
        optimal=nodes <= node_budget,
        nodes=nodes,
    )


def _search(
    w: Workload,
    static_lb: int,
    best_ms: int,
    best_assign: Sequence[tuple[int, int, int, int]],
    node_budget: int,
) -> tuple[int, Sequence[tuple[int, int, int, int]], int]:
    # the branch and bound below an incumbent that misses the static
    # bound: returns the best makespan, its assignments and the node count
    n = w.n
    m = w.cores.core_count
    times = w.exec_times()
    adjacency = w.conflict_index.adjacency
    attestor = w.attestor
    clique_w = None
    if n <= 16:
        # rows are distinct, so summing their bits sets each once
        adj_mask = [sum(1 << q for q in row) for row in adjacency]
        clique_w = _clique_weight_table(times, adj_mask)
        # the whole set's clique weighs at least every pair in it
        static_lb = max(static_lb, clique_w[-1])

    # larger processes first: finds tight schedules early, so bounds bite
    branch_order = sorted(range(n), key=lambda i: (-times[i], i))
    ends = [0] * m
    # process id -> its (process id, core id, start, finish) once placed,
    # else None; the witness `Schedule` turns them into columns
    slots: list[tuple[int, int, int, int] | None] = [None] * n
    # attestor mode: each process's unplaced lower-id partners, counted
    # down as they are placed; it may branch only at zero
    if attestor:
        waiting = list(w.predecessor_counts())
        successors = w.successor_rows()
    else:
        waiting = [0] * n
        successors = [()] * n
    visited: set = set()
    # the memo key reads these two fields of each hot slot
    pid_of, finish_of = itemgetter(0), itemgetter(3)
    nodes = 0

    def children(remaining_mask: int, remaining_work: int):
        # places each child's process, yields what the child has left to
        # place, and undoes the placement when resumed
        nonlocal nodes
        for pid in branch_order:
            if waiting[pid] or not remaining_mask & (1 << pid):
                continue
            partners = adjacency[pid]
            # field 3 is the finish
            conflict_floor = max([a[3] for a in map(slots.__getitem__, partners) if a], default=0)
            for k in range(m):
                nodes += 1
                if nodes > node_budget:
                    return
                start = max(ends[k], conflict_floor)
                finish = start + times[pid]
                next_mask = remaining_mask & ~(1 << pid)
                next_work = remaining_work - times[pid]
                # append-only completions: consumed core time plus the
                # remaining work cannot be packed below this; a clique
                # among the remaining processes must also serialize after
                # the current earliest core end
                prev_end = ends[k]
                ends[k] = finish
                bound = max(max(ends), math.ceil((sum(ends) + next_work) / m))
                if clique_w is not None and next_mask:
                    bound = max(bound, min(ends) + clique_w[next_mask])
                if bound < best_ms:
                    slots[pid] = (pid, k, start, finish)
                    for q in successors[pid]:
                        waiting[q] -= 1
                    yield next_mask, next_work
                    for q in successors[pid]:
                        waiting[q] += 1
                    slots[pid] = None
                ends[k] = prev_end

    # depth first over a stack of child generators; the root is the only
    # child of a node that places nothing. A schedule at the bound is
    # optimal, so the search ends there.
    stack = [iter([((1 << n) - 1, sum(times))])]
    while stack and nodes <= node_budget and best_ms > static_lb:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
            continue
        remaining_mask, remaining_work = child
        if not remaining_mask:
            # a child is yielded only below best_ms, its bound includes
            # max(ends), and nothing moves best_ms before it is taken here
            best_ms = max(ends)
            best_assign = tuple(slots)
            continue
        # placements that leave the same core ends, the same processes to
        # place and the same finish times above the earliest core end have
        # the same completions: every later start is at or after a core
        # end, so an earlier finish delays none; start and core do not
        # matter, nor which of several empty cores took the last process
        low = min(ends)
        # one flat tuple: the m core ends, the mask, then the hot ids and
        # their finishes, two runs of one length, so two keys are equal
        # exactly when these fields are
        hot = [a for a in slots if a and a[3] > low]
        key = (*sorted(ends), remaining_mask, *map(pid_of, hot), *map(finish_of, hot))
        if key in visited:
            continue
        visited.add(key)
        stack.append(children(remaining_mask, remaining_work))
    return best_ms, best_assign, nodes
