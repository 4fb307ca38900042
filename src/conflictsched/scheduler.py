"""The paper's greedy conflict-aware scheduler and an event-driven one: placement only.

The data it reads and returns, and their files, live in `model`.
Processes are sorted by a pluggable priority key, then placed one at a time
on the least occupied core: loose rounds, then strict placement of whatever
they refused. One kernel, `_place`, does all placement: `schedule` calls it
once per loose round and once for the strict fallback, and
`assign_loosely`/`assign_strictly` are its one-process case. The `Plan`
records core occupancy only as a heap of ``(occupied_until_ms, core_id)``
pairs, so picking the least occupied core is O(1) and committing a
placement is O(log m).

* Loose placement refuses any placement that would need idle time; refused
  processes are retried in the next round (core ends advance between
  rounds, so earlier refusals often become placeable).
* Strict placement always places the process, inserting the minimal idle
  time needed to clear conflicts with already-placed partners.

LOOSE-R strategies run up to R + 1 loose rounds, stopping after a round
that places nothing; STRICT strategies run zero.

In attestor mode, conflicting pairs must additionally finish in their
original block order; both placement methods respect that, and the sort
phase puts all conflict participants first in original order so the gate
can always be satisfied.

EVENT strategies skip all of the above and run `_event`, a list scheduler
(Graham 1969): a clock that jumps from one completion to the next, starting
the highest-priority ready process on each free core. It ignores the sort
key and the review rounds.

All tie-breaks are pinned (lowest core id, original process id), so a
schedule is a pure function of the workload and strategy; only the
measured wall time varies between runs.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import compress
from operator import add, not_
from typing import Iterable, Mapping, Sequence

from .model import Assignment, ConflictIndex, Process, Schedule, Workload

__all__ = [
    "AssignType",
    "AttestorOrderError",
    "Plan",
    "SortType",
    "Strategy",
    "assign_loosely",
    "assign_strictly",
    "schedule",
    "sort_processes",
]


class SortType(str, Enum):
    FIFO = "FIFO"
    MCCF = "MCCF"  # most conflicting count first
    MCDF = "MCDF"  # most conflicting duration first
    LCCF = "LCCF"  # least conflicting count first
    LCDF = "LCDF"  # least conflicting duration first


class AssignType(str, Enum):
    LOOSE = "LOOSE"
    STRICT = "STRICT"
    EVENT = "EVENT"  # event-driven list scheduling; no sort, no rounds


class AttestorOrderError(RuntimeError):
    """A conflicting predecessor was still unassigned; scheduler bug."""


@dataclass(frozen=True, slots=True)
class Strategy:
    """Heuristic knobs: priority order, placement method, review rounds."""

    sort_type: SortType = SortType.MCDF
    assign_type: AssignType = AssignType.LOOSE
    loose_review_round: int = 3

    def __post_init__(self) -> None:
        if self.loose_review_round < 0:
            raise ValueError("looseReviewRound must be >= 0")

    @property
    def label(self) -> str:
        if self.assign_type is AssignType.EVENT:
            return "EVENT"
        if self.assign_type is AssignType.STRICT:
            return f"{self.sort_type.value}-STRICT"
        return f"{self.sort_type.value}-LOOSE-{self.loose_review_round}"


DEFAULT_STRATEGY = Strategy()

# builds an Assignment from a 4-tuple in C, skipping the named tuple's
# Python-level __new__
_new_assignment = partial(tuple.__new__, Assignment)


@dataclass
class Plan:
    """Mutable working state shared by the placement methods.

    ``ends`` holds one ``(occupied_until_ms, core_id)`` pair per core: the
    finish of the last process placed there. It is kept as a heap, so
    ``ends[0]`` is the least occupied core, ties to the lowest id.
    """

    ends: list[tuple[int, int]]
    assigned: dict[int, Assignment] = field(default_factory=dict)

    def __post_init__(self) -> None:
        heapq.heapify(self.ends)

    @classmethod
    def empty(cls, w: Workload) -> Plan:
        return cls([(0, k) for k in range(w.cores.core_count)])


def sort_processes(
    w: Workload, idx: ConflictIndex, sort_type: SortType, is_attestor: bool
) -> list[int]:
    """Order process ids for placement.

    Proposer mode applies the strategy's sort key with ties broken by
    original id (stable). Attestor mode ignores the key: conflict
    participants come first in original order (their relative order is
    fixed anyway), then the conflict-free remainder in original order.
    """
    if is_attestor:
        # a fresh list, so no caller can change the workload's cached order
        return list(w.attestor_order())
    ids = list(range(w.n))
    if sort_type is SortType.FIFO:
        return ids
    stats, most_first = {
        SortType.MCCF: (idx.conflict_count, True),
        SortType.LCCF: (idx.conflict_count, False),
        SortType.MCDF: (idx.conflict_duration_ms, True),
        SortType.LCDF: (idx.conflict_duration_ms, False),
    }[sort_type]
    # a reversed sort is still stable, so ties keep id order
    return sorted(ids, key=stats.__getitem__, reverse=most_first)


def _place(
    plan: Plan,
    idx: ConflictIndex,
    procs: Sequence[Process] | Mapping[int, Process],
    pids: Iterable[int],
    is_attestor: bool,
    loose: bool,
) -> list[int]:
    """Place ``pids`` in order, each on the least occupied core (the heap top).

    The one placement kernel: a loose round and the strict fallback are
    each one call. One pass over a process's already placed partners
    applies both rules. In attestor mode an unplaced lower-id partner (a
    predecessor) refuses a loose placement and raises `AttestorOrderError`
    for a strict one. A placed partner that finishes after the candidate
    start refuses a loose placement when the two would overlap, or in
    attestor mode always, since the process may not start before a
    predecessor finishes; a strict placement instead starts after the
    latest such finish. Returns the refused ids, leaving the plan untouched
    for them; a strict call refuses none.
    """
    ends = plan.ends
    heapreplace = heapq.heapreplace
    assigned = plan.assigned
    placed = assigned.get
    adjacency = idx.adjacency
    refused = []
    for pid in pids:
        start, core_id = ends[0]
        exec_ms = procs[pid].exec_time_ms
        finish = start + exec_ms
        for partner in adjacency[pid]:
            a = placed(partner)
            if a is None:
                if is_attestor and partner < pid:
                    if loose:
                        break
                    raise AttestorOrderError(
                        f"process {pid} assigned before conflicting predecessor {partner}"
                    )
            elif a[3] > start:
                if not loose:
                    start = a[3]
                elif is_attestor or a[2] < finish:
                    break
        else:
            finish = start + exec_ms
            heapreplace(ends, (finish, core_id))
            assigned[pid] = _new_assignment((pid, core_id, start, finish))
            continue
        refused.append(pid)
    return refused


def assign_strictly(
    proc: Process, plan: Plan, idx: ConflictIndex, is_attestor: bool
) -> Assignment:
    """Place on the least occupied core, inserting minimal idle time.

    The start is pushed past the latest finish of every already-assigned
    conflicting partner, so the placement never violates conflict freedom;
    in attestor mode every conflicting predecessor must already be placed.
    """
    _place(plan, idx, {proc.id: proc}, (proc.id,), is_attestor, False)
    return plan.assigned[proc.id]


def assign_loosely(
    proc: Process, plan: Plan, idx: ConflictIndex, is_attestor: bool
) -> Assignment | None:
    """Place at the least occupied core's end only if no idle is needed.

    Returns None (leaving the plan untouched) when the candidate slot
    overlaps an assigned conflicting partner, when an attestor-order
    predecessor is still unassigned, or when starting now would run ahead
    of a predecessor's finish. No alternative core is probed and no idle
    time is inserted; later review rounds or the strict fallback recover
    refused processes.
    """
    if _place(plan, idx, {proc.id: proc}, (proc.id,), is_attestor, True):
        return None
    return plan.assigned[proc.id]


def _event(w: Workload, idx: ConflictIndex) -> tuple[tuple[Assignment, ...], int]:
    """Event-driven list scheduling: the assignments in id order and the makespan.

    The clock jumps from one completion to the next. After each, while a
    core is free, the ready process with the highest priority starts on the
    lowest free core id, ties to the lower process id.

    Proposer mode: every process is ready from the start, its priority its
    own time plus its partners' time. A popped process with a partner still
    running parks on that partner's waiter list, and is ready again once
    that partner finishes; so adjacency is read only when a process is
    popped, as the greedy reads it.

    Attestor mode: the priority is the bottom level, the longest id-ordered
    conflict chain that starts at the process (`Workload.attestor_chain`),
    and a process is ready once its last lower-id partner has finished. No
    partner of a ready process can then be running, so none parks: this is
    list scheduling for P|prec|Cmax, and meets Graham's bound
    m * Cmax <= W + (m - 1) * CP.
    """
    n = w.n
    m = w.cores.core_count
    times = w.exec_times()
    adjacency = idx.adjacency
    attestor = w.attestor
    heappush, heappop = heapq.heappush, heapq.heappop
    if attestor:
        priority = w.attestor_chain()
        # lower-id partners: a prefix of the ascending row
        splits = w.predecessor_counts()
        blocking = list(splits)  # lower-id partners not yet finished
    else:
        priority = list(map(add, times, idx.conflict_duration_ms))
        busy = [False] * n
        waiters: dict[int, list[int]] = {}
    # heaps of plain ints compare faster than heaps of tuples: a ready key
    # orders by descending priority, then id; a running entry by finish,
    # then core
    keys = [pid - p * n for pid, p in enumerate(priority)]
    ready = list(compress(keys, map(not_, blocking))) if attestor else keys.copy()
    heapq.heapify(ready)
    free = list(range(m))  # ascending, so already a heap
    running: list[int] = []
    on_core = [0] * m
    slots: list = [None] * n
    now = 0
    while True:
        while ready and free:
            pid = heappop(ready) % n
            if not attestor:
                blocker = next(filter(busy.__getitem__, adjacency[pid]), None)
                if blocker is not None:
                    waiters.setdefault(blocker, []).append(pid)
                    continue
                busy[pid] = True
            core = heappop(free)
            finish = now + times[pid]
            heappush(running, finish * m + core)
            on_core[core] = pid
            slots[pid] = _new_assignment((pid, core, now, finish))
        if not running:
            break
        now = running[0] // m
        limit = (now + 1) * m  # every entry that finishes at `now`
        while running and running[0] < limit:
            core = heappop(running) % m
            heappush(free, core)
            pid = on_core[core]
            if attestor:
                for later in adjacency[pid][splits[pid]:]:
                    blocking[later] -= 1
                    if not blocking[later]:
                        heappush(ready, keys[later])
            else:
                busy[pid] = False
                for waiter in waiters.pop(pid, ()):
                    heappush(ready, keys[waiter])
    return tuple(slots), now


def schedule(w: Workload, strategy: Strategy = DEFAULT_STRATEGY) -> Schedule:
    """Run the full scheduler on a workload.

    EVENT strategies run `_event`. For the greedy, LOOSE strategies run
    rounds 0..loose_review_round of loose placement over the still-pending
    processes in sorted order; STRICT strategies run none. The rounds stop
    early once one places nothing: the plan did not change, so every later
    round would refuse the same processes. Whatever is still pending is
    then placed strictly, in order. The conflict index is workload data,
    read before the wall clock starts.
    """
    idx = w.conflict_index
    t0 = time.perf_counter()
    if strategy.assign_type is AssignType.EVENT:
        assignments, makespan = _event(w, idx)
    else:
        pending = sort_processes(w, idx, strategy.sort_type, w.attestor)
        plan = Plan.empty(w)
        procs = w.processes

        if strategy.assign_type is AssignType.LOOSE:
            for _ in range(strategy.loose_review_round + 1):
                refused = _place(plan, idx, procs, pending, w.attestor, True)
                if len(refused) == len(pending):
                    break
                pending = refused
        _place(plan, idx, procs, pending, w.attestor, False)

        assignments = tuple(map(plan.assigned.__getitem__, range(w.n)))
        makespan = max(plan.ends)[0]
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return Schedule(
        assignments=assignments,
        horizon_ms=sum(w.exec_times()),
        schedule_makespan_ms=makespan,
        wall_time_ms=wall_ms,
    )

