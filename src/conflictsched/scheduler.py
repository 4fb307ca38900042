"""The paper's greedy conflict-aware scheduler and an event-driven one: placement only.

The data it reads and returns, and their files, live in `model`.
Processes are sorted by a pluggable priority key, then placed one at a time
on the least occupied core: loose rounds, then strict placement of whatever
they refused. `schedule` places through one column kernel, `_place`, called
once per loose round and once for the strict fallback. The paper's
per-process procedures, `assign_loosely`/`assign_strictly`, place one
process on a `Plan` by the same rules, read off the plan. Core occupancy
is a heap, so picking the least occupied core is O(1) and committing a
placement is O(log m). The kernel's heap holds m plain ints ``finish * m
+ core``, which compare faster than pairs and keep the same order (lowest
finish, then lowest core id, since core < m); a `Plan` keeps its
``(occupied_until_ms, core_id)`` pairs.

`schedule` keeps its per-call state as flat per-process columns:
``core_of``, ``start_of`` and ``finish_of``, which the kernel writes on
each placement (a start of -1 marks a process not yet placed),
``release``, the latest finish of any placed partner, and in attestor mode
``waiting``, the number of lower-id partners not yet placed. ``core_of``,
``start_of`` and ``finish_of`` become columns of the returned schedule's
`AssignmentColumns`, so an `Assignment` record is built only when a caller
reads one. Placing a process pushes its finish into its partners'
entries once, so every later attempt is decided from ``release`` and
``waiting`` in O(1), without reading the partners again. That is exact
because loose starts never pass the heap top: every loose placement starts
at the heap top, which never decreases, so every placed partner of a loose
candidate starts no later than the candidate, and the two overlap exactly
when the partner finishes after the candidate starts. In attestor mode no
process is placed while a predecessor waits, so placing one pushes only
its successor row, the higher-id part of its row
(`Workload.successor_rows`): the lower-id partners are all placed.

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
can always be satisfied. A placement order depends only on the conflict
pairs, so each one is sorted once per workload family and shared by every
`with_cores`/`with_attestor` copy.

The two modes read different conflict data. Proposer mode reads the
symmetric conflict index (`Workload.conflict_index`): partner counts and
durations for the sort keys and EVENT's priorities, and each process's
full row of partners. Attestor mode needs only the successor half:
`Workload.successor_rows`, `Workload.predecessor_counts`, and the
`attestor_order` and `attestor_chain` built from them or from the pairs.
The workload reads all four off its two sorted pair columns, so an
attestor call never builds the index.

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
from typing import Sequence

from .model import Assignment, AssignmentColumns, ConflictIndex, Process, Schedule, Workload

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
        if not isinstance(self.sort_type, SortType):
            raise ValueError(f"sort_type must be a SortType, got {self.sort_type!r}")
        if not isinstance(self.assign_type, AssignType):
            raise ValueError(f"assign_type must be an AssignType, got {self.assign_type!r}")
        rounds = self.loose_review_round
        if isinstance(rounds, bool) or not isinstance(rounds, int):
            raise ValueError(f"loose_review_round must be an int, got {rounds!r}")
        if rounds < 0:
            raise ValueError("looseReviewRound must be >= 0")

    @property
    def label(self) -> str:
        if self.assign_type is AssignType.EVENT:
            return "EVENT"
        if self.assign_type is AssignType.STRICT:
            return f"{self.sort_type.value}-STRICT"
        return f"{self.sort_type.value}-LOOSE-{self.loose_review_round}"


DEFAULT_STRATEGY = Strategy()

@dataclass
class Plan:
    """The placement state of `assign_loosely` and `assign_strictly`.

    ``ends`` holds one ``(occupied_until_ms, core_id)`` pair per core: the
    finish of the last process placed there. It is kept as a heap, so
    ``ends[0]`` is the least occupied core, ties to the lowest id.
    ``assigned`` maps each placed process to its `Assignment`.

    `schedule` builds no plan: it keeps its state in per-call columns. The
    per-process calls read the process's placed partners off ``assigned``
    on each call, so any plan, hand-built ones included, can be passed to
    them.
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
    """Order process ids for placement, as a fresh list.

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


def _placement_order(w: Workload, sort_type: SortType) -> tuple[int, ...]:
    """`sort_processes`'s order for ``w``, sorted on first use per family.

    The order depends only on the conflict index, which the workload's
    whole `with_cores`/`with_attestor` family shares. So, like
    `Workload.attestor_order`, a proposer order is kept in the family's
    memo (`Workload._derived`), under the key ``("order", sort_type)``: a
    tuple, since a bare `SortType` equals the string of its name.
    """
    if w.attestor:
        return w.attestor_order()
    return w._derived(("order", sort_type), lambda v: tuple(sort_processes(v, v.conflict_index, sort_type, False)))


def _place(
    ends: list[int],
    core_of: list[int],
    start_of: list[int],
    finish_of: list[int],
    release: list[int],
    waiting: list[int] | None,
    times: Sequence[int],
    rows: Sequence[Sequence[int]],
    pids: Sequence[int],
    loose: bool,
) -> list[int]:
    """Place ``pids`` in order, each on the least occupied core (the heap top).

    `schedule`'s placement kernel: a loose round and the strict fallback
    are each one call. ``ends`` is the core heap of m int keys ``finish * m
    + core``, so the lowest key is the lowest finish, ties to the lowest
    core id. A placement writes the process's core, start and finish into
    ``core_of``, ``start_of`` and ``finish_of``, where a start below 0
    marks a process not yet placed. The heap top is read once per
    placement. The kernel decides each attempt from two numbers, without
    reading the partners: ``release[pid]``, the latest finish of a placed
    partner, and in attestor mode ``waiting[pid]``, the number of lower-id
    partners (predecessors) not yet placed. A loose attempt is refused
    while a predecessor waits or the release passes the start. A strict one
    raises `AttestorOrderError` while a predecessor waits, naming the
    lowest-id predecessor whose start is below 0 (the lowest ``q`` with
    ``pid`` in ``rows[q]``), and otherwise starts at the release if that is
    later. Loose starts never pass the heap top, so a placed partner that
    finishes after a loose candidate starts overlaps it.

    Placing a process walks ``rows[pid]`` once, raising each partner's
    release to the new finish. In proposer mode (``waiting`` None) the rows
    are the adjacency rows. In attestor mode they are the successor rows,
    the higher-id partners (`Workload.successor_rows`), and each of those
    partners also counts one predecessor fewer. Returns the refused ids,
    leaving every argument untouched for them; a strict call refuses none.
    """
    m = len(ends)
    heapreplace = heapq.heapreplace
    attestor = waiting is not None
    refused = []
    top = ends[0]
    low = top // m
    for pid in pids:
        if attestor and waiting[pid]:
            if loose:
                refused.append(pid)
                continue
            first = next(q for q in range(pid) if start_of[q] < 0 and pid in rows[q])
            raise AttestorOrderError(
                f"process {pid} assigned before conflicting predecessor {first}"
            )
        start = release[pid]
        if start > low:
            if loose:
                refused.append(pid)
                continue
        else:
            start = low
        finish = start + times[pid]
        core_id = top % m
        heapreplace(ends, finish * m + core_id)
        core_of[pid] = core_id
        start_of[pid] = start
        finish_of[pid] = finish
        top = ends[0]
        low = top // m
        if attestor:
            for partner in rows[pid]:
                waiting[partner] -= 1
                if release[partner] < finish:
                    release[partner] = finish
        else:
            for partner in rows[pid]:
                if release[partner] < finish:
                    release[partner] = finish
    return refused


def _place_one(
    proc: Process, plan: Plan, idx: ConflictIndex, is_attestor: bool, loose: bool
) -> Assignment | None:
    """Place one process on the least occupied core of any plan; None if refused.

    Returns the placed process's `Assignment`, which ``plan.assigned`` now
    holds, so `assign_loosely` and `assign_strictly` return this result.

    A hand-built plan need not keep `schedule`'s invariants, so the
    process's row is read off ``plan.assigned`` with the per-partner rules
    written out, and only until the outcome is settled. In attestor mode an
    unplaced predecessor refuses a loose call and raises in a strict one. A
    placed partner bars the slot until it finishes, but in loose proposer
    mode only if it overlaps the slot. A loose call is refused if a bar
    lasts past the heap top; a strict one starts at the latest bar's
    finish if that is later.
    """
    pid = proc.id
    exec_ms = proc.exec_time_ms
    start, core_id = plan.ends[0]
    finish = start + exec_ms
    placed = plan.assigned.get
    for partner in idx.adjacency[pid]:
        a = placed(partner)
        if a is None:
            if is_attestor and partner < pid:
                if loose:
                    return None
                raise AttestorOrderError(
                    f"process {pid} assigned before conflicting predecessor {partner}"
                )
        # only a loose call reads the finish, and it never moves the start
        elif a[3] > start and (is_attestor or not loose or a[2] < finish):
            if loose:
                return None
            start = a[3]
    finish = start + exec_ms
    heapq.heapreplace(plan.ends, (finish, core_id))
    assignment = plan.assigned[pid] = Assignment(pid, core_id, start, finish)
    return assignment


def assign_strictly(
    proc: Process, plan: Plan, idx: ConflictIndex, is_attestor: bool
) -> Assignment:
    """Place on the least occupied core, inserting minimal idle time.

    The start is pushed past the latest finish of every already-assigned
    conflicting partner, so the placement never violates conflict freedom;
    in attestor mode every conflicting predecessor must already be placed.
    """
    return _place_one(proc, plan, idx, is_attestor, False)


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
    return _place_one(proc, plan, idx, is_attestor, True)


def _event(w: Workload) -> tuple[list[int], list[int], list[int], int]:
    """Event-driven list scheduling: each process's core, start and finish, and the makespan.

    The clock jumps from one completion to the next. After each, while a
    core is free, the ready process with the highest priority starts on the
    lowest free core id, ties to the lower process id.

    Proposer mode: every process is ready from the start, its priority its
    own time plus its partners' time, read off the workload's conflict
    index (`Workload.conflict_index`), which `schedule` builds before its
    clock starts. A popped process with a partner still running parks on
    that partner's waiter list, and is ready again once that partner
    finishes; so adjacency is read only when a process is popped, as the
    greedy reads it.

    Attestor mode: the priority is the bottom level, the longest id-ordered
    conflict chain that starts at the process (`Workload.attestor_chain`),
    and a process is ready once its last lower-id partner has finished. No
    partner of a ready process can then be running, so none parks: this is
    list scheduling for P|prec|Cmax, and meets Graham's bound
    m * Cmax <= W + (m - 1) * CP. This mode reads only the workload's
    chain, successor rows and predecessor counts, and never its conflict
    index.
    """
    n = w.n
    m = w.cores.core_count
    times = w.exec_times()
    attestor = w.attestor
    heappush, heappop = heapq.heappush, heapq.heappop
    if attestor:
        priority = w.attestor_chain()
        successors = w.successor_rows()
        blocking = list(w.predecessor_counts())  # lower-id partners not yet finished
    else:
        idx = w.conflict_index
        adjacency = idx.adjacency
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
    core_of = [0] * n
    start_of = [0] * n
    finish_of = [0] * n
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
            core_of[pid] = core
            start_of[pid] = now
            finish_of[pid] = finish
        if not running:
            break
        now = running[0] // m
        limit = (now + 1) * m  # every entry that finishes at `now`
        while running and running[0] < limit:
            core = heappop(running) % m
            heappush(free, core)
            pid = on_core[core]
            if attestor:
                for later in successors[pid]:
                    blocking[later] -= 1
                    if not blocking[later]:
                        heappush(ready, keys[later])
            else:
                busy[pid] = False
                for waiter in waiters.pop(pid, ()):
                    heappush(ready, keys[waiter])
    return core_of, start_of, finish_of, now


def schedule(w: Workload, strategy: Strategy = DEFAULT_STRATEGY) -> Schedule:
    """Run the full scheduler on a workload.

    EVENT strategies run `_event`. For the greedy, LOOSE strategies run
    rounds 0..loose_review_round of loose placement over the still-pending
    processes in sorted order; STRICT strategies run none. The rounds stop
    early once one places nothing: the plan did not change, so every later
    round would refuse the same processes. Whatever is still pending is
    then placed strictly, in order. The greedy's core heap holds the int
    keys ``finish * m + core``: ``range(m)`` is the empty one, and the
    makespan is the largest key over m. Either way the schedule keeps the
    placement's core, start and finish columns as its `AssignmentColumns`,
    so no `Assignment` record is built unless a caller reads one.

    The conflict data is workload data, read before the wall clock starts.
    Proposer mode reads the symmetric conflict index
    (`Workload.conflict_index`): its sort keys, its full rows for the
    greedy, and EVENT's priorities and rows. Attestor mode reads only the
    successor rows and the predecessor counts, and from them the attestor
    order and EVENT's chain priorities, all of which the workload reads
    off its two sorted pair columns, so it never builds the index. The
    placement order is sorted on the first call per workload family and
    sort key, and reused after that, and so are the attestor data.
    """
    if w.attestor:
        rows, counts = w.successor_rows(), w.predecessor_counts()
    else:
        rows, counts = w.conflict_index.adjacency, None
    t0 = time.perf_counter()
    times = w.exec_times()
    n = len(times)
    if strategy.assign_type is AssignType.EVENT:
        core_of, start_of, finish_of, makespan = _event(w)
    else:
        pending = _placement_order(w, strategy.sort_type)
        m = w.cores.core_count
        # every core idle at 0: keys 0 * m + k, ascending, so already a heap
        ends = list(range(m))
        core_of = [0] * n
        start_of = [-1] * n
        finish_of = [0] * n
        release = [0] * n
        waiting = None if counts is None else list(counts)
        place = partial(_place, ends, core_of, start_of, finish_of, release, waiting, times, rows)

        if strategy.assign_type is AssignType.LOOSE:
            for _ in range(strategy.loose_review_round + 1):
                refused = place(pending, True)
                if len(refused) == len(pending):
                    break
                pending = refused
        place(pending, False)
        makespan = max(ends) // m
    # the placement's columns hold ints, so they are not proved again
    assignments = AssignmentColumns._of_proved(w.process_ids(), core_of, start_of, finish_of)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return Schedule(
        assignments=assignments,
        horizon_ms=sum(times),
        schedule_makespan_ms=makespan,
        wall_time_ms=wall_ms,
    )
