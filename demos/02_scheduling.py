"""Scheduling: strict vs loose vs event-driven placement, proposer vs attestor modes.

Run:  python demos/02_scheduling.py
"""

from conflictsched import (
    AssignType,
    ConflictPair,
    CoreProfile,
    Process,
    SortType,
    Strategy,
    Workload,
    schedule,
)


def show(tag, sch, m):
    lanes = {k: [] for k in range(m)}
    for a in sorted(sch.assignments, key=lambda a: (a.core_id, a.start_ms)):
        lanes[a.core_id].append(f"P{a.process_id}[{a.start_ms:>3},{a.finish_ms:>3})")
    print(f"{tag}: makespan {sch.schedule_makespan_ms} ms, horizon {sch.horizon_ms} ms")
    for k in range(m):
        print(f"   core {k}: " + "  ".join(lanes[k]))


# ---------------------------------------------------------------------------
# A small block: P0 and P1 touch the same state, everything else is free.

w = Workload(
    processes=(Process(0, 4, 4000), Process(1, 3, 3000), Process(2, 2, 2000)),
    conflicts=(ConflictPair(0, 1),),
    cores=CoreProfile(2),
)

# STRICT places every process immediately, inserting just enough idle time
# to clear conflicts: P1 waits out P0 on core 1.
show("STRICT", schedule(w, Strategy(SortType.FIFO, AssignType.STRICT)), 2)

# LOOSE refuses placements that would need idle time, retries the refused
# ones over review rounds, then falls back to strict placement. P1 is
# refused while P0 runs, P2 slides in front, and P1 lands later with no
# change to the makespan here.
show("LOOSE ", schedule(w, Strategy(SortType.FIFO, AssignType.LOOSE, 2)), 2)

# EVENT is a list scheduler, not the paper's greedy: a clock jumps from one
# completion to the next and starts the highest-priority ready process on
# each free core. In proposer mode the priority is a process's own time
# plus its partners' time; P1 finds its partner P0 running, waits, and
# starts the moment P0 finishes. It reads neither the sort key nor the
# review rounds, so every EVENT strategy has the one label "EVENT".
show("EVENT ", schedule(w, Strategy(assign_type=AssignType.EVENT)), 2)

# ---------------------------------------------------------------------------
# Sort heuristics order the queue before placement. MCDF pushes the process
# with the largest summed partner duration to the front; FIFO keeps block
# order. On conflict-heavy blocks the conflict-aware orders usually win.

from conflictsched import generate_workload  # noqa: E402

heavy = generate_workload(60, 0.6, seed=3, cores=CoreProfile(4))
for sort_type in SortType:
    sch = schedule(heavy, Strategy(sort_type, AssignType.LOOSE, 3))
    print(f"sort {sort_type.value:>4}: makespan {sch.schedule_makespan_ms} ms")

# ---------------------------------------------------------------------------
# Proposers may reorder freely; attestors must keep every conflicting pair
# in original block order (the schedule replays deterministically). That
# extra constraint costs makespan.

prop = schedule(heavy.with_attestor(False))
att = schedule(heavy.with_attestor(True))
print(f"\nproposer: {prop.schedule_makespan_ms} ms   attestor: {att.schedule_makespan_ms} ms")
print(f"speedup over serial: proposer {prop.horizon_ms / prop.schedule_makespan_ms:.2f}x, "
      f"attestor {att.horizon_ms / att.schedule_makespan_ms:.2f}x")

# ---------------------------------------------------------------------------
# The greedy only appends at the end of the least occupied core, so it
# leaves cores idle while a process could already start; EVENT starts every
# process as soon as a core is free and its partners allow. On this block
# EVENT is shorter in both modes. In attestor mode its priority is the
# longest id-ordered conflict chain that starts at the process.

event = Strategy(assign_type=AssignType.EVENT)
for mode, blk in (("proposer", heavy.with_attestor(False)), ("attestor", heavy.with_attestor(True))):
    greedy_ms = schedule(blk).schedule_makespan_ms
    event_ms = schedule(blk, event).schedule_makespan_ms
    print(f"{mode}: greedy {greedy_ms} ms   EVENT {event_ms} ms")
