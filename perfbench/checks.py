"""Independent schedule checks and a certified makespan lower bound.

Both are written from the public data of a workload (execution times,
conflict pairs, core count, attestor flag) and share no code with the
library, whose validator and bounds are themselves measured layers.
"""

from __future__ import annotations

import hashlib
import math


def workload_facts(w) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], int, bool]:
    """(execution times, conflict pairs as (a, b) with a < b, cores, attestor)."""
    times = tuple(p.exec_time_ms for p in w.processes)
    pairs = tuple(sorted((c.a, c.b) for c in w.conflicts))
    return times, pairs, w.cores.core_count, w.attestor


def lower_bound(times, pairs, m: int, attestor: bool) -> int:
    """Largest of four admissible makespan bounds.

    * load: the total work spread over m cores, ceil(H / m);
    * pair: two conflicting processes never overlap, so t_a + t_b;
    * neighbourhood: no partner of i runs while i runs, and the partners
      need at least ceil(P_i / m) of the remaining time, so t_i + ceil(P_i / m);
    * chain (attestor mode only): a conflicting pair a < b must finish in
      id order, so every id-ordered conflict chain runs serially (Graham
      1969, the critical path of P|prec|Cmax).
    """
    lb = -(-sum(times) // m)
    partner_time = [0] * len(times)
    chain = list(times)
    for a, b in sorted(pairs, key=lambda p: (p[1], p[0])):
        lb = max(lb, times[a] + times[b])
        partner_time[a] += times[b]
        partner_time[b] += times[a]
        if attestor:
            chain[b] = max(chain[b], chain[a] + times[b])
    for i, p in enumerate(partner_time):
        if p:
            lb = max(lb, times[i] + -(-p // m))
    if attestor and chain:
        lb = max(lb, max(chain))
    return lb


def check_schedule(sch, times, pairs, m: int, attestor: bool, limit: int = 3) -> tuple[list[str], int]:
    """Check completeness, C1, C2 and (attestor mode) C3 of one schedule.

    Returns the first ``limit`` problems found and the schedule's total
    idle time (every core idles from its last finish to the makespan, and
    in every gap before that).
    """
    problems: list[str] = []
    n = len(times)
    slot: list = [None] * n
    busy = [0] * m
    for a in sch.assignments:
        pid = a.process_id
        if not (isinstance(pid, int) and 0 <= pid < n):
            problems.append(f"unknown process id {pid!r}")
            continue
        if slot[pid] is not None:
            problems.append(f"process {pid} assigned twice")
            continue
        if not (isinstance(a.core_id, int) and 0 <= a.core_id < m):
            problems.append(f"process {pid} on core {a.core_id!r} outside 0..{m - 1}")
            continue
        if a.start_ms < 0 or a.finish_ms != a.start_ms + times[pid]:
            problems.append(f"process {pid} has interval [{a.start_ms}, {a.finish_ms}) for time {times[pid]}")
        slot[pid] = a
        busy[a.core_id] += times[pid]
    missing = [pid for pid in range(n) if slot[pid] is None]
    if missing:
        problems.append(f"{len(missing)} processes unassigned, first {missing[0]}")
        return problems[:limit], 0

    per_core: list[list] = [[] for _ in range(m)]
    for a in slot:
        per_core[a.core_id].append((a.start_ms, a.finish_ms, a.process_id))
    for core, items in enumerate(per_core):
        items.sort()
        for (_, prev_finish, prev_pid), (start, _, pid) in zip(items, items[1:]):
            if start < prev_finish:
                problems.append(f"C1: processes {prev_pid} and {pid} overlap on core {core}")
    for a, b in pairs:
        sa, sb = slot[a], slot[b]
        if sa.start_ms < sb.finish_ms and sb.start_ms < sa.finish_ms:
            problems.append(f"C2: conflicting processes {a} and {b} overlap")
        elif attestor and sa.finish_ms > sb.start_ms:
            problems.append(f"C3: process {b} starts before its predecessor {a} finishes")

    makespan = max((a.finish_ms for a in slot), default=0)
    if sch.schedule_makespan_ms != makespan:
        problems.append(f"reported makespan {sch.schedule_makespan_ms} != latest finish {makespan}")
    if sch.horizon_ms != sum(times):
        problems.append(f"reported horizon {sch.horizon_ms} != total time {sum(times)}")
    idle = m * makespan - sum(busy)
    return problems[:limit], idle


def digest(tokens) -> str:
    """Short stable hash of a sequence of makespans (or other exact values)."""
    h = hashlib.sha256()
    for token in tokens:
        h.update(repr(token).encode())
        h.update(b";")
    return h.hexdigest()[:16]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))
