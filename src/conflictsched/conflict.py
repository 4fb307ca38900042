"""Fast conflict lookups and the per-process statistics behind the sort heuristics."""

from __future__ import annotations

from dataclasses import dataclass

from .model import Workload

__all__ = ["ConflictIndex", "build_conflict_index", "conflicts_with"]


@dataclass(frozen=True)
class ConflictIndex:
    """Adjacency view of the conflict pair set.

    ``conflict_count[i]`` is the number of processes i conflicts with and
    ``conflict_duration_ms[i]`` the summed execution time of those partners
    (the process's own time is excluded: it is constant across candidates
    when sorting).
    """

    adjacency: tuple[frozenset[int], ...]
    conflict_count: tuple[int, ...]
    conflict_duration_ms: tuple[int, ...]


def build_conflict_index(w: Workload) -> ConflictIndex:
    """Build the symmetric adjacency index; membership tests are O(1) after."""
    times = w.exec_times()
    neighbors: list[set[int]] = [set() for _ in range(w.n)]
    durations = [0] * w.n
    for a, b in w.conflicts:  # pairs are deduplicated by the Workload
        neighbors[a].add(b)
        neighbors[b].add(a)
        durations[a] += times[b]
        durations[b] += times[a]
    return ConflictIndex(
        adjacency=tuple(frozenset(s) for s in neighbors),
        conflict_count=tuple(len(s) for s in neighbors),
        conflict_duration_ms=tuple(durations),
    )


def conflicts_with(idx: ConflictIndex, i: int, j: int) -> bool:
    """True iff processes i and j cannot run concurrently. Irreflexive."""
    return i != j and j in idx.adjacency[i]
