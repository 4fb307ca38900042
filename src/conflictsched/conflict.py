"""Fast conflict lookups and the per-process statistics behind the sort heuristics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .model import Workload

__all__ = ["ConflictIndex", "build_conflict_index", "conflicts_with"]


@dataclass(frozen=True)
class ConflictIndex:
    """Adjacency view of the conflict pair set.

    ``adjacency[i]`` lists the processes i conflicts with, ascending.
    ``conflict_count[i]`` is the number of processes i conflicts with and
    ``conflict_duration_ms[i]`` the summed execution time of those partners
    (the process's own time is excluded: it is constant across candidates
    when sorting). A workload builds it once: `Workload.conflict_index`.
    """

    adjacency: tuple[tuple[int, ...], ...]
    conflict_count: tuple[int, ...]
    conflict_duration_ms: tuple[int, ...]


def build_conflict_index(w: Workload) -> ConflictIndex:
    """Build the symmetric adjacency index; each row is an ascending tuple."""
    times = w.exec_times()
    neighbors: list[list[int]] = [[] for _ in range(w.n)]
    durations = [0] * w.n
    # the Workload's pairs are sorted and distinct, so rows come out ascending
    for a, b in w.conflicts:
        neighbors[a].append(b)
        neighbors[b].append(a)
        durations[a] += times[b]
        durations[b] += times[a]
    return ConflictIndex(
        adjacency=tuple(map(tuple, neighbors)),
        conflict_count=tuple(map(len, neighbors)),
        conflict_duration_ms=tuple(durations),
    )


def conflicts_with(idx: ConflictIndex, i: int, j: int) -> bool:
    """True iff processes i and j cannot run concurrently. Irreflexive."""
    return i != j and j in idx.adjacency[i]
