"""The scheduler's data: workloads, their conflict index, schedules, and files.

A workload is the scheduler's complete input: an ordered list of processes
(one per transaction), the set of pairwise conflicts between them, a core
profile, and the attestor flag. Workloads are immutable values; the
generator is a pure function of its arguments, so a fixed seed always
reproduces the same workload byte for byte. A workload keeps its conflict
pairs as two id columns (`ConflictColumns`), and a schedule, its output,
keeps its placements as columns (`AssignmentColumns`); each builds a
record (`ConflictPair`, `Assignment`) only when one is read.

Workload files are JSON (UTF-8) with the top-level keys ``processes``,
``conflicts``, ``cores``, ``attestor``, and ``meta``; schedule files are
described at `schedule_from_dict`. Unknown keys are rejected. Both
formats are checked by one record reader and written by one encoder whose
output is byte for byte that of ``json.dumps(value, indent=2)``, with a
trailing newline; it formats the long record lists straight from their
columns with ``%`` templates in C-level passes.
"""

from __future__ import annotations

import copy
import json
import math
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, islice, repeat
from operator import attrgetter, eq, ge, itemgetter, lt, ne, not_, or_
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "OPS_PER_MS",
    "Assignment",
    "AssignmentColumns",
    "ConflictColumns",
    "ConflictIndex",
    "ConflictModel",
    "ConflictPair",
    "CoreProfile",
    "GasTimeModel",
    "Process",
    "Schedule",
    "TimeDistribution",
    "Weights",
    "Workload",
    "WorkloadValidationError",
    "build_conflict_index",
    "conflicts_with",
    "estimate_exec_time",
    "generate_workload",
    "load_schedule",
    "load_workload",
    "save_schedule",
    "save_workload",
    "schedule_from_dict",
    "schedule_to_dict",
]

# ops are coupled to execution time so that energy accounting stays
# well-defined without a second synthetic distribution
OPS_PER_MS = 1000

# edge probability among conflict participants, on top of the perfect
# matching; controls how hard the conflicting subset serializes. 0.12 keeps
# participant components sparse enough that free reordering beats
# order-preserving execution on every benchmark row while speedups still
# degrade with the conflict rate
PARTICIPANT_EXTRA_EDGE_RATE = 0.12


class WorkloadValidationError(ValueError):
    """A workload value or file violates an invariant; names the field."""


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkloadValidationError(f"{where} must be an integer, got {value!r}")
    return value


class ConflictModel(str, Enum):
    """How the generator turns a conflict rate into conflict pairs.

    PAIRWISE: every unordered pair conflicts independently with
    probability ``rate`` (an Erdos-Renyi random graph on the processes).
    PARTICIPATION: ``rate`` is the fraction of processes involved in at
    least one conflict; edges are wired among those participants only.
    """

    PAIRWISE = "PAIRWISE"
    PARTICIPATION = "PARTICIPATION"


# `generate_workload`'s defaults, which the CLI reads too
DEFAULT_CONFLICT_MODEL = ConflictModel.PARTICIPATION
DEFAULT_CORE_COUNT = 2


@dataclass(frozen=True, slots=True)
class Process:
    """One schedulable unit: a transaction's function call."""

    id: int
    exec_time_ms: int
    op_count: int

    def __post_init__(self) -> None:
        if self.id < 0:
            raise WorkloadValidationError(f"process id must be >= 0, got {self.id}")
        if self.exec_time_ms < 1:
            raise WorkloadValidationError(
                f"processes[{self.id}].execTimeMs must be >= 1, got {self.exec_time_ms}"
            )
        if self.op_count < 1:
            raise WorkloadValidationError(
                f"processes[{self.id}].opCount must be >= 1, got {self.op_count}"
            )


class ConflictPair(NamedTuple):
    """An unordered conflict between two processes, stored as a < b.

    A plain int tuple. A workload keeps its pairs as `ConflictColumns` and
    builds one of these only when a pair is read; `Workload` rejects pairs
    that are not canonical.
    """

    a: int
    b: int

    @classmethod
    def of(cls, i: int, j: int) -> ConflictPair:
        """Canonicalize an unordered pair."""
        if i == j:
            raise WorkloadValidationError(f"conflict pair ({i}, {j}) is self-referential")
        return cls(min(i, j), max(i, j))


class _ColumnSequence(Sequence):
    """An immutable sequence of records kept as int tuple columns of one length.

    A subclass sets its columns, named in ``__slots__``, when it is built,
    returns them in that order from ``columns``, and names its record type
    in ``_record``. Entry i of the columns is one record. Indexing and
    iteration build records in C, one per entry read, and a slice is the
    column sequence of the sliced columns. A column sequence equals the
    tuple of its records, in either direction, and has that tuple's hash
    and repr; two column sequences compare by their columns.
    """

    __slots__ = ()
    _record: type
    columns: tuple[tuple[int, ...], ...]

    @classmethod
    def _records(cls, rows):
        # every record is built here, in C, skipping the named tuple's
        # Python-level __new__
        return map(tuple.__new__, repeat(cls._record), rows)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return type(self)(*(column[index] for column in self.columns))
        return next(self._records([tuple(column[index] for column in self.columns)]))

    def __iter__(self):
        return self._records(zip(*self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, _ColumnSequence):
            return self.columns == other.columns
        if isinstance(other, tuple):
            # a record equals the plain tuple of its fields
            return len(other) == len(self) and tuple(zip(*self.columns)) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(zip(*self.columns)))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return type(self), self.columns

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class ConflictColumns(_ColumnSequence):
    """A workload's conflict pairs as two id columns; records are built when read.

    ``firsts`` and ``seconds`` are int tuples of one length, and entry i of
    the two is one `ConflictPair`. The library reads the columns
    (``columns`` holds both); iteration and indexing build `ConflictPair`
    records. Building refuses an id that is not an integer (a bool is
    not), naming its pair; whether the pairs are canonical, known and in
    order is `Workload`'s check. `of` builds one from any sequence of
    pairs. The private mark ``_canonical`` says the pairs are proved
    canonical (``0 <= a < b``) and strictly ascending; a copy, slice or
    unpickled sequence is unmarked.
    """

    __slots__ = ("firsts", "seconds", "_canonical")
    _record = ConflictPair

    def __init__(self, firsts=(), seconds=()) -> None:
        self._put(firsts, seconds)
        if not _all_ints(chain(self.firsts, self.seconds)):
            bad = next(pair for pair in self if not _all_ints(pair))
            raise WorkloadValidationError(f"conflict pair {bad!r} must hold two integer ids")

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``(firsts, seconds)``."""
        return self.firsts, self.seconds

    @classmethod
    def of(cls, pairs) -> ConflictColumns:
        """The columns of (a, b) pairs, in the order given.

        Names the first pair that is not a tuple, does not hold two ids, or
        holds an id that is not an integer, as it was given.
        """
        pairs = tuple(pairs)
        if not _all_instances(pairs, tuple):
            bad = next(pair for pair in pairs if not isinstance(pair, tuple))
            raise WorkloadValidationError(f"conflict pair {bad!r} is not a tuple")
        if set(map(len, pairs)) - {2}:
            bad = next(pair for pair in pairs if len(pair) != 2)
            raise WorkloadValidationError(f"conflict pair {bad!r} does not have two ids")
        firsts = tuple(map(itemgetter(0), pairs))
        seconds = tuple(map(itemgetter(1), pairs))
        if not _all_ints(chain(firsts, seconds)):
            bad = next(pair for pair in pairs if not _all_ints(pair))
            raise WorkloadValidationError(f"conflict pair {bad!r} must hold two integer ids")
        return cls._of_ints(firsts, seconds)

    @classmethod
    def _of_ints(cls, firsts, seconds, canonical: bool = False) -> ConflictColumns:
        """Columns of ids already proved integers.

        ``canonical`` marks pairs also proved canonical and strictly
        ascending, as `_load_conflicts` proves a whole file, once.
        """
        columns = object.__new__(cls)
        columns._put(firsts, seconds, canonical)
        return columns

    def _put(self, firsts, seconds, canonical: bool = False) -> None:
        put = object.__setattr__
        put(self, "firsts", tuple(firsts))
        put(self, "seconds", tuple(seconds))
        put(self, "_canonical", canonical)
        if len(self.firsts) != len(self.seconds):
            lengths = [len(self.firsts), len(self.seconds)]
            raise ValueError(f"conflict columns differ in length: {lengths}")


@dataclass(frozen=True, slots=True)
class CoreProfile:
    """Homogeneous core pool: one cost profile applies to every core."""

    core_count: int
    cost_per_op: float = 0.0
    cost_per_idle_ms: float = 0.0

    def __post_init__(self) -> None:
        _require_int(self.core_count, "cores.count")
        if self.core_count < 1:
            raise WorkloadValidationError(f"cores.count must be >= 1, got {self.core_count}")
        # a cost is kept as given (an int stays an int, and is saved as one)
        _require_number(self.cost_per_op, "cores.costPerOp")
        _require_number(self.cost_per_idle_ms, "cores.costPerIdleMs")
        # NaN passes a "< 0" test, so finiteness is checked on its own
        if self.cost_per_op < 0:
            raise WorkloadValidationError("cores.costPerOp must be >= 0")
        if not math.isfinite(self.cost_per_op):
            raise WorkloadValidationError(f"cores.costPerOp must be finite, got {self.cost_per_op}")
        if self.cost_per_idle_ms < 0:
            raise WorkloadValidationError("cores.costPerIdleMs must be >= 0")
        if not math.isfinite(self.cost_per_idle_ms):
            raise WorkloadValidationError(
                f"cores.costPerIdleMs must be finite, got {self.cost_per_idle_ms}"
            )


@dataclass(frozen=True, slots=True)
class Weights:
    """Objective weights; the cost weight is derived as 1 - time weight."""

    alpha_time: float
    alpha_cost: float = field(init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha_time <= 1.0:
            raise WorkloadValidationError(
                f"alphaTime must be in [0, 1], got {self.alpha_time}"
            )
        object.__setattr__(self, "alpha_cost", 1.0 - self.alpha_time)


@dataclass(frozen=True, slots=True)
class TimeDistribution:
    """Per-process execution time distribution (integer milliseconds)."""

    kind: str
    low: int = 1
    high: int = 15

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "constant"):
            raise WorkloadValidationError(f"unknown time distribution {self.kind!r}")
        _require_int(self.low, "time distribution low")
        _require_int(self.high, "time distribution high")
        if self.low < 1:
            raise WorkloadValidationError("time distribution low must be >= 1")
        if self.high < self.low:
            raise WorkloadValidationError("time distribution high must be >= low")

    @classmethod
    def uniform(cls, low: int = 1, high: int = 15) -> TimeDistribution:
        return cls("uniform", low, high)

    @classmethod
    def constant(cls, value: int) -> TimeDistribution:
        return cls("constant", value, value)

    @property
    def mean_ms(self) -> float:
        return (self.low + self.high) / 2

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant[{self.low}]"
        return f"uniform[{self.low},{self.high}]"

    def draw(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return self.low
        return rng.randint(self.low, self.high)


DEFAULT_TIME_DIST = TimeDistribution.uniform(1, 15)


@dataclass(frozen=True)
class Workload:
    """Scheduler input: processes in original order plus conflicts and cores.

    The process list order is canonical: ``processes[i].id == i``, and that
    index is the original block position used by attestor-mode ordering.
    ``conflicts`` is a `ConflictColumns`: the pairs are kept as two id
    columns, and a `ConflictPair` record is built only when one is read.
    Any other sequence of pairs passed in is turned into columns. Conflict
    pairs must be canonical (a < b, both known ids); they are deduplicated
    and sorted at construction, and columns already strictly ascending are
    kept as they are. Process fields and pair ids must be integers, not
    bools. The checks run as whole-list passes; the per-entry loops run
    only to name the first bad entry. The kept columns are marked proved,
    and marked columns get only the range check, so the pairs of a loaded
    canonical file or of a `dataclasses.replace` copy are not proved again.

    A workload and its `with_cores`/`with_attestor` copies share one dict of
    derived data, so `conflict_index`, `process_ids`, `exec_times`,
    `attestor_order`, `attestor_chain`, `predecessor_counts` and
    `successor_rows` are built once for all of them. The last four are read
    off the two sorted pair columns, not off `conflict_index`, the
    symmetric adjacency, so an attestor `schedule()` never builds that.
    """

    processes: tuple[Process, ...]
    conflicts: ConflictColumns
    cores: CoreProfile
    attestor: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.processes)
        if list(map(attrgetter("id"), self.processes)) != list(range(n)):
            for position, proc in enumerate(self.processes):
                if proc.id != position:
                    raise WorkloadValidationError(
                        f"processes[{position}].id is {proc.id}; ids must be 0..n-1 in order"
                    )
            raise AssertionError("process id check rejected valid ids")
        # a float or bool equal to an int passes the check above and
        # `Process`'s, but the scheduler indexes by ids and ranges over times
        fields = attrgetter("id", "exec_time_ms", "op_count")
        if not _all_ints(chain.from_iterable(map(fields, self.processes))):
            for position, proc in enumerate(self.processes):
                for key, value in zip(("id", "execTimeMs", "opCount"), fields(proc)):
                    _require_int(value, f"processes[{position}].{key}")
            raise AssertionError("process field check rejected integer fields")
        conflicts = self.conflicts
        if not isinstance(conflicts, ConflictColumns):
            conflicts = ConflictColumns.of(conflicts)
        firsts, seconds = conflicts.columns
        ascending = conflicts._canonical or _pair_order(firsts, seconds)
        if ascending is None or (seconds and max(seconds) >= n):
            for a, b in zip(firsts, seconds):
                if a >= b:
                    raise WorkloadValidationError(
                        f"conflict pair ({a}, {b}) is not canonical (need a < b)"
                    )
                if a < 0 or b >= n:
                    raise WorkloadValidationError(
                        f"conflict pair ({a}, {b}) references unknown process id {a if a < 0 else b}"
                    )
            raise AssertionError("conflict pair check rejected valid pairs")
        # other pairs are sorted, and deduplicated (hashed) in that order
        if not ascending:
            conflicts = ConflictColumns._of_ints(*zip(*dict.fromkeys(sorted(zip(firsts, seconds)))))
        # the mark is a fact about the immutable columns, even the caller's
        object.__setattr__(conflicts, "_canonical", True)
        object.__setattr__(self, "conflicts", conflicts)
        object.__setattr__(self, "_family", {})

    @property
    def n(self) -> int:
        return len(self.processes)

    @property
    def conflict_index(self) -> ConflictIndex:
        """The adjacency index of the conflict pairs, built on first use."""
        idx = self._family.get("conflict_index")
        if idx is None:
            idx = self._family["conflict_index"] = build_conflict_index(self)
        return idx

    def process_ids(self) -> tuple[int, ...]:
        """The ids ``0..n-1`` as a tuple, built on first use."""
        ids = self._family.get("process_ids")
        if ids is None:
            ids = self._family["process_ids"] = tuple(range(self.n))
        return ids

    def exec_times(self) -> tuple[int, ...]:
        """Each process's execution time, in id order, built on first use."""
        times = self._family.get("exec_times")
        if times is None:
            times = self._family["exec_times"] = tuple(p.exec_time_ms for p in self.processes)
        return times

    def attestor_order(self) -> tuple[int, ...]:
        """Conflict participants in id order, then the rest, built on first use.

        The attestor-mode placement order. A participant has a lower-id
        partner (`predecessor_counts`) or a higher-id one (`successor_rows`),
        so the order is read off those two, and the whole family shares it.
        """
        order = self._family.get("attestor_order")
        if order is None:
            ids = range(self.n)
            partnered = list(map(or_, self.predecessor_counts(), map(len, self.successor_rows())))
            order = self._family["attestor_order"] = tuple(
                chain(compress(ids, partnered), compress(ids, map(not_, partnered)))
            )
        return order

    def attestor_chain(self) -> tuple[int, ...]:
        """Each process's bottom level, built on first use.

        The total time of the longest id-ordered conflict chain that starts
        at the process, the process included: in attestor mode that chain
        runs in order, so this is EVENT's attestor priority and the oracle's
        chain bound. It depends only on the times and the conflict pairs, so
        the whole family shares it.
        """
        chain = self._family.get("attestor_chain")
        if chain is None:
            times = self.exec_times()
            levels = list(times)
            # the pairs are sorted, so reversed they visit `a` in descending
            # order, and levels[b] is final before any (a, b) reads it
            pairs = self.conflicts
            for a, b in zip(reversed(pairs.firsts), reversed(pairs.seconds)):
                level = times[a] + levels[b]
                if level > levels[a]:
                    levels[a] = level
            chain = self._family["attestor_chain"] = tuple(levels)
        return chain

    def predecessor_counts(self) -> tuple[int, ...]:
        """Each process's number of lower-id partners, built on first use.

        In attestor mode these must all finish before the process starts.
        The count is also where the process's ascending adjacency row splits
        into lower-id and higher-id partners. It is counted off the
        ``seconds`` pair column, without the conflict index: the number of
        pairs whose ``b`` is the process. It depends only on the pairs, so
        the whole family shares it.
        """
        counts = self._family.get("predecessor_counts")
        if counts is None:
            tally = [0] * self.n
            for b in self.conflicts.seconds:
                tally[b] += 1
            counts = self._family["predecessor_counts"] = tuple(tally)
        return counts

    def successor_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each process's higher-id partners, ascending, built on first use.

        The part of the process's adjacency row past its
        `predecessor_counts` split: in attestor mode these are the
        processes that wait for it. The pairs are sorted and distinct, so
        the row of ``a`` is the run of the ``seconds`` column where
        ``firsts`` reads ``a``; it is sliced off the columns, without the
        conflict index, and the whole family shares it.
        """
        rows = self._family.get("successor_rows")
        if rows is None:
            firsts, seconds = self.conflicts.columns
            # bounds[a] is where the run of `a` starts, and the last is len(firsts)
            bounds = list(map(bisect_left, repeat(firsts), range(self.n + 1)))
            rows = self._family["successor_rows"] = tuple(
                map(seconds.__getitem__, map(slice, bounds, bounds[1:]))
            )
        return rows

    def with_cores(self, cores: CoreProfile) -> Workload:
        return self._derive("cores", cores)

    def with_attestor(self, attestor: bool) -> Workload:
        return self._derive("attestor", attestor)

    def _derive(self, name: str, value: object) -> Workload:
        # a shallow copy keeps the checked, sorted pairs and the derived data:
        # `replace` would re-check and re-sort every pair and drop the index
        derived = copy.copy(self)
        object.__setattr__(derived, name, value)
        return derived


def _pair_order(firsts, seconds) -> bool | None:
    """Whether the pairs are strictly ascending; None if one lacks ``0 <= a < b``."""
    # strictly ascending pairs are proved so by one pass, and then the
    # smallest `a` comes first
    later = zip(firsts, seconds)
    next(later, None)
    ascending = all(map(lt, zip(firsts, seconds), later))
    if firsts and (any(map(ge, firsts, seconds)) or (firsts[0] if ascending else min(firsts)) < 0):
        return None
    return ascending


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
    """Build the symmetric adjacency index; each row is an ascending tuple.

    Reads the workload's two conflict columns pair by pair and builds no
    `ConflictPair`.
    """
    times = w.exec_times()
    neighbors: list[list[int]] = [[] for _ in range(w.n)]
    durations = [0] * w.n
    # the Workload's pairs are sorted and distinct, so rows come out ascending
    for a, b in zip(w.conflicts.firsts, w.conflicts.seconds):
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


class Assignment(NamedTuple):
    process_id: int
    core_id: int
    start_ms: int
    finish_ms: int


class AssignmentColumns(_ColumnSequence):
    """A schedule's assignments as four columns; records are built when read.

    ``process_ids``, ``core_ids``, ``starts`` and ``finishes`` are tuples of
    one length, and entry i of the four is one `Assignment`. The library
    reads the columns (``columns`` holds all four). Indexing and iteration
    build `Assignment` records in C, one per entry read, and a slice is
    the column sequence of the sliced columns. A column sequence equals the
    tuple of its records, in either direction, and has that tuple's hash
    and repr; two column sequences compare by their columns. `of` builds
    one from any sequence of 4-tuples.
    """

    __slots__ = ("process_ids", "core_ids", "starts", "finishes")
    _record = Assignment

    def __init__(self, process_ids=(), core_ids=(), starts=(), finishes=()) -> None:
        put = object.__setattr__
        put(self, "process_ids", tuple(process_ids))
        put(self, "core_ids", tuple(core_ids))
        put(self, "starts", tuple(starts))
        put(self, "finishes", tuple(finishes))
        if not len(self.process_ids) == len(self.core_ids) == len(self.starts) == len(self.finishes):
            lengths = list(map(len, self.columns))
            raise ValueError(f"assignment columns differ in length: {lengths}")

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``(process_ids, core_ids, starts, finishes)``."""
        return self.process_ids, self.core_ids, self.starts, self.finishes

    @classmethod
    def of(cls, records) -> AssignmentColumns:
        """The columns of (process id, core id, start, finish) records, in order."""
        records = tuple(records)
        if set(map(len, records)) - {4}:
            bad = next(record for record in records if len(record) != 4)
            raise ValueError(f"assignment {bad!r} does not have four fields")
        return cls(*zip(*records)) if records else cls()


@dataclass(frozen=True)
class Schedule:
    """Scheduler output: one assignment per process plus summary times.

    ``assignments`` is an `AssignmentColumns`: the placements are kept as
    columns, and an `Assignment` record is built only when one is read.
    Any other sequence of 4-tuples passed in is turned into columns.
    ``horizon_ms`` is the serial-execution makespan (sum of all execution
    times) and the baseline for speedups. ``wall_time_ms`` is the measured
    duration of the scheduling call's sort and placement, not of the
    schedule. A placement order is sorted on the first call per workload
    family and sort key and reused after that, so only that call pays for
    the sort. The conflict data it reads is workload data, prepared once
    per workload family like the paper's offline conflict repository: the
    conflict index in proposer mode, and in attestor mode only the
    successor rows and predecessor counts, read off the pair columns.
    """

    assignments: AssignmentColumns
    horizon_ms: int
    schedule_makespan_ms: int
    wall_time_ms: float

    def __post_init__(self) -> None:
        if not isinstance(self.assignments, AssignmentColumns):
            object.__setattr__(self, "assignments", AssignmentColumns.of(self.assignments))


@dataclass(frozen=True, slots=True)
class GasTimeModel:
    """Linear gas-to-time estimator coefficients."""

    slope: float
    intercept: float = 0.0

    def __post_init__(self) -> None:
        if self.slope <= 0:
            raise WorkloadValidationError(f"slope must be > 0, got {self.slope}")


def _round_half_up(x: float) -> int:
    # small epsilon so products like 50 * 0.15 land on the intended integer
    return math.floor(x + 0.5 + 1e-9)


def estimate_exec_time(gas_estimate: int, model: GasTimeModel) -> int:
    """Map a gas estimate to whole milliseconds, clamped to at least 1."""
    if gas_estimate < 0:
        raise WorkloadValidationError(f"gasEstimate must be >= 0, got {gas_estimate}")
    return max(1, _round_half_up(model.slope * gas_estimate + model.intercept))


def _random_pairs(ids, rate: float, rng: random.Random) -> list[tuple[int, int]]:
    """Each pair of the ascending ``ids``, in order, kept with probability ``rate``."""
    draw = rng.random
    return [
        (a, b)
        for k, a in enumerate(ids)
        for b in ids[k + 1:]
        if draw() < rate
    ]


def _participation_conflicts(n: int, rate: float, rng: random.Random) -> list[tuple[int, int]]:
    """The PARTICIPATION model's pairs, canonical, sorted and distinct.

    A random matching over the participants, plus extra edges drawn among
    them by `_random_pairs`, which yields them ascending. The sorted
    matching (at most n/2 pairs) and the extra edges are two ascending
    runs, so one sort merges them in linear time; an extra edge that
    repeats a matching pair lands next to it and is dropped there.
    """
    target = min(n, _round_half_up(n * rate))
    if target < 2:
        # a single participant cannot form a pair; treat as conflict-free
        return []
    participants = rng.sample(range(n), target)
    # perfect-matching pass guarantees every participant has a conflict
    matched = list(zip(participants[0::2], participants[1::2]))
    if target % 2 == 1:
        matched.append((participants[-1], rng.choice(participants[:-1])))
    matching = sorted((min(pair), max(pair)) for pair in matched)
    # extra edges densify the participant subgraph; non-participants stay clean
    pairs = sorted(matching + _random_pairs(sorted(participants), PARTICIPANT_EXTRA_EDGE_RATE, rng))
    # a pair appears at most twice, once from each run, and the copies are adjacent
    return list(compress(pairs, map(ne, pairs, islice(pairs, 1, None)))) + pairs[-1:]


def generate_workload(
    n: int,
    conflict_rate: float,
    *,
    model: ConflictModel = DEFAULT_CONFLICT_MODEL,
    seed: int = 0,
    cores: CoreProfile | None = None,
    attestor: bool = False,
    time_dist: TimeDistribution = DEFAULT_TIME_DIST,
) -> Workload:
    """Generate a synthetic benchmark workload, deterministic in ``seed``.

    PAIRWISE draws every unordered pair independently at ``conflict_rate``.
    PARTICIPATION makes exactly round(n * conflict_rate) processes conflict
    participants (a random matching plus extra random edges among them);
    everything else is conflict-free. Each process has `OPS_PER_MS` ops per
    millisecond of execution time. Either model draws its pairs canonical,
    sorted and distinct, so they reach `Workload` as two id columns that it
    proves ascending in whole-list passes and keeps, without a sort and
    without a `ConflictPair` record.
    """
    _require_int(n, "n")
    if n < 1:
        raise WorkloadValidationError(f"n must be >= 1, got {n}")
    if not 0.0 <= conflict_rate <= 1.0:
        raise WorkloadValidationError(
            f"conflictRate must be in [0, 1], got {conflict_rate}"
        )
    cores = cores if cores is not None else CoreProfile(DEFAULT_CORE_COUNT)
    rng = random.Random(seed)
    times = [time_dist.draw(rng) for _ in range(n)]
    processes = tuple(
        Process(id=i, exec_time_ms=t, op_count=t * OPS_PER_MS)
        for i, t in enumerate(times)
    )
    if model is ConflictModel.PAIRWISE:
        pairs = _random_pairs(range(n), conflict_rate, rng)
    else:
        pairs = _participation_conflicts(n, conflict_rate, rng)
    conflicts = ConflictColumns._of_ints(map(itemgetter(0), pairs), map(itemgetter(1), pairs))
    meta = {
        "seed": seed,
        "conflictRate": conflict_rate,
        "conflictModel": model.value,
        "timeDist": time_dist.describe(),
        "opsPerMs": OPS_PER_MS,
    }
    return Workload(
        processes=processes,
        conflicts=conflicts,
        cores=cores,
        attestor=attestor,
        meta=meta,
    )


# the keys of a workload file's process records and a schedule file's
# assignment records, in the order written
_PROCESS_KEYS = ("id", "execTimeMs", "opCount")
_ASSIGNMENT_KEYS = ("processId", "coreId", "startMs", "finishMs")


def _workload_document(w: Workload) -> dict:
    """The workload's JSON form for `_json_text`, its two lists as `_Records`."""
    processes = [tuple(map(attrgetter(name), w.processes)) for name in ("id", "exec_time_ms", "op_count")]
    return {
        "processes": _Records(_PROCESS_KEYS, processes),
        # `ConflictColumns` proved its ids integers when it was built
        "conflicts": _Records(None, w.conflicts.columns, ints=True),
        "cores": {
            "count": w.cores.core_count,
            "costPerOp": w.cores.cost_per_op,
            "costPerIdleMs": w.cores.cost_per_idle_ms,
        },
        "attestor": w.attestor,
        "meta": w.meta,
    }


def _workload_to_dict(w: Workload) -> dict:
    """The workload's JSON form as plain values: what `save_workload` writes."""
    return _workload_document(w) | {
        "processes": [
            {"id": p.id, "execTimeMs": p.exec_time_ms, "opCount": p.op_count}
            for p in w.processes
        ],
        "conflicts": list(map(list, zip(w.conflicts.firsts, w.conflicts.seconds))),
    }


def save_workload(w: Workload, path: str | Path) -> None:
    """Write a workload file; byte-stable for a fixed workload value.

    The file is exactly ``json.dumps(d, indent=2) + "\\n"`` of the workload's
    JSON form ``d`` (`_workload_to_dict`). `_json_text` writes it from the
    workload's process fields and conflict pair columns as they are, and
    builds no per-record list or dict.
    """
    _write_json(path, _workload_document(w))


def _require_object(value, keys, where: str, subject: str | None = None) -> None:
    """Check that ``value`` is an object with exactly the key set ``keys``.

    ``where`` names it in the key messages; ``subject``, if given, in the
    "must be an object" message.
    """
    if not isinstance(value, dict):
        raise WorkloadValidationError(f"{subject or where} must be an object")
    unknown = set(value) - keys
    if unknown:
        raise WorkloadValidationError(f"{where} has unknown keys: {sorted(unknown)}")
    missing = keys - set(value)
    if missing:
        raise WorkloadValidationError(f"{where} is missing keys: {sorted(missing)}")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorkloadValidationError(f"{where} must be a number, got {value!r}")
    return float(value)


# Whole-list forms of the `_require_*` checks: each is one C pass over a
# list, so a file with tens of thousands of entries is not checked by a
# Python call per entry. Each accepts exactly what its per-entry form accepts.


def _all_instances(values, cls: type) -> bool:
    """Whether every value passes ``isinstance(value, cls)``."""
    return all(issubclass(t, cls) for t in set(map(type, values)))


def _all_ints(values) -> bool:
    """Whether every value passes `_require_int` (a bool is not an integer)."""
    types = set(map(type, values))
    return bool not in types and all(issubclass(t, int) for t in types)


def _all_keys(entries: list[dict], keys: frozenset[str]) -> bool:
    """Whether every entry passes `_require_object` with ``keys``."""
    # operator.eq, not frozenset.__eq__: called directly, the latter returns
    # NotImplemented (which is truthy) for a key view
    return all(map(eq, map(dict.keys, entries), repeat(keys)))


def _read_json(path: str | Path, what: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise WorkloadValidationError(f"{what} file nests arrays or objects too deeply") from None


@dataclass(frozen=True, slots=True)
class _Records:
    """A JSON list of flat integer records, held as one column per field.

    Entry i of the ``columns`` is record i. ``keys`` names the fields of an
    object record; None makes each record an array. ``ints`` says the
    columns are already proved integers (a bool is not one); otherwise
    `_json_text` proves them. Not a tuple, so `json.dumps` refuses it
    rather than writing it as a list.
    """

    keys: tuple[str, ...] | None
    columns: Sequence[Sequence[int]]
    ints: bool = False

    def value(self) -> list:
        """The records as JSON values: dicts with ``keys``, or lists."""
        rows = zip(*self.columns)
        if self.keys is None:
            return list(map(list, rows))
        return [dict(zip(self.keys, row)) for row in rows]


def _json_text(value, depth: int = 0) -> str:
    """Return exactly ``json.dumps(value, indent=2)``, faster.

    Before CPython 3.13, an indent makes `json` leave its C encoder for a
    Python one, which spends calls per number on a block's record lists. So
    an object with string keys is written member by member, each at one
    more level of indent, and a list of flat integer records is written
    from its columns by `_records_text`. A `_Records` value comes as
    columns already; a plain list is proved one by `_as_records`, which
    gives its columns. Every other value goes through `json.dumps`,
    indented ``depth`` levels past its first line.
    """
    if type(value) is list:
        value = _as_records(value) or value
    if type(value) is _Records:
        return _records_text(value, depth)
    if type(value) is dict and set(map(type, value)) == {str}:
        pad = "\n" + "  " * (depth + 1)
        members = []
        # a loop, not a comprehension, so each level of nesting takes one
        # frame, as json's own encoder does
        for key, member in value.items():
            members.append(f"{pad}{json.dumps(key)}: {_json_text(member, depth + 1)}")
        return "{" + ",".join(members) + pad[:-2] + "}"
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _as_records(records: list) -> _Records | None:
    """The columns of a list of flat integer records, or None.

    Flat records are objects with the same string keys in the same order,
    or lists of the same non-zero length, whose values all pass `_all_ints`.
    """
    kinds = set(map(type, records))
    if kinds == {dict}:
        keys = tuple(records[0])
        # no key repeats within an object, so every record has exactly the
        # first one's keys in its order when the key sequences concatenate
        # to that order repeated
        listed = tuple(chain.from_iterable(records))
        if set(map(type, keys)) != {str} or listed != keys * len(records):
            return None
        columns = tuple(zip(*map(dict.values, records)))
    elif kinds == {list} and len(set(map(len, records))) == 1:
        keys = None
        columns = tuple(zip(*records))
    else:
        return None
    if not columns or not _all_ints(chain.from_iterable(columns)):
        return None
    return _Records(keys, columns, ints=True)


def _records_text(records: _Records, depth: int) -> str:
    """``json.dumps(records.value(), indent=2)``, indented ``depth`` levels.

    All records are formatted by one ``%`` over one template repeated per
    record, with the values read off the columns record by record. Columns
    not proved integers are proved here, and any other value sends the
    records through `json.dumps`.
    """
    columns = records.columns
    count = len(columns[0])
    if not count:
        return "[]"
    if not (records.ints or _all_ints(chain.from_iterable(columns))):
        return json.dumps(records.value(), indent=2).replace("\n", "\n" + "  " * depth)
    if records.keys is None:
        fields = ["%d"] * len(columns)
        brackets = "[]"
    else:
        # a key is a literal in the template, so its "%" is escaped
        fields = [json.dumps(key).replace("%", "%%") + ": %d" for key in records.keys]
        brackets = "{}"
    # %d writes an int subclass by its value, as json's int.__repr__ does
    pad = "\n" + "  " * (depth + 1)
    record = f"{pad}{brackets[0]}{pad}  " + f",{pad}  ".join(fields) + f"{pad}{brackets[1]}"
    return "[" + ",".join(repeat(record, count)) % tuple(chain.from_iterable(zip(*columns))) + pad[:-2] + "]"


def _write_json(path: str | Path, value) -> None:
    Path(path).write_text(_json_text(value) + "\n", encoding="utf-8")


def _load_columns(raw: dict, name: str, keys: tuple[str, ...], cls) -> list[list]:
    """The columns of the array ``raw[name]``: one list per key, in ``keys`` order.

    Each entry has exactly ``keys``, all integers. ``cls`` checks their
    values: the caller builds ``cls(*values)`` from the columns, and it
    fails on the first entry with a bad value. The per-entry loop runs
    only when the whole-list passes fail, to name the first bad entry.
    """
    entries = raw[name]
    if not isinstance(entries, list):
        raise WorkloadValidationError(f"{name} must be an array")
    key_set = frozenset(keys)
    if _all_instances(entries, dict) and _all_keys(entries, key_set):
        columns = [list(map(itemgetter(key), entries)) for key in keys]
        if _all_ints(chain.from_iterable(columns)):
            return columns
    for pos, entry in enumerate(entries):
        where = f"{name}[{pos}]"
        _require_object(entry, key_set, where)
        cls(*(_require_int(entry[key], f"{where}.{key}") for key in keys))
    raise AssertionError(f"whole-list {name} check rejected a valid list")


def _load_conflicts(entries: list) -> ConflictColumns:
    """The conflict columns of a file's ``conflicts`` list, read in two tiers.

    Integer pairs ``0 <= a < b``, strictly ascending, as `save_workload`
    writes them, are proved so once, by whole-list passes, and marked.
    Any other list is read entry by entry: the first bad entry is named, a
    reversed pair is swapped, and `Workload` sorts and deduplicates them.
    """
    if _all_instances(entries, list) and set(map(len, entries)) <= {2}:
        firsts = list(map(itemgetter(0), entries))
        seconds = list(map(itemgetter(1), entries))
        # [a, b] lists compare as the pairs do, and then the smallest a
        # comes first
        if (
            _all_ints(chain(firsts, seconds))
            and all(map(lt, firsts, seconds))
            and all(map(lt, entries, islice(entries, 1, None)))
            and (not firsts or firsts[0] >= 0)
        ):
            return ConflictColumns._of_ints(firsts, seconds, canonical=True)
    firsts, seconds = [], []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            raise WorkloadValidationError(f"conflicts[{pos}] must be a pair [a, b]")
        a = _require_int(entry[0], f"conflicts[{pos}][0]")
        b = _require_int(entry[1], f"conflicts[{pos}][1]")
        if a == b:
            raise WorkloadValidationError(f"conflicts[{pos}] pairs process {a} with itself")
        if a < 0 or b < 0:
            raise WorkloadValidationError(f"conflicts[{pos}] has a negative process id")
        firsts.append(min(a, b))
        seconds.append(max(a, b))
    return ConflictColumns._of_ints(firsts, seconds)


def load_workload(path: str | Path) -> Workload:
    """Read and validate a workload file.

    Raises ``json.JSONDecodeError`` on malformed JSON and
    `WorkloadValidationError` (naming the offending field) on JSON nested
    too deeply to parse and on schema or invariant violations. The process
    list is read as `load_schedule` reads the assignments (`_load_columns`).
    Conflict pairs are canonicalized on load, so the file may list them in
    either order, and no `ConflictPair` is built. Pairs canonical and
    ascending, as `save_workload` writes them, are proved so once, in
    whole-list passes, and `Workload` checks only their range; any other
    list is read entry by entry and sorted by `Workload` (`_load_conflicts`).
    """
    raw = _read_json(path, "workload")
    keys = {"processes", "conflicts", "cores", "attestor", "meta"}
    _require_object(raw, keys, "workload", "top-level value")
    processes = tuple(map(Process, *_load_columns(raw, "processes", _PROCESS_KEYS, Process)))

    if not isinstance(raw["conflicts"], list):
        raise WorkloadValidationError("conflicts must be an array")
    conflicts = _load_conflicts(raw["conflicts"])

    _require_object(raw["cores"], {"count", "costPerOp", "costPerIdleMs"}, "cores")
    cores = CoreProfile(
        core_count=raw["cores"]["count"],
        cost_per_op=_require_number(raw["cores"]["costPerOp"], "cores.costPerOp"),
        cost_per_idle_ms=_require_number(raw["cores"]["costPerIdleMs"], "cores.costPerIdleMs"),
    )

    if not isinstance(raw["attestor"], bool):
        raise WorkloadValidationError("attestor must be a boolean")
    if not isinstance(raw["meta"], dict):
        raise WorkloadValidationError("meta must be an object")

    return Workload(processes, conflicts, cores, raw["attestor"], raw["meta"])


def _schedule_document(sch: Schedule) -> dict:
    """The schedule's JSON form for `_json_text`, its assignments as `_Records`."""
    return {
        "assignments": _Records(_ASSIGNMENT_KEYS, sch.assignments.columns),
        "horizonMs": sch.horizon_ms,
        "scheduleMakespanMs": sch.schedule_makespan_ms,
        "wallTimeMs": sch.wall_time_ms,
    }


def schedule_to_dict(sch: Schedule) -> dict:
    """The schedule's JSON form as plain values: what `save_schedule` writes."""
    return _schedule_document(sch) | {
        "assignments": [
            {"processId": pid, "coreId": core_id, "startMs": start, "finishMs": finish}
            for pid, core_id, start, finish in zip(*sch.assignments.columns)
        ],
    }


def schedule_from_dict(raw: dict) -> Schedule:
    """Build a schedule from its JSON form, checking keys and field types.

    Raises a field-named `WorkloadValidationError`; `validate_schedule`
    checks whether the schedule is legal for a workload, its stated
    makespan and horizon included. The assignments go through the reader
    that `load_workload` uses for the process list, and their columns
    become the schedule's columns as they are.
    """
    keys = {"assignments", "horizonMs", "scheduleMakespanMs", "wallTimeMs"}
    _require_object(raw, keys, "schedule", "top-level value")
    return Schedule(
        assignments=AssignmentColumns(*_load_columns(raw, "assignments", _ASSIGNMENT_KEYS, Assignment)),
        horizon_ms=_require_int(raw["horizonMs"], "horizonMs"),
        schedule_makespan_ms=_require_int(raw["scheduleMakespanMs"], "scheduleMakespanMs"),
        wall_time_ms=_require_number(raw["wallTimeMs"], "wallTimeMs"),
    )


def save_schedule(sch: Schedule, path: str | Path) -> None:
    """Write a schedule file: ``json.dumps(schedule_to_dict(sch), indent=2)``
    and a newline, written from the assignment columns by `_json_text`."""
    _write_json(path, _schedule_document(sch))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule file; see `schedule_from_dict` for the checks.

    JSON nested too deeply to parse raises `WorkloadValidationError`.
    """
    return schedule_from_dict(_read_json(path, "schedule"))
