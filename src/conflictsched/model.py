"""The scheduler's data: workloads, their conflict index, schedules, and files.

A workload is the scheduler's complete input: an ordered list of processes
(one per transaction), the set of pairwise conflicts between them, a core
profile, and the attestor flag. Workloads are immutable values; the
generator is a pure function of its arguments, so a fixed seed always
reproduces the same workload byte for byte.

All three record lists are int columns of one type: a workload keeps its
processes (`ProcessColumns`) and its conflict pairs (`ConflictColumns`),
and a schedule, its output, its placements (`AssignmentColumns`). Each
proves its columns once, when it is built, and builds a record
(`Process`, `ConflictPair`, `Assignment`) only when one is read.

Workload files are JSON (UTF-8) with the top-level keys ``processes``,
``conflicts``, ``cores``, ``attestor``, and ``meta``; schedule files are
described at `schedule_from_dict`. Unknown keys are rejected. Both
formats are read by one record reader, which gives the columns, and
written by one encoder whose output is byte for byte that of
``json.dumps(value, indent=2)``, with a trailing newline; it formats each
column sequence straight from its columns with one ``%`` template.
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
from operator import eq, ge, itemgetter, lt, ne, not_, or_
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
    "ProcessColumns",
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


class Process(NamedTuple):
    """One schedulable unit: a transaction's function call.

    A plain int tuple. A workload keeps its processes as `ProcessColumns`
    and builds one of these only when a process is read; the columns check
    the fields.
    """

    id: int
    exec_time_ms: int
    op_count: int


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


class Assignment(NamedTuple):
    process_id: int
    core_id: int
    start_ms: int
    finish_ms: int


# the keys of a workload file's process records and a schedule file's
# assignment records, in the order written
_PROCESS_KEYS = ("id", "execTimeMs", "opCount")
_ASSIGNMENT_KEYS = ("processId", "coreId", "startMs", "finishMs")


class _ColumnSequence(Sequence):
    """An immutable sequence of records kept as proved int tuple columns of one length.

    ``columns`` holds the columns, in record field order, and a subclass
    names them in ``_fields``, each of which reads its column. It names its
    record type in ``_record``, the file list its records are read from
    and written to in ``_name``, and the JSON keys of a record in
    ``_keys`` (None writes each record as an array). Entry i of the
    columns is one record.

    Every column sequence holds int columns (a bool is not one) that pass
    its class's check. The constructor, which takes the columns as any
    iterables, and `of`, which takes the records, prove that in whole-list
    passes (`_all_proved`); only when those fail does a loop name the
    first bad record (`_check`), as it was given. `_of_proved` is the
    private constructor for columns already proved. Indexing and
    iteration build records in C, one per entry read, and a slice is the
    column sequence of the sliced columns. A column sequence equals the tuple of its records, in
    either direction, and has that tuple's hash and repr; two column
    sequences compare by their columns.
    """

    __slots__ = ("columns",)
    columns: tuple[tuple[int, ...], ...]
    _fields: tuple[str, ...]
    _record: type
    _name: str
    _keys: tuple[str, ...] | None = None
    # how `of` names a record and its fields in a message
    _noun: str
    _width: str

    def __init_subclass__(cls) -> None:
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(lambda self, i=i: self.columns[i], doc=f"Column {i} of ``columns``."))

    def __init__(self, *columns) -> None:
        # no columns at all is the empty sequence
        columns = tuple(map(tuple, columns)) or ((),) * len(self._fields)
        if len(columns) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} columns, got {len(columns)}")
        if len(set(map(len, columns))) > 1:
            raise ValueError(f"{self._noun} columns differ in length: {list(map(len, columns))}")
        object.__setattr__(self, "columns", columns)
        self._prove(columns, self)

    @classmethod
    def of(cls, records):
        """The column sequence of the records, tuples given in order.

        Names the first record that is not a tuple, does not have the
        record's fields, or fails the class's check, as it was given.
        """
        records = tuple(records)
        if not _all_instances(records, tuple):
            bad = next(record for record in records if not isinstance(record, tuple))
            raise WorkloadValidationError(f"{cls._noun} {bad!r} is not a tuple")
        width = len(cls._fields)
        if set(map(len, records)) - {width}:
            bad = next(record for record in records if len(record) != width)
            raise WorkloadValidationError(f"{cls._noun} {bad!r} does not have {cls._width}")
        columns = tuple(zip(*records)) or ((),) * width
        cls._prove(columns, records)
        return cls._of_proved(*columns)

    @classmethod
    def _of_proved(cls, *columns):
        """The column sequence of columns already proved, of one length."""
        sequence = object.__new__(cls)
        object.__setattr__(sequence, "columns", tuple(map(tuple, columns)))
        return sequence

    @classmethod
    def _prove(cls, columns, records) -> None:
        """Prove the columns, or name the first bad one of their records."""
        if not cls._all_proved(columns):
            for position, record in enumerate(records):
                cls._check(position, record)
            raise AssertionError(f"whole-list {cls._name} check rejected valid columns")

    @classmethod
    def _all_proved(cls, columns) -> bool:
        """Whether the columns pass `_check`, in whole-list passes."""
        return _all_ints(chain.from_iterable(columns))

    @classmethod
    def _check(cls, position: int, record) -> None:
        """Name a field of the record at ``position`` that is not an integer."""
        for key, value in zip(cls._keys, record):
            _require_int(value, f"{cls._name}[{position}].{key}")

    @classmethod
    def _records(cls, rows):
        # every record is built here, in C, skipping the named tuple's
        # Python-level __new__
        return map(tuple.__new__, repeat(cls._record), rows)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._of_proved(*(column[index] for column in self.columns))
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


class ProcessColumns(_ColumnSequence):
    """A workload's processes as three columns; records are built when read.

    ``ids``, ``exec_times`` and ``op_counts`` are int tuples of one length,
    and entry i of the three is one `Process`. Building proves every field
    an integer, every id ``>= 0`` and every time and op count ``>= 1``, and
    names the first bad process; whether the ids are ``0..n-1`` in order
    is `Workload`'s check.
    """

    __slots__ = ()
    _fields = ("ids", "exec_times", "op_counts")
    _record = Process
    _name = "processes"
    _keys = _PROCESS_KEYS
    _noun = "process"
    _width = "three fields"

    @classmethod
    def _all_proved(cls, columns) -> bool:
        ids, times, ops = columns
        return (
            _all_ints(chain.from_iterable(columns))
            and min(ids, default=0) >= 0
            and min(times, default=1) >= 1
            and min(ops, default=1) >= 1
        )

    @classmethod
    def _check(cls, position: int, record) -> None:
        """Name a field of the process that is not an integer, or is out of range."""
        super()._check(position, record)
        pid, time_ms, ops = record
        if pid < 0:
            raise WorkloadValidationError(f"process id must be >= 0, got {pid}")
        if time_ms < 1:
            raise WorkloadValidationError(f"processes[{pid}].execTimeMs must be >= 1, got {time_ms}")
        if ops < 1:
            raise WorkloadValidationError(f"processes[{pid}].opCount must be >= 1, got {ops}")


class ConflictColumns(_ColumnSequence):
    """A workload's conflict pairs as two id columns; records are built when read.

    ``firsts`` and ``seconds`` are int tuples of one length, and entry i of
    the two is one `ConflictPair`; the file writes each pair as an array.
    Building refuses an id that is not an integer, naming its pair; whether
    the pairs are canonical, known and in order is `Workload`'s check. The
    private mark ``_canonical`` says the pairs are proved canonical
    (``0 <= a < b``) and strictly ascending; a copy, slice or unpickled
    sequence is unmarked.
    """

    __slots__ = ("_canonical",)
    _fields = ("firsts", "seconds")
    _record = ConflictPair
    _name = "conflicts"
    _noun = "conflict pair"
    _width = "two ids"

    @classmethod
    def _of_proved(cls, firsts, seconds, canonical: bool = False) -> ConflictColumns:
        """Columns of ids already proved integers.

        ``canonical`` marks pairs also proved canonical and strictly
        ascending, as `_load_conflicts` proves a whole file, once.
        """
        columns = super()._of_proved(firsts, seconds)
        object.__setattr__(columns, "_canonical", canonical)
        return columns

    def __init__(self, *columns) -> None:
        super().__init__(*columns)
        object.__setattr__(self, "_canonical", False)

    @classmethod
    def _check(cls, position: int, record) -> None:
        if not _all_ints(record):
            raise WorkloadValidationError(f"conflict pair {record!r} must hold two integer ids")


class AssignmentColumns(_ColumnSequence):
    """A schedule's assignments as four columns; records are built when read.

    ``process_ids``, ``core_ids``, ``starts`` and ``finishes`` are int
    tuples of one length, and entry i of the four is one `Assignment`.
    Building names the first field that is not an integer, as a schedule
    file's reader does (``assignments[i].startMs must be an integer``).
    """

    __slots__ = ()
    _fields = ("process_ids", "core_ids", "starts", "finishes")
    _record = Assignment
    _name = "assignments"
    _keys = _ASSIGNMENT_KEYS
    _noun = "assignment"
    _width = "four fields"


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

    ``processes`` is a `ProcessColumns` and ``conflicts`` a
    `ConflictColumns`: both are kept as int columns, and a `Process` or
    `ConflictPair` record is built only when one is read. Any other
    sequence of records passed in is turned into columns, which proves
    their fields. The process list order is canonical:
    ``processes[i].id == i``, and that index is the original block
    position used by attestor-mode ordering. Conflict pairs must be
    canonical (a < b, both known ids); they are deduplicated and sorted at
    construction, and columns already strictly ascending are kept as they
    are. The checks run as whole-list passes; the per-entry loops run only
    to name the first bad entry. The kept pair columns are marked proved,
    and marked columns get only the range check, so the pairs of a loaded
    canonical file or of a `dataclasses.replace` copy are not proved again.

    A workload and its `with_cores`/`with_attestor` copies share their
    columns and one dict of derived data, so `process_ids` and `exec_times`
    (two of the process columns) are the same objects for all of them, and
    `conflict_index`, `attestor_order`, `attestor_chain`,
    `predecessor_counts` and `successor_rows` are built once for all of
    them. The last four are read off the two sorted pair columns, not off
    `conflict_index`, the symmetric adjacency, so an attestor `schedule()`
    never builds that.
    """

    processes: ProcessColumns
    conflicts: ConflictColumns
    cores: CoreProfile
    attestor: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        processes = self.processes
        if not isinstance(processes, ProcessColumns):
            processes = ProcessColumns.of(processes)
        ids = processes.ids
        n = len(ids)
        if ids != tuple(range(n)):
            position = next(i for i, pid in enumerate(ids) if pid != i)
            raise WorkloadValidationError(
                f"processes[{position}].id is {ids[position]}; ids must be 0..n-1 in order"
            )
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
            conflicts = ConflictColumns._of_proved(*zip(*dict.fromkeys(sorted(zip(firsts, seconds)))))
        # the mark is a fact about the immutable columns, even the caller's
        object.__setattr__(conflicts, "_canonical", True)
        object.__setattr__(self, "processes", processes)
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
        """The ids ``0..n-1`` as a tuple: the id column of ``processes``."""
        return self.processes.ids

    def exec_times(self) -> tuple[int, ...]:
        """Each process's execution time, in id order: a column of ``processes``."""
        return self.processes.exec_times

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


@dataclass(frozen=True)
class Schedule:
    """Scheduler output: one assignment per process plus summary times.

    ``assignments`` is an `AssignmentColumns`: the placements are kept as
    int columns, and an `Assignment` record is built only when one is read.
    Any other sequence of 4-tuples passed in is turned into columns, which
    names the first field that is not an integer.
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
    # the distribution draws ints >= 1, so the columns are proved as built
    processes = ProcessColumns._of_proved(range(n), times, [t * OPS_PER_MS for t in times])
    if model is ConflictModel.PAIRWISE:
        pairs = _random_pairs(range(n), conflict_rate, rng)
    else:
        pairs = _participation_conflicts(n, conflict_rate, rng)
    conflicts = ConflictColumns._of_proved(map(itemgetter(0), pairs), map(itemgetter(1), pairs))
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


def _workload_document(w: Workload) -> dict:
    """The workload's JSON form for `_json_text`, its two lists as columns."""
    return {
        "processes": w.processes,
        "conflicts": w.conflicts,
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
        "processes": [dict(zip(_PROCESS_KEYS, p)) for p in w.processes],
        "conflicts": list(map(list, w.conflicts)),
    }


def save_workload(w: Workload, path: str | Path) -> None:
    """Write a workload file; byte-stable for a fixed workload value.

    The file is exactly ``json.dumps(d, indent=2) + "\\n"`` of the workload's
    JSON form ``d`` (`_workload_to_dict`). `_json_text` writes it from the
    workload's process and conflict pair columns as they are, and builds no
    per-record list or dict.
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
    try:
        return float(value)
    except OverflowError:
        # the repr of such an int may be too long to print
        raise WorkloadValidationError(
            f"{where} must fit a float, got an integer of {value.bit_length()} bits"
        ) from None


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


def _json_text(value, depth: int = 0) -> str:
    """Return exactly ``json.dumps(value, indent=2)``, faster.

    Before CPython 3.13, an indent makes `json` leave its C encoder for a
    Python one, which spends calls per number on a block's record lists. So
    an object with string keys is written member by member, each at one
    more level of indent, and a column sequence, which ``json.dumps``
    would refuse, is written from its columns as the list of its records
    by `_records_text`. Every other value goes through `json.dumps`,
    indented ``depth`` levels past its first line.
    """
    if isinstance(value, _ColumnSequence):
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


def _records_text(records: _ColumnSequence, depth: int) -> str:
    """``json.dumps`` of the records, objects with ``_keys`` or arrays, indented ``depth`` levels.

    All records are formatted by one ``%`` over one template repeated per
    record, with the values read off the columns record by record. The
    columns are proved integers, so ``%d`` writes each as ``json.dumps``
    does, an int subclass by its value.
    """
    columns = records.columns
    if not records:
        return "[]"
    if records._keys is None:
        fields = ["%d"] * len(columns)
        brackets = "[]"
    else:
        # a key is a literal in the template, so its "%" is escaped
        fields = [json.dumps(key).replace("%", "%%") + ": %d" for key in records._keys]
        brackets = "{}"
    pad = "\n" + "  " * (depth + 1)
    record = f"{pad}{brackets[0]}{pad}  " + f",{pad}  ".join(fields) + f"{pad}{brackets[1]}"
    return "[" + ",".join(repeat(record, len(records))) % tuple(chain.from_iterable(zip(*columns))) + pad[:-2] + "]"


def _write_json(path: str | Path, value) -> None:
    Path(path).write_text(_json_text(value) + "\n", encoding="utf-8")


def _load_columns(raw: dict, cls: type[_ColumnSequence]) -> _ColumnSequence:
    """The column sequence ``cls`` of the file's array ``raw[cls._name]``.

    Each entry is an object with exactly the keys ``cls._keys``. When every
    entry has them, the columns go to ``cls``'s constructor, whose
    whole-list passes prove them once and name the first bad entry on
    failure. Otherwise entries are read one by one, in file order, each
    checked for its keys and then by the class's per-record check, so the
    first bad entry is named whatever is wrong with a later one.
    """
    name, keys = cls._name, cls._keys
    entries = raw[name]
    if not isinstance(entries, list):
        raise WorkloadValidationError(f"{name} must be an array")
    key_set = frozenset(keys)
    if _all_instances(entries, dict) and _all_keys(entries, key_set):
        return cls(*(map(itemgetter(key), entries) for key in keys))
    for position, entry in enumerate(entries):
        _require_object(entry, key_set, f"{name}[{position}]")
        cls._check(position, tuple(map(entry.__getitem__, keys)))
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
            return ConflictColumns._of_proved(firsts, seconds, canonical=True)
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
    return ConflictColumns._of_proved(firsts, seconds)


def load_workload(path: str | Path) -> Workload:
    """Read and validate a workload file.

    Raises ``json.JSONDecodeError`` on malformed JSON and
    `WorkloadValidationError` (naming the offending field) on JSON nested
    too deeply to parse and on schema or invariant violations. The process
    list is read into `ProcessColumns` as `load_schedule` reads the
    assignments (`_load_columns`), and no `Process` is built.
    Conflict pairs are canonicalized on load, so the file may list them in
    either order, and no `ConflictPair` is built. Pairs canonical and
    ascending, as `save_workload` writes them, are proved so once, in
    whole-list passes, and `Workload` checks only their range; any other
    list is read entry by entry and sorted by `Workload` (`_load_conflicts`).
    """
    raw = _read_json(path, "workload")
    keys = {"processes", "conflicts", "cores", "attestor", "meta"}
    _require_object(raw, keys, "workload", "top-level value")
    processes = _load_columns(raw, ProcessColumns)

    if not isinstance(raw["conflicts"], list):
        raise WorkloadValidationError("conflicts must be an array")
    conflicts = _load_conflicts(raw["conflicts"])

    _require_object(raw["cores"], {"count", "costPerOp", "costPerIdleMs"}, "cores")
    # the profile checks its fields, the count first, and keeps an int cost
    cores = CoreProfile(raw["cores"]["count"], raw["cores"]["costPerOp"], raw["cores"]["costPerIdleMs"])

    if not isinstance(raw["attestor"], bool):
        raise WorkloadValidationError("attestor must be a boolean")
    if not isinstance(raw["meta"], dict):
        raise WorkloadValidationError("meta must be an object")

    return Workload(processes, conflicts, cores, raw["attestor"], raw["meta"])


def _schedule_document(sch: Schedule) -> dict:
    """The schedule's JSON form for `_json_text`, its assignments as columns."""
    return {
        "assignments": sch.assignments,
        "horizonMs": sch.horizon_ms,
        "scheduleMakespanMs": sch.schedule_makespan_ms,
        "wallTimeMs": sch.wall_time_ms,
    }


def schedule_to_dict(sch: Schedule) -> dict:
    """The schedule's JSON form as plain values: what `save_schedule` writes."""
    return _schedule_document(sch) | {"assignments": [dict(zip(_ASSIGNMENT_KEYS, a)) for a in sch.assignments]}


def schedule_from_dict(raw: dict) -> Schedule:
    """Build a schedule from its JSON form, checking keys and field types.

    Raises a field-named `WorkloadValidationError`; `validate_schedule`
    checks whether the schedule is legal for a workload, its stated
    makespan and horizon included. The assignments go through the reader
    that `load_workload` uses for the process list, which gives the
    schedule its `AssignmentColumns`.
    """
    keys = {"assignments", "horizonMs", "scheduleMakespanMs", "wallTimeMs"}
    _require_object(raw, keys, "schedule", "top-level value")
    return Schedule(
        assignments=_load_columns(raw, AssignmentColumns),
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
