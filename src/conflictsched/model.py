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
(`Process`, `ConflictPair`, `Assignment`) only when one is read. Each
column class has one per-record rule, and every way in (its constructor,
`of` and the file reader) runs that rule in one loop that names the first
bad record; `Workload` proves its conflict pairs in one more loop.

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
from functools import wraps
from itertools import chain, compress, islice, repeat
from operator import itemgetter, ne, not_, or_
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


def _is_int(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value, where: str) -> int:
    if not _is_int(value):
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
    its class's one per-record rule, `_check(position, record)`, which
    proves a record's fields or names the record. Every way in runs that
    rule in one loop, which stops at the first bad record: the
    constructor, which takes the columns as any iterables, on each row (a
    bad row is named as the record it stands for, and no record is built
    for a good one); `of`, which takes the records, on each record as it
    was given, after proving it a tuple of the record's width; and the
    file reader `_load_columns` on each entry's values. So a check is
    changed in one place, and on CPython 3.11 the loop, which tests each
    field inline and makes a Python call only to name a bad one, takes no
    longer than whole-list passes over the columns (`BENCH_35.json`).
    `_of_proved` is the private constructor for columns already proved.
    Indexing and iteration build records in C, one per entry read, and a
    slice is the column sequence of the sliced columns. A column sequence
    equals the tuple of its records, in either direction, and has that
    tuple's hash and repr; two column sequences compare by their columns.
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
        try:
            for position, row in enumerate(zip(*columns)):
                self._check(position, row)
        except WorkloadValidationError:
            # the rule names a record as it is given, and a row is a plain
            # tuple: a bad one is named as the record it stands for
            self._check(position, self[position])
            raise

    @classmethod
    def of(cls, records):
        """The column sequence of the records, tuples given in order.

        Names the first record, in order, that is not a tuple, does not
        have the record's fields, or fails the class's rule, as it was
        given.
        """
        records = tuple(records)
        width = len(cls._fields)
        for position, record in enumerate(records):
            if not isinstance(record, tuple):
                raise WorkloadValidationError(f"{cls._noun} {record!r} is not a tuple")
            if len(record) != width:
                raise WorkloadValidationError(f"{cls._noun} {record!r} does not have {cls._width}")
            cls._check(position, record)
        return cls._of_proved(*(tuple(zip(*records)) or ((),) * width))

    @classmethod
    def _of_proved(cls, *columns):
        """The column sequence of columns already proved, of one length."""
        sequence = object.__new__(cls)
        object.__setattr__(sequence, "columns", tuple(map(tuple, columns)))
        return sequence

    @classmethod
    def _require_ints(cls, position: int, record) -> None:
        """Name the first field of the record at ``position`` that is not an integer, by its key."""
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
    and entry i of the three is one `Process`. Its one rule, `_check`,
    proves every field an integer, every id ``>= 0`` and every time and op
    count ``>= 1``, and names the first bad process; whether the ids are
    ``0..n-1`` in order is `Workload`'s check.
    """

    __slots__ = ()
    _fields = ("ids", "exec_times", "op_counts")
    _record = Process
    _name = "processes"
    _keys = _PROCESS_KEYS
    _noun = "process"
    _width = "three fields"

    @classmethod
    def _check(cls, position: int, record) -> None:
        """Name a field of the process that is not an integer, or is out of range."""
        pid, time_ms, ops = record
        if type(pid) is not int or type(time_ms) is not int or type(ops) is not int:
            cls._require_ints(position, record)
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
    Its one rule, `_check`, refuses an id that is not an integer, naming
    its pair; whether the pairs are canonical, known and in order is
    `Workload`'s check, and only its. A file's ``conflicts`` list is read
    by `_load_conflicts`, which proves its shape in a loop of its own.
    """

    __slots__ = ()
    _fields = ("firsts", "seconds")
    _record = ConflictPair
    _name = "conflicts"
    _noun = "conflict pair"
    _width = "two ids"

    @classmethod
    def _check(cls, position: int, record) -> None:
        """Name the pair if its ids are not both integers."""
        a, b = record
        if (type(a) is not int or type(b) is not int) and not (_is_int(a) and _is_int(b)):
            raise WorkloadValidationError(f"conflict pair {record!r} must hold two integer ids")


class AssignmentColumns(_ColumnSequence):
    """A schedule's assignments as four columns; records are built when read.

    ``process_ids``, ``core_ids``, ``starts`` and ``finishes`` are int
    tuples of one length, and entry i of the four is one `Assignment`.
    Its one rule, `_check`, names the first field that is not an integer,
    as a schedule file's reader does (``assignments[i].startMs must be an
    integer``).
    """

    __slots__ = ()
    _fields = ("process_ids", "core_ids", "starts", "finishes")
    _record = Assignment
    _name = "assignments"
    _keys = _ASSIGNMENT_KEYS
    _noun = "assignment"
    _width = "four fields"

    @classmethod
    def _check(cls, position: int, record) -> None:
        """Name the first field of the assignment that is not an integer."""
        pid, core, start, finish = record
        if type(pid) is not int or type(core) is not int or type(start) is not int or type(finish) is not int:
            cls._require_ints(position, record)


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
        _require_number(self.cost_per_op, "cores.costPerOp", 0)
        _require_number(self.cost_per_idle_ms, "cores.costPerIdleMs", 0)


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


def _built_once(build):
    """The `Workload` method ``build``, its value kept in the family's memo under the method's name."""
    return wraps(build)(lambda self: self._derived(build.__name__, build))


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
    are. This is the only check of pair order, range and repeats: a loaded
    file's pairs, a generated workload's and a `dataclasses.replace`
    copy's are all proved here, in one loop (`_pair_order`) that proves
    every pair ``0 <= a < b < n``, names the first that is not, and finds
    whether the columns ascend.

    The constructor proves every field, and one check (`_check_fields`)
    proves the three that are not lists, for the constructor and for the
    `with_cores`/`with_attestor` copies, which skip it. So every workload
    the library builds, `dataclasses.replace` copies included, saves a file
    that `load_workload` reads back. ``cores`` must be a `CoreProfile`,
    which proves its own fields, ``attestor`` a bool (``"no"`` or ``1`` is
    refused, not read as a flag) and ``meta`` a dict; these three are
    checked first, with the messages a file's reader gives. ``meta`` must
    then hold only what `json.loads` yields (`_require_json_data`), so a
    set, a tuple or an int key is refused rather than failing to save or
    loading back unequal. Only the constructor walks ``meta``: the
    `with_cores`/`with_attestor` copies keep their workload's.

    A workload and its `with_cores`/`with_attestor` copies are one family:
    they share their columns and one memo of derived data, which only
    `_derived` reads and writes. So `process_ids` and `exec_times` (two of
    the process columns) are the same objects for all of them, and
    `conflict_index`, `attestor_order`, `attestor_chain`,
    `predecessor_counts` and `successor_rows` are built once for all of
    them, as is each proposer placement order the scheduler sorts. The
    four attestor data are read off the two sorted pair columns, not off
    `conflict_index`, the symmetric adjacency, so an attestor `schedule()`
    never builds that. A `dataclasses.replace` copy is built by the
    constructor, so it starts a family of its own.
    """

    processes: ProcessColumns
    conflicts: ConflictColumns
    cores: CoreProfile
    attestor: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # these fields come first, so a file's first named error is the one
        # its reader named before the ids and the pairs
        self._check_fields()
        try:
            _require_json_data(self.meta, "meta")
        except RecursionError:
            # a meta that holds itself nests without end
            raise WorkloadValidationError("meta nests arrays or objects too deeply") from None
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
        # other pairs are sorted, and deduplicated (hashed) in that order
        if not _pair_order(firsts, seconds, n):
            conflicts = ConflictColumns._of_proved(*zip(*dict.fromkeys(sorted(zip(firsts, seconds)))))
        object.__setattr__(self, "processes", processes)
        object.__setattr__(self, "conflicts", conflicts)
        object.__setattr__(self, "_family", {})

    @property
    def n(self) -> int:
        return len(self.processes)

    @property
    @_built_once
    def conflict_index(self) -> ConflictIndex:
        """The adjacency index of the conflict pairs, built on first use."""
        return build_conflict_index(self)

    def process_ids(self) -> tuple[int, ...]:
        """The ids ``0..n-1`` as a tuple: the id column of ``processes``."""
        return self.processes.ids

    def exec_times(self) -> tuple[int, ...]:
        """Each process's execution time, in id order: a column of ``processes``."""
        return self.processes.exec_times

    @_built_once
    def attestor_order(self) -> tuple[int, ...]:
        """Conflict participants in id order, then the rest, built on first use.

        The attestor-mode placement order. A participant has a lower-id
        partner (`predecessor_counts`) or a higher-id one (`successor_rows`),
        so the order is read off those two, and the whole family shares it.
        """
        ids = range(self.n)
        partnered = list(map(or_, self.predecessor_counts(), map(len, self.successor_rows())))
        return tuple(chain(compress(ids, partnered), compress(ids, map(not_, partnered))))

    @_built_once
    def attestor_chain(self) -> tuple[int, ...]:
        """Each process's bottom level, built on first use.

        The total time of the longest id-ordered conflict chain that starts
        at the process, the process included: in attestor mode that chain
        runs in order, so this is EVENT's attestor priority and the oracle's
        chain bound. It depends only on the times and the conflict pairs, so
        the whole family shares it.
        """
        times = self.exec_times()
        levels = list(times)
        # the pairs are sorted, so reversed they visit `a` in descending
        # order, and levels[b] is final before any (a, b) reads it
        pairs = self.conflicts
        for a, b in zip(reversed(pairs.firsts), reversed(pairs.seconds)):
            level = times[a] + levels[b]
            if level > levels[a]:
                levels[a] = level
        return tuple(levels)

    @_built_once
    def predecessor_counts(self) -> tuple[int, ...]:
        """Each process's number of lower-id partners, built on first use.

        In attestor mode these must all finish before the process starts.
        The count is also where the process's ascending adjacency row splits
        into lower-id and higher-id partners. It is counted off the
        ``seconds`` pair column, without the conflict index: the number of
        pairs whose ``b`` is the process. It depends only on the pairs, so
        the whole family shares it.
        """
        tally = [0] * self.n
        for b in self.conflicts.seconds:
            tally[b] += 1
        return tuple(tally)

    @_built_once
    def successor_rows(self) -> tuple[tuple[int, ...], ...]:
        """Each process's higher-id partners, ascending, built on first use.

        The part of the process's adjacency row past its
        `predecessor_counts` split: in attestor mode these are the
        processes that wait for it. The pairs are sorted and distinct, so
        the row of ``a`` is the run of the ``seconds`` column where
        ``firsts`` reads ``a``; it is sliced off the columns, without the
        conflict index, and the whole family shares it.
        """
        firsts, seconds = self.conflicts.columns
        # bounds[a] is where the run of `a` starts, and the last is len(firsts)
        bounds = list(map(bisect_left, repeat(firsts), range(self.n + 1)))
        return tuple(map(seconds.__getitem__, map(slice, bounds, bounds[1:])))

    def with_cores(self, cores: CoreProfile) -> Workload:
        """A copy on the core profile ``cores``, sharing columns and derived data.

        Like every copy `_derive` makes, it is refused unless its fields
        pass the constructor's checks, so ``cores`` must be a `CoreProfile`.
        """
        return self._derive("cores", cores)

    def with_attestor(self, attestor: bool) -> Workload:
        """A copy in attestor mode if ``attestor`` (a bool), sharing columns and derived data."""
        return self._derive("attestor", attestor)

    def _check_fields(self) -> None:
        """Prove ``cores`` a `CoreProfile`, ``attestor`` a bool and ``meta`` a dict.

        The one check of these three fields, which the constructor and
        `_derive` run. They are checked in the order a file's reader
        reaches them, with the messages it gives for ``attestor`` and
        ``meta``; a file's reader always builds a `CoreProfile`, which
        proves its own fields.
        """
        if not isinstance(self.cores, CoreProfile):
            raise WorkloadValidationError("cores must be a CoreProfile")
        if not isinstance(self.attestor, bool):
            raise WorkloadValidationError("attestor must be a boolean")
        if not isinstance(self.meta, dict):
            raise WorkloadValidationError("meta must be an object")

    def _derive(self, name: str, value: object) -> Workload:
        """A copy with field ``name`` set to ``value``, in the same family.

        A shallow copy keeps the checked, sorted pairs and the family's
        derived data, where `dataclasses.replace` would check and sort every
        pair again and start an empty family. It skips the constructor, so
        it runs the constructor's field checks (`_check_fields`) itself.
        """
        derived = copy.copy(self)
        object.__setattr__(derived, name, value)
        derived._check_fields()
        return derived

    def _derived(self, key, build):
        """The family's value under ``key``, built by ``build(self)`` on first use.

        The one memo of the data a workload family derives: the
        constructor starts a family with an empty dict, which its
        `with_cores`/`with_attestor` copies share, and only this method
        reads or writes it. The value must depend only on what the whole
        family shares (the columns, not ``cores`` or ``attestor``). Keys
        are strings for the workload's own data (the name of the method
        that builds it) and tuples for a caller's, so the two never meet.
        """
        if key not in self._family:
            self._family[key] = build(self)
        return self._family[key]


def _pair_order(firsts, seconds, n: int) -> bool:
    """Whether the pairs are strictly ascending, once each is proved ``0 <= a < b < n``.

    One loop, which names the first pair that is not canonical or names an
    id outside ``0..n-1``, and stops there.
    """
    ascending = True
    last_a = last_b = -1
    for a, b in zip(firsts, seconds):
        if a >= b:
            raise WorkloadValidationError(f"conflict pair ({a}, {b}) is not canonical (need a < b)")
        if a < 0 or b >= n:
            raise WorkloadValidationError(
                f"conflict pair ({a}, {b}) references unknown process id {a if a < 0 else b}"
            )
        if a < last_a or a == last_a and b <= last_b:
            ascending = False
        last_a = a
        last_b = b
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
    times) and the baseline for speedups. It and ``schedule_makespan_ms``
    must be ints (a bool is not one), and ``wall_time_ms`` a finite int or
    float ``>= 0``, kept as given; the constructor proves all three, with
    the messages `schedule_from_dict` gives, so a `dataclasses.replace`
    copy is proved too and every schedule saves a file that
    `load_schedule` reads back. ``wall_time_ms`` is the measured
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
        _require_int(self.horizon_ms, "horizonMs")
        _require_int(self.schedule_makespan_ms, "scheduleMakespanMs")
        _require_number(self.wall_time_ms, "wallTimeMs", 0)


@dataclass(frozen=True, slots=True)
class GasTimeModel:
    """Linear gas-to-time estimator coefficients.

    Both are finite ints or floats that fit a float (a bool is not one),
    and the slope is ``> 0``; the intercept may be negative.
    """

    slope: float
    intercept: float = 0.0

    def __post_init__(self) -> None:
        _require_number(self.slope, "slope")
        _require_number(self.intercept, "intercept")
        if self.slope <= 0:
            raise WorkloadValidationError(f"slope must be > 0, got {self.slope}")


def _round_half_up(x: float) -> int:
    # small epsilon so products like 50 * 0.15 land on the intended integer
    return math.floor(x + 0.5 + 1e-9)


def estimate_exec_time(gas_estimate: int, model: GasTimeModel) -> int:
    """Map a gas estimate to whole milliseconds, clamped to at least 1.

    The estimate is an int ``>= 0`` (a bool is not one) that fits a float,
    and its time under the model must be finite.
    """
    _require_int(gas_estimate, "gasEstimate")
    _require_number(gas_estimate, "gasEstimate", 0)
    time_ms = model.slope * gas_estimate + model.intercept
    _require_number(time_ms, "gasEstimate's time")
    return max(1, _round_half_up(time_ms))


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
    proves ascending in one loop and keeps, without a sort and without a
    `ConflictPair` record.
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


def _require_number(value, where: str, minimum: int | None = None) -> None:
    """Check an int or float that fits a float and is finite, and at least ``minimum`` if given.

    A cost or a time is checked with ``minimum`` 0; a value below it, -inf
    included, is named as below it. The caller keeps the value as given,
    so an int is saved as one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorkloadValidationError(f"{where} must be a number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        # the repr of such an int may be too long to print
        raise WorkloadValidationError(
            f"{where} must fit a float, got an integer of {value.bit_length()} bits"
        ) from None
    # NaN passes a "< minimum" test, so finiteness is checked on its own
    if minimum is not None and value < minimum:
        raise WorkloadValidationError(f"{where} must be >= {minimum}")
    if not finite:
        raise WorkloadValidationError(f"{where} must be finite, got {value}")


def _require_json_data(value, where: str) -> None:
    """Check that ``value`` is made only of what `json.loads` yields.

    That is None, a bool, an int, a float or a str, or a list or a dict of
    such values, at any depth, with str keys. Anything else (a set, a
    tuple, an int key) would not save, or would load back unequal.
    """
    if isinstance(value, dict):
        for key, member in value.items():
            if not isinstance(key, str):
                raise WorkloadValidationError(f"{where} keys must be strings, got {key!r}")
            _require_json_data(member, where)
    elif isinstance(value, list):
        for member in value:
            _require_json_data(member, where)
    elif value is not None and not isinstance(value, (str, int, float)):
        raise WorkloadValidationError(f"{where} must hold only JSON values, got {value!r}")


def _read_json(path: str | Path, what: str):
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise WorkloadValidationError(f"{what} file nests arrays or objects too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        # CPython's limit on the digits of an int read from a string
        raise WorkloadValidationError(f"{what} file holds an integer too long to read: {exc}") from None


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

    One loop reads the entries in file order and stops at the first bad
    one. Each must be an object with exactly the keys ``cls._keys``: a
    plain dict with as many keys, each of which reads, is one, and any
    other entry goes to `_require_object`, which names what is wrong with
    it. Its values, in key order, then go to the class's rule (`_check`),
    the one check of them, so a file's messages are those of the
    constructor, such as ``processes[1200].execTimeMs must be >= 1, got 0``.
    """
    name, keys = cls._name, cls._keys
    entries = raw[name]
    if not isinstance(entries, list):
        raise WorkloadValidationError(f"{name} must be an array")
    width = len(keys)
    values = itemgetter(*keys)
    check = cls._check
    records = []
    for position, entry in enumerate(entries):
        try:
            # a plain dict with as many keys as a record, each of which reads, has exactly its keys
            if type(entry) is not dict or len(entry) != width:
                raise KeyError
            record = values(entry)
        except KeyError:
            _require_object(entry, frozenset(keys), f"{name}[{position}]")
            record = values(entry)
        check(position, record)
        records.append(record)
    return cls._of_proved(*(tuple(zip(*records)) or ((),) * width))


def _load_conflicts(entries: list) -> ConflictColumns:
    """The conflict columns of a file's ``conflicts`` list, each pair turned ``a < b``.

    Only the entries' shape is read here: one loop proves every entry, in
    file order, a list of two integers that are distinct and not negative,
    names the first that is not, and gives each pair as its smaller id,
    then its larger. `Workload` checks the ids' range and sorts and
    deduplicates the pairs. One plain loop, not whole-list passes with a
    second loop to name the bad entry: CPython 3.11's specializing
    interpreter runs it in about half the time of those passes.
    """
    firsts = []
    seconds = []
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            raise WorkloadValidationError(f"conflicts[{pos}] must be a pair [a, b]")
        a, b = entry
        # `_require_int` is called only to name an id that is not an int
        if type(a) is not int:
            _require_int(a, f"conflicts[{pos}][0]")
        if type(b) is not int:
            _require_int(b, f"conflicts[{pos}][1]")
        if a > b:
            a, b = b, a
        elif a == b:
            raise WorkloadValidationError(f"conflicts[{pos}] pairs process {a} with itself")
        if a < 0:
            raise WorkloadValidationError(f"conflicts[{pos}] has a negative process id")
        firsts.append(a)
        seconds.append(b)
    return ConflictColumns._of_proved(firsts, seconds)


def load_workload(path: str | Path) -> Workload:
    """Read and validate a workload file.

    Raises ``json.JSONDecodeError`` on malformed JSON and
    `WorkloadValidationError` (naming the offending field) on JSON nested
    too deeply to parse, on an integer with more digits than CPython's
    limit for reading one, and on schema or invariant violations. The process
    list is read into `ProcessColumns` as `load_schedule` reads the
    assignments, in one loop that runs the class's rule on each entry and
    names the first bad one (`_load_columns`), and no `Process` is built.
    Conflict pairs are canonicalized on load, so the file may list them in
    either order, and no `ConflictPair` is built: one loop proves each
    entry a pair of distinct non-negative integers, orients it and names
    the first bad one (`_load_conflicts`), and `Workload` proves their
    range, order and uniqueness once, in one more loop that names the
    first bad pair, sorting and deduplicating any list that is not
    strictly ascending. The loader
    reads only the file's JSON shape and keys: ``attestor`` and ``meta``
    are passed as read, and `Workload` proves them (a bool, and an object
    of JSON data), before the ids and the pairs.
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
    """Build a schedule from its JSON form, checking its keys.

    Raises a field-named `WorkloadValidationError`; `validate_schedule`
    checks whether the schedule is legal for a workload, its stated
    makespan and horizon included. The assignments go through the reader
    that `load_workload` uses for the process list, which gives the
    schedule its `AssignmentColumns`. The three scalars are passed as read
    to `Schedule`, whose constructor proves them: ``horizonMs`` and
    ``scheduleMakespanMs`` integers, and ``wallTimeMs`` a finite number
    ``>= 0``, as a measured duration is, kept as given, so an int is saved
    as one.
    """
    keys = {"assignments", "horizonMs", "scheduleMakespanMs", "wallTimeMs"}
    _require_object(raw, keys, "schedule", "top-level value")
    return Schedule(
        _load_columns(raw, AssignmentColumns), raw["horizonMs"], raw["scheduleMakespanMs"], raw["wallTimeMs"]
    )


def save_schedule(sch: Schedule, path: str | Path) -> None:
    """Write a schedule file: ``json.dumps(schedule_to_dict(sch), indent=2)``
    and a newline, written from the assignment columns by `_json_text`."""
    _write_json(path, _schedule_document(sch))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule file; see `schedule_from_dict` for the checks.

    JSON nested too deeply to parse, or holding an integer with more
    digits than CPython's limit for reading one, raises
    `WorkloadValidationError`.
    """
    return schedule_from_dict(_read_json(path, "schedule"))
