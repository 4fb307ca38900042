"""The scheduler's data: workloads, their conflict index, schedules, and files.

A workload is the scheduler's complete input: an ordered list of processes
(one per transaction), the set of pairwise conflicts between them, a core
profile, and the attestor flag. Workloads are immutable values; the
generator is a pure function of its arguments, so a fixed seed always
reproduces the same workload byte for byte. A schedule is its output.

Workload files are JSON (UTF-8) with the top-level keys ``processes``,
``conflicts``, ``cores``, ``attestor``, and ``meta``; schedule files are
described at `schedule_from_dict`. Unknown keys are rejected. Both
formats are checked by one record reader and written by one encoder whose
output is byte for byte that of ``json.dumps(value, indent=2)``, with a
trailing newline; it formats the long record lists with ``%`` templates
in C-level passes.
"""

from __future__ import annotations

import copy
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, eq, ge, gt, itemgetter, lt
from pathlib import Path
from typing import NamedTuple

__all__ = [
    "OPS_PER_MS",
    "Assignment",
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

    A plain int tuple, so sorting and deduplicating pairs runs in C;
    `Workload` rejects pairs that are not canonical.
    """

    a: int
    b: int

    @classmethod
    def of(cls, i: int, j: int) -> ConflictPair:
        """Canonicalize an unordered pair."""
        if i == j:
            raise WorkloadValidationError(f"conflict pair ({i}, {j}) is self-referential")
        return cls(min(i, j), max(i, j))


@dataclass(frozen=True, slots=True)
class CoreProfile:
    """Homogeneous core pool: one cost profile applies to every core."""

    core_count: int
    cost_per_op: float = 0.0
    cost_per_idle_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.core_count < 1:
            raise WorkloadValidationError(f"cores.count must be >= 1, got {self.core_count}")
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
    Conflict pairs must be canonical (a < b, both known ids); they are
    deduplicated and sorted at construction. The checks run as whole-list
    passes; the per-entry loops run only to name the first bad entry.

    A workload and its `with_cores`/`with_attestor` copies share one dict of
    derived data, so `conflict_index`, `exec_times`, `attestor_order`,
    `attestor_chain` and `predecessor_counts` are built once for all of them.
    """

    processes: tuple[Process, ...]
    conflicts: tuple[ConflictPair, ...]
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
        pairs = tuple(self.conflicts)
        # `_all_instances` by hand, keeping the type set: generated and
        # loaded pairs are all ConflictPairs, which have two fields; other
        # pairs are checked for two ids and rebuilt as ConflictPairs
        pair_types = set(map(type, pairs))
        plain = pair_types != {ConflictPair}
        if not all(issubclass(t, tuple) for t in pair_types):
            bad = next(pair for pair in pairs if not isinstance(pair, tuple))
            raise WorkloadValidationError(f"conflict pair {bad!r} is not a tuple")
        if plain and set(map(len, pairs)) - {2}:
            bad = next(pair for pair in pairs if len(pair) != 2)
            raise WorkloadValidationError(f"conflict pair {bad!r} does not have two ids")
        # a loaded file lists its pairs in strictly ascending order, which
        # one pass proves; other pairs are sorted, so the smallest `a` comes
        # first, and deduplicated (hashed) in that order
        ascending = all(map(lt, pairs, islice(pairs, 1, None)))
        if not ascending:
            pairs = sorted(pairs)
        firsts = list(map(itemgetter(0), pairs))
        seconds = list(map(itemgetter(1), pairs))
        if pairs and (any(map(ge, firsts, seconds)) or firsts[0] < 0 or max(seconds) >= n):
            for a, b in self.conflicts:
                if a >= b:
                    raise WorkloadValidationError(
                        f"conflict pair ({a}, {b}) is not canonical (need a < b)"
                    )
                if a < 0 or b >= n:
                    raise WorkloadValidationError(
                        f"conflict pair ({a}, {b}) references unknown process id {a if a < 0 else b}"
                    )
            raise AssertionError("conflict pair check rejected valid pairs")
        if not ascending:
            pairs = dict.fromkeys(pairs)
        if plain:
            # built in C, as the loader builds its pairs
            pairs = map(tuple.__new__, repeat(ConflictPair), pairs)
        object.__setattr__(self, "conflicts", tuple(pairs))
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

    def exec_times(self) -> tuple[int, ...]:
        """Each process's execution time, in id order, built on first use."""
        times = self._family.get("exec_times")
        if times is None:
            times = self._family["exec_times"] = tuple(p.exec_time_ms for p in self.processes)
        return times

    def attestor_order(self) -> tuple[int, ...]:
        """Conflict participants in id order, then the rest, built on first use.

        The attestor-mode placement order; it depends only on the conflict
        pairs, so the whole family shares it.
        """
        order = self._family.get("attestor_order")
        if order is None:
            counts = self.conflict_index.conflict_count
            ids = range(self.n)
            order = self._family["attestor_order"] = tuple(
                [i for i in ids if counts[i]] + [i for i in ids if not counts[i]]
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
            for a, b in reversed(self.conflicts):
                level = times[a] + levels[b]
                if level > levels[a]:
                    levels[a] = level
            chain = self._family["attestor_chain"] = tuple(levels)
        return chain

    def predecessor_counts(self) -> tuple[int, ...]:
        """Each process's number of lower-id partners, built on first use.

        In attestor mode these must all finish before the process starts.
        The count is also where the process's ascending adjacency row splits
        into lower-id and higher-id partners. It depends only on the
        conflict pairs, so the whole family shares it.
        """
        counts = self._family.get("predecessor_counts")
        if counts is None:
            counts = self._family["predecessor_counts"] = tuple(
                map(bisect_left, self.conflict_index.adjacency, range(self.n))
            )
        return counts

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


class Assignment(NamedTuple):
    process_id: int
    core_id: int
    start_ms: int
    finish_ms: int


@dataclass(frozen=True)
class Schedule:
    """Scheduler output: one assignment per process plus summary times.

    ``horizon_ms`` is the serial-execution makespan (sum of all execution
    times) and the baseline for speedups. ``wall_time_ms`` is the measured
    duration of the scheduling call's sort and placement, not of the
    schedule; the conflict index it reads is workload data, prepared once
    per workload like the paper's offline conflict repository.
    """

    assignments: tuple[Assignment, ...]
    horizon_ms: int
    schedule_makespan_ms: int
    wall_time_ms: float


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


def _pairwise_conflicts(n: int, rate: float, rng: random.Random) -> list[ConflictPair]:
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < rate:
                pairs.append(ConflictPair(i, j))
    return pairs


def _participation_conflicts(n: int, rate: float, rng: random.Random) -> list[ConflictPair]:
    target = min(n, _round_half_up(n * rate))
    if target < 2:
        # a single participant cannot form a pair; treat as conflict-free
        return []
    participants = rng.sample(range(n), target)
    edges = set()
    # perfect-matching pass guarantees every participant has a conflict
    for k in range(0, target - 1, 2):
        edges.add(ConflictPair.of(participants[k], participants[k + 1]))
    if target % 2 == 1:
        lone = participants[-1]
        edges.add(ConflictPair.of(lone, rng.choice(participants[:-1])))
    # extra edges densify the participant subgraph; non-participants stay clean
    ordered = sorted(participants)
    for i_pos in range(len(ordered)):
        for j_pos in range(i_pos + 1, len(ordered)):
            if rng.random() < PARTICIPANT_EXTRA_EDGE_RATE:
                edges.add(ConflictPair(ordered[i_pos], ordered[j_pos]))
    return list(edges)


def generate_workload(
    n: int,
    conflict_rate: float,
    *,
    model: ConflictModel = DEFAULT_CONFLICT_MODEL,
    seed: int = 0,
    cores: CoreProfile | None = None,
    attestor: bool = False,
    time_dist: TimeDistribution = DEFAULT_TIME_DIST,
    ops_per_ms: int = OPS_PER_MS,
) -> Workload:
    """Generate a synthetic benchmark workload, deterministic in ``seed``.

    PAIRWISE draws every unordered pair independently at ``conflict_rate``.
    PARTICIPATION makes exactly round(n * conflict_rate) processes conflict
    participants (a random matching plus extra random edges among them);
    everything else is conflict-free.
    """
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
        Process(id=i, exec_time_ms=t, op_count=t * ops_per_ms)
        for i, t in enumerate(times)
    )
    if model is ConflictModel.PAIRWISE:
        pairs = _pairwise_conflicts(n, conflict_rate, rng)
    else:
        pairs = _participation_conflicts(n, conflict_rate, rng)
    meta = {
        "seed": seed,
        "conflictRate": conflict_rate,
        "conflictModel": model.value,
        "timeDist": time_dist.describe(),
        "opsPerMs": ops_per_ms,
    }
    return Workload(
        processes=processes,
        conflicts=tuple(pairs),
        cores=cores,
        attestor=attestor,
        meta=meta,
    )


def _workload_to_dict(w: Workload) -> dict:
    return {
        "processes": [
            {"id": p.id, "execTimeMs": p.exec_time_ms, "opCount": p.op_count}
            for p in w.processes
        ],
        "conflicts": [[a, b] for a, b in w.conflicts],
        "cores": {
            "count": w.cores.core_count,
            "costPerOp": w.cores.cost_per_op,
            "costPerIdleMs": w.cores.cost_per_idle_ms,
        },
        "attestor": w.attestor,
        "meta": w.meta,
    }


def save_workload(w: Workload, path: str | Path) -> None:
    """Write a workload file; byte-stable for a fixed workload value.

    The file is exactly ``json.dumps(d, indent=2) + "\\n"`` of the workload's
    JSON form ``d``, written by `_json_text` (see there for why).
    """
    _write_json(path, _workload_to_dict(w))


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


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkloadValidationError(f"{where} must be an integer, got {value!r}")
    return value


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise WorkloadValidationError(f"{where} must be a number, got {value!r}")
    return float(value)


# Whole-list forms of the checks above: each is one pass in C over a list,
# so a file with tens of thousands of entries is not checked by a Python
# call per entry. Each accepts exactly what its per-entry form accepts.


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


def _json_text(value) -> str:
    """Return exactly ``json.dumps(value, indent=2)``, faster.

    Before CPython 3.13, an indent makes `json` leave its C encoder for a
    Python one, which spends calls per number on a block's record lists. So
    an object with string keys is written key by key: a member that is a
    list of flat integer records goes through `_records_text`, and every
    other member through `json.dumps`, indented one level.
    """
    if type(value) is not dict or set(map(type, value)) != {str}:
        return json.dumps(value, indent=2)
    members = []
    for key, member in value.items():
        text = _records_text(member)
        if text is None:
            text = json.dumps(member, indent=2).replace("\n", "\n  ")
        members.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(members) + "\n}"


def _records_text(records) -> str | None:
    """``json.dumps(records, indent=2)`` indented one level, or None.

    Formats a non-empty list of flat records: objects with the same string
    keys in the same order, or lists of the same non-zero length, whose
    values all pass `_all_ints`. Anything else gives None. All records are
    formatted by one ``%`` over one template repeated per record.
    """
    if type(records) is not list:
        return None
    kinds = set(map(type, records))
    if kinds == {dict}:
        keys = list(records[0])
        # no key repeats within an object, so every record has exactly the
        # first one's keys in its order when the key sequences concatenate
        # to that order repeated
        listed = list(chain.from_iterable(records))
        if set(map(type, keys)) != {str} or listed != keys * len(records):
            return None
        values = tuple(chain.from_iterable(map(dict.values, records)))
        # a key is a literal in the template, so its "%" is escaped
        fields = [json.dumps(key).replace("%", "%%") + ": %d" for key in keys]
        brackets = "{}"
    elif kinds == {list} and len(set(map(len, records))) == 1:
        values = tuple(chain.from_iterable(records))
        fields = ["%d"] * len(records[0])
        brackets = "[]"
    else:
        return None
    if not fields or not _all_ints(values):
        return None
    # %d writes an int subclass by its value, as json's int.__repr__ does
    record = f"    {brackets[0]}\n      " + ",\n      ".join(fields) + f"\n    {brackets[1]}"
    return "[\n" + ",\n".join(repeat(record, len(records))) % values + "\n  ]"


def _write_json(path: str | Path, value) -> None:
    Path(path).write_text(_json_text(value) + "\n", encoding="utf-8")


def _load_records(raw: dict, name: str, keys: tuple[str, ...], cls) -> list:
    """Build ``cls(*values)`` from each object of the array ``raw[name]``.

    Each entry has exactly ``keys``, all integers, passed in that order;
    ``cls`` checks their values. The per-entry loop runs only when the
    whole-list passes fail, to name the first bad entry.
    """
    entries = raw[name]
    if not isinstance(entries, list):
        raise WorkloadValidationError(f"{name} must be an array")
    key_set = frozenset(keys)
    if _all_instances(entries, dict) and _all_keys(entries, key_set):
        columns = [list(map(itemgetter(key), entries)) for key in keys]
        if _all_ints(chain.from_iterable(columns)):
            # cls fails on the first entry with a bad value
            return list(map(cls, *columns))
    for pos, entry in enumerate(entries):
        where = f"{name}[{pos}]"
        _require_object(entry, key_set, where)
        cls(*(_require_int(entry[key], f"{where}.{key}") for key in keys))
    raise AssertionError(f"whole-list {name} check rejected a valid list")


def _load_conflicts(entries: list) -> list[ConflictPair]:
    if _all_instances(entries, list) and set(map(len, entries)) <= {2}:
        firsts = list(map(itemgetter(0), entries))
        seconds = list(map(itemgetter(1), entries))
        if _all_ints(chain(firsts, seconds)) and not any(map(eq, firsts, seconds)):
            # canonicalize: only reversed pairs cost a Python step
            for pos in list(compress(count(), map(gt, firsts, seconds))):
                firsts[pos], seconds[pos] = seconds[pos], firsts[pos]
            # every a < b now, so the smallest a is the smallest id
            if min(firsts, default=0) >= 0:
                # tuple.__new__ builds each pair in C; calling ConflictPair
                # would run its Python-level __new__ once per pair
                return list(map(tuple.__new__, repeat(ConflictPair), zip(firsts, seconds)))
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            raise WorkloadValidationError(f"conflicts[{pos}] must be a pair [a, b]")
        a = _require_int(entry[0], f"conflicts[{pos}][0]")
        b = _require_int(entry[1], f"conflicts[{pos}][1]")
        if a == b:
            raise WorkloadValidationError(f"conflicts[{pos}] pairs process {a} with itself")
        if a < 0 or b < 0:
            raise WorkloadValidationError(f"conflicts[{pos}] has a negative process id")
    raise AssertionError("whole-list conflict check rejected a valid list")


def load_workload(path: str | Path) -> Workload:
    """Read and validate a workload file.

    Raises ``json.JSONDecodeError`` on malformed JSON and
    `WorkloadValidationError` (naming the offending field) on JSON nested
    too deeply to parse and on schema or invariant violations. The process
    list is read as `load_schedule` reads the assignments (`_load_records`).
    Conflict pairs are canonicalized on load, so the file may list them in
    either order.
    """
    raw = _read_json(path, "workload")
    keys = {"processes", "conflicts", "cores", "attestor", "meta"}
    _require_object(raw, keys, "workload", "top-level value")
    processes = _load_records(raw, "processes", ("id", "execTimeMs", "opCount"), Process)

    if not isinstance(raw["conflicts"], list):
        raise WorkloadValidationError("conflicts must be an array")
    pairs = _load_conflicts(raw["conflicts"])

    _require_object(raw["cores"], {"count", "costPerOp", "costPerIdleMs"}, "cores")
    cores = CoreProfile(
        core_count=_require_int(raw["cores"]["count"], "cores.count"),
        cost_per_op=_require_number(raw["cores"]["costPerOp"], "cores.costPerOp"),
        cost_per_idle_ms=_require_number(raw["cores"]["costPerIdleMs"], "cores.costPerIdleMs"),
    )

    if not isinstance(raw["attestor"], bool):
        raise WorkloadValidationError("attestor must be a boolean")
    if not isinstance(raw["meta"], dict):
        raise WorkloadValidationError("meta must be an object")

    return Workload(
        processes=tuple(processes),
        conflicts=tuple(pairs),
        cores=cores,
        attestor=raw["attestor"],
        meta=raw["meta"],
    )


def schedule_to_dict(sch: Schedule) -> dict:
    return {
        "assignments": [
            {
                "processId": a.process_id,
                "coreId": a.core_id,
                "startMs": a.start_ms,
                "finishMs": a.finish_ms,
            }
            for a in sch.assignments
        ],
        "horizonMs": sch.horizon_ms,
        "scheduleMakespanMs": sch.schedule_makespan_ms,
        "wallTimeMs": sch.wall_time_ms,
    }


def schedule_from_dict(raw: dict) -> Schedule:
    """Build a schedule from its JSON form, checking keys and field types.

    Raises a field-named `WorkloadValidationError`; `validate_schedule`
    checks whether the schedule is legal for a workload, its stated
    makespan and horizon included. The assignments go through the reader
    that `load_workload` uses for the process list.
    """
    keys = {"assignments", "horizonMs", "scheduleMakespanMs", "wallTimeMs"}
    _require_object(raw, keys, "schedule", "top-level value")
    assignment_keys = ("processId", "coreId", "startMs", "finishMs")
    return Schedule(
        assignments=tuple(_load_records(raw, "assignments", assignment_keys, Assignment)),
        horizon_ms=_require_int(raw["horizonMs"], "horizonMs"),
        schedule_makespan_ms=_require_int(raw["scheduleMakespanMs"], "scheduleMakespanMs"),
        wall_time_ms=_require_number(raw["wallTimeMs"], "wallTimeMs"),
    )


def save_schedule(sch: Schedule, path: str | Path) -> None:
    _write_json(path, schedule_to_dict(sch))


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule file; see `schedule_from_dict` for the checks.

    JSON nested too deeply to parse raises `WorkloadValidationError`.
    """
    return schedule_from_dict(_read_json(path, "schedule"))
