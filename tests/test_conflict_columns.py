"""`Workload.conflicts`: two id columns that read as the tuple of their pairs.

A workload keeps its conflict pairs as two int columns and builds a
`ConflictPair` record only when one is read. These tests hold the column
sequence to the tuple of records it stands for, check that every way of
making a workload gives the workload its records would give, and check
that the library's own pipeline reads the columns without building any
record.
"""

import copy
import dataclasses
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched import (
    AssignType,
    ConflictModel,
    CoreProfile,
    Strategy,
    exact_optimal,
    generate_workload,
    load_workload,
    metrics_report,
    save_workload,
    schedule,
    validate_schedule,
)
from conflictsched.model import (
    ConflictColumns,
    ConflictPair,
    Process,
    Workload,
    WorkloadValidationError,
)

INTS = st.integers(-5, 50)
RECORDS = st.lists(st.tuples(INTS, INTS), max_size=12).map(
    lambda rows: tuple(ConflictPair(*row) for row in rows)
)


def records_of(columns) -> tuple:
    """The tuple of pairs the two columns stand for, built without the sequence."""
    return tuple(ConflictPair(a, b) for a, b in zip(*columns))


def record_built(w: Workload) -> Workload:
    """``w`` as a workload built from a tuple of `ConflictPair` records."""
    return Workload(
        processes=w.processes,
        conflicts=records_of(w.conflicts.columns),
        cores=w.cores,
        attestor=w.attestor,
        meta=w.meta,
    )


def assert_reads_as(seq: ConflictColumns, records: tuple) -> None:
    """Every sequence operation on ``seq`` gives what it gives on ``records``."""
    assert isinstance(seq, ConflictColumns)
    assert len(seq) == len(records)
    assert bool(seq) == bool(records)
    for i in range(-len(records), len(records)):
        assert seq[i] == records[i] and type(seq[i]) is ConflictPair
    for index in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            seq[index]
    for part in (slice(None), slice(1, None), slice(None, -1), slice(None, None, 2), slice(None, None, -1), slice(3, 1)):
        assert isinstance(seq[part], ConflictColumns)
        assert seq[part] == records[part] and records[part] == seq[part]
    assert list(seq) == list(records) and all(type(pair) is ConflictPair for pair in seq)
    assert list(reversed(seq)) == list(reversed(records))
    assert all(type(pair) is ConflictPair for pair in reversed(seq))
    assert seq == records and records == seq
    assert not seq != records and not records != seq
    assert hash(seq) == hash(records)
    assert repr(seq) == repr(records)
    # as a tuple never equals a list, the sequence does not either
    assert seq != list(records) and list(records) != seq
    if records:
        last = records[-1]
        assert last in seq and tuple(last) in seq
        assert seq.index(last) == records.index(last)
        assert seq.count(last) == records.count(last)
        changed = records[:-1] + (last._replace(b=last.b + 1),)
        assert seq != changed and changed != seq
        assert seq != records[:-1] and records[:-1] != seq
        assert seq != ConflictColumns.of(changed)
    assert ConflictPair(99, 99) not in seq
    assert {records: 1}[seq] == 1 and {seq: 1}[records] == 1


class TestSequenceSemantics:
    @given(records=RECORDS)
    @settings(max_examples=150, deadline=None)
    def test_reads_as_the_tuple_of_its_records(self, records):
        seq = ConflictColumns.of(records)
        assert seq.columns == (tuple(map(tuple, zip(*records))) if records else ((), ()))
        assert (seq.firsts, seq.seconds) == seq.columns
        assert_reads_as(seq, records)
        assert_reads_as(ConflictColumns(*seq.columns), records)

    @given(records=RECORDS)
    @settings(max_examples=60, deadline=None)
    def test_column_sequences_compare_by_their_columns(self, records):
        seq = ConflictColumns.of(records)
        same = ConflictColumns(*seq.columns)
        assert same == seq and not same != seq and hash(same) == hash(seq)
        if records:
            moved = ConflictColumns((0,) + seq.firsts[1:], seq.seconds)
            assert (moved == seq) == (seq.firsts[0] == 0)

    def test_plain_pairs_and_records_give_the_same_columns(self):
        given_as = [(2, 5), ConflictPair(0, 1), (2, 3)]
        seq = ConflictColumns.of(given_as)
        assert seq.columns == ((2, 0, 2), (5, 1, 3))
        assert ConflictColumns.of(iter(given_as)) == seq == ConflictColumns([2, 0, 2], iter([5, 1, 3]))
        assert all(type(column) is tuple for column in seq.columns)
        assert ConflictColumns() == ConflictColumns.of([]) == ()

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            ConflictColumns((0, 1), (2,))

    @pytest.mark.parametrize(
        "pair,message",
        [
            ([0, 1], "conflict pair [0, 1] is not a tuple"),
            ((0, 1, 2), "conflict pair (0, 1, 2) does not have two ids"),
            ((0.0, 1), "conflict pair (0.0, 1) must hold two integer ids"),
            (ConflictPair(True, 2), "conflict pair ConflictPair(a=True, b=2) must hold two integer ids"),
        ],
        ids=["list", "three-ids", "float", "bool"],
    )
    def test_of_names_a_bad_pair_as_it_was_given(self, pair, message):
        with pytest.raises(WorkloadValidationError) as exc_info:
            ConflictColumns.of([(0, 1), pair])
        assert str(exc_info.value) == message

    def test_is_immutable(self):
        seq = ConflictColumns((0,), (1,))
        with pytest.raises(AttributeError):
            seq.firsts = (5,)
        with pytest.raises(AttributeError):
            del seq.seconds
        with pytest.raises(AttributeError):
            seq.extra = 1
        assert seq.columns == ((0,), (1,))

    def test_copies_and_pickles_equal(self):
        seq = ConflictColumns((0, 1), (2, 3))
        for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
            assert type(twin) is ConflictColumns and twin == seq and twin.columns == seq.columns


def processes(n: int) -> tuple:
    return tuple(Process(i, 1 + i % 3, 1) for i in range(n))


N = 40
DEEP = 25


@pytest.mark.parametrize(
    "pair,message",
    [
        ((0.0, 1.0), "conflict pair ConflictPair(a=0.0, b=1.0) must hold two integer ids"),
        ((True, 2), "conflict pair ConflictPair(a=True, b=2) must hold two integer ids"),
        ((9, 4), "conflict pair (9, 4) is not canonical (need a < b)"),
        ((7, 7), "conflict pair (7, 7) is not canonical (need a < b)"),
        ((-1, 4), "conflict pair (-1, 4) references unknown process id -1"),
        ((4, N), f"conflict pair (4, {N}) references unknown process id {N}"),
    ],
    ids=["floats", "bool", "reversed", "self-pair", "negative", "out-of-range"],
)
def test_a_bad_pair_given_as_columns_is_named_as_in_a_tuple(pair, message):
    pairs = [(i, i + 1) for i in range(N - 1)]
    pairs[DEEP] = pair
    with pytest.raises(WorkloadValidationError) as as_records:
        Workload(processes(N), tuple(ConflictPair(*p) for p in pairs), CoreProfile(2))
    with pytest.raises(WorkloadValidationError) as as_columns:
        Workload(processes(N), ConflictColumns(*zip(*pairs)), CoreProfile(2))
    assert str(as_records.value) == str(as_columns.value) == message


def test_columns_out_of_order_are_sorted_and_deduplicated():
    columns = ConflictColumns((1, 0, 1, 0), (2, 2, 2, 1))
    w = Workload(processes(3), columns, CoreProfile(2))
    assert type(w.conflicts) is ConflictColumns
    assert w.conflicts.columns == ((0, 0, 1), (1, 2, 2))
    assert w == record_built(w)


def test_ascending_columns_are_kept_as_they_are():
    columns = ConflictColumns((0, 0, 1), (1, 2, 2))
    w = Workload(processes(3), columns, CoreProfile(2))
    assert w.conflicts is columns


def pair_file(directory, name: str, n: int, entries: list):
    """A workload file of ``processes(n)`` on two cores with the given pair entries."""
    path = directory / name
    payload = {
        "processes": [{"id": p.id, "execTimeMs": p.exec_time_ms, "opCount": p.op_count} for p in processes(n)],
        "conflicts": entries,
        "cores": {"count": 2, "costPerOp": 0.0, "costPerIdleMs": 0.0},
        "attestor": False,
        "meta": {},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def built_or_error(make):
    """``make()``'s workload, or the message of the `WorkloadValidationError` it raises."""
    try:
        return make()
    except WorkloadValidationError as exc:
        return str(exc)


@given(
    n=st.integers(1, 12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=25),
    stray=st.none() | st.tuples(st.integers(0, 11), st.integers(0, 3)),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_every_form_of_the_same_pairs_gives_the_same_workload(tmp_path_factory, n, pairs, stray, seed):
    # at most one distinct pair lies past n, so every form names that one
    pairs = [(a, b) for a, b in pairs if a < b < n]
    if stray is not None:
        pairs.append((min(stray[0], n - 1), n + stray[1]))
    canonical = sorted(set(pairs))
    rng = random.Random(seed)
    shuffled = rng.sample(pairs, len(pairs)) + pairs[:1]
    wide = Workload(processes(n + 4), ConflictColumns.of(canonical), CoreProfile(2))
    directory = tmp_path_factory.mktemp("forms")
    forms = {
        "canonical-file": lambda: load_workload(pair_file(directory, "c.json", n, [list(p) for p in canonical])),
        "messy-file": lambda: load_workload(pair_file(directory, "m.json", n, [[b, a] for a, b in shuffled])),
        "columns": lambda: Workload(processes(n), ConflictColumns(*zip(*shuffled)), CoreProfile(2)),
        "of": lambda: Workload(processes(n), ConflictColumns.of(shuffled), CoreProfile(2)),
        "slice": lambda: Workload(processes(n), ConflictColumns.of([(0, 1)] + shuffled)[1:], CoreProfile(2)),
        "pickled": lambda: Workload(processes(n), pickle.loads(pickle.dumps(wide.conflicts)), CoreProfile(2)),
        "re-wrapped": lambda: Workload(processes(n), wide.conflicts, CoreProfile(2)),
        "replaced": lambda: dataclasses.replace(wide, processes=processes(n)),
        "tuples": lambda: Workload(processes(n), tuple(shuffled), CoreProfile(2)),
    }
    results = {name: built_or_error(make) for name, make in forms.items()}
    if stray is not None:
        a, b = pairs[-1]
        assert set(results.values()) == {f"conflict pair ({a}, {b}) references unknown process id {b}"}
        return
    reference = Workload(processes(n), tuple(ConflictPair(a, b) for a, b in canonical), CoreProfile(2))
    for name, w in results.items():
        assert w == reference, name
        assert type(w.conflicts) is ConflictColumns and w.conflicts.columns == reference.conflicts.columns
    if canonical:
        # a copy with fewer processes checks the kept columns' range
        fewer = processes(max(b for _, b in canonical))
        a, b = next((a, b) for a, b in canonical if b >= len(fewer))
        for w in results.values():
            with pytest.raises(WorkloadValidationError) as exc_info:
                dataclasses.replace(w, processes=fewer)
            assert str(exc_info.value) == f"conflict pair ({a}, {b}) references unknown process id {b}"


def first_fault(pairs, n: int):
    """The constructor's message for the first bad pair, in column order, checked pair by pair; None if none is."""
    for a, b in pairs:
        if a >= b:
            return f"conflict pair ({a}, {b}) is not canonical (need a < b)"
        if a < 0 or b >= n:
            return f"conflict pair ({a}, {b}) references unknown process id {a if a < 0 else b}"
    return None


@st.composite
def bad_pair(draw, kind: str, n: int):
    """A pair of ``kind`` that no workload of ``n`` processes holds."""
    if kind == "reversed":
        a = draw(st.integers(0, n - 1))
        return draw(st.integers(a + 1, n)), a
    if kind == "self":
        a = draw(st.integers(-2, n + 1))
        return a, a
    if kind == "negative":
        return draw(st.integers(-5, -1)), draw(st.integers(0, n - 1))
    return draw(st.integers(0, n - 1)), draw(st.integers(n, n + 3))


@given(
    n=st.integers(1, 12),
    pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=25),
    kinds=st.lists(st.sampled_from(["reversed", "self", "negative", "past-n"]), max_size=2, unique=True),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_the_constructor_names_the_first_of_two_bad_pairs_in_column_order(n, pairs, kinds, data):
    # canonical pairs in any order, repeats included, and up to two bad
    # pairs of different kinds at random places
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n]
    for kind in kinds:
        pairs.insert(data.draw(st.integers(0, len(pairs))), data.draw(bad_pair(kind, n)))
    columns = ConflictColumns(*zip(*pairs))
    got = built_or_error(lambda: Workload(processes(n), columns, CoreProfile(2)))
    message = first_fault(pairs, n)
    if message is not None:
        assert got == message
        return
    assert got.conflicts.columns == ConflictColumns.of(sorted(set(pairs))).columns
    # strictly ascending columns are kept, any others sorted
    assert (got.conflicts is columns) == (pairs == sorted(set(pairs)))


def generated(model: ConflictModel, attestor: bool) -> Workload:
    rate = 0.45 if model is ConflictModel.PARTICIPATION else 0.2
    return generate_workload(60, rate, model=model, seed=4, cores=CoreProfile(4), attestor=attestor)


def loaded(w: Workload, directory) -> Workload:
    path = directory / "w.json"
    save_workload(w, path)
    return load_workload(path)


SOURCES = {
    "generated": lambda w, tmp: w,
    "loaded": loaded,
    "with-cores": lambda w, tmp: w.with_cores(CoreProfile(7)),
    "with-attestor": lambda w, tmp: w.with_attestor(not w.attestor),
}


@pytest.mark.parametrize("attestor", [False, True], ids=["proposer", "attestor"])
@pytest.mark.parametrize("model", list(ConflictModel), ids=lambda m: m.value.lower())
@pytest.mark.parametrize("source", list(SOURCES))
def test_every_workload_equals_its_record_built_workload(tmp_path, source, model, attestor):
    w = SOURCES[source](generated(model, attestor), tmp_path)
    assert type(w.conflicts) is ConflictColumns and w.conflicts
    rebuilt = record_built(w)
    assert w == rebuilt and rebuilt == w
    assert rebuilt.conflicts.columns == w.conflicts.columns
    assert_reads_as(w.conflicts, records_of(w.conflicts.columns))
    assert rebuilt.conflict_index == w.conflict_index
    assert rebuilt.attestor_chain() == w.attestor_chain()


def test_the_library_pipeline_builds_no_conflict_pair(tmp_path, monkeypatch):
    paths = []
    for k, attestor in enumerate((False, True)):
        for model in ConflictModel:
            paths.append(tmp_path / f"w-{k}-{model.value}.json")
            save_workload(generated(model, attestor), paths[-1])
    small = tmp_path / "small.json"
    save_workload(generate_workload(9, 0.45, seed=11, cores=CoreProfile(2), attestor=True), small)

    built = []
    original = ConflictColumns._records

    def counted(rows):
        return map(lambda row: built.append(row) or row, original(rows))

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return tuple.__new__(cls, args)

    monkeypatch.setattr(ConflictColumns, "_records", staticmethod(counted))
    monkeypatch.setattr(ConflictPair, "__new__", counted_new)
    for path in paths:
        w = load_workload(path)
        for derived in (w, w.with_attestor(not w.attestor)):
            for strategy in (Strategy(), Strategy(assign_type=AssignType.EVENT)):
                sch = schedule(derived, strategy)
                assert validate_schedule(sch, derived).ok
                metrics_report(sch, derived)
                # listed out of id order, it is checked entry by entry, and
                # its pairs are read from the columns there too
                shuffled = dataclasses.replace(sch, assignments=sch.assignments[::-1])
                assert validate_schedule(shuffled, derived).ok
        save_workload(w, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    result = exact_optimal(load_workload(small))
    assert result.optimal
    assert built == []
    # the counters see records that are read, and records built by hand
    assert len(list(w.conflicts)) == len(built) == len(w.conflicts)
    ConflictPair(0, 1)
    assert len(built) == len(w.conflicts) + 1
