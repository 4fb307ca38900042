"""`Schedule.assignments`: columns that read as the tuple of their records.

A schedule keeps its placements as four int columns and builds an
`Assignment` record only when one is read. These tests hold the column
sequence to the tuple of records it stands for, and check that the
library's own pipeline reads the columns without building any record.
"""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched import (
    AssignType,
    CoreProfile,
    ExperimentGrid,
    SortType,
    Strategy,
    exact_optimal,
    generate_workload,
    load_schedule,
    metrics_report,
    run_grid,
    save_schedule,
    schedule,
    validate_schedule,
)
from conflictsched.model import Assignment, AssignmentColumns, Schedule

INTS = st.integers(-5, 50)
RECORDS = st.lists(st.tuples(INTS, INTS, INTS, INTS), max_size=12).map(
    lambda rows: tuple(Assignment(*row) for row in rows)
)


def records_of(columns) -> tuple:
    """The tuple of records the four columns stand for, built without the sequence."""
    return tuple(Assignment(p, c, s, f) for p, c, s, f in zip(*columns))


def record_built(sch: Schedule) -> Schedule:
    """``sch`` as a schedule built from a tuple of `Assignment` records."""
    return Schedule(
        assignments=records_of(sch.assignments.columns),
        horizon_ms=sch.horizon_ms,
        schedule_makespan_ms=sch.schedule_makespan_ms,
        wall_time_ms=sch.wall_time_ms,
    )


def assert_reads_as(seq: AssignmentColumns, records: tuple) -> None:
    """Every sequence operation on ``seq`` gives what it gives on ``records``."""
    assert isinstance(seq, AssignmentColumns)
    assert len(seq) == len(records)
    assert bool(seq) == bool(records)
    for i in range(-len(records), len(records)):
        assert seq[i] == records[i] and type(seq[i]) is Assignment
    for index in (len(records), -len(records) - 1):
        with pytest.raises(IndexError):
            seq[index]
    for part in (slice(None), slice(1, None), slice(None, -1), slice(None, None, 2), slice(None, None, -1), slice(3, 1)):
        assert isinstance(seq[part], AssignmentColumns)
        assert seq[part] == records[part] and records[part] == seq[part]
    assert list(seq) == list(records) and all(type(a) is Assignment for a in seq)
    assert list(reversed(seq)) == list(reversed(records))
    assert seq == records and records == seq
    assert not seq != records and not records != seq
    assert hash(seq) == hash(records)
    assert repr(seq) == repr(records)
    # as a tuple never equals a list, the sequence does not either
    assert seq != list(records) and list(records) != seq
    if records:
        assert records[-1] in seq and seq.index(records[-1]) == records.index(records[-1])
        changed = records[:-1] + (records[-1]._replace(finish_ms=records[-1].finish_ms + 1),)
        assert seq != changed and changed != seq
        assert seq != records[:-1] and records[:-1] != seq
        assert seq != AssignmentColumns.of(changed)
    assert {records: 1}[seq] == 1


class TestSequenceSemantics:
    @given(records=RECORDS)
    @settings(max_examples=150, deadline=None)
    def test_reads_as_the_tuple_of_its_records(self, records):
        seq = AssignmentColumns.of(records)
        assert seq.columns == (tuple(map(tuple, zip(*records))) if records else ((),) * 4)
        assert_reads_as(seq, records)

    @given(records=RECORDS)
    @settings(max_examples=60, deadline=None)
    def test_column_sequences_compare_by_their_columns(self, records):
        seq = AssignmentColumns.of(records)
        same = AssignmentColumns(*seq.columns)
        assert same == seq and not same != seq and hash(same) == hash(seq)
        assert same.columns == seq.columns
        if records:
            moved = AssignmentColumns(seq.process_ids, seq.core_ids, seq.starts, (0,) + seq.finishes[1:])
            assert (moved == seq) == (seq.finishes[0] == 0)

    def test_columns_are_tuples(self):
        seq = AssignmentColumns(range(3), [0, 1, 0], iter([0, 0, 2]), (1, 2, 3))
        assert seq.columns == ((0, 1, 2), (0, 1, 0), (0, 0, 2), (1, 2, 3))
        assert all(type(column) is tuple for column in seq.columns)

    def test_columns_of_different_lengths_are_refused(self):
        with pytest.raises(ValueError, match="differ in length"):
            AssignmentColumns((0, 1), (0, 0), (0, 1), (1,))

    def test_a_record_without_four_fields_is_named(self):
        with pytest.raises(ValueError, match=r"assignment \(1, 0, 2\) does not have four fields"):
            AssignmentColumns.of([(0, 0, 0, 1), (1, 0, 2)])

    def test_is_immutable(self):
        seq = AssignmentColumns.of([(0, 0, 0, 1)])
        with pytest.raises(AttributeError):
            seq.starts = (5,)
        with pytest.raises(AttributeError):
            del seq.starts
        with pytest.raises(AttributeError):
            seq.extra = 1
        assert seq.starts == (0,)

    def test_copies_and_pickles_equal(self):
        seq = AssignmentColumns.of([(0, 1, 0, 3), (1, 0, 2, 4)])
        for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
            assert type(twin) is AssignmentColumns and twin == seq

    def test_a_schedule_turns_any_record_sequence_into_columns(self):
        records = (Assignment(0, 0, 0, 4), Assignment(1, 1, 2, 6))
        for given_as in (records, list(records), [tuple(a) for a in records], iter(records)):
            sch = Schedule(assignments=given_as, horizon_ms=8, schedule_makespan_ms=6, wall_time_ms=0.0)
            assert isinstance(sch.assignments, AssignmentColumns)
            assert_reads_as(sch.assignments, records)
        assert Schedule((), 0, 0, 0.0).assignments.columns == ((),) * 4

    def test_dataclasses_replace_keeps_or_converts(self):
        sch = schedule(generate_workload(20, 0.4, seed=2, cores=CoreProfile(3)))
        assert dataclasses.replace(sch, wall_time_ms=0.0).assignments is sch.assignments
        records = records_of(sch.assignments.columns)
        swapped = dataclasses.replace(sch, assignments=records[::-1])
        assert isinstance(swapped.assignments, AssignmentColumns)
        assert_reads_as(swapped.assignments, records[::-1])
        assert dataclasses.replace(swapped, assignments=list(records)) == sch


def workload(attestor: bool):
    return generate_workload(9, 0.45, seed=11, cores=CoreProfile(2), attestor=attestor)


SCHEDULERS = {
    "greedy": lambda w, tmp: schedule(w),
    "strict": lambda w, tmp: schedule(w, Strategy(SortType.MCCF, AssignType.STRICT)),
    "event": lambda w, tmp: schedule(w, Strategy(assign_type=AssignType.EVENT)),
    "loose-0": lambda w, tmp: schedule(w, Strategy(SortType.LCDF, AssignType.LOOSE, 0)),
    "oracle-witness": lambda w, tmp: exact_optimal(w).schedule,
    "loaded": lambda w, tmp: loaded(schedule(w), tmp),
}


def loaded(sch: Schedule, directory) -> Schedule:
    path = directory / "s.json"
    save_schedule(sch, path)
    return load_schedule(path)


@pytest.mark.parametrize("attestor", [False, True], ids=["proposer", "attestor"])
@pytest.mark.parametrize("source", list(SCHEDULERS))
def test_every_schedule_equals_its_record_built_schedule(tmp_path, source, attestor):
    w = workload(attestor)
    sch = SCHEDULERS[source](w, tmp_path)
    rebuilt = record_built(sch)
    assert sch == rebuilt and rebuilt == sch and hash(sch) == hash(rebuilt)
    assert rebuilt.assignments.columns == sch.assignments.columns
    assert_reads_as(sch.assignments, records_of(sch.assignments.columns))
    assert sch.assignments.process_ids == tuple(range(w.n))
    assert validate_schedule(rebuilt, w).ok


def test_the_oracle_search_witness_is_columns():
    # the search beats every incumbent here (36 against 38 ms), so the
    # witness is built from the search's own (pid, core, start, finish) slots
    w = generate_workload(8, 0.45, seed=0, cores=CoreProfile(2))
    result = exact_optimal(w)
    assert result.optimal and result.makespan_ms < schedule(w).schedule_makespan_ms
    assert isinstance(result.schedule.assignments, AssignmentColumns)
    assert validate_schedule(result.schedule, w).ok
    assert result.schedule == record_built(result.schedule)


def test_the_library_pipeline_builds_no_assignment(tmp_path, monkeypatch):
    built = []
    original = AssignmentColumns._records

    def counted(rows):
        return map(lambda row: built.append(row) or row, original(rows))

    monkeypatch.setattr(AssignmentColumns, "_records", staticmethod(counted))
    for attestor in (False, True):
        w = generate_workload(60, 0.35, seed=7, cores=CoreProfile(4), attestor=attestor)
        for strategy in (Strategy(), Strategy(assign_type=AssignType.EVENT)):
            sch = schedule(w, strategy)
            assert validate_schedule(sch, w).ok
            metrics_report(sch, w)
            assert validate_schedule(loaded(sch, tmp_path), w).ok
            # a broken copy is reported entry by entry, from the columns too
            starts = (sch.assignments.starts[0] + 1,) + sch.assignments.starts[1:]
            broken = dataclasses.replace(
                sch, assignments=AssignmentColumns(*sch.assignments.columns[:2], starts, sch.assignments.finishes)
            )
            assert not validate_schedule(broken, w).ok
    one_cell = ExperimentGrid(
        process_counts=(50,), conflict_rates=(0.45,), seeds=(1,), core_counts=(4,),
        strategies=(Strategy(),), modes=("proposer", "attestor"),
    )
    run_grid(one_cell, tmp_path / "grid")
    assert built == []
    # the counter sees records that are read
    assert len(list(sch.assignments)) == len(built) == w.n
