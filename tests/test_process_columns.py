"""`Workload.processes`: three int columns that read as the tuple of their processes.

A workload keeps its processes as id, time and op-count columns and builds
a `Process` record only when one is read. These tests hold the column
sequence to the tuple of records it stands for, check that every way of
giving a workload the same processes gives the same workload and the same
file bytes, or the same message for a bad field, and check that the
library's own pipeline reads the columns without building any record.
"""

import copy
import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched import (
    AssignType,
    ConflictModel,
    CoreProfile,
    ExperimentGrid,
    Strategy,
    exact_optimal,
    generate_workload,
    load_workload,
    metrics_report,
    run_grid,
    save_workload,
    schedule,
    validate_schedule,
)
from conflictsched.model import Process, ProcessColumns, Workload, WorkloadValidationError

KEYS = ("id", "execTimeMs", "opCount")


def test_reads_as_the_tuple_of_its_records():
    records = (Process(0, 4, 4000), Process(1, 2, 2000), Process(2, 9, 9000))
    seq = ProcessColumns.of(records)
    assert seq.columns == ((0, 1, 2), (4, 2, 9), (4000, 2000, 9000))
    assert (seq.ids, seq.exec_times, seq.op_counts) == seq.columns
    assert len(seq) == 3 and seq == records and records == seq
    assert hash(seq) == hash(records) and repr(seq) == repr(records)
    assert all(seq[i] == records[i] and type(seq[i]) is Process for i in range(-3, 3))
    assert list(seq) == list(records) and seq[1].exec_time_ms == 2
    assert type(seq[1:]) is ProcessColumns and seq[1:] == records[1:]
    assert seq != records[:-1] and seq != list(records)
    for twin in (copy.copy(seq), copy.deepcopy(seq), pickle.loads(pickle.dumps(seq))):
        assert type(twin) is ProcessColumns and twin == seq
    with pytest.raises(AttributeError):
        seq.ids = (5,)
    assert ProcessColumns() == ProcessColumns.of([]) == ()


@pytest.mark.parametrize(
    "record,message",
    [
        ([0, 1, 1], "process [0, 1, 1] is not a tuple"),
        ((0, 1), "process (0, 1) does not have three fields"),
    ],
    ids=["list", "two-fields"],
)
def test_a_record_that_is_not_a_process_is_named(record, message):
    with pytest.raises(WorkloadValidationError) as exc_info:
        Workload((Process(0, 1, 1), record), (), CoreProfile(2))
    assert str(exc_info.value) == message


def test_columns_of_different_lengths_or_a_missing_column_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        ProcessColumns((0, 1), (1, 1), (1,))
    with pytest.raises(TypeError, match="ProcessColumns takes 3 columns, got 2"):
        ProcessColumns((0, 1), (1, 1))


# a bad field: (position, field index, value) and the message every form names
BAD_FIELDS = [
    (1, 1, 2.5, "processes[1].execTimeMs must be an integer, got 2.5"),
    (1, 2, True, "processes[1].opCount must be an integer, got True"),
    (1, 0, 1.0, "processes[1].id must be an integer, got 1.0"),
    (0, 1, "x", "processes[0].execTimeMs must be an integer, got 'x'"),
    (1, 1, 0, "processes[1].execTimeMs must be >= 1, got 0"),
    (0, 2, -3, "processes[0].opCount must be >= 1, got -3"),
    (1, 0, -2, "process id must be >= 0, got -2"),
    (1, 0, 2, "processes[1].id is 2; ids must be 0..n-1 in order"),
]


def written(directory, name: str, records, cores) -> bytes:
    """The bytes `save_workload` writes for ``records`` on ``cores``."""
    path = directory / name
    save_workload(Workload(records, (), cores), path)
    return path.read_bytes()


def file_of(directory, records) -> Workload:
    """`load_workload` of a file that lists ``records`` as JSON objects."""
    path = directory / "given.json"
    payload = {
        "processes": [dict(zip(KEYS, record)) for record in records],
        "conflicts": [],
        "cores": {"count": 2, "costPerOp": 0.5, "costPerIdleMs": 0.25},
        "attestor": False,
        "meta": {},
    }
    path.write_text(json.dumps(payload), encoding="utf-8")
    return load_workload(path)


@given(
    fields=st.lists(st.tuples(st.integers(1, 40), st.integers(1, 10**6)), min_size=2, max_size=12),
    bad=st.none() | st.sampled_from(BAD_FIELDS),
)
@settings(max_examples=150, deadline=None)
def test_every_form_of_the_same_processes_gives_the_same_workload(tmp_path_factory, fields, bad):
    cores = CoreProfile(2, 0.5, 0.25)
    records = [Process(i, t, ops) for i, (t, ops) in enumerate(fields)]
    if bad is not None:
        position, index, value, _ = bad
        records[position] = Process(*records[position][:index], value, *records[position][index + 1:])
    records = tuple(records)
    n = len(records)
    # a valid workload of n processes
    other = Workload(tuple(Process(i, 1, 1) for i in range(n)), (), cores)
    directory = tmp_path_factory.mktemp("forms")
    forms = {
        "records": lambda: Workload(records, (), cores),
        "tuples": lambda: Workload(tuple(map(tuple, records)), (), cores),
        "list": lambda: Workload(list(records), (), cores),
        "columns": lambda: Workload(ProcessColumns(*zip(*records)), (), cores),
        "of": lambda: Workload(ProcessColumns.of(iter(records)), (), cores),
        "replaced": lambda: dataclasses.replace(other, processes=records),
        "file": lambda: file_of(directory, records),
    }
    if bad is None:
        reference = Workload(ProcessColumns._of_proved(*zip(*records)), (), cores)
        forms |= {
            "slice": lambda: Workload(ProcessColumns.of(records + (Process(n, 1, 1),))[:n], (), cores),
            "pickled": lambda: Workload(pickle.loads(pickle.dumps(reference.processes)), (), cores),
            "copied": lambda: dataclasses.replace(reference),
        }
    results = {}
    for name, make in forms.items():
        try:
            results[name] = make()
        except WorkloadValidationError as exc:
            results[name] = str(exc)
    if bad is not None:
        assert set(results.values()) == {bad[3]}, results
        return
    expected = written(directory, "reference.json", records, cores)
    for name, w in results.items():
        assert w == reference, name
        assert type(w.processes) is ProcessColumns, name
        assert w.processes.columns == reference.processes.columns, name
        assert all(type(column) is tuple for column in w.processes.columns), name
        assert written(directory, f"{name}.json", w.processes, cores) == expected, name
        assert w.exec_times() == tuple(t for t, _ in fields)
        assert w.process_ids() == tuple(range(n))


def test_the_library_pipeline_builds_no_process(tmp_path, monkeypatch):
    paths = []
    for k, attestor in enumerate((False, True)):
        for model in ConflictModel:
            paths.append(tmp_path / f"w-{k}-{model.value}.json")
            rate = 0.45 if model is ConflictModel.PARTICIPATION else 0.2
            save_workload(generate_workload(60, rate, model=model, seed=4, cores=CoreProfile(4, 0.5, 0.25), attestor=attestor), paths[-1])
    built = []
    original = ProcessColumns._records

    def counted(rows):
        return map(lambda row: built.append(row) or row, original(rows))

    monkeypatch.setattr(ProcessColumns, "_records", staticmethod(counted))
    for path in paths:
        w = load_workload(path)
        for strategy in (Strategy(), Strategy(assign_type=AssignType.EVENT)):
            sch = schedule(w, strategy)
            assert validate_schedule(sch, w).ok
            assert metrics_report(sch, w).pce > 0
        save_workload(w, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
    assert exact_optimal(generate_workload(9, 0.45, seed=11, cores=CoreProfile(2))).optimal
    one_cell = ExperimentGrid(
        process_counts=(50,), conflict_rates=(0.45,), seeds=(1,), core_counts=(4,),
        strategies=(Strategy(),), modes=("proposer", "attestor"),
    )
    run_grid(one_cell, tmp_path / "grid")
    assert built == []
    # the counter sees records that are read
    assert w.processes[3] == Process(3, w.processes.exec_times[3], w.processes.op_counts[3])
    assert len(built) == 1
