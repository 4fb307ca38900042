"""Every way into a column sequence names its first bad record, in order.

`ProcessColumns`, `ConflictColumns` and `AssignmentColumns` each prove a
record by one rule, which `of`, the constructor and the file reader run in
one loop each. The reference here walks the records one at a time and says
which is the first bad one and what its message is; every way in must raise
exactly that message, or build the reference's columns, whatever is wrong
with a later record.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched.model import (
    Assignment,
    AssignmentColumns,
    ConflictColumns,
    ConflictPair,
    Process,
    ProcessColumns,
    WorkloadValidationError,
    _load_columns,
)

# per class: its record type, how a message names a record and its width,
# and the file list and keys of a record (None: the file holds no objects)
SHAPES = {
    ProcessColumns: (Process, "process", "three fields", "processes", ("id", "execTimeMs", "opCount")),
    ConflictColumns: (ConflictPair, "conflict pair", "two ids", None, None),
    AssignmentColumns: (
        Assignment, "assignment", "four fields", "assignments", ("processId", "coreId", "startMs", "finishMs"),
    ),
}

GOOD = {
    ProcessColumns: st.tuples(st.integers(0, 50), st.integers(1, 20), st.integers(1, 20_000)),
    ConflictColumns: st.tuples(st.integers(-3, 50), st.integers(-3, 50)),
    AssignmentColumns: st.tuples(*[st.integers(-3, 50)] * 4),
}

# what can be wrong with one record; the last three only with a process
KINDS = ["not a tuple", "wrong width", "not an integer"]
PROCESS_RANGES = {"negative id": 0, "zero time": 1, "zero op count": 2}


def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def field_error(cls, position: int, record):
    """The message for the first bad field of a record of the right width, or None."""
    if cls is ConflictColumns:
        return None if all(map(is_int, record)) else f"conflict pair {record!r} must hold two integer ids"
    _, _, _, name, keys = SHAPES[cls]
    for key, value in zip(keys, record):
        if not is_int(value):
            return f"{name}[{position}].{key} must be an integer, got {value!r}"
    if cls is ProcessColumns:
        pid, time_ms, ops = record
        if pid < 0:
            return f"process id must be >= 0, got {pid}"
        if time_ms < 1:
            return f"processes[{pid}].execTimeMs must be >= 1, got {time_ms}"
        if ops < 1:
            return f"processes[{pid}].opCount must be >= 1, got {ops}"
    return None


def reference(cls, records):
    """What `of` gives for the records: the first bad one's message, or the columns."""
    _, noun, width_words, _, _ = SHAPES[cls]
    width = len(cls._fields)
    for position, record in enumerate(records):
        if not isinstance(record, tuple):
            return f"{noun} {record!r} is not a tuple"
        if len(record) != width:
            return f"{noun} {record!r} does not have {width_words}"
        error = field_error(cls, position, record)
        if error:
            return error
    return tuple(zip(*records)) or ((),) * width


def file_reference(cls, entries):
    """What the file reader gives for the entries: the first bad one's message, or the columns."""
    _, _, _, name, keys = SHAPES[cls]
    for position, entry in enumerate(entries):
        where = f"{name}[{position}]"
        if not isinstance(entry, dict):
            return f"{where} must be an object"
        if set(entry) - set(keys):
            return f"{where} has unknown keys: {sorted(set(entry) - set(keys))}"
        if set(keys) - set(entry):
            return f"{where} is missing keys: {sorted(set(keys) - set(entry))}"
        error = field_error(cls, position, tuple(entry[key] for key in keys))
        if error:
            return error
    return tuple(zip(*([entry[key] for key in keys] for entry in entries))) or ((),) * len(keys)


@st.composite
def records_with_bad_ones(draw, cls):
    """Good records of ``cls`` with up to two bad ones of different kinds, anywhere."""
    record_type = SHAPES[cls][0]
    records = draw(st.lists(GOOD[cls], max_size=12))
    kinds = KINDS + (list(PROCESS_RANGES) if cls is ProcessColumns else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=2, unique=True)):
        record = draw(GOOD[cls])
        if kind == "not a tuple":
            bad = draw(st.sampled_from([list(record), 7, None, "x"]))
        elif kind == "wrong width":
            bad = draw(st.sampled_from([record[:-1], record + (0,)]))
        else:
            if kind == "not an integer":
                index = draw(st.integers(0, len(record) - 1))
                value = draw(st.sampled_from([1.5, True, False, "1"]))
            else:
                index = PROCESS_RANGES[kind]
                value = draw(st.integers(-5, -1)) if kind == "negative id" else 0
            bad = record[:index] + (value,) + record[index + 1:]
            # a record given as the record type is named as one
            if draw(st.booleans()):
                bad = record_type(*bad)
        records.insert(draw(st.integers(0, len(records))), bad)
    return records


def as_entry(cls, record):
    """The record as a file holds it: an object of its keys, or as it is if not a tuple."""
    keys = SHAPES[cls][4]
    if not isinstance(record, tuple):
        return record
    entry = dict(zip(keys, record))
    if len(record) > len(keys):
        entry["extra"] = record[-1]
    return entry


def outcome(make):
    """The columns ``make()`` builds, or the message it raises."""
    try:
        return make().columns
    except WorkloadValidationError as exc:
        return str(exc)


@given(cls=st.sampled_from(list(SHAPES)), data=st.data())
@settings(max_examples=400, deadline=None)
def test_every_way_in_names_the_first_bad_record_as_the_reference_does(cls, data):
    record_type, _, _, name, keys = SHAPES[cls]
    records = data.draw(records_with_bad_ones(cls))
    assert outcome(lambda: cls.of(records)) == reference(cls, records)
    width = len(cls._fields)
    if all(isinstance(record, tuple) and len(record) == width for record in records):
        # the constructor names a bad row as the record it stands for
        as_records = [record_type(*record) for record in records]
        assert outcome(lambda: cls(*zip(*records))) == reference(cls, as_records)
    if keys is not None:
        entries = [as_entry(cls, record) for record in records]
        # and one object with the right number of keys, one of them renamed
        renamed = dict(zip(keys, data.draw(GOOD[cls])))
        key = data.draw(st.sampled_from(keys))
        renamed[key.upper()] = renamed.pop(key)
        entries.insert(data.draw(st.integers(0, len(entries))), renamed)
        entries = json.loads(json.dumps(entries))
        assert outcome(lambda: _load_columns({name: entries}, cls)) == file_reference(cls, entries)


@pytest.mark.parametrize(
    "cls,records,message",
    [
        (ProcessColumns, [Process(0, 1, 1), (1, 2), [2, 1, 1]], "process (1, 2) does not have three fields"),
        (ConflictColumns, [(0, 1), (0.0, 1), [2, 3]], "conflict pair (0.0, 1) must hold two integer ids"),
        (AssignmentColumns, [(0, 0, 0, 1), (1, 0, 1), 7], "assignment (1, 0, 1) does not have four fields"),
    ],
    ids=["process", "conflict-pair", "assignment"],
)
def test_of_names_a_bad_record_before_a_later_one_that_is_not_a_tuple(cls, records, message):
    with pytest.raises(WorkloadValidationError) as exc_info:
        cls.of(records)
    assert str(exc_info.value) == message
