"""Saved files and the CLI's JSON output are byte-identical to ``json.dumps(indent=2)``.

The writer formats the record lists of workloads and schedules from their
int columns with templates instead of `json.dumps`; these tests hold it to
the bytes `json.dumps` would write, on random workloads, schedules and JSON
values. A bool or a float in a record is refused when its columns are
built, so it never reaches the writer.
"""

import dataclasses
import enum
import json
import sys
from collections import OrderedDict

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched.cli import cli
from conflictsched.model import (
    Assignment,
    AssignmentColumns,
    ConflictModel,
    ConflictPair,
    CoreProfile,
    Process,
    Schedule,
    Workload,
    WorkloadValidationError,
    _json_text,
    _workload_to_dict,
    generate_workload,
    load_schedule,
    save_schedule,
    save_workload,
    schedule_to_dict,
)
from conflictsched.scheduler import schedule


class Level(enum.IntEnum):
    HIGH = 7


def dumped(value) -> bytes:
    return (json.dumps(value, indent=2) + "\n").encode("utf-8")


TEXT = st.text(alphabet=st.sampled_from('aé漢"\\\n\t%/ \x00 '), max_size=6)
COSTS = st.sampled_from([0.0, 1.0, 2.0, 1e-300, 5e-324, 0.1, 1e16, 3])
META = st.dictionaries(
    TEXT,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXT, inner, max_size=3),
        max_leaves=8,
    ),
    max_size=4,
)
# values a record field may hold; only the ints may take the template path
FIELDS = st.integers(-(10**20), 10**20) | st.sampled_from([True, False, 2.5, 1.0, Level.HIGH])


@st.composite
def workloads(draw):
    if draw(st.booleans()):
        w = generate_workload(
            draw(st.integers(1, 300)),
            draw(st.floats(0, 0.5)),
            model=draw(st.sampled_from(list(ConflictModel))),
            seed=draw(st.integers(0, 10_000)),
        )
        processes, conflicts = w.processes, w.conflicts
    else:
        n = draw(st.integers(0, 12))
        processes = tuple(Process(i, draw(st.integers(1, 40)), draw(st.integers(1, 10**6))) for i in range(n))
        pairs = draw(st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=30))
        conflicts = tuple(ConflictPair(a, b) for a, b in pairs if a < b < n)
    return Workload(
        processes=processes,
        conflicts=conflicts,
        cores=CoreProfile(draw(st.integers(1, 64)), draw(COSTS), draw(COSTS)),
        attestor=draw(st.booleans()),
        meta=draw(META),
    )


@given(w=workloads())
@settings(max_examples=120, deadline=None)
def test_saved_workload_and_schedule_bytes_equal_json_dumps(tmp_path_factory, w):
    directory = tmp_path_factory.mktemp("bytes")
    save_workload(w, directory / "w.json")
    assert (directory / "w.json").read_bytes() == dumped(_workload_to_dict(w))
    sch = schedule(w)
    save_schedule(sch, directory / "s.json")
    assert (directory / "s.json").read_bytes() == dumped(schedule_to_dict(sch))


@given(fields=st.tuples(FIELDS, FIELDS, FIELDS), wall=st.sampled_from([0.0, 1e-9, 12.5, 3]))
@settings(max_examples=60, deadline=None)
def test_an_assignment_field_that_is_not_an_int_is_refused(tmp_path_factory, fields, wall):
    # every column sequence holds ints: a bool or a float in an assignment
    # is named when its columns are built, so the writer never sees one.
    # An int subclass is an int, and is written by its value
    records = (Assignment(0, 0, 0, 1), Assignment(1, *fields))
    bad = next(
        ((key, value) for key, value in zip(("coreId", "startMs", "finishMs"), fields) if type(value) in (bool, float)),
        None,
    )
    if bad is None:
        sch = Schedule(records, 3, 4, wall)
        assert isinstance(sch.assignments, AssignmentColumns)
        directory = tmp_path_factory.mktemp("ints")
        save_schedule(sch, directory / "s.json")
        assert (directory / "s.json").read_bytes() == dumped(schedule_to_dict(sch))
        return
    builds = {
        "constructor": lambda: AssignmentColumns(*zip(*records)),
        "of": lambda: AssignmentColumns.of(records),
        "schedule": lambda: Schedule(records, 3, 4, wall),
        "replaced": lambda: dataclasses.replace(Schedule((), 0, 0, wall), assignments=list(records)),
    }
    for name, build in builds.items():
        with pytest.raises(WorkloadValidationError) as exc_info:
            build()
        assert str(exc_info.value) == f"assignments[1].{bad[0]} must be an integer, got {bad[1]!r}", name


@pytest.mark.parametrize("wall", [3, 0, 2.5, 3.0], ids=["int", "zero", "float", "whole-float"])
def test_a_schedule_file_keeps_its_wall_time_through_a_load_and_save(tmp_path, wall):
    # the loader keeps wallTimeMs as written, so 3 is not written back as 3.0
    w = generate_workload(12, 0.4, seed=4)
    text = dumped(schedule_to_dict(dataclasses.replace(schedule(w), wall_time_ms=wall)))
    (tmp_path / "s.json").write_bytes(text)
    loaded = load_schedule(tmp_path / "s.json")
    assert type(loaded.wall_time_ms) is type(wall)
    save_schedule(loaded, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == text


@pytest.mark.parametrize(
    "wall,message",
    [
        ("-5", "wallTimeMs must be >= 0"),
        ("-0.5", "wallTimeMs must be >= 0"),
        ("-Infinity", "wallTimeMs must be >= 0"),
        ("Infinity", "wallTimeMs must be finite, got inf"),
        ("NaN", "wallTimeMs must be finite, got nan"),
    ],
)
def test_a_schedule_file_with_a_negative_or_non_finite_wall_time_is_refused(tmp_path, wall, message):
    # a wall time is a measured duration, and speedup_total adds it to the makespan
    payload = schedule_to_dict(schedule(generate_workload(12, 0.4, seed=4))) | {"wallTimeMs": 0.5}
    text = json.dumps(payload).replace('"wallTimeMs": 0.5', f'"wallTimeMs": {wall}')
    (tmp_path / "s.json").write_text(text, encoding="utf-8")
    with pytest.raises(WorkloadValidationError) as exc_info:
        load_schedule(tmp_path / "s.json")
    assert str(exc_info.value) == message


def test_empty_workload_and_schedule_bytes(tmp_path):
    w = Workload(processes=(), conflicts=(), cores=CoreProfile(1), meta={})
    save_workload(w, tmp_path / "w.json")
    assert (tmp_path / "w.json").read_bytes() == dumped(_workload_to_dict(w))
    sch = schedule(w)
    save_schedule(sch, tmp_path / "s.json")
    assert (tmp_path / "s.json").read_bytes() == dumped(schedule_to_dict(sch))


RECORD_LISTS = st.integers(0, 3).flatmap(
    lambda width: st.lists(st.lists(FIELDS, min_size=width, max_size=width), max_size=6)
) | st.lists(st.dictionaries(TEXT, FIELDS, max_size=3), max_size=6) | st.lists(
    st.integers(), max_size=3
)


@given(value=st.dictionaries(TEXT, RECORD_LISTS | META, max_size=4) | RECORD_LISTS | META)
@settings(max_examples=300, deadline=None)
def test_json_text_equals_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        # the shapes of the block files, with keys that need escaping
        {"r": [{"a%d": 1, "é\n": -2, '"': Level.HIGH}] * 3, "p": [[0, 1], [2, 10**30]]},
        # shapes that must take the fallback path
        {"order": [{"x": 1, "y": 2}, {"y": 1, "x": 2}]},
        {"keys": [{"x": 1, "y": 2}, {"x": 1}, {"y": 2, "x": 3}, {"z": 4}]},
        {"width": [[1, 2], [3]], "nested": [[[1]]], "tuple": [(1, 2)], "none": [[None]]},
        {"empty": [], "objects": [{}], "lists": [[]], "ordered": [OrderedDict(x=1)]},
        {1: [[1]], "s": {"k": [[1]]}},
        OrderedDict(a=[[1]]),
        [[1, 2], [3, 4]],
    ],
)
def test_json_text_on_edge_shapes(value):
    assert _json_text(value) == json.dumps(value, indent=2)


def test_json_text_nests_as_deep_as_json_dumps():
    # a file's meta may nest as deep as json.loads reads, and is written back
    value = [[1, 2]]
    for _ in range(sys.getrecursionlimit() - 200):
        value = {"a": value}
    assert _json_text(value) == json.dumps(value, indent=2)


def printed_json(out: str) -> str:
    """The JSON document of a stdout, checked to be json.dumps' own text."""
    text = out[: out.rindex("}") + 1]
    assert text == json.dumps(json.loads(text), indent=2)
    return text


def test_schedule_and_oracle_stdout_are_json_dumps_text(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    cli(["generate", "--n", "8", "--rate", "0.4", "--seed", "3", "--out", str(wpath)])
    capsys.readouterr()
    assert cli(["schedule", "--workload", str(wpath)]) == 0
    out = capsys.readouterr().out
    text = printed_json(out)
    assert out[len(text):].startswith("\nmakespan=")
    assert cli(["oracle", "--workload", str(wpath)]) == 0
    out = capsys.readouterr().out
    assert out == printed_json(out) + "\n"
