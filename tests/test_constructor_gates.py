"""The constructors are the only gate: every value the library builds saves a file it reads.

`Workload` and `Schedule` prove every field when they are built, so a value
refused in a file is refused as well in a call, in a `dataclasses.replace`
copy and in `with_attestor`, with one message; and a value that builds is
saved and loaded back equal. A ``cores`` that is not a `CoreProfile`, which
no file can hold, is refused by the constructor, `dataclasses.replace`,
`with_cores` and `generate_workload` alike. A ``meta`` must hold only
what `json.loads` yields; only the constructor proves that, since the
`with_cores`/`with_attestor` copies keep their workload's ``meta``.
"""

import dataclasses
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conflictsched.model
from conflictsched.model import (
    CoreProfile,
    Process,
    Schedule,
    Workload,
    WorkloadValidationError,
    _workload_to_dict,
    generate_workload,
    load_schedule,
    load_workload,
    save_schedule,
    save_workload,
    schedule_to_dict,
)
from conflictsched.scheduler import schedule

WORKLOAD = generate_workload(12, 0.4, seed=4, cores=CoreProfile(2, 0.5, 0.25))
SCHEDULE = schedule(WORKLOAD)

# (class, field, file key, bad value, message); no file key for a value no file holds
BAD_VALUES = [
    (Workload, "cores", None, 3, "cores must be a CoreProfile"),
    (Workload, "attestor", "attestor", 1, "attestor must be a boolean"),
    (Workload, "attestor", "attestor", "no", "attestor must be a boolean"),
    (Workload, "meta", "meta", [], "meta must be an object"),
    (Schedule, "horizon_ms", "horizonMs", 3.5, "horizonMs must be an integer, got 3.5"),
    (Schedule, "schedule_makespan_ms", "scheduleMakespanMs", True,
     "scheduleMakespanMs must be an integer, got True"),
    (Schedule, "wall_time_ms", "wallTimeMs", -5.0, "wallTimeMs must be >= 0"),
    (Schedule, "wall_time_ms", "wallTimeMs", math.nan, "wallTimeMs must be finite, got nan"),
]


def refusal(build) -> str:
    with pytest.raises(WorkloadValidationError) as exc_info:
        build()
    return str(exc_info.value)


@pytest.mark.parametrize(
    "cls,name,key,value,message",
    BAD_VALUES,
    ids=["int-cores", "int-attestor", "string-attestor", "list-meta", "float-horizon", "bool-makespan",
         "negative-wall", "nan-wall"],
)
def test_a_bad_field_is_refused_by_the_constructor_and_the_reader_alike(tmp_path, cls, name, key, value, message):
    good = WORKLOAD if cls is Workload else SCHEDULE
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(cls)}
    builds = {
        "constructor": lambda: cls(**{**fields, name: value}),
        "replace": lambda: dataclasses.replace(good, **{name: value}),
    }
    if name == "attestor":
        builds["with_attestor"] = lambda: WORKLOAD.with_attestor(value)
    path = tmp_path / "file.json"
    if key is None:
        # a workload file's reader always builds a `CoreProfile`
        builds["with_cores"] = lambda: WORKLOAD.with_cores(value)
        builds["generate_workload"] = lambda: generate_workload(5, 0.5, cores=value)
    elif cls is Workload:
        path.write_text(json.dumps(_workload_to_dict(WORKLOAD) | {key: value}), encoding="utf-8")
        builds["reader"] = lambda: load_workload(path)
    else:
        path.write_text(json.dumps(schedule_to_dict(SCHEDULE) | {key: value}), encoding="utf-8")
        builds["reader"] = lambda: load_schedule(path)
    for how, build in builds.items():
        assert refusal(build) == message, how


@pytest.mark.parametrize(
    "meta,message",
    [
        ({"s": {1}}, "meta must hold only JSON values, got {1}"),
        ({1: 2}, "meta keys must be strings, got 1"),
        ({"t": (1, 2)}, "meta must hold only JSON values, got (1, 2)"),
        ({"a": [1, {"b": [None, b"x"]}]}, "meta must hold only JSON values, got b'x'"),
        ({"a": [{"ok": 1, True: 2}]}, "meta keys must be strings, got True"),
    ],
    ids=["set-value", "int-key", "tuple-value", "nested-bytes", "nested-bool-key"],
)
def test_a_meta_that_is_not_json_data_is_refused(meta, message):
    # a set does not save, and an int key or a tuple loads back as a string or a list
    fields = {f.name: getattr(WORKLOAD, f.name) for f in dataclasses.fields(Workload)}
    assert refusal(lambda: Workload(**{**fields, "meta": meta})) == message
    assert refusal(lambda: dataclasses.replace(WORKLOAD, meta=meta)) == message


def test_a_meta_that_holds_itself_is_named():
    meta = {"a": []}
    meta["a"].append(meta)
    assert refusal(lambda: dataclasses.replace(WORKLOAD, meta=meta)) == "meta nests arrays or objects too deeply"


def test_generated_and_loaded_meta_pass_and_copies_do_not_prove_it_again(tmp_path):
    nested = {
        "run": {"tags": ["a", 1, 2.5, None, True, -3], "grid": [[1, 2], {"k": [], "v": {}}]},
        "note": "",
        "inf": math.inf,
    }
    path = tmp_path / "w.json"
    path.write_text(json.dumps(_workload_to_dict(WORKLOAD) | {"meta": nested}), encoding="utf-8")
    with mock.patch.object(
        conflictsched.model, "_require_json_data", wraps=conflictsched.model._require_json_data
    ) as proof:
        generated = generate_workload(30, 0.4, seed=2)
        loaded = load_workload(path)
        assert proof.call_count > 0
        proof.reset_mock()
        # the copies keep their workload's meta, so they do not walk it
        loaded.with_cores(CoreProfile(5)).with_attestor(True)
        generated.with_attestor(True).with_cores(CoreProfile(3))
        assert proof.call_count == 0
    assert loaded.meta == nested
    save_workload(loaded, tmp_path / "again.json")
    assert load_workload(tmp_path / "again.json") == loaded
    assert generated.meta["conflictModel"] == "PARTICIPATION"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
INTS = st.integers(-(10**12), 10**12)
# a cost or a wall time: an int or a float, finite and >= 0
MEASURES = st.integers(0, 10**6) | st.floats(0, 1e300)
NOT_MEASURES = st.sampled_from([-5.0, -1, -math.inf, math.inf, math.nan, 10**400, True, None, "1", [0]])
NOT_A_PROFILE = "cores must be a CoreProfile"
# what a file's reader says of the same value, where the constructor's message is not one it gives
FILE_MESSAGES = {NOT_A_PROFILE: "cores must be an object"}


def mostly(valid, bad):
    """Draws from ``valid``, and one time in eight from ``bad``."""
    return st.integers(0, 7).flatmap(lambda k: bad if k == 0 else valid)


@st.composite
def workload_fields(draw):
    n = draw(st.integers(0, 10))
    pairs = draw(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
    return {
        "processes": [(i, draw(st.integers(1, 40)), draw(st.integers(1, 10**6))) for i in range(n)],
        # canonical pairs in any order, repeats included: the constructor sorts and dedupes
        "conflicts": [(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n],
        # a profile's fields, or a value that is not one, which a file writes as a non-object
        "cores": draw(mostly(
            st.tuples(st.integers(1, 64), mostly(MEASURES, NOT_MEASURES), mostly(MEASURES, NOT_MEASURES)),
            JSON_VALUES.filter(lambda v: not isinstance(v, dict)),
        )),
        "attestor": draw(mostly(st.booleans(), JSON_VALUES.filter(lambda v: not isinstance(v, bool)))),
        "meta": draw(mostly(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=4),
                            JSON_VALUES.filter(lambda v: not isinstance(v, dict)))),
    }


NOT_INTS = st.floats() | st.sampled_from([True, False, None, "3", [3]])


@st.composite
def schedule_fields(draw):
    return {
        "assignments": draw(st.lists(st.tuples(INTS, INTS, INTS, INTS), max_size=8)),
        "horizonMs": draw(mostly(INTS, NOT_INTS)),
        "scheduleMakespanMs": draw(mostly(INTS, NOT_INTS)),
        "wallTimeMs": draw(mostly(MEASURES, NOT_MEASURES)),
    }


def build_workload(fields):
    cores = fields["cores"]
    if isinstance(cores, tuple):
        cores = CoreProfile(*cores)
    return Workload(fields["processes"], fields["conflicts"], cores, fields["attestor"], fields["meta"])


def workload_text(fields):
    return json.dumps({
        "processes": [dict(zip(("id", "execTimeMs", "opCount"), p)) for p in fields["processes"]],
        "conflicts": fields["conflicts"],
        "cores": (dict(zip(("count", "costPerOp", "costPerIdleMs"), fields["cores"]))
                  if isinstance(fields["cores"], tuple) else fields["cores"]),
        "attestor": fields["attestor"],
        "meta": fields["meta"],
    })


def build_schedule(fields):
    return Schedule(*fields.values())


def schedule_text(fields):
    keys = ("processId", "coreId", "startMs", "finishMs")
    return json.dumps(fields | {"assignments": [dict(zip(keys, a)) for a in fields["assignments"]]})


@pytest.mark.parametrize(
    "strategy,build,text,save,load",
    [
        (workload_fields(), build_workload, workload_text, save_workload, load_workload),
        (schedule_fields(), build_schedule, schedule_text, save_schedule, load_schedule),
    ],
    ids=["workload", "schedule"],
)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_every_built_value_saves_a_file_that_loads_back_equal(tmp_path_factory, strategy, build, text, save, load, data):
    fields = data.draw(strategy)
    path = tmp_path_factory.mktemp("gates") / "file.json"
    try:
        value = build(fields)
    except WorkloadValidationError as exc:
        # the file of the same fields is refused with the same message
        path.write_text(text(fields), encoding="utf-8")
        assert refusal(lambda: load(path)) == FILE_MESSAGES.get(str(exc), str(exc))
        return
    save(value, path)
    loaded = load(path)
    assert loaded == value
    if isinstance(value, Workload):
        assert type(loaded.cores.cost_per_op) is type(value.cores.cost_per_op)
    else:
        assert type(loaded.wall_time_ms) is type(value.wall_time_ms)
