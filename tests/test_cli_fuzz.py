"""Malformed, truncated and mistyped input files through the CLI.

Every file must end in an exit code (0 valid, 1 violations, 2 named error),
never in a traceback. Workloads stay at 8 processes or fewer and the oracle
runs with a small node budget, so each example takes milliseconds.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched.cli import cli
from conflictsched.model import CoreProfile, generate_workload, save_workload, schedule_to_dict
from conflictsched.scheduler import schedule

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 20)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def paths(value, prefix=()):
    """Every path below a JSON value; list positions are ints."""
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


def pick(doc, data):
    """Draw a node's path, or None for an empty document.

    First a field (the path with list positions blanked out), then one node
    of that field, so that a process's ``opCount`` is hit about as often as
    ``cores.count`` although there are many more of it.
    """
    fields = {}
    for path in paths(doc):
        fields.setdefault(tuple("*" if type(k) is int else k for k in path), []).append(path)
    if not fields:
        return None
    return data.draw(st.sampled_from(fields[data.draw(st.sampled_from(sorted(fields)))]))


def mutate(doc, data):
    """Return the text of ``doc`` after a few random edits, maybe truncated or replaced."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = pick(doc, data)
        if path is None:
            break
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        edit = data.draw(st.sampled_from(["retype", "retype", "nudge", "nudge", "drop", "add"]))
        if edit == "retype":
            parent[key] = data.draw(JSON_VALUES)
        elif edit == "nudge" and type(parent[key]) is int:
            # well-typed but wrong: a time, id, core or makespan off by a little
            parent[key] += data.draw(st.integers(-8, 8))
        elif edit == "drop":
            del parent[key]
        elif edit == "add" and isinstance(parent, dict):
            parent[data.draw(st.text(max_size=6))] = data.draw(JSON_VALUES)
        elif edit == "add":
            parent.append(data.draw(JSON_VALUES))
    text = json.dumps(doc, indent=2)
    ending = data.draw(st.sampled_from(["whole", "whole", "whole", "truncated", "replaced"]))
    if ending == "truncated":
        return text[: data.draw(st.integers(0, len(text) - 1))]
    if ending == "replaced":
        return data.draw(st.text(max_size=40) | JSON_VALUES.map(json.dumps))
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli(argv)
    return status, err.getvalue()


@given(
    n=st.integers(1, 8),
    rate=st.sampled_from([0.0, 0.3, 0.7]),
    m=st.integers(1, 4),
    attestor=st.booleans(),
    seed=st.integers(0, 50),
    target=st.sampled_from(["workload", "schedule", "both"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_malformed_files_end_in_an_exit_code(n, rate, m, attestor, seed, target, data):
    w = generate_workload(n, rate, seed=seed, cores=CoreProfile(m, 0.5, 0.25), attestor=attestor)
    with tempfile.TemporaryDirectory() as tmp:
        wpath, spath = Path(tmp) / "w.json", Path(tmp) / "s.json"
        # an empty meta: its free-form fields would take a third of the edits
        save_workload(dataclasses.replace(w, meta={}), wpath)
        # a fixed wall time keeps the file, and so the drawn mutation, reproducible
        spath.write_text(json.dumps(schedule_to_dict(schedule(w)) | {"wallTimeMs": 0.5}))
        if target != "schedule":
            wpath.write_text(mutate(json.loads(wpath.read_text()), data))
        if target != "workload":
            spath.write_text(mutate(json.loads(spath.read_text()), data))
        for argv in (
            ["schedule", "--workload", str(wpath)],
            ["validate", "--workload", str(wpath), "--schedule", str(spath)],
            ["oracle", "--workload", str(wpath), "--budget", "500"],
        ):
            status, err = run(argv)
            assert status in (0, 1, 2), argv
            assert "Traceback" not in err
            assert (status == 2) == err.startswith("error: "), (argv, err)
