"""Command-line interface: subcommands, exit codes, output contracts."""

import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conflictsched.bench
import conflictsched.cli
from conflictsched.bench import ExperimentGrid
from conflictsched.cli import cli
from conflictsched.model import (
    DEFAULT_CONFLICT_MODEL,
    DEFAULT_CORE_COUNT,
    ConflictModel,
    generate_workload,
    load_workload,
    save_workload,
)
from conflictsched.oracle import DEFAULT_NODE_BUDGET, exact_optimal
from conflictsched.scheduler import DEFAULT_STRATEGY


def run(argv, capsys):
    status = cli(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_generate_schedule_validate_pipeline(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    status, out, _ = run(
        ["generate", "--n", "60", "--rate", "0.3", "--seed", "1", "--cores", "4",
         "--out", str(wpath)],
        capsys,
    )
    assert status == 0
    assert wpath.exists()

    status, out, _ = run(
        ["schedule", "--workload", str(wpath), "--out", str(spath)], capsys
    )
    assert status == 0
    assert "makespan=" in out
    payload = json.loads(spath.read_text())
    assert set(payload) == {"assignments", "horizonMs", "scheduleMakespanMs", "wallTimeMs"}
    assert set(payload["assignments"][0]) == {"processId", "coreId", "startMs", "finishMs"}

    status, out, _ = run(
        ["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys
    )
    assert status == 0
    assert "valid" in out


@pytest.mark.parametrize("module", ["conflictsched", "conflictsched.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    # the package and its cli module both run as `python -m`, with the
    # console script's exit codes
    src = str(Path(conflictsched.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True)

    wpath = tmp_path / "w.json"
    done = run_module("generate", "--n", "8", "--rate", "0.5", "--seed", "1", "--out", str(wpath))
    assert done.returncode == 0, done.stderr
    assert load_workload(wpath).n == 8
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    done = run_module("schedule", "--workload", str(bad))
    assert done.returncode == 2
    assert done.stderr.startswith("error: workload is missing keys: ")


def test_validate_exits_one_on_violation(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(wpath)], capsys)
    run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    payload = json.loads(spath.read_text())
    payload["assignments"][0]["startMs"] += 1  # breaks finish = start + time
    spath.write_text(json.dumps(payload))
    status, out, _ = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 1
    assert "COMPLETENESS" in out or "C1" in out or "C2" in out


def test_validate_exits_one_on_false_makespan(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(wpath)], capsys)
    run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    payload = json.loads(spath.read_text())
    latest = payload["scheduleMakespanMs"]
    payload["scheduleMakespanMs"] = 1
    spath.write_text(json.dumps(payload))
    status, out, _ = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 1
    assert f"schedule makespan 1 != latest finish {latest}" in out


def test_validate_exits_one_on_false_horizon(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(wpath)], capsys)
    run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    payload = json.loads(spath.read_text())
    total = payload["horizonMs"]
    payload["horizonMs"] = 10**9
    spath.write_text(json.dumps(payload))
    status, out, _ = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 1
    assert out == (
        f"COMPLETENESS: schedule horizon 1000000000 != total execution time {total}\n"
        "1 violation(s)\n"
    )


@pytest.mark.parametrize(
    "corrupt,field",
    [
        (lambda payload: payload.pop("assignments"), "assignments"),
        (lambda payload: payload["assignments"][0].update(startMs="0"), "assignments[0].startMs"),
        (lambda payload: payload.update(wallTimeMs=None), "wallTimeMs must be a number, got None"),
        (lambda payload: payload.update(wallTimeMs=-5), "wallTimeMs must be >= 0"),
        (lambda payload: payload.update(wallTimeMs=math.nan), "wallTimeMs must be finite, got nan"),
    ],
    ids=["missing-assignments", "string-startMs", "null-wallTimeMs", "negative-wallTimeMs", "nan-wallTimeMs"],
)
def test_validate_malformed_schedule_exits_two(tmp_path, capsys, corrupt, field):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(wpath)], capsys)
    run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    payload = json.loads(spath.read_text())
    corrupt(payload)
    spath.write_text(json.dumps(payload))
    status, _, err = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 2
    assert field in err


def test_bound_full_conflict_boundary(capsys):
    status, out, _ = run(["bound", "--n", "50", "--mean-t", "8", "--m", "4", "--cr", "1"], capsys)
    assert status == 0
    assert "UB-chromatic: 400 ms" in out
    assert "UB-closed: 400 ms" in out


def test_bound_zero_conflict_boundary(capsys):
    status, out, _ = run(["bound", "--n", "100", "--mean-t", "8", "--m", "8", "--cr", "0"], capsys)
    assert status == 0
    assert "UB-chromatic: 104 ms" in out


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "50", "--mean-t", "nan"], "mean_time_ms must be finite and > 0, got nan"),
        (["--n", "50", "--mean-t", "inf"], "mean_time_ms must be finite and > 0, got inf"),
        (["--n", "50", "--mean-t", "-5"], "mean_time_ms must be finite and > 0, got -5.0"),
        (["--n", "50", "--mean-t", "0"], "mean_time_ms must be finite and > 0, got 0.0"),
        (["--n", "1", "--mean-t", "8"], "chromatic approximation needs n >= 2 for 0 < cr < 1"),
    ],
)
def test_bound_rejects_bad_input_and_prints_nothing(capsys, flags, message):
    status, out, err = run(["bound", *flags, "--m", "4", "--cr", "0.5"], capsys)
    assert status == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_bench_deterministic_modulo_wall(tmp_path, capsys):
    args = ["bench", "--n-list", "20", "--rates", "0.2", "--seeds", "1",
            "--cores", "1,2", "--sorts", "MCDF"]
    status, _, _ = run(args + ["--out-dir", str(tmp_path / "a")], capsys)
    assert status == 0
    status, _, _ = run(args + ["--out-dir", str(tmp_path / "b")], capsys)
    assert status == 0

    def strip_wall(text):
        header, *rows = text.strip().split("\n")
        names = header.split(",")
        keep = [i for i, c in enumerate(names) if not c.startswith("wall_")]
        return [",".join(line.split(",")[i] for i in keep) for line in [header] + rows]

    a = strip_wall((tmp_path / "a" / "results.csv").read_text())
    b = strip_wall((tmp_path / "b" / "results.csv").read_text())
    assert a == b


@pytest.mark.parametrize(
    "flags,label",
    [(["--sorts", "MCDF,FIFO,MCDF"], None), (["--assign", "EVENT"], "EVENT")],
)
def test_bench_runs_each_distinct_label_once(tmp_path, capsys, monkeypatch, flags, label):
    grids = []
    real_run_grid = conflictsched.cli.run_grid
    monkeypatch.setattr(conflictsched.cli, "run_grid",
                        lambda grid, out_dir: grids.append(grid) or real_run_grid(grid, out_dir))
    status, out, _ = run(["bench", "--n-list", "20", "--rates", "0.2", "--seeds", "1",
                          "--cores", "1,2", *flags, "--out-dir", str(tmp_path)], capsys)
    assert status == 0
    labels = [s.label for s in grids[0].strategies]
    assert labels == ([label] if label else ["MCDF-LOOSE-3", "FIFO-LOOSE-3"])
    # one row per (n, rate, m, mode, strategy), and one matrix per strategy
    assert out == f"wrote {2 * 2 * len(labels)} rows to {tmp_path}/results.csv and results.md\n"
    markdown = (tmp_path / "results.md").read_text()
    assert [line for line in markdown.split("\n") if line.startswith("## ")] == [
        f"## Strategy {name}" for name in labels
    ]


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n-list", "20,20"], "process count 20"),
        (["--rates", "0.2,0.2"], "conflict rate 0.2"),
        (["--seeds", "1,1"], "seed 1"),
        (["--cores", "2,2"], "core count 2"),
        (["--modes", "proposer,proposer"], "mode proposer"),
    ],
)
def test_bench_rejects_a_repeated_value(tmp_path, capsys, monkeypatch, flags, message):
    calls = []
    monkeypatch.setattr(conflictsched.bench, "schedule", lambda *args: calls.append(args))
    out_dir = tmp_path / "out"
    status, out, err = run(["bench", "--n-list", "20", "--rates", "0.2", "--seeds", "1",
                            "--cores", "1", *flags, "--out-dir", str(out_dir)], capsys)
    assert status == 2
    assert out == ""
    assert err == f"error: {message} appears more than once\n"
    assert calls == []
    assert not (out_dir / "results.csv").exists()


def test_bench_rejects_zero_cores_before_writing(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(conflictsched.bench, "generate_workload", lambda *a, **k: calls.append(a))
    out_dir = tmp_path / "out"
    status, out, err = run(["bench", "--n-list", "20", "--rates", "0.2", "--seeds", "1",
                            "--cores", "0", "--out-dir", str(out_dir)], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: core count must be >= 1, got 0\n"
    assert calls == []
    assert not out_dir.exists()


def test_schedule_assign_event_validates(tmp_path, capsys):
    wpath, spath = tmp_path / "w.json", tmp_path / "s.json"
    run(["generate", "--n", "80", "--rate", "0.4", "--seed", "5", "--cores", "4", "--attestor",
         "--out", str(wpath)], capsys)
    status, out, _ = run(["schedule", "--workload", str(wpath), "--assign", "EVENT",
                          "--out", str(spath)], capsys)
    assert status == 0 and out.startswith("makespan=")
    status, out, _ = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 0 and "valid" in out


def test_bench_rejects_one_process_before_scheduling(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(conflictsched.bench, "schedule", lambda *args: calls.append(args))
    out_dir = tmp_path / "out"
    status, _, err = run(["bench", "--n-list", "1", "--rates", "0.5", "--out-dir", str(out_dir)], capsys)
    assert status == 2
    assert err == "error: chromatic approximation needs n >= 2 for 0 < cr < 1\n"
    assert calls == []
    assert not (out_dir / "results.csv").exists()


def test_oracle_subcommand(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    run(["generate", "--n", "6", "--rate", "0.4", "--seed", "3", "--cores", "2",
         "--out", str(wpath)], capsys)
    status, out, _ = run(["oracle", "--workload", str(wpath)], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["optimal"] is True
    assert payload["optimalMakespanMs"] >= 1


def test_oracle_certifies_a_large_conflict_free_workload_at_the_root(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    # conflict-free, so the incumbent meets the load bound before any search
    run(["generate", "--n", "1500", "--rate", "0", "--seed", "1", "--out", str(wpath)], capsys)
    status, out, _ = run(["oracle", "--workload", str(wpath), "--budget", "5000"], capsys)
    assert status == 0
    payload = json.loads(out)
    assert payload["optimal"] is True
    assert payload["nodes"] == 0
    spath.write_text(json.dumps(payload["schedule"]), encoding="utf-8")
    status, _, _ = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 0


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_oracle_rejects_a_budget_below_one(tmp_path, capsys, budget):
    wpath = tmp_path / "w.json"
    run(["generate", "--n", "6", "--rate", "0.4", "--seed", "3", "--out", str(wpath)], capsys)
    status, out, err = run(["oracle", "--workload", str(wpath), "--budget", budget], capsys)
    assert status == 2
    assert out == ""
    assert err == f"error: node_budget must be >= 1, got {budget}\n"


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli(["schedule"])  # missing required --workload
    assert exc_info.value.code == 2


def test_missing_file_exits_two(tmp_path, capsys):
    status, _, err = run(["schedule", "--workload", str(tmp_path / "nope.json")], capsys)
    assert status == 2
    assert "error:" in err


def test_generate_rejects_bad_rate(tmp_path, capsys):
    status, _, err = run(
        ["generate", "--n", "5", "--rate", "2.0", "--seed", "1", "--out", str(tmp_path / "w.json")],
        capsys,
    )
    assert status == 2
    assert "conflictRate" in err


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (lambda e: e.update(note=1), "assignments[1100] has unknown keys: ['note']"),
        (lambda e: e.pop("coreId"), "assignments[1100] is missing keys: ['coreId']"),
        (lambda e: e.update(startMs="5"), "assignments[1100].startMs must be an integer, got '5'"),
        (lambda e: e.update(finishMs=True), "assignments[1100].finishMs must be an integer, got True"),
    ],
    ids=["extra-key", "missing-key", "string-field", "bool-field"],
)
def test_validate_names_bad_entry_deep_in_long_schedule(tmp_path, capsys, corrupt, message):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    run(["generate", "--n", "1200", "--rate", "0", "--seed", "2", "--out", str(wpath)], capsys)
    run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    payload = json.loads(spath.read_text())
    corrupt(payload["assignments"][1100])
    spath.write_text(json.dumps(payload))
    status, _, err = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("which", ["workload", "schedule"])
def test_validate_deeply_nested_file_exits_two(tmp_path, capsys, which):
    paths = {"workload": tmp_path / "w.json", "schedule": tmp_path / "s.json"}
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(paths["workload"])], capsys)
    run(["schedule", "--workload", str(paths["workload"]), "--out", str(paths["schedule"])], capsys)
    paths[which].write_text("[" * 100_000, encoding="utf-8")
    status, _, err = run(
        ["validate", "--workload", str(paths["workload"]), "--schedule", str(paths["schedule"])],
        capsys,
    )
    assert status == 2
    assert f"{which} file nests arrays or objects too deeply" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no limit on the digits of an int"
)
@pytest.mark.parametrize("which", ["workload", "schedule"])
def test_validate_integer_past_the_digit_limit_exits_two(tmp_path, capsys, which):
    paths = {"workload": tmp_path / "w.json", "schedule": tmp_path / "s.json"}
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(paths["workload"])], capsys)
    run(["schedule", "--workload", str(paths["workload"]), "--out", str(paths["schedule"])], capsys)
    # a 5 001-digit int as the first member: json.loads refuses it before
    # any field is read
    text = paths[which].read_text(encoding="utf-8")
    paths[which].write_text(text.replace("{", '{"long": 1' + "0" * 5000 + ",", 1), encoding="utf-8")
    status, out, err = run(
        ["validate", "--workload", str(paths["workload"]), "--schedule", str(paths["schedule"])],
        capsys,
    )
    assert status == 2
    assert out == ""
    assert err.startswith(f"error: {which} file holds an integer too long to read: ")


@pytest.mark.parametrize("flag", ["--cost-per-op", "--cost-per-idle"])
def test_generate_rejects_non_finite_cost(tmp_path, capsys, flag):
    wpath = tmp_path / "w.json"
    status, _, err = run(
        ["generate", "--n", "5", "--rate", "0.2", "--seed", "1", flag, "nan", "--out", str(wpath)],
        capsys,
    )
    assert status == 2
    assert "must be finite, got nan" in err
    assert not wpath.exists()


EMPTY_WORKLOAD = {
    "processes": [],
    "conflicts": [],
    "cores": {"count": 2, "costPerOp": 0.0, "costPerIdleMs": 0.0},
    "attestor": False,
    "meta": {},
}


def test_schedule_rejects_conflicts_that_are_not_an_array(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({**EMPTY_WORKLOAD, "conflicts": {}}))
    status, out, err = run(["schedule", "--workload", str(wpath)], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: conflicts must be an array\n"


@pytest.mark.parametrize("attestor", [1, "false", None], ids=["int", "string", "null"])
def test_schedule_names_an_attestor_flag_that_is_not_a_bool(tmp_path, capsys, attestor):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps({**EMPTY_WORKLOAD, "attestor": attestor}))
    status, out, err = run(["schedule", "--workload", str(wpath)], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: attestor must be a boolean\n"


@pytest.mark.parametrize("cost", ["1", True], ids=["string", "bool"])
def test_schedule_names_a_cost_that_is_not_a_number(tmp_path, capsys, cost):
    wpath = tmp_path / "w.json"
    cores = {**EMPTY_WORKLOAD["cores"], "costPerOp": cost}
    wpath.write_text(json.dumps({**EMPTY_WORKLOAD, "cores": cores}))
    status, out, err = run(["schedule", "--workload", str(wpath)], capsys)
    assert status == 2
    assert out == ""
    assert err == f"error: cores.costPerOp must be a number, got {cost!r}\n"


@pytest.mark.parametrize("key", ["costPerOp", "costPerIdleMs"])
def test_schedule_names_a_cost_too_large_for_a_float(tmp_path, capsys, key):
    wpath = tmp_path / "w.json"
    cores = {**EMPTY_WORKLOAD["cores"], key: 10**400}
    wpath.write_text(json.dumps({**EMPTY_WORKLOAD, "cores": cores}))
    status, out, err = run(["schedule", "--workload", str(wpath)], capsys)
    assert status == 2
    assert out == ""
    assert err == f"error: cores.{key} must fit a float, got an integer of 1329 bits\n"


def test_validate_names_a_wall_time_too_large_for_a_float(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    run(["generate", "--n", "10", "--rate", "0.5", "--seed", "2", "--out", str(wpath)], capsys)
    run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    payload = json.loads(spath.read_text())
    spath.write_text(json.dumps({**payload, "wallTimeMs": 10**400}))
    status, out, err = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 2
    assert out == ""
    assert err == "error: wallTimeMs must fit a float, got an integer of 1329 bits\n"


def test_schedule_empty_workload_to_file(tmp_path, capsys):
    # a zero makespan leaves the speedups undefined: they are left out
    wpath = tmp_path / "w.json"
    spath = tmp_path / "s.json"
    wpath.write_text(json.dumps(EMPTY_WORKLOAD))
    status, out, err = run(["schedule", "--workload", str(wpath), "--out", str(spath)], capsys)
    assert status == 0, err
    assert out.startswith("makespan=0ms horizon=0ms pce=0 wall=")
    assert "speedup" not in out
    payload = json.loads(spath.read_text())
    assert payload["assignments"] == [] and payload["scheduleMakespanMs"] == 0
    status, _, _ = run(["validate", "--workload", str(wpath), "--schedule", str(spath)], capsys)
    assert status == 0


def test_schedule_empty_workload_to_stdout(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    wpath.write_text(json.dumps(EMPTY_WORKLOAD))
    status, out, err = run(["schedule", "--workload", str(wpath)], capsys)
    assert status == 0, err
    text, summary = out.rstrip("\n").rsplit("\n", 1)
    assert json.loads(text)["assignments"] == []
    assert summary.startswith("makespan=0ms horizon=0ms pce=0 wall=")
    assert "speedup" not in summary


def test_generate_constant_time_distribution(tmp_path, capsys):
    wpath = tmp_path / "w.json"
    status, _, err = run(["generate", "--n", "12", "--rate", "0.3", "--seed", "1",
                          "--dist", "constant", "--t-const", "6", "--out", str(wpath)], capsys)
    assert status == 0, err
    payload = json.loads(wpath.read_text())
    assert [p["execTimeMs"] for p in payload["processes"]] == [6] * 12
    assert payload["meta"]["timeDist"] == "constant[6]"


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--t-min", "0"], "time distribution low must be >= 1"),
        (["--t-min", "5", "--t-max", "4"], "time distribution high must be >= low"),
    ],
    ids=["low", "high"],
)
def test_generate_rejects_bad_time_bounds(tmp_path, capsys, flags, message):
    wpath = tmp_path / "w.json"
    status, _, err = run(
        ["generate", "--n", "5", "--rate", "0.2", "--seed", "1", *flags, "--out", str(wpath)],
        capsys,
    )
    assert status == 2
    assert err == f"error: {message}\n"
    assert not wpath.exists()


def test_default_flags_build_the_library_defaults(tmp_path, capsys, monkeypatch):
    wpath = tmp_path / "w.json"
    assert run(["generate", "--n", "5", "--rate", "0.2", "--seed", "1", "--out", str(wpath)],
               capsys)[0] == 0
    built = []
    real_schedule = conflictsched.cli.schedule
    monkeypatch.setattr(conflictsched.cli, "schedule",
                        lambda w, strategy: built.append(strategy) or real_schedule(w, strategy))
    monkeypatch.setattr(conflictsched.cli, "run_grid", lambda grid, out_dir: built.append(grid) or [])
    assert run(["schedule", "--workload", str(wpath)], capsys)[0] == 0
    assert run(["bench", "--out-dir", str(tmp_path / "bench")], capsys)[0] == 0
    assert built == [DEFAULT_STRATEGY, ExperimentGrid()]


def test_generate_and_oracle_defaults_are_the_library_defaults(tmp_path, capsys, monkeypatch):
    wpath = tmp_path / "w.json"
    seen = []
    real_generate = conflictsched.cli.generate_workload
    monkeypatch.setattr(conflictsched.cli, "generate_workload",
                        lambda *args, **kwargs: seen.append(kwargs) or real_generate(*args, **kwargs))
    monkeypatch.setattr(conflictsched.cli, "exact_optimal",
                        lambda w, node_budget: seen.append(node_budget) or exact_optimal(w))
    assert run(["generate", "--n", "5", "--rate", "0.2", "--seed", "1", "--out", str(wpath)],
               capsys)[0] == 0
    assert run(["oracle", "--workload", str(wpath)], capsys)[0] == 0
    kwargs, budget = seen
    assert kwargs["model"] is DEFAULT_CONFLICT_MODEL
    assert kwargs["cores"].core_count == DEFAULT_CORE_COUNT
    assert budget == DEFAULT_NODE_BUDGET
    assert inspect.signature(exact_optimal).parameters["node_budget"].default == budget
    assert inspect.signature(generate_workload).parameters["model"].default is kwargs["model"]
    assert generate_workload(5, 0.2, seed=1).cores.core_count == DEFAULT_CORE_COUNT


@pytest.mark.parametrize("model", list(ConflictModel))
def test_model_flag_accepts_each_conflict_model(tmp_path, capsys, monkeypatch, model):
    name = model.value.lower()
    wpath, expected = tmp_path / "w.json", tmp_path / "expected.json"
    assert run(["generate", "--n", "30", "--rate", "0.3", "--seed", "4", "--model", name,
                "--out", str(wpath)], capsys)[0] == 0
    save_workload(generate_workload(30, 0.3, model=model, seed=4), expected)
    assert wpath.read_bytes() == expected.read_bytes()
    grids = []
    monkeypatch.setattr(conflictsched.cli, "run_grid", lambda grid, out_dir: grids.append(grid) or [])
    assert run(["bench", "--out-dir", str(tmp_path / "b"), "--model", name], capsys)[0] == 0
    assert grids[0].conflict_model is model


@pytest.mark.parametrize("command", ["generate", "bench"])
def test_model_flag_lists_the_conflict_models(capsys, command):
    with pytest.raises(SystemExit) as exc_info:
        cli([command, "--help"])
    assert exc_info.value.code == 0
    assert "--model {pairwise,participation}" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc_info:
        cli([command, "--model", "PAIRWISE"])
    assert exc_info.value.code == 2
    assert "invalid choice: 'PAIRWISE'" in capsys.readouterr().err
