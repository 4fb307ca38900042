"""Workload types, file I/O, generator, and the gas-to-time estimator."""

import collections
import dataclasses
import hashlib
import json
import math
import operator
import random
import sys
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conflictsched.model
from conflictsched import scheduler
from conflictsched.model import (
    DEFAULT_TIME_DIST,
    OPS_PER_MS,
    PARTICIPANT_EXTRA_EDGE_RATE,
    ConflictColumns,
    ConflictModel,
    ConflictPair,
    CoreProfile,
    GasTimeModel,
    Process,
    TimeDistribution,
    Weights,
    Workload,
    WorkloadValidationError,
    _participation_conflicts,
    _random_pairs,
    estimate_exec_time,
    generate_workload,
    load_schedule,
    load_workload,
    save_workload,
)
from conflictsched.scheduler import AssignType, SortType, Strategy, schedule


def write_workload_file(tmp_path, payload, name="w.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


MINIMAL = {
    "processes": [{"id": 0, "execTimeMs": 5, "opCount": 5000}],
    "conflicts": [],
    "cores": {"count": 1, "costPerOp": 0.0, "costPerIdleMs": 0.0},
    "attestor": False,
    "meta": {},
}


class TestLoadWorkload:
    def test_minimal_file(self, tmp_path):
        w = load_workload(write_workload_file(tmp_path, MINIMAL))
        assert w.n == 1
        assert w.conflicts == ()
        assert w.processes[0] == Process(0, 5, 5000)

    def test_conflict_pairs_are_canonicalized(self, tmp_path):
        payload = {
            **MINIMAL,
            "processes": [
                {"id": i, "execTimeMs": 1, "opCount": 1} for i in range(4)
            ],
            "conflicts": [[3, 1], [1, 3], [0, 2]],
        }
        w = load_workload(write_workload_file(tmp_path, payload))
        assert w.conflicts == (ConflictPair(0, 2), ConflictPair(1, 3))

    def test_dangling_conflict_id_names_the_id(self, tmp_path):
        payload = {
            **MINIMAL,
            "processes": [
                {"id": i, "execTimeMs": 1, "opCount": 1} for i in range(50)
            ],
            "conflicts": [[0, 99]],
        }
        with pytest.raises(WorkloadValidationError, match="99"):
            load_workload(write_workload_file(tmp_path, payload))

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(WorkloadValidationError, match="unknown keys"):
            load_workload(write_workload_file(tmp_path, {**MINIMAL, "extra": 1}))

    def test_non_positive_time_names_field(self, tmp_path):
        payload = {
            **MINIMAL,
            "processes": [{"id": 0, "execTimeMs": 0, "opCount": 1}],
        }
        with pytest.raises(WorkloadValidationError, match="execTimeMs"):
            load_workload(write_workload_file(tmp_path, payload))

    def test_out_of_order_ids_rejected(self, tmp_path):
        payload = {
            **MINIMAL,
            "processes": [
                {"id": 1, "execTimeMs": 1, "opCount": 1},
                {"id": 0, "execTimeMs": 1, "opCount": 1},
            ],
        }
        with pytest.raises(WorkloadValidationError, match="ids must be 0..n-1"):
            load_workload(write_workload_file(tmp_path, payload))

    def test_malformed_json_raises_decode_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(json.JSONDecodeError):
            load_workload(path)

    def test_self_conflict_rejected(self, tmp_path):
        payload = {**MINIMAL, "conflicts": [[0, 0]]}
        with pytest.raises(WorkloadValidationError, match="itself"):
            load_workload(write_workload_file(tmp_path, payload))

    def test_a_saved_file_loads_to_its_columns_and_shares_derived_data(self, tmp_path):
        # save_workload writes the pairs canonical and ascending, and the
        # loaded workload keeps them as the saved one's columns
        w = generate_workload(300, 0.3, seed=4, cores=CoreProfile(3), attestor=True)
        save_workload(w, tmp_path / "w.json")
        loaded = load_workload(tmp_path / "w.json")
        assert loaded == w and loaded.conflicts.columns == w.conflicts.columns
        assert loaded.successor_rows() == w.successor_rows()
        assert loaded.with_cores(CoreProfile(5)).successor_rows() is loaded.successor_rows()

    def test_an_out_of_range_pair_in_canonical_order_is_named(self, tmp_path):
        n = 1500
        payload = {
            **MINIMAL,
            "processes": [{"id": i, "execTimeMs": 1, "opCount": 1} for i in range(n)],
            "conflicts": [[i, i + 1] for i in range(n - 2)] + [[n - 2, n + 5]],
        }
        with pytest.raises(WorkloadValidationError) as exc_info:
            load_workload(write_workload_file(tmp_path, payload))
        assert str(exc_info.value) == f"conflict pair ({n - 2}, {n + 5}) references unknown process id {n + 5}"

    def test_a_repeated_pair_in_ascending_order_is_dropped(self, tmp_path):
        payload = {
            **MINIMAL,
            "processes": [{"id": i, "execTimeMs": 1, "opCount": 1} for i in range(4)],
            "conflicts": [[0, 1], [1, 2], [1, 2], [2, 3]],
        }
        w = load_workload(write_workload_file(tmp_path, payload))
        assert w.conflicts.columns == ((0, 1, 2), (1, 2, 3))


# a bad entry sits deep in a long list, so a check that stops early or
# reports the wrong position shows
LONG = 1500
DEEP = 1200


def long_payload():
    """A valid file with LONG processes and LONG - 1 pairs, half of them reversed."""
    return {
        **MINIMAL,
        "processes": [{"id": i, "execTimeMs": 1 + i % 7, "opCount": 1000} for i in range(LONG)],
        "conflicts": [[i, i + 1] if i % 2 else [i + 1, i] for i in range(LONG - 1)],
    }


def load_error(tmp_path, payload):
    with pytest.raises(WorkloadValidationError) as exc_info:
        load_workload(write_workload_file(tmp_path, payload))
    return str(exc_info.value)


# JSON values a hand-written file may hold where a process id belongs
json_scalars = st.one_of(
    st.integers(-2, 11), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2), st.none(),
)


def per_entry_conflicts(entries):
    """The per-entry rule for `conflicts`: the canonical pairs, or the first error."""
    pairs = set()
    for pos, entry in enumerate(entries):
        if not isinstance(entry, list) or len(entry) != 2:
            return f"conflicts[{pos}] must be a pair [a, b]"
        for k, value in enumerate(entry):
            if isinstance(value, bool) or not isinstance(value, int):
                return f"conflicts[{pos}][{k}] must be an integer, got {value!r}"
        a, b = entry
        if a == b:
            return f"conflicts[{pos}] pairs process {a} with itself"
        if a < 0 or b < 0:
            return f"conflicts[{pos}] has a negative process id"
        pairs.add((min(a, b), max(a, b)))
    return tuple(sorted(pairs))


# a conflict list's entries over MIXED_N processes: good pairs either way
# round, and bad entries of each kind the loader names
MIXED_N = 40
_mixed_id = st.integers(0, MIXED_N - 1)
_mixed_pair = st.tuples(_mixed_id, _mixed_id).filter(lambda p: p[0] != p[1])
_not_an_id = st.sampled_from([1.5, True, "1", None])
_good_entry = _mixed_pair.map(sorted) | _mixed_pair.map(lambda p: sorted(p, reverse=True))
_bad_entry = st.one_of(
    _mixed_id.map(lambda i: [i, i]),
    st.lists(st.integers(-3, MIXED_N - 1), min_size=2, max_size=2).filter(lambda e: min(e) < 0),
    st.tuples(_mixed_id, _not_an_id).map(list) | st.tuples(_not_an_id, _mixed_id).map(list),
    st.sampled_from([7, "x", None, {"a": 1}, [], [1], [1, 2, 3]]),
)


@st.composite
def mixed_conflict_lists(draw):
    """A short or several-hundred-entry list with repeated pairs and up to two bad entries."""
    entries = draw(st.lists(_good_entry, max_size=12) | st.lists(_good_entry, min_size=200, max_size=400))
    for _ in range(draw(st.integers(0, 3)) if entries else 0):
        a, b = draw(st.sampled_from(entries))
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from([[a, b], [b, a]])))
    for _ in range(draw(st.integers(0, 2))):
        entries.insert(draw(st.integers(0, len(entries))), draw(_bad_entry))
    return entries


class TestLoadLongLists:
    @given(
        entries=st.lists(
            st.one_of(
                st.lists(st.integers(0, 11), min_size=2, max_size=2),
                st.lists(json_scalars, max_size=3),
                json_scalars,
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_whole_list_checks_agree_with_the_per_entry_rule(self, tmp_path_factory, entries):
        expected = per_entry_conflicts(entries)
        payload = {
            **MINIMAL,
            "processes": [{"id": i, "execTimeMs": 1, "opCount": 1} for i in range(12)],
            "conflicts": entries,
        }
        path = write_workload_file(tmp_path_factory.mktemp("c"), payload)
        if isinstance(expected, str):
            with pytest.raises(WorkloadValidationError) as exc_info:
                load_workload(path)
            assert str(exc_info.value) == expected
        else:
            assert load_workload(path).conflicts == expected

    @given(entries=mixed_conflict_lists())
    @settings(max_examples=150, deadline=None)
    def test_the_whole_list_passes_and_the_naming_loop_agree(self, tmp_path_factory, entries):
        # the loader's loop only names a bad entry, so any list the passes
        # refuse must hold one, and its first is named; any other loads
        expected = per_entry_conflicts(entries)
        processes = [{"id": i, "execTimeMs": 1 + i % 5, "opCount": 1} for i in range(MIXED_N)]
        payload = {**MINIMAL, "processes": processes, "conflicts": entries}
        path = write_workload_file(tmp_path_factory.mktemp("mixed"), payload)
        if isinstance(expected, str):
            with pytest.raises(WorkloadValidationError) as exc_info:
                load_workload(path)
            assert str(exc_info.value) == expected
        else:
            reference = Workload(tuple(Process(i, 1 + i % 5, 1) for i in range(MIXED_N)), expected, CoreProfile(1))
            assert load_workload(path) == reference

    def test_long_file_loads_canonical_sorted_unique_pairs(self, tmp_path):
        payload = long_payload()
        payload["conflicts"] += [[5, 4], [4, 5], [100, 7]]
        w = load_workload(write_workload_file(tmp_path, payload))
        expected = sorted({(min(a, b), max(a, b)) for a, b in payload["conflicts"]})
        assert w.conflicts == tuple(expected)
        assert all(type(pair) is ConflictPair for pair in w.conflicts)
        assert w.processes[DEEP] == Process(DEEP, 1 + DEEP % 7, 1000)

    def test_loaded_pairs_are_conflict_pairs(self, tmp_path):
        # the loader builds pairs with tuple.__new__, not ConflictPair(...)
        w = load_workload(write_workload_file(tmp_path, long_payload()))
        assert {type(pair) for pair in w.conflicts} == {ConflictPair}
        first = w.conflicts[0]
        assert first._fields == ("a", "b")
        assert (first.a, first.b) == (0, 1)
        assert repr(first) == "ConflictPair(a=0, b=1)"
        assert first == ConflictPair(0, 1) == (0, 1)
        assert hash(first) == hash((0, 1))
        assert w.conflicts == tuple(ConflictPair(i, i + 1) for i in range(LONG - 1))

    @pytest.mark.parametrize(
        "entry,message",
        [
            (7, f"conflicts[{DEEP}] must be a pair [a, b]"),
            ({"a": 1, "b": 2}, f"conflicts[{DEEP}] must be a pair [a, b]"),
            ([1, 2, 3], f"conflicts[{DEEP}] must be a pair [a, b]"),
            ([True, 2], f"conflicts[{DEEP}][0] must be an integer, got True"),
            ([1, 1.5], f"conflicts[{DEEP}][1] must be an integer, got 1.5"),
            ([3, -4], f"conflicts[{DEEP}] has a negative process id"),
            ([9, 9], f"conflicts[{DEEP}] pairs process 9 with itself"),
            ([LONG + 3, 4], f"conflict pair (4, {LONG + 3}) references unknown process id {LONG + 3}"),
        ],
        ids=["number", "object", "three-elements", "bool", "float", "negative", "self-pair",
             "out-of-range"],
    )
    def test_bad_conflict_entry_is_named(self, tmp_path, entry, message):
        payload = long_payload()
        payload["conflicts"][DEEP] = entry
        assert load_error(tmp_path, payload) == message

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda e: "x", f"processes[{DEEP}] must be an object"),
            (lambda e: {**e, "gas": 1}, f"processes[{DEEP}] has unknown keys: ['gas']"),
            (lambda e: {"id": e["id"], "execTimeMs": 1}, f"processes[{DEEP}] is missing keys: ['opCount']"),
            (lambda e: {**e, "id": True}, f"processes[{DEEP}].id must be an integer, got True"),
            (lambda e: {**e, "opCount": 2.0}, f"processes[{DEEP}].opCount must be an integer, got 2.0"),
            (lambda e: {**e, "execTimeMs": 0}, f"processes[{DEEP}].execTimeMs must be >= 1, got 0"),
            (lambda e: {**e, "id": -2}, "process id must be >= 0, got -2"),
            (lambda e: {**e, "id": DEEP + 1}, f"processes[{DEEP}].id is {DEEP + 1}; ids must be 0..n-1 in order"),
        ],
        ids=["string", "extra-key", "missing-key", "bool-id", "float-ops", "zero-time",
             "negative-id", "out-of-order"],
    )
    def test_bad_process_entry_is_named(self, tmp_path, change, message):
        payload = long_payload()
        payload["processes"][DEEP] = change(payload["processes"][DEEP])
        assert load_error(tmp_path, payload) == message

    def test_first_bad_entry_wins_over_a_later_type_error(self, tmp_path):
        payload = long_payload()
        payload["processes"][DEEP]["execTimeMs"] = 0
        payload["processes"][DEEP + 100]["id"] = "x"
        assert load_error(tmp_path, payload) == f"processes[{DEEP}].execTimeMs must be >= 1, got 0"
        payload = long_payload()
        payload["conflicts"][DEEP] = [8, 8]
        payload["conflicts"][DEEP + 100] = "x"
        assert load_error(tmp_path, payload) == f"conflicts[{DEEP}] pairs process 8 with itself"

    @pytest.mark.parametrize(
        "change,message",
        [
            (lambda p: p["processes"][0].update(opCount=0), "processes[0].opCount must be >= 1, got 0"),
            (lambda p: p["cores"].update(costPerOp=-1), "cores.costPerOp must be >= 0"),
            (lambda p: p["cores"].update(costPerIdleMs=-0.5), "cores.costPerIdleMs must be >= 0"),
            (lambda p: p.update(meta=[]), "meta must be an object"),
            (lambda p: p.update(attestor=1), "attestor must be a boolean"),
            (lambda p: p.update(attestor="false"), "attestor must be a boolean"),
            (lambda p: p.update(attestor=None), "attestor must be a boolean"),
        ],
        ids=["zero-ops", "negative-op-cost", "negative-idle-cost", "list-meta", "int-attestor",
             "string-attestor", "null-attestor"],
    )
    def test_bad_value_is_named(self, tmp_path, change, message):
        payload = json.loads(json.dumps(MINIMAL))
        change(payload)
        assert load_error(tmp_path, payload) == message

    def test_a_bad_attestor_is_named_before_an_out_of_order_id(self, tmp_path):
        # the constructor checks the flags before the ids, as the reader did
        payload = long_payload()
        payload["processes"][DEEP]["id"] = DEEP + 1
        assert load_error(tmp_path, payload) == f"processes[{DEEP}].id is {DEEP + 1}; ids must be 0..n-1 in order"
        payload["attestor"] = "no"
        assert load_error(tmp_path, payload) == "attestor must be a boolean"

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("field", ["costPerOp", "costPerIdleMs"])
    def test_non_finite_cost_is_named(self, tmp_path, field, value):
        path = tmp_path / "w.json"
        text = json.dumps({**MINIMAL, "cores": {**MINIMAL["cores"], field: 0.5}})
        path.write_text(text.replace("0.5", value), encoding="utf-8")
        with pytest.raises(WorkloadValidationError, match=f"cores.{field} must be finite"):
            load_workload(path)

    def test_deeply_nested_file_is_named(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(WorkloadValidationError, match="workload file nests"):
            load_workload(path)

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no limit on the digits of an int"
    )
    @pytest.mark.parametrize("load,what", [(load_workload, "workload"), (load_schedule, "schedule")])
    def test_an_integer_past_the_digit_limit_is_named(self, tmp_path, load, what):
        # json.loads refuses such an int with a plain ValueError; the
        # loader names the file kind instead
        path = tmp_path / "long.json"
        path.write_text('{"costPerOp": 1' + "0" * 5000 + "}", encoding="utf-8")
        with pytest.raises(WorkloadValidationError) as exc_info:
            load(path)
        assert str(exc_info.value).startswith(f"{what} file holds an integer too long to read: ")


class TestSaveWorkload:
    def test_round_trip_is_identity(self, tmp_path):
        w = generate_workload(200, 0.3, seed=7, cores=CoreProfile(4, 0.5, 0.25))
        path = tmp_path / "w.json"
        save_workload(w, path)
        assert load_workload(path) == w

    def test_save_is_byte_stable(self, tmp_path):
        w = generate_workload(60, 0.4, seed=3)
        save_workload(w, tmp_path / "a.json")
        save_workload(w, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_file_conflict_order_does_not_matter(self, tmp_path):
        w = generate_workload(20, 0.5, model=ConflictModel.PAIRWISE, seed=5)
        path = tmp_path / "w.json"
        save_workload(w, path)
        raw = json.loads(path.read_text())
        raw["conflicts"] = [[b, a] for a, b in reversed(raw["conflicts"])]
        shuffled = write_workload_file(tmp_path, raw, name="shuffled.json")
        assert load_workload(shuffled) == w


class TestGenerator:
    def test_zero_rate_has_no_conflicts(self):
        w = generate_workload(50, 0.0, model=ConflictModel.PAIRWISE, seed=1)
        assert w.conflicts == ()
        w = generate_workload(50, 0.0, model=ConflictModel.PARTICIPATION, seed=1)
        assert w.conflicts == ()

    def test_full_rate_pairwise_is_complete_graph(self):
        w = generate_workload(50, 1.0, model=ConflictModel.PAIRWISE, seed=1)
        assert len(w.conflicts) == 50 * 49 // 2 == 1225

    def test_participation_count_is_exact(self):
        w = generate_workload(200, 0.45, model=ConflictModel.PARTICIPATION, seed=1)
        participants = {pid for pair in w.conflicts for pid in (pair.a, pair.b)}
        assert len(participants) == 90  # round(200 * 0.45)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n,rate", [(50, 0.15), (50, 0.45), (113, 0.3), (200, 0.25)])
    def test_participation_count_every_seed(self, n, rate, seed):
        w = generate_workload(n, rate, model=ConflictModel.PARTICIPATION, seed=seed)
        participants = {pid for pair in w.conflicts for pid in (pair.a, pair.b)}
        # rounding contract: nearest integer, halves up (50 * 0.45 -> 23)
        assert len(participants) == math.floor(n * rate + 0.5 + 1e-9)

    def test_participation_non_participants_are_clean(self):
        w = generate_workload(80, 0.35, model=ConflictModel.PARTICIPATION, seed=11)
        participants = {pid for pair in w.conflicts for pid in (pair.a, pair.b)}
        degree = {pid: 0 for pid in participants}
        for pair in w.conflicts:
            degree[pair.a] += 1
            degree[pair.b] += 1
        assert all(d >= 1 for d in degree.values())

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        kwargs = dict(model=ConflictModel.PARTICIPATION, seed=42, cores=CoreProfile(8))
        a = generate_workload(120, 0.25, **kwargs)
        b = generate_workload(120, 0.25, **kwargs)
        assert a == b
        save_workload(a, tmp_path / "a.json")
        save_workload(b, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_generated_files_are_pinned(self, tmp_path):
        # The files of a fixed set of seeded workloads: both models; n = 1
        # and 2 (no participant pair at low rates), 3 and 7 (a lone
        # participant), 50 and 200; every rate from empty to complete; both
        # time distributions; and the two n = 2 000 files that CI writes.
        # A change that means to alter generated workloads updates the digest.
        cases = [
            dict(n=n, conflict_rate=rate, model=model, seed=seed, time_dist=dist)
            for model in ConflictModel
            for n in (1, 2, 3, 7, 50, 200)
            for rate in (0.0, 0.01, 0.15, 0.45, 0.9, 1.0)
            for seed in range(3)
            for dist in (TimeDistribution.uniform(1, 15), TimeDistribution.constant(8))
        ]
        cases += [
            dict(n=2000, conflict_rate=rate, model=model, seed=0, cores=CoreProfile(16))
            for model, rate in ((ConflictModel.PARTICIPATION, 0.45), (ConflictModel.PAIRWISE, 0.02))
        ]
        h = hashlib.sha256()
        path = tmp_path / "w.json"
        for kwargs in cases:
            save_workload(generate_workload(**kwargs), path)
            h.update(path.read_bytes())
        assert len(cases) == 434
        assert h.hexdigest() == "55bf09d58e5493f0d88f156ec133d48bb5e568b2cc1fd28062b77ad11dab90f0"

    def test_pairwise_empirical_frequency(self):
        # mean pair frequency over many seeds stays within 3 points of the rate
        rate, n, seeds = 0.25, 100, 120
        total_pairs = n * (n - 1) // 2
        freq = sum(
            len(generate_workload(n, rate, model=ConflictModel.PAIRWISE, seed=s).conflicts)
            / total_pairs
            for s in range(seeds)
        ) / seeds
        assert abs(freq - rate) < 0.03

    def test_times_follow_distribution_bounds(self):
        w = generate_workload(300, 0.0, seed=9, time_dist=TimeDistribution.uniform(2, 6))
        assert all(2 <= p.exec_time_ms <= 6 for p in w.processes)
        w = generate_workload(10, 0.0, seed=9, time_dist=TimeDistribution.constant(8))
        assert all(p.exec_time_ms == 8 for p in w.processes)

    def test_op_count_tracks_time(self):
        w = generate_workload(40, 0.2, seed=2)
        assert all(p.op_count == p.exec_time_ms * OPS_PER_MS for p in w.processes)
        assert w.meta["opsPerMs"] == OPS_PER_MS

    def test_ops_rate_is_not_a_parameter(self):
        with pytest.raises(TypeError, match="ops_per_ms"):
            generate_workload(40, 0.2, seed=2, ops_per_ms=500)

    def test_invalid_rate_rejected(self):
        with pytest.raises(WorkloadValidationError, match="conflictRate"):
            generate_workload(10, 1.5, seed=0)
        with pytest.raises(WorkloadValidationError, match="conflictRate"):
            generate_workload(10, -0.1, seed=0)

    def test_invalid_n_rejected(self):
        with pytest.raises(WorkloadValidationError, match="n must be"):
            generate_workload(0, 0.5, seed=0)

    def test_a_non_integer_n_is_named(self):
        with pytest.raises(WorkloadValidationError, match="^n must be an integer, got 5.0$"):
            generate_workload(5.0, 0.2)

    @pytest.mark.parametrize(
        "make,message",
        [
            (lambda: TimeDistribution.uniform(1.5, 3), "low must be an integer, got 1.5"),
            (lambda: TimeDistribution.constant(2.5), "low must be an integer, got 2.5"),
            (lambda: TimeDistribution.uniform(1, 3.0), "high must be an integer, got 3.0"),
        ],
        ids=["uniform-low", "constant", "uniform-high"],
    )
    def test_a_non_integer_time_bound_is_named(self, make, message):
        with pytest.raises(WorkloadValidationError, match=f"^time distribution {message}$"):
            make()

    def test_an_unknown_time_distribution_is_named(self):
        with pytest.raises(WorkloadValidationError, match="^unknown time distribution 'gaussian'$"):
            TimeDistribution("gaussian", 1, 2)

    @given(
        n=st.integers(0, 300),
        rate=st.floats(0, 1),
        seed=st.integers(0, 10**6),
        model=st.sampled_from(list(ConflictModel)),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_generated_pairs_are_canonical_and_what_the_constructor_makes_of_them(self, n, rate, seed, model, data):
        # the pairs `generate_workload` draws after the process times
        rng = random.Random(seed)
        times = [DEFAULT_TIME_DIST.draw(rng) for _ in range(n)]
        if model is ConflictModel.PAIRWISE:
            pairs = _random_pairs(range(n), rate, rng)
        else:
            pairs = _participation_conflicts(n, rate, rng)
        assert all(type(a) is int and type(b) is int and 0 <= a < b < n for a, b in pairs)
        assert all(map(operator.lt, pairs, pairs[1:]))
        columns = (tuple(pair[0] for pair in pairs), tuple(pair[1] for pair in pairs))
        # the same pairs given shuffled and with repeats are sorted and deduplicated
        messy = data.draw(st.permutations(pairs + data.draw(st.lists(st.sampled_from(pairs))) if pairs else []))
        processes = tuple(Process(i, t, t * OPS_PER_MS) for i, t in enumerate(times))
        assert Workload(processes, tuple(messy), CoreProfile(2)).conflicts.columns == columns
        if n:
            # the generator's columns reach the constructor ascending: it proves them, and sorts nothing
            proved = []
            pair_order = conflictsched.model._pair_order

            def recorded_pair_order(firsts, seconds):
                proved.append(pair_order(firsts, seconds))
                return proved[-1]

            with mock.patch.object(conflictsched.model, "_pair_order", recorded_pair_order):
                w = generate_workload(n, rate, model=model, seed=seed)
            assert proved == [True]
            assert w.conflicts.columns == columns and w.processes == processes

    def test_an_extra_edge_that_repeats_a_matching_pair_is_kept_once(self):
        # n = 4 at rate 1: the matching pairs the shuffled ids two by two,
        # and the extra edges then draw (0, 2) again
        rng = random.Random(4)
        participants = rng.sample(range(4), 4)
        matching = sorted((min(pair), max(pair)) for pair in zip(participants[0::2], participants[1::2]))
        extra = _random_pairs(range(4), PARTICIPANT_EXTRA_EDGE_RATE, rng)
        assert matching == [(0, 2), (1, 3)] and extra == [(0, 2), (0, 3)]
        assert _participation_conflicts(4, 1.0, random.Random(4)) == [(0, 2), (0, 3), (1, 3)]

    @given(
        n=st.integers(1, 60),
        rate=st.floats(0, 1),
        seed=st.integers(0, 10_000),
        model=st.sampled_from(list(ConflictModel)),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, tmp_path_factory, n, rate, seed, model):
        w = generate_workload(n, rate, model=model, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "w.json"
        save_workload(w, path)
        assert load_workload(path) == w

    @given(
        times=st.lists(st.integers(1, 50), min_size=1, max_size=40),
        raw_pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=120),
        cores=st.integers(1, 16),
        attestor=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_file_round_trip_of_any_workload(self, tmp_path_factory, times, raw_pairs, cores, attestor):
        # pairs arrive in either order and repeated, as a hand-written file may list them
        n = len(times)
        listed = [[a, b] for a, b in raw_pairs if a != b and a < n and b < n]
        payload = {
            **MINIMAL,
            "processes": [{"id": i, "execTimeMs": t, "opCount": 3 * t} for i, t in enumerate(times)],
            "conflicts": listed,
            "cores": {"count": cores, "costPerOp": 0.25, "costPerIdleMs": 1.0},
            "attestor": attestor,
        }
        directory = tmp_path_factory.mktemp("rt")
        w = load_workload(write_workload_file(directory, payload))
        assert w.conflicts == tuple(sorted({ConflictPair.of(a, b) for a, b in listed}))
        save_workload(w, directory / "saved.json")
        assert load_workload(directory / "saved.json") == w


class TestEstimateExecTime:
    def test_zero_gas_clamps_to_one(self):
        assert estimate_exec_time(0, GasTimeModel(slope=1e-3)) == 1

    def test_unit_construction(self):
        assert estimate_exec_time(21_000, GasTimeModel(slope=1 / 21_000)) == 1

    def test_linearity_within_rounding(self):
        m = GasTimeModel(slope=0.01, intercept=3.0)
        t1 = estimate_exec_time(5_000, m)
        t2 = estimate_exec_time(10_000, m)
        assert abs((t2 - 3.0) - 2 * (t1 - 3.0)) <= 1

    def test_slope_must_be_positive(self):
        with pytest.raises(WorkloadValidationError, match="slope"):
            GasTimeModel(slope=0.0)

    def test_negative_gas_rejected(self):
        with pytest.raises(WorkloadValidationError, match="gasEstimate"):
            estimate_exec_time(-1, GasTimeModel(slope=1.0))

    @pytest.mark.parametrize(
        "estimate,message",
        [
            (lambda: GasTimeModel(math.nan), "slope must be finite, got nan"),
            (lambda: GasTimeModel(math.inf), "slope must be finite, got inf"),
            (lambda: GasTimeModel(1.0, math.nan), "intercept must be finite, got nan"),
            (lambda: GasTimeModel(1.0, -math.inf), "intercept must be finite, got -inf"),
            (lambda: GasTimeModel("a"), "slope must be a number, got 'a'"),
            (lambda: GasTimeModel(True), "slope must be a number, got True"),
            (lambda: GasTimeModel(1.0, None), "intercept must be a number, got None"),
            (lambda: GasTimeModel(10**400), "slope must fit a float, got an integer of 1329 bits"),
            (lambda: estimate_exec_time(True, GasTimeModel(1.0)), "gasEstimate must be an integer, got True"),
            (lambda: estimate_exec_time(2.5, GasTimeModel(1.0)), "gasEstimate must be an integer, got 2.5"),
            (lambda: estimate_exec_time(10, GasTimeModel(1e308)), "gasEstimate's time must be finite, got inf"),
            (lambda: estimate_exec_time(10**400, GasTimeModel(1.0)),
             "gasEstimate must fit a float, got an integer of 1329 bits"),
        ],
        ids=["nan-slope", "inf-slope", "nan-intercept", "minus-inf-intercept", "string-slope", "bool-slope",
             "null-intercept", "huge-int-slope", "bool-gas", "float-gas", "inf-time", "huge-int-gas"],
    )
    def test_a_bad_input_is_named(self, estimate, message):
        with pytest.raises(WorkloadValidationError) as exc_info:
            estimate()
        assert str(exc_info.value) == message


class TestWeights:
    def test_cost_weight_is_derived(self):
        w = Weights(0.75)
        assert w.alpha_cost == pytest.approx(0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadValidationError):
            Weights(1.5)


class TestWorkloadInvariants:
    @pytest.mark.parametrize(
        "pair,message",
        [
            ((9, 4), "conflict pair (9, 4) is not canonical (need a < b)"),
            ((-1, 4), "conflict pair (-1, 4) references unknown process id -1"),
            ((4, LONG), f"conflict pair (4, {LONG}) references unknown process id {LONG}"),
        ],
        ids=["reversed", "negative", "out-of-range"],
    )
    def test_bad_pair_deep_in_a_long_tuple_is_named(self, pair, message):
        pairs = [ConflictPair(i, i + 1) for i in range(LONG - 1)]
        pairs[DEEP] = ConflictPair(*pair)
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(
                processes=tuple(Process(i, 1, 1) for i in range(LONG)),
                conflicts=tuple(pairs),
                cores=CoreProfile(2),
            )
        assert str(exc_info.value) == message

    def test_first_bad_pair_in_given_order_is_named(self):
        # the later pair sorts first; the message names the earlier one
        pairs = [ConflictPair(i, i + 1) for i in range(LONG - 1)]
        pairs[DEEP] = ConflictPair(9, LONG + 5)
        pairs[DEEP + 100] = ConflictPair(4, 2)
        with pytest.raises(WorkloadValidationError, match=f"unknown process id {LONG + 5}"):
            Workload(
                processes=tuple(Process(i, 1, 1) for i in range(LONG)),
                conflicts=tuple(pairs),
                cores=CoreProfile(2),
            )

    def test_out_of_order_process_deep_in_a_long_tuple_is_named(self):
        procs = [Process(i, 1, 1) for i in range(LONG)]
        procs[DEEP], procs[DEEP + 1] = procs[DEEP + 1], procs[DEEP]
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(processes=tuple(procs), conflicts=(), cores=CoreProfile(2))
        assert str(exc_info.value) == f"processes[{DEEP}].id is {DEEP + 1}; ids must be 0..n-1 in order"

    @given(
        n=st.integers(2, 30),
        pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
    )
    @settings(max_examples=80, deadline=None)
    def test_pairs_are_sorted_and_deduplicated(self, n, pairs):
        pairs = [ConflictPair(a, b) for a, b in pairs if a < b < n]
        w = Workload(
            processes=tuple(Process(i, 1, 1) for i in range(n)),
            conflicts=tuple(pairs),
            cores=CoreProfile(2),
        )
        assert w.conflicts == tuple(sorted(set(pairs)))

    @pytest.mark.parametrize(
        "pairs",
        [
            [(1, 2), (0, 2), (1, 2)],
            [ConflictPair(1, 2), (0, 1), ConflictPair(0, 1)],
            [(0, 1), (0, 2), (0, 2)],
            [(1, 2), (0, 1)],
        ],
        ids=["unsorted-duplicate", "mixed-types", "ascending-duplicate", "descending"],
    )
    def test_unsorted_duplicate_or_plain_pairs_are_sorted_and_deduplicated(self, pairs):
        for conflicts in (tuple(pairs), list(pairs)):
            w = Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=conflicts,
                cores=CoreProfile(2),
            )
            assert type(w.conflicts) is ConflictColumns
            assert w.conflicts == tuple(sorted(set(pairs)))

    def test_ascending_list_pairs_are_still_hashed(self):
        # a pair that is not a tuple is named before any sort or dedup
        with pytest.raises(WorkloadValidationError, match=r"conflict pair \[0, 1\] is not a tuple"):
            Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=([0, 1], [0, 2]),
                cores=CoreProfile(2),
            )

    @pytest.mark.parametrize(
        "pairs", [((0, 1), (1, 2)), ((1, 2), (0, 1))], ids=["ascending", "unsorted"]
    )
    def test_plain_tuple_pairs_become_conflict_pairs(self, pairs):
        # `conflicts` is typed tuple[ConflictPair, ...], and callers read .a/.b
        w = Workload(
            processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
            conflicts=pairs,
            cores=CoreProfile(2),
        )
        assert {type(pair) for pair in w.conflicts} == {ConflictPair}
        assert [(pair.a, pair.b) for pair in w.conflicts] == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("pair", [(0,), (0, 1, 2)], ids=["one-id", "three-ids"])
    def test_a_pair_without_two_ids_is_named(self, pair):
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=((0, 2), pair),
                cores=CoreProfile(2),
            )
        assert str(exc_info.value) == f"conflict pair {pair!r} does not have two ids"

    @pytest.mark.parametrize(
        "pairs,message",
        [
            ([(0, 1), (2, 2)], "conflict pair (2, 2) is not canonical (need a < b)"),
            ([(0, 1), (2, 1)], "conflict pair (2, 1) is not canonical (need a < b)"),
            ([(-1, 2), (0, 1)], "conflict pair (-1, 2) references unknown process id -1"),
            ([(0, 1), (1, 3)], "conflict pair (1, 3) references unknown process id 3"),
        ],
        ids=["self-pair", "reversed", "negative", "out-of-range"],
    )
    def test_bad_pair_in_ascending_input_is_named(self, pairs, message):
        # the input is strictly ascending, so it skips the sort and dedup
        assert pairs == sorted(set(pairs))
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=tuple(ConflictPair(*pair) for pair in pairs),
                cores=CoreProfile(2),
            )
        assert str(exc_info.value) == message

    def test_conflicts_are_normalized_at_construction(self):
        w = Workload(
            processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
            conflicts=(ConflictPair(1, 2), ConflictPair(0, 2), ConflictPair(1, 2)),
            cores=CoreProfile(2),
        )
        assert w.conflicts == (ConflictPair(0, 2), ConflictPair(1, 2))

    @pytest.mark.parametrize("pair", [(2, 1), (1, 1)])
    def test_non_canonical_pair_rejected(self, pair):
        with pytest.raises(WorkloadValidationError, match="not canonical"):
            Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=(ConflictPair(*pair),),
                cores=CoreProfile(2),
            )

    def test_self_pair_rejected_by_of(self):
        with pytest.raises(WorkloadValidationError, match="self-referential"):
            ConflictPair.of(1, 1)

    def test_core_profile_validation(self):
        with pytest.raises(WorkloadValidationError, match="cores.count"):
            CoreProfile(0)

    @pytest.mark.parametrize("count", [2.5, 2.0, True])
    def test_core_profile_refuses_a_non_integer_count(self, count):
        with pytest.raises(WorkloadValidationError) as exc_info:
            CoreProfile(count)
        assert str(exc_info.value) == f"cores.count must be an integer, got {count!r}"

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("exec_time_ms", 2.5, "processes[1].execTimeMs must be an integer, got 2.5"),
            ("op_count", True, "processes[1].opCount must be an integer, got True"),
            ("id", 1.0, "processes[1].id must be an integer, got 1.0"),
        ],
        ids=["float-time", "bool-ops", "float-id"],
    )
    def test_a_non_integer_process_field_is_named(self, field, value, message):
        # `Process` is a plain tuple, so a record holds what it is given
        procs = [Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)]
        procs[1] = procs[1]._replace(**{field: value})
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(processes=tuple(procs), conflicts=(), cores=CoreProfile(2))
        assert str(exc_info.value) == message

    @pytest.mark.parametrize("pair", [(0.0, 1.0), (0, 2.0), (False, 1)], ids=["floats", "one-float", "bool"])
    def test_a_plain_pair_with_a_non_integer_id_is_named(self, pair):
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=((1, 2), pair),
                cores=CoreProfile(2),
            )
        assert str(exc_info.value) == f"conflict pair {pair!r} must hold two integer ids"

    @pytest.mark.parametrize(
        "pair",
        [ConflictPair(0.0, 1.0), ConflictPair(0, 2.0), ConflictPair(True, 2), ConflictPair("0", "1")],
        ids=["floats", "one-float", "bool", "strings"],
    )
    def test_a_conflict_pair_with_a_non_integer_id_is_named(self, pair):
        # a ConflictPair built by hand skips the plain-tuple checks, and
        # `schedule` indexes lists by its ids
        with pytest.raises(WorkloadValidationError) as exc_info:
            Workload(
                processes=(Process(0, 1, 1), Process(1, 2, 2), Process(2, 3, 3)),
                conflicts=(ConflictPair(1, 2), pair),
                cores=CoreProfile(2),
            )
        assert str(exc_info.value) == f"conflict pair {pair!r} must hold two integer ids"

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_core_profile_rejects_non_finite_costs(self, value):
        with pytest.raises(WorkloadValidationError, match="cores.costPerOp must be finite"):
            CoreProfile(2, cost_per_op=value)
        with pytest.raises(WorkloadValidationError, match="cores.costPerIdleMs must be finite"):
            CoreProfile(2, cost_per_idle_ms=value)

    @pytest.mark.parametrize("value", ["x", None, True, "0.5", [1.0]], ids=["str", "none", "bool", "numeric-str", "list"])
    @pytest.mark.parametrize("field,key", [("cost_per_op", "costPerOp"), ("cost_per_idle_ms", "costPerIdleMs")])
    def test_core_profile_refuses_a_cost_that_is_not_a_number(self, field, key, value):
        with pytest.raises(WorkloadValidationError) as exc_info:
            CoreProfile(2, **{field: value})
        assert str(exc_info.value) == f"cores.{key} must be a number, got {value!r}"

    def test_core_profile_keeps_an_int_cost(self, tmp_path):
        # an int cost is not made a float, so it is saved as it was given
        cores = CoreProfile(2, 3, 0)
        assert type(cores.cost_per_op) is int and type(cores.cost_per_idle_ms) is int
        save_workload(Workload((), (), cores), tmp_path / "w.json")
        assert json.loads((tmp_path / "w.json").read_text())["cores"] == {"count": 2, "costPerOp": 3, "costPerIdleMs": 0}

    def test_an_int_cost_survives_a_load_and_save(self, tmp_path):
        # the loader hands the profile its costs as read, so 3 is not written back as 3.0
        save_workload(Workload((), (), CoreProfile(2, 3, 1)), tmp_path / "w.json")
        loaded = load_workload(tmp_path / "w.json")
        assert type(loaded.cores.cost_per_op) is int and type(loaded.cores.cost_per_idle_ms) is int
        save_workload(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "w.json").read_bytes()

    @pytest.mark.parametrize("field,key", [("cost_per_op", "costPerOp"), ("cost_per_idle_ms", "costPerIdleMs")])
    def test_a_cost_too_large_for_a_float_is_named(self, field, key):
        with pytest.raises(WorkloadValidationError) as exc_info:
            CoreProfile(2, **{field: 10**400})
        assert str(exc_info.value) == f"cores.{key} must fit a float, got an integer of 1329 bits"

    def test_a_file_names_a_bad_core_count_before_a_bad_cost(self, tmp_path):
        payload = {**MINIMAL, "cores": {"count": 0, "costPerOp": "x", "costPerIdleMs": None}}
        assert load_error(tmp_path, payload) == "cores.count must be >= 1, got 0"

    @pytest.mark.parametrize(
        "derive,changes",
        [
            (lambda w: w.with_cores(CoreProfile(7)), {"cores": CoreProfile(7)}),
            (lambda w: w.with_attestor(True), {"attestor": True}),
        ],
    )
    def test_derived_workload_shares_checked_pairs(self, derive, changes):
        base = generate_workload(60, 0.4, model=ConflictModel.PAIRWISE, seed=5)
        derived = derive(base)
        assert derived.conflicts is base.conflicts
        rebuilt = dataclasses.replace(base, **changes)
        for f in dataclasses.fields(Workload):
            assert getattr(derived, f.name) == getattr(rebuilt, f.name), f.name
        assert derived == rebuilt
        assert base.cores == CoreProfile(2) and base.attestor is False

    def test_exec_times_are_built_once_per_family(self):
        base = generate_workload(30, 0.3, seed=8, cores=CoreProfile(2))
        times = base.exec_times()
        assert times == tuple(p.exec_time_ms for p in base.processes)
        assert base.exec_times() is times
        assert base.with_cores(CoreProfile(5)).with_attestor(True).exec_times() is times
        slower = tuple(Process(p.id, p.exec_time_ms + 1, p.op_count) for p in base.processes)
        rebuilt = dataclasses.replace(base, processes=slower)
        assert rebuilt.exec_times() == tuple(t + 1 for t in times)
        assert base.exec_times() is times

    def test_process_ids_are_built_once_per_family(self):
        base = generate_workload(30, 0.3, seed=8, cores=CoreProfile(2))
        ids = base.process_ids()
        assert ids == tuple(range(30))
        assert base.with_cores(CoreProfile(5)).with_attestor(True).process_ids() is ids

    def test_predecessor_counts_split_each_adjacency_row(self):
        base = generate_workload(40, 0.4, model=ConflictModel.PAIRWISE, seed=3)
        counts = base.predecessor_counts()
        assert counts == tuple(sum(1 for a, b in base.conflicts if b == i) for i in range(40))
        for i, (row, split) in enumerate(zip(base.conflict_index.adjacency, counts)):
            assert all(q < i for q in row[:split]) and all(q > i for q in row[split:])
        assert base.with_cores(CoreProfile(5)).with_attestor(True).predecessor_counts() is counts

    def test_successor_rows_are_each_row_past_its_split_built_once_per_family(self):
        base = generate_workload(40, 0.4, model=ConflictModel.PAIRWISE, seed=3)
        stored = []  # each key the family's cache stores, once per store

        class CountedCache(dict):
            def __setitem__(self, key, value):
                stored.append(key)
                super().__setitem__(key, value)

        object.__setattr__(base, "_family", CountedCache())
        family = [base, base.with_cores(CoreProfile(5)), base.with_attestor(True)]
        family.append(family[1].with_attestor(True))
        strategies = [Strategy(s, a) for s in SortType for a in (AssignType.LOOSE, AssignType.STRICT)]
        for strategy in [*strategies, Strategy(assign_type=AssignType.EVENT)]:
            for w in family:
                schedule(w, strategy)
        # every derived fact, each stored once for the whole family
        reads = {
            "conflict_index": operator.attrgetter("conflict_index"),
            **{name: operator.methodcaller(name)
               for name in ("attestor_order", "attestor_chain", "predecessor_counts", "successor_rows")},
            # a proposer placement order, which an attestor copy does not read
            **{("order", s): lambda w, s=s: scheduler._placement_order(w.with_attestor(False), s) for s in SortType},
        }
        assert collections.Counter(stored) == collections.Counter(list(reads))

        def refuse(w):
            raise AssertionError("a family member built its own")

        rebuilt = dataclasses.replace(base)
        for key, read in reads.items():
            value = base._derived(key, refuse)
            assert all(read(w) is value and w._derived(key, refuse) is value for w in family), key
            # a `dataclasses.replace` copy starts a family of its own
            assert read(rebuilt) == value and read(rebuilt) is not value, key
        assert len(stored) == len(reads)
        rows = base.successor_rows()
        adjacency, splits = base.conflict_index.adjacency, base.predecessor_counts()
        assert rows == tuple(row[split:] for row, split in zip(adjacency, splits))
        assert rows == tuple(tuple(b for a, b in base.conflicts if a == i) for i in range(40))
        assert all(type(row) is tuple for row in rows)

    @given(
        n=st.integers(0, 60),
        source=st.sampled_from([*ConflictModel, "pairs"]),
        rate=st.floats(0, 1),
        seed=st.integers(0, 10_000),
        drawn=st.lists(st.tuples(st.integers(0, 59), st.integers(0, 59)), max_size=150),
    )
    @settings(max_examples=300, deadline=None)
    def test_attestor_data_from_the_columns_equal_the_index_split(self, n, source, rate, seed, drawn):
        # a generated block (none at n = 0), or one built from unsorted and
        # repeated pairs
        if source == "pairs" or n == 0:
            pairs = [ConflictPair(min(a, b), max(a, b)) for a, b in drawn if a != b and max(a, b) < n]
            pairs += pairs[: len(pairs) // 3]  # repeated
            random.Random(seed).shuffle(pairs)
            w = Workload(tuple(Process(i, 1 + i % 7, 1) for i in range(n)), tuple(pairs), CoreProfile(2))
        else:
            w = generate_workload(n, rate, model=source, seed=seed)
        # read off the columns, before the index exists: none is built
        fresh = dataclasses.replace(w)
        with mock.patch.object(conflictsched.model, "build_conflict_index", side_effect=AssertionError("index built")):
            before = fresh.successor_rows(), fresh.predecessor_counts(), fresh.attestor_order()
        # and after it is built
        idx = w.conflict_index
        after = w.successor_rows(), w.predecessor_counts(), w.attestor_order()
        splits = tuple(bisect_left(row, i) for i, row in enumerate(idx.adjacency))
        counts = idx.conflict_count
        expected = (
            tuple(row[split:] for row, split in zip(idx.adjacency, splits)),
            splits,
            tuple([i for i in range(n) if counts[i]] + [i for i in range(n) if not counts[i]]),
        )
        assert before == after == expected
        assert all(type(row) is tuple for row in before[0] + after[0])
