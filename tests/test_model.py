"""Workload types, file I/O, generator, and the gas-to-time estimator."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflictsched.model import (
    ConflictModel,
    ConflictPair,
    CoreProfile,
    GasTimeModel,
    Process,
    TimeDistribution,
    Weights,
    Workload,
    WorkloadValidationError,
    estimate_exec_time,
    generate_workload,
    load_workload,
    save_workload,
)


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
        w = generate_workload(40, 0.2, seed=2, ops_per_ms=500)
        assert all(p.op_count == p.exec_time_ms * 500 for p in w.processes)

    def test_invalid_rate_rejected(self):
        with pytest.raises(WorkloadValidationError, match="conflictRate"):
            generate_workload(10, 1.5, seed=0)
        with pytest.raises(WorkloadValidationError, match="conflictRate"):
            generate_workload(10, -0.1, seed=0)

    def test_invalid_n_rejected(self):
        with pytest.raises(WorkloadValidationError, match="n must be"):
            generate_workload(0, 0.5, seed=0)

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


class TestWeights:
    def test_cost_weight_is_derived(self):
        w = Weights(0.75)
        assert w.alpha_cost == pytest.approx(0.25)

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadValidationError):
            Weights(1.5)


class TestWorkloadInvariants:
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
