"""Conflict index construction and lookups, and the index a workload shares."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conflictsched.model
from conflictsched.model import (
    ConflictModel,
    ConflictPair,
    CoreProfile,
    Process,
    Workload,
    build_conflict_index,
    conflicts_with,
    generate_workload,
    load_schedule,
    load_workload,
    save_schedule,
    save_workload,
)
from conflictsched.oracle import validate_schedule
from conflictsched.scheduler import schedule


def make_workload(times, pairs):
    return Workload(
        processes=tuple(Process(i, t, t * 10) for i, t in enumerate(times)),
        conflicts=tuple(ConflictPair(a, b) for a, b in pairs),
        cores=CoreProfile(2),
    )


def test_empty_graph_has_zero_stats():
    idx = build_conflict_index(make_workload([3, 4, 5], []))
    assert idx.conflict_count == (0, 0, 0)
    assert idx.conflict_duration_ms == (0, 0, 0)


def test_star_example_matches_direct_summation():
    # oracle: sum partner times straight off the pair list
    w = make_workload([5, 7, 9], [(0, 1), (0, 2)])
    idx = build_conflict_index(w)
    assert idx.conflict_count == (2, 1, 1)
    assert idx.conflict_duration_ms == (7 + 9, 5, 5)


def test_complete_graph_durations_are_symmetric():
    w = make_workload([3, 3, 3, 3], [(a, b) for a in range(4) for b in range(a + 1, 4)])
    idx = build_conflict_index(w)
    assert idx.conflict_duration_ms == (9, 9, 9, 9)
    assert idx.conflict_count == (3, 3, 3, 3)


def test_adjacency_is_symmetric():
    w = generate_workload(40, 0.3, model=ConflictModel.PAIRWISE, seed=4)
    idx = build_conflict_index(w)
    for i in range(w.n):
        for j in idx.adjacency[i]:
            assert i in idx.adjacency[j]


@given(n=st.integers(1, 50), rate=st.floats(0, 1), seed=st.integers(0, 999))
@settings(max_examples=50, deadline=None)
def test_count_sum_is_twice_pair_count(n, rate, seed):
    w = generate_workload(n, rate, model=ConflictModel.PAIRWISE, seed=seed)
    idx = build_conflict_index(w)
    assert sum(idx.conflict_count) == 2 * len(w.conflicts)


def test_permuted_pair_list_builds_identical_index():
    w = generate_workload(30, 0.4, model=ConflictModel.PAIRWISE, seed=8)
    shuffled = list(w.conflicts)
    random.Random(0).shuffle(shuffled)
    permuted = Workload(
        processes=w.processes,
        conflicts=tuple(shuffled),
        cores=w.cores,
        attestor=w.attestor,
        meta=dict(w.meta),
    )
    assert build_conflict_index(permuted) == build_conflict_index(w)


def test_conflicts_with_lookups():
    w = make_workload([1, 1, 1], [(0, 1)])
    idx = build_conflict_index(w)
    assert not conflicts_with(idx, 0, 0)
    assert conflicts_with(idx, 0, 1)
    assert conflicts_with(idx, 1, 0)
    assert not conflicts_with(idx, 1, 2)


@given(
    n=st.integers(1, 30),
    pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=80),
)
@settings(max_examples=80, deadline=None)
def test_adjacency_rows_are_sorted_partner_tuples(n, pairs):
    # oracle: read each process's partners straight off the pair list,
    # given in any order and with repeats
    pairs = [ConflictPair(a, b) for a, b in pairs if a < b < n]
    random.Random(n).shuffle(pairs)
    idx = build_conflict_index(make_workload([1] * n, pairs))
    for i in range(n):
        partners = {b for a, b in pairs if a == i} | {a for a, b in pairs if b == i}
        assert idx.adjacency[i] == tuple(sorted(partners))


@pytest.mark.parametrize("first", ["base", "cores", "attestor", "both"])
def test_workload_family_shares_one_index(first):
    base = generate_workload(40, 0.3, model=ConflictModel.PAIRWISE, seed=4)
    family = {
        "base": base,
        "cores": base.with_cores(CoreProfile(5)),
        "attestor": base.with_attestor(True),
    }
    family["both"] = family["cores"].with_attestor(True)
    idx = family[first].conflict_index
    assert all(w.conflict_index is idx for w in family.values())
    assert base.with_cores(CoreProfile(3)).conflict_index is idx
    assert idx == build_conflict_index(base)


def test_replace_gets_a_fresh_correct_index():
    base = make_workload([5, 7, 9], [(0, 1), (0, 2)])
    old = base.conflict_index
    w = dataclasses.replace(base, conflicts=(ConflictPair(1, 2),))
    assert w.conflict_index is not old
    assert w.conflict_index == build_conflict_index(w)
    assert w.conflict_index.adjacency == ((), (2,), (1,))
    assert base.conflict_index is old


def test_loading_saving_and_validating_build_no_index(tmp_path, monkeypatch):
    w = generate_workload(50, 0.4, seed=2, cores=CoreProfile(3))
    save_schedule(schedule(w), tmp_path / "s.json")
    built = []
    monkeypatch.setattr(conflictsched.model, "build_conflict_index", built.append)
    save_workload(w, tmp_path / "w.json")
    loaded = load_workload(tmp_path / "w.json")
    assert validate_schedule(load_schedule(tmp_path / "s.json"), loaded).ok
    assert built == []
