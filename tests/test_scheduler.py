"""Greedy scheduler: sorting, strict/loose placement, and full runs."""

import dataclasses
import hashlib
import heapq
import inspect
import random
import statistics
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conflictsched.model
import conflictsched.scheduler as scheduler
from conflictsched.model import (
    Assignment,
    ConflictModel,
    ConflictPair,
    CoreProfile,
    Process,
    TimeDistribution,
    Workload,
    WorkloadValidationError,
    build_conflict_index,
    generate_workload,
    schedule_from_dict,
)
from conflictsched.oracle import validate_schedule
from conflictsched.scheduler import (
    AssignType,
    AttestorOrderError,
    Plan,
    SortType,
    Strategy,
    assign_loosely,
    assign_strictly,
    schedule,
    sort_processes,
)


def make_workload(times, pairs, m=2, attestor=False):
    return Workload(
        processes=tuple(Process(i, t, t * 10) for i, t in enumerate(times)),
        conflicts=tuple(ConflictPair(a, b) for a, b in pairs),
        cores=CoreProfile(m),
        attestor=attestor,
    )


THREE = make_workload([4, 3, 2], [(0, 1)], m=2)


class TestSortProcesses:
    def test_fifo_is_identity(self):
        w = generate_workload(30, 0.4, model=ConflictModel.PAIRWISE, seed=1)
        idx = build_conflict_index(w)
        assert sort_processes(w, idx, SortType.FIFO, False) == list(range(30))

    def test_mcdf_star_example(self):
        # durations are (16, 5, 5); the 1-vs-2 tie falls back to the id
        w = make_workload([5, 7, 9], [(0, 1), (0, 2)])
        idx = build_conflict_index(w)
        assert sort_processes(w, idx, SortType.MCDF, False) == [0, 1, 2]

    def test_attestor_partitions_participants_first(self):
        w = make_workload([1, 1, 1, 1], [(1, 3)], attestor=True)
        idx = build_conflict_index(w)
        for sort_type in SortType:
            assert sort_processes(w, idx, sort_type, True) == [1, 3, 0, 2]

    @pytest.mark.parametrize(
        "sort_type,key,reverse",
        [
            (SortType.MCCF, "count", True),
            (SortType.LCCF, "count", False),
            (SortType.MCDF, "duration", True),
            (SortType.LCDF, "duration", False),
        ],
    )
    def test_sort_keys_against_brute_force(self, sort_type, key, reverse):
        w = generate_workload(40, 0.25, model=ConflictModel.PAIRWISE, seed=17)
        idx = build_conflict_index(w)
        got = sort_processes(w, idx, sort_type, False)
        stats = idx.conflict_count if key == "count" else idx.conflict_duration_ms
        sign = -1 if reverse else 1
        expected = sorted(range(w.n), key=lambda i: (sign * stats[i], i))
        assert got == expected

    def test_attestor_order_is_built_once_and_returned_fresh(self):
        w = make_workload([1, 1, 1, 1], [(1, 3)], attestor=True)
        idx = w.conflict_index
        first = sort_processes(w, idx, SortType.MCDF, True)
        first.reverse()  # a caller's edit must not reach the cached order
        family = (w, w.with_cores(CoreProfile(3)), w.with_attestor(False))
        assert all(sort_processes(v, idx, SortType.FIFO, True) == [1, 3, 0, 2] for v in family)
        assert all(v.attestor_order() is w.attestor_order() == (1, 3, 0, 2) for v in family)

    def test_proposer_orders_are_sorted_once_per_family_and_shared(self):
        w = generate_workload(40, 0.3, model=ConflictModel.PAIRWISE, seed=9, cores=CoreProfile(2))
        family = (
            w,
            w.with_cores(CoreProfile(3)),
            w.with_attestor(True).with_attestor(False),
            w.with_cores(CoreProfile(5)),
        )
        real_sort = scheduler.sort_processes
        sorted_keys = []

        def counted(v, idx, sort_type, is_attestor):
            sorted_keys.append(sort_type)
            return real_sort(v, idx, sort_type, is_attestor)

        with mock.patch.object(scheduler, "sort_processes", counted):
            for _ in range(2):
                for sort_type in SortType:
                    for v in family:
                        schedule(v, Strategy(sort_type, AssignType.LOOSE, 3))
                        schedule(v, Strategy(sort_type, AssignType.STRICT))
        # each key once, on its first call in the family
        assert sorted_keys == list(SortType)
        idx = w.conflict_index
        for sort_type in SortType:
            order = scheduler._placement_order(w, sort_type)
            assert order == tuple(sort_processes(w, idx, sort_type, False))
            assert all(scheduler._placement_order(v, sort_type) is order for v in family)

    @pytest.mark.parametrize("attestor", [False, True])
    def test_mutating_a_sorted_order_changes_no_later_schedule(self, attestor):
        def block():
            return generate_workload(60, 0.35, seed=21, cores=CoreProfile(3), attestor=attestor)

        w = block()
        idx = w.conflict_index
        strategies = [Strategy(s, a, 2) for s in SortType for a in (AssignType.LOOSE, AssignType.STRICT)]
        # once before the family caches an order, once after
        for _ in range(2):
            for strategy in strategies:
                order = sort_processes(w, idx, strategy.sort_type, attestor)
                order.reverse()
                order.append(order.pop(0))
                assert schedule(w, strategy).assignments == schedule(block(), strategy).assignments


class TestAssignStrictly:
    def test_hand_traced_example(self):
        sch = schedule(THREE, Strategy(SortType.FIFO, AssignType.STRICT))
        assert sch.assignments == (
            Assignment(0, 0, 0, 4),
            Assignment(1, 1, 4, 7),
            Assignment(2, 0, 4, 6),
        )
        assert sch.schedule_makespan_ms == 7
        assert sch.horizon_ms == 9

    def test_single_process_starts_at_zero_on_core0(self):
        sch = schedule(make_workload([6], [], m=4), Strategy(SortType.FIFO, AssignType.STRICT))
        assert sch.assignments == (Assignment(0, 0, 0, 6),)

    def test_equal_times_no_conflicts_balance_perfectly(self):
        w = make_workload([5] * 8, [], m=4)
        sch = schedule(w, Strategy(SortType.FIFO, AssignType.STRICT))
        assert sch.schedule_makespan_ms == 10
        assert all(a.start_ms % 5 == 0 for a in sch.assignments)

    def test_attestor_order_violation_raises(self):
        w = make_workload([2, 2], [(0, 1)], attestor=True)
        idx = build_conflict_index(w)
        plan = Plan.empty(w)
        with pytest.raises(AttestorOrderError, match="^process 1 assigned before conflicting predecessor 0$"):
            assign_strictly(w.processes[1], plan, idx, True)
        assert plan.assigned == {} and sorted(plan.ends) == [(0, 0), (0, 1)]

    def test_attestor_order_violation_names_the_first_unplaced_predecessor(self):
        w = make_workload([2, 3, 4, 1], [(0, 3), (1, 3), (2, 3)], m=2, attestor=True)
        idx = w.conflict_index
        plan = Plan.empty(w)
        assign_strictly(w.processes[0], plan, idx, True)
        before = (list(plan.ends), dict(plan.assigned))
        with pytest.raises(AttestorOrderError, match="^process 3 assigned before conflicting predecessor 1$"):
            assign_strictly(w.processes[3], plan, idx, True)
        assert (plan.ends, plan.assigned) == before


class TestAssignLoosely:
    def test_refuses_overlap_and_leaves_plan_untouched(self):
        idx = build_conflict_index(THREE)
        plan = Plan.empty(THREE)
        assert assign_loosely(THREE.processes[0], plan, idx, False) is not None
        before = (list(plan.ends), dict(plan.assigned))
        assert assign_loosely(THREE.processes[1], plan, idx, False) is None
        assert (plan.ends, plan.assigned) == before
        got = assign_loosely(THREE.processes[2], plan, idx, False)
        assert got == Assignment(2, 1, 0, 2)

    def test_conflict_free_process_is_never_refused(self):
        w = make_workload([3, 3, 3, 3], [], m=2)
        idx = build_conflict_index(w)
        plan = Plan.empty(w)
        for pid in range(4):
            assert assign_loosely(w.processes[pid], plan, idx, False) is not None

    def test_attestor_gate_refuses_before_predecessor_assigned(self):
        w = make_workload([1] * 6, [(2, 5)], attestor=True)
        idx = build_conflict_index(w)
        plan = Plan.empty(w)
        assert assign_loosely(w.processes[5], plan, idx, True) is None

    def test_attestor_refuses_start_before_predecessor_finish(self):
        # predecessor placed late on core 1; candidate slot on empty core 0
        # would be disjoint but run ahead of it, breaking order
        w = make_workload([4, 4], [(0, 1)], m=2, attestor=True)
        idx = build_conflict_index(w)
        plan = Plan([(0, 0), (104, 1)], {0: Assignment(0, 1, 100, 104)})
        assert assign_loosely(w.processes[1], plan, idx, True) is None
        assert sorted(plan.ends) == [(0, 0), (104, 1)]
        assert list(plan.assigned) == [0]


class TestHandBuiltPlans:
    # a hand-built plan need not keep schedule()'s invariant that no placed
    # process starts after the heap top; the per-process functions apply
    # the per-partner rules to it all the same

    def test_loose_proposer_counts_only_overlapping_partners(self):
        w = make_workload([2, 2], [(0, 1)], m=2)
        idx = build_conflict_index(w)

        def plan():
            return Plan([(3, 0), (12, 1)], {0: Assignment(0, 1, 10, 12)})

        # [3, 5) is disjoint from the partner's later [10, 12): a rule on
        # the partner's finish alone would refuse it
        assert assign_loosely(w.processes[1], plan(), idx, False) == Assignment(1, 0, 3, 5)
        assert assign_strictly(w.processes[1], plan(), idx, False) == Assignment(1, 0, 12, 14)

    def test_attestor_loose_refuses_a_later_partner_placed_past_the_heap_top(self):
        w = make_workload([4, 4], [(0, 1)], m=2, attestor=True)
        idx = build_conflict_index(w)
        plan = Plan([(0, 0), (104, 1)], {1: Assignment(1, 1, 100, 104)})
        assert assign_loosely(w.processes[0], plan, idx, True) is None
        assert sorted(plan.ends) == [(0, 0), (104, 1)]
        assert list(plan.assigned) == [1]

    @pytest.mark.parametrize("attestor", [False, True])
    @pytest.mark.parametrize("model", list(ConflictModel))
    def test_per_process_calls_follow_the_per_partner_rules(self, model, attestor):
        # 300 seeded plans per cell, 1 200 in all: about half the processes
        # placed at random starts, the cores given random ends
        rng = random.Random(f"{model.value}-{attestor}")
        for seed in range(300):
            m = rng.randint(1, 3)
            w = generate_workload(
                rng.randint(1, 9), rng.uniform(0, 0.9), model=model, seed=seed,
                cores=CoreProfile(m), attestor=attestor,
            )
            assigned = {}
            for p in w.processes:
                if rng.random() < 0.5:
                    start = rng.randint(0, 20)
                    assigned[p.id] = Assignment(p.id, rng.randrange(m), start, start + p.exec_time_ms)
            ends = [(rng.randint(0, 20), k) for k in range(m)]
            for p in w.processes:
                if p.id in assigned:
                    continue
                for place, loose in ((assign_loosely, True), (assign_strictly, False)):
                    expected = per_partner_placement(w, Plan(list(ends), dict(assigned)), p.id, loose)
                    plan = Plan(list(ends), dict(assigned))
                    try:
                        got = place(p, plan, w.conflict_index, attestor)
                    except AttestorOrderError as e:
                        got = str(e)
                    assert (got, plan.ends, plan.assigned) == expected


def per_partner_placement(w, plan, pid, loose):
    """What placing ``pid`` on ``plan`` gives: (result, ends, assigned).

    The result is the new `Assignment`, None for a refusal, or the
    `AttestorOrderError` message. Written out partner by partner from the
    conflict pairs, with no state carried between partners.
    """
    unchanged = (list(plan.ends), dict(plan.assigned))
    partners = sorted({a if b == pid else b for a, b in w.conflicts if pid in (a, b)})
    waiting = [q for q in partners if w.attestor and q < pid and q not in plan.assigned]
    if waiting:
        if loose:
            return (None, *unchanged)
        return (f"process {pid} assigned before conflicting predecessor {waiting[0]}", *unchanged)
    start, core_id = min(plan.ends)
    exec_ms = w.processes[pid].exec_time_ms
    finish = start + exec_ms
    placed = [plan.assigned[q] for q in partners if q in plan.assigned]
    if loose:
        # in loose proposer mode only a partner that overlaps the slot counts
        if any(a.finish_ms > start and (w.attestor or a.start_ms < finish) for a in placed):
            return (None, *unchanged)
    else:
        start = max([start] + [a.finish_ms for a in placed])
    new = Assignment(pid, core_id, start, start + exec_ms)
    ends = list(plan.ends)
    heapq.heapreplace(ends, (new.finish_ms, core_id))
    return new, ends, {**plan.assigned, pid: new}


class TestKernel:
    def test_schedule_builds_no_plan(self):
        w = generate_workload(40, 0.4, seed=2, cores=CoreProfile(3))
        with mock.patch.object(Plan, "__init__", side_effect=AssertionError("schedule built a Plan")):
            with pytest.raises(AssertionError, match="schedule built a Plan"):
                Plan.empty(w)
            for v in (w, w.with_attestor(True)):
                for assign in AssignType:
                    sch = schedule(v, Strategy(SortType.MCDF, assign, 3))
                    assert validate_schedule(sch, v).ok

    def test_strict_attestor_names_the_first_unplaced_predecessor(self):
        # 2 waits for 0 and 1; 1 is placed on core 0, 0 is not, so a test
        # of 0 against the core ids would take it for placed
        w = make_workload([2, 3, 4], [(0, 2), (1, 2)], m=2, attestor=True)
        times = w.exec_times()
        m = 2
        ends = [0 * m + 0, 0 * m + 1]
        core_of = [0] * 3
        start_of = [-1] * 3
        finish_of = [0] * 3
        release = [0] * 3
        waiting = list(w.predecessor_counts())

        def place(pids):
            return scheduler._place(
                ends, core_of, start_of, finish_of, release, waiting, times,
                w.successor_rows(), pids, False,
            )

        assert place([1]) == []
        state = (list(ends), list(core_of), list(start_of), list(finish_of), list(release), list(waiting))
        assert state == ([0 * m + 1, 3 * m + 0], [0, 0, 0], [-1, 0, -1], [0, 3, 0], [0, 0, 3], [0, 0, 1])
        with pytest.raises(AttestorOrderError, match="^process 2 assigned before conflicting predecessor 0$"):
            place([2])
        assert (ends, core_of, start_of, finish_of, release, waiting) == state


class TestCorePick:
    def test_plan_from_busy_cores_picks_least_occupied(self):
        # cores 1 and 3 tie at 4: the lower id goes first, then core 3
        w = make_workload([2, 2, 2], [], m=4)
        idx = build_conflict_index(w)
        plan = Plan([(9, 0), (4, 1), (7, 2), (4, 3)])
        got = [assign_strictly(p, plan, idx, False) for p in w.processes]
        assert got == [Assignment(0, 1, 4, 6), Assignment(1, 3, 4, 6), Assignment(2, 1, 6, 8)]
        assert sorted(plan.ends) == [(6, 3), (7, 2), (8, 1), (9, 0)]

    @given(
        n=st.integers(1, 30),
        rate=st.floats(0, 0.6),
        m=st.integers(1, 8),
        seed=st.integers(0, 2_000),
        # the replay rebuilds the greedy only
        assign=st.sampled_from([AssignType.LOOSE, AssignType.STRICT]),
        rounds=st.integers(0, 3),
        attestor=st.booleans(),
        model=st.sampled_from(list(ConflictModel)),
    )
    @settings(max_examples=80, deadline=None)
    def test_heap_top_is_least_occupied_after_every_commit(
        self, n, rate, m, seed, assign, rounds, attestor, model
    ):
        w = generate_workload(
            n, rate, model=model, seed=seed, cores=CoreProfile(m), attestor=attestor
        )
        commits = []

        def check(place, plan, before, a):
            if a is None:
                assert plan.ends == before
                return
            assert before[0] == min(before)
            assert a.core_id == before[0][1]
            assert (a.finish_ms, a.core_id) in plan.ends
            assert plan.ends[0] == min(plan.ends)
            assert sorted(k for _, k in plan.ends) == list(range(m))
            commits.append(a)

        replay(w, Strategy(SortType.MCDF, assign, rounds), check)
        assert len(commits) == n

    @given(
        n=st.integers(1, 40),
        rate=st.floats(0, 0.6),
        m=st.integers(1, 8),
        seed=st.integers(0, 2_000),
        sort_type=st.sampled_from(list(SortType)),
        rounds=st.integers(0, 3),
        attestor=st.booleans(),
        model=st.sampled_from(list(ConflictModel)),
    )
    @settings(max_examples=80, deadline=None)
    def test_loose_starts_never_pass_the_heap_top(
        self, n, rate, m, seed, sort_type, rounds, attestor, model
    ):
        # what lets schedule() decide a loose attempt from the latest
        # partner finish alone: every placed partner starts no later than
        # the candidate
        w = generate_workload(
            n, rate, model=model, seed=seed, cores=CoreProfile(m), attestor=attestor
        )

        def check(place, plan, before, a):
            if place is assign_loosely:
                assert a is None or a.start_ms == before[0][0]
                assert all(p.start_ms <= plan.ends[0][0] for p in plan.assigned.values())

        replay(w, Strategy(sort_type, AssignType.LOOSE, rounds), check)


def replay(w, strategy, observe=lambda place, plan, before, a: None):
    """schedule() rebuilt from its public parts, one placement call at a time.

    Runs every loose round, even one with nothing left to place, then the
    strict fallback; ``observe`` sees the placement function, the plan, a
    copy of its heap from before the call, and the call's result.
    """
    idx = w.conflict_index
    order = sort_processes(w, idx, strategy.sort_type, w.attestor)
    plan = Plan.empty(w)
    loose = strategy.assign_type is AssignType.LOOSE
    calls = [assign_loosely] * (strategy.loose_review_round + 1 if loose else 0)
    for place in calls + [assign_strictly]:
        for pid in [pid for pid in order if pid not in plan.assigned]:
            before = list(plan.ends)
            observe(place, plan, before, place(w.processes[pid], plan, idx, w.attestor))
    return tuple(plan.assigned[pid] for pid in range(w.n))


class TestSchedule:
    @pytest.mark.parametrize("model", list(ConflictModel))
    def test_attestor_calls_never_build_the_conflict_index(self, model):
        rate = 0.45 if model is ConflictModel.PARTICIPATION else 0.05
        base = generate_workload(80, rate, model=model, seed=12, cores=CoreProfile(4))
        strategies = (
            Strategy(SortType.MCDF, AssignType.LOOSE, 3),
            Strategy(SortType.FIFO, AssignType.STRICT),
            Strategy(assign_type=AssignType.EVENT),
        )
        # the reference: the greedy's per-process replay, which reads the
        # index, and EVENT on a family whose index is built
        reference = base.with_attestor(True)
        assert reference.conflict_index == build_conflict_index(reference)
        expected = [replay(reference, strategy) for strategy in strategies[:2]]
        expected.append(schedule(reference, strategies[2]).assignments)
        w = dataclasses.replace(base, attestor=True)
        with mock.patch.object(
            conflictsched.model, "build_conflict_index", side_effect=AssertionError("index built")
        ):
            got = [schedule(w, strategy) for strategy in strategies]
        assert [sch.assignments for sch in got] == expected
        assert all(validate_schedule(sch, w).ok for sch in got)
        # a proposer call of the same family still builds it, once
        built = []

        def counted(v):
            built.append(v)
            return build_conflict_index(v)

        with mock.patch.object(conflictsched.model, "build_conflict_index", counted):
            for strategy in strategies:
                schedule(w.with_attestor(False), strategy)
        assert len(built) == 1

    def test_loose_with_fallback_matches_hand_trace(self):
        sch = schedule(THREE, Strategy(SortType.FIFO, AssignType.LOOSE, 2))
        assert sch.assignments == (
            Assignment(0, 0, 0, 4),
            Assignment(1, 1, 4, 7),
            Assignment(2, 1, 0, 2),
        )
        assert sch.schedule_makespan_ms == 7

    def test_single_core_is_serial(self):
        w = generate_workload(40, 0.3, seed=6, cores=CoreProfile(1))
        for strat in (Strategy(SortType.MCDF, AssignType.LOOSE, 3),
                      Strategy(SortType.FIFO, AssignType.STRICT)):
            sch = schedule(w, strat)
            assert sch.schedule_makespan_ms == sch.horizon_ms

    @pytest.mark.parametrize("m", [1, 2, 5])
    @pytest.mark.parametrize("assign", list(AssignType))
    def test_complete_conflict_graph_serializes(self, m, assign):
        pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
        w = make_workload([2, 3, 4, 5, 6, 7], pairs, m=m)
        sch = schedule(w, Strategy(SortType.FIFO, assign, 3))
        assert sch.schedule_makespan_ms == sch.horizon_ms == 27

    def test_deterministic_modulo_wall_time(self):
        w = generate_workload(80, 0.35, seed=12, cores=CoreProfile(4))
        a = schedule(w)
        b = schedule(w)
        assert a.assignments == b.assignments
        assert a.schedule_makespan_ms == b.schedule_makespan_ms
        assert a.horizon_ms == b.horizon_ms

    @pytest.mark.parametrize("sort_type", list(SortType))
    def test_zero_conflicts_proposer_equals_attestor(self, sort_type):
        base = generate_workload(60, 0.0, seed=3, cores=CoreProfile(4))
        for assign in AssignType:
            strat = Strategy(sort_type, assign, 3)
            a = schedule(base.with_attestor(False), strat)
            b = schedule(base.with_attestor(True), strat)
            assert a.schedule_makespan_ms == b.schedule_makespan_ms

    @given(
        n=st.integers(1, 40),
        rate=st.floats(0, 0.6),
        m=st.integers(1, 8),
        seed=st.integers(0, 2_000),
        sort_type=st.sampled_from(list(SortType)),
        # the replay rebuilds the greedy only
        assign=st.sampled_from([AssignType.LOOSE, AssignType.STRICT]),
        rounds=st.integers(0, 3),
        attestor=st.booleans(),
        model=st.sampled_from(list(ConflictModel)),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_a_replay_through_the_public_parts(
        self, n, rate, m, seed, sort_type, assign, rounds, attestor, model
    ):
        w = generate_workload(n, rate, model=model, seed=seed, cores=CoreProfile(m), attestor=attestor)
        strategy = Strategy(sort_type, assign, rounds)
        assert schedule(w, strategy).assignments == replay(w, strategy)

    @pytest.mark.parametrize("m", [1, 3, 7, 33, 64, 100])
    @pytest.mark.parametrize("attestor", [False, True])
    @pytest.mark.parametrize("model", list(ConflictModel))
    def test_int_core_keys_equal_the_replay_at_any_core_count(self, m, attestor, model):
        # the kernel's heap keys are finish * m + core: with fewer processes
        # than cores every pick is an idle core tied at 0, with more the
        # ends tie and split at finishes of every size
        rate = 0.35 if model is ConflictModel.PARTICIPATION else 0.05
        for n in sorted({max(1, m // 2), 2 * m + 5}):
            w = generate_workload(n, rate, model=model, seed=m + n, cores=CoreProfile(m), attestor=attestor)
            for strategy in (
                Strategy(SortType.MCDF, AssignType.LOOSE, 0),
                Strategy(SortType.MCDF, AssignType.LOOSE, 3),
                Strategy(SortType.FIFO, AssignType.STRICT),
            ):
                sch = schedule(w, strategy)
                assert sch.assignments == replay(w, strategy)
                assert sch.schedule_makespan_ms == max(a.finish_ms for a in sch.assignments)

    @pytest.mark.parametrize("attestor", [False, True])
    def test_loose_rounds_stop_once_one_places_nothing(self, attestor):
        w = generate_workload(30, 0.6, seed=4, cores=CoreProfile(3), attestor=attestor)
        real_place = scheduler._place
        bind = inspect.signature(real_place).bind
        calls = []  # (loose, offered, refused) per kernel call
        columns = []  # the (ends, core_of, start_of, finish_of) objects of each call

        def counted(*args):
            refused = real_place(*args)
            call = bind(*args).arguments
            calls.append((call["loose"], len(call["pids"]), len(refused)))
            columns.append((call["ends"], call["core_of"], call["start_of"], call["finish_of"]))
            return refused

        with mock.patch.object(scheduler, "_place", counted):
            sch = schedule(w, Strategy(SortType.MCDF, AssignType.LOOSE, 10**9))
        # every call wrote the same columns, and the schedule is read off them
        ends, core_of, start_of, finish_of = columns[0]
        assert all(
            c[0] is ends and c[1] is core_of and c[2] is start_of and c[3] is finish_of for c in columns
        )
        assert core_of == [a.core_id for a in sch.assignments]
        assert start_of == [a.start_ms for a in sch.assignments]
        assert finish_of == [a.finish_ms for a in sch.assignments]
        assert max(ends) // w.cores.core_count == sch.schedule_makespan_ms
        *rounds, strict = calls
        # every loose round but the last placed something, the last placed
        # nothing, and one strict call placed what was left
        assert all(loose for loose, _, _ in rounds) and not strict[0]
        assert all(refused < offered for _, offered, refused in rounds[:-1])
        assert rounds[-1][1] == rounds[-1][2] and strict[2] == 0
        assert len(rounds) <= w.n + 1
        assert sch.assignments == replay(w, Strategy(SortType.MCDF, AssignType.LOOSE, w.n + 1))

    def test_loose_round_zero_only_still_completes(self):
        sch = schedule(THREE, Strategy(SortType.FIFO, AssignType.LOOSE, 0))
        assert validate_schedule(sch, THREE).ok
        assert len(sch.assignments) == 3

    @given(
        n=st.integers(1, 40),
        rate=st.floats(0, 0.6),
        m=st.integers(1, 8),
        seed=st.integers(0, 2_000),
        sort_type=st.sampled_from(list(SortType)),
        assign=st.sampled_from(list(AssignType)),
        rounds=st.integers(0, 4),
        attestor=st.booleans(),
        model=st.sampled_from(list(ConflictModel)),
    )
    @settings(max_examples=120, deadline=None)
    def test_every_schedule_validates(self, n, rate, m, seed, sort_type, assign, rounds, attestor, model):
        w = generate_workload(n, rate, model=model, seed=seed, cores=CoreProfile(m), attestor=attestor)
        sch = schedule(w, Strategy(sort_type, assign, rounds))
        report = validate_schedule(sch, w)
        assert report.ok, report.violations
        assert sch.horizon_ms == sum(p.exec_time_ms for p in w.processes)
        assert sch.schedule_makespan_ms == max(a.finish_ms for a in sch.assignments)

    def test_proposer_dominates_attestor_on_average(self):
        # argmax-level property: free reordering wins in aggregate, with
        # individual ties allowed
        prop, att = [], []
        for seed in range(30):
            base = generate_workload(60, 0.35, seed=seed, cores=CoreProfile(4))
            prop.append(schedule(base.with_attestor(False)).schedule_makespan_ms)
            att.append(schedule(base.with_attestor(True)).schedule_makespan_ms)
        assert statistics.mean(prop) <= statistics.mean(att)

    def test_assignments_match_reference_digest(self):
        # pins every greedy strategy's assignments in both conflict models
        # and both modes; a placement change must update this digest
        # deliberately
        h = hashlib.sha256()
        for model in ConflictModel:
            for seed, (n, rate, m) in enumerate([(40, 0.3, 3), (60, 0.45, 4), (25, 0.15, 2)]):
                base = generate_workload(n, rate, model=model, seed=seed, cores=CoreProfile(m))
                for attestor in (False, True):
                    w = base.with_attestor(attestor)
                    for sort_type in SortType:
                        for assign in (AssignType.LOOSE, AssignType.STRICT):
                            for rounds in (0, 3):
                                sch = schedule(w, Strategy(sort_type, assign, rounds))
                                rows = tuple(
                                    (a.process_id, a.core_id, a.start_ms, a.finish_ms)
                                    for a in sch.assignments
                                )
                                h.update(repr(rows).encode())
        assert h.hexdigest() == "a5ffaeb7545620185fff0d82384fd978e439b1c17fb34b8f84fb68872f6140d6"

    def test_block_file_assignments_match_reference_digest(self):
        # the greedy at the size where its placement rounds run longest:
        # both conflict models' n = 2 000 blocks as the block-file benchmark
        # generates them, on 16 and 64 cores, in both modes
        h = hashlib.sha256()
        models = [(ConflictModel.PARTICIPATION, 0.45), (ConflictModel.PAIRWISE, 0.02)]
        for seed, (model, rate) in enumerate(models):
            base = generate_workload(2000, rate, model=model, seed=seed)
            for m in (16, 64):
                for attestor in (False, True):
                    w = base.with_cores(CoreProfile(m)).with_attestor(attestor)
                    for sort_type in SortType:
                        for assign, rounds in ((AssignType.LOOSE, 0), (AssignType.LOOSE, 3), (AssignType.STRICT, 0)):
                            sch = schedule(w, Strategy(sort_type, assign, rounds))
                            rows = tuple(
                                (a.process_id, a.core_id, a.start_ms, a.finish_ms)
                                for a in sch.assignments
                            )
                            h.update(repr(rows).encode())
        assert h.hexdigest() == "a4c39289679d94fecb25ccf1b920c6bb16e9c742972466811d9fbb9106b80f88"

    def test_constant_times_loose_equals_horizon_over_m(self):
        w = generate_workload(
            32, 0.0, seed=1, cores=CoreProfile(8), time_dist=TimeDistribution.constant(5)
        )
        sch = schedule(w)
        assert sch.schedule_makespan_ms == sch.horizon_ms // 8


class TestAssignment:
    def test_is_a_named_tuple_with_the_old_repr(self):
        a = Assignment(3, 1, 4, 9)
        assert a == (3, 1, 4, 9)
        assert (a.process_id, a.core_id, a.start_ms, a.finish_ms) == (3, 1, 4, 9)
        assert repr(a) == "Assignment(process_id=3, core_id=1, start_ms=4, finish_ms=9)"


class TestStrategy:
    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            Strategy(SortType.FIFO, AssignType.LOOSE, -1)

    def test_labels(self):
        assert Strategy(SortType.MCDF, AssignType.LOOSE, 3).label == "MCDF-LOOSE-3"
        assert Strategy(SortType.FIFO, AssignType.STRICT).label == "FIFO-STRICT"

    @pytest.mark.parametrize(
        "args,field",
        [
            (("FIFO",), "sort_type"),
            ((AssignType.STRICT,), "sort_type"),
            ((None,), "sort_type"),
            ((SortType.MCDF, "STRICT"), "assign_type"),
            ((SortType.MCDF, SortType.FIFO), "assign_type"),
            ((SortType.MCDF, AssignType.LOOSE, 1.5), "loose_review_round"),
            ((SortType.MCDF, AssignType.LOOSE, True), "loose_review_round"),
            ((SortType.MCDF, AssignType.LOOSE, "3"), "loose_review_round"),
        ],
    )
    def test_bad_field_values_rejected(self, args, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Strategy(*args)


ASSIGNMENT_KEYS = ("processId", "coreId", "startMs", "finishMs")
int_or_not = st.one_of(st.integers(-3, 50), st.booleans(), st.floats(allow_nan=False), st.text(max_size=2))


def assignment_entry_ok(entry):
    return (
        isinstance(entry, dict)
        and set(entry) == set(ASSIGNMENT_KEYS)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in entry.values())
    )


class TestScheduleFromDict:
    @given(
        entries=st.lists(
            st.one_of(
                st.fixed_dictionaries({key: st.integers(-3, 50) for key in ASSIGNMENT_KEYS}),
                st.dictionaries(st.sampled_from(ASSIGNMENT_KEYS + ("extra",)), int_or_not, max_size=5),
                int_or_not,
            ),
            max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_the_reader_names_the_first_bad_entry_as_the_per_entry_rule_does(self, entries):
        raw = {"assignments": entries, "horizonMs": 1, "scheduleMakespanMs": 1, "wallTimeMs": 0.5}
        bad = [pos for pos, entry in enumerate(entries) if not assignment_entry_ok(entry)]
        if bad:
            with pytest.raises(WorkloadValidationError, match=rf"^assignments\[{bad[0]}\]"):
                schedule_from_dict(raw)
        else:
            sch = schedule_from_dict(raw)
            assert sch.assignments == tuple(
                Assignment(*(entry[key] for key in ASSIGNMENT_KEYS)) for entry in entries
            )
            assert all(type(a) is Assignment for a in sch.assignments)


def longest_chain(w):
    """The longest id-ordered conflict chain: attestor mode's critical path."""
    times = w.exec_times()
    earlier = {b: [] for b in range(w.n)}
    for a, b in w.conflicts:
        earlier[b].append(a)
    ends = []
    for b in range(w.n):
        ends.append(times[b] + max((ends[a] for a in earlier[b]), default=0))
    return max(ends, default=0)


class TestEvent:
    EVENT = Strategy(assign_type=AssignType.EVENT)

    def test_label_ignores_sort_and_rounds(self):
        labels = {Strategy(sort, AssignType.EVENT, r).label for sort in SortType for r in (0, 3)}
        assert labels == {"EVENT"}

    def test_proposer_hand_trace(self):
        # priorities (own + partner time) 7, 7, 2: process 1 parks on its
        # running partner 0 and starts on core 0 when 0 finishes
        sch = schedule(THREE, self.EVENT)
        assert sch.assignments == (
            Assignment(0, 0, 0, 4),
            Assignment(1, 0, 4, 7),
            Assignment(2, 1, 0, 2),
        )
        assert sch.schedule_makespan_ms == 7

    def test_attestor_hand_trace(self):
        # bottom levels 5, 8, 3, 4; process 2 waits for both 0 and 1
        w = make_workload([2, 5, 3, 4], [(0, 2), (1, 2)], attestor=True)
        sch = schedule(w, self.EVENT)
        assert sch.assignments == (
            Assignment(0, 1, 0, 2),
            Assignment(1, 0, 0, 5),
            Assignment(2, 0, 5, 8),
            Assignment(3, 1, 2, 6),
        )
        assert sch.schedule_makespan_ms == 8

    @given(
        n=st.integers(1, 60),
        rate=st.floats(0, 0.8),
        m=st.integers(1, 8),
        seed=st.integers(0, 2_000),
        model=st.sampled_from(list(ConflictModel)),
    )
    @settings(max_examples=200, deadline=None)
    def test_attestor_meets_grahams_bound(self, n, rate, m, seed, model):
        # list scheduling under precedence: m * Cmax <= W + (m - 1) * CP
        w = generate_workload(n, rate, model=model, seed=seed, cores=CoreProfile(m), attestor=True)
        sch = schedule(w, self.EVENT)
        assert validate_schedule(sch, w).ok
        assert m * sch.schedule_makespan_ms <= sch.horizon_ms + (m - 1) * longest_chain(w)

    def test_empty_workload(self):
        w = make_workload([], [], m=3)
        sch = schedule(w, self.EVENT)
        assert sch.assignments == () and sch.schedule_makespan_ms == 0

    def test_assignments_match_reference_digest(self):
        # the workloads of the greedy's digest test, under EVENT
        h = hashlib.sha256()
        for model in ConflictModel:
            for seed, (n, rate, m) in enumerate([(40, 0.3, 3), (60, 0.45, 4), (25, 0.15, 2)]):
                base = generate_workload(n, rate, model=model, seed=seed, cores=CoreProfile(m))
                for attestor in (False, True):
                    sch = schedule(base.with_attestor(attestor), self.EVENT)
                    h.update(repr(tuple(map(tuple, sch.assignments))).encode())
        assert h.hexdigest() == "9cd10d85bbfbb6f1e8269312427cd1789042e827f3074b174cd4dc482a2d0f92"
