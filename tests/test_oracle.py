"""Schedule validator and the exact branch-and-bound solver."""

import dataclasses
import hashlib
import random
import sys

import pytest

import conflictsched.model
import conflictsched.oracle
from conflictsched.model import (
    Assignment,
    ConflictModel,
    ConflictPair,
    CoreProfile,
    Process,
    Schedule,
    Workload,
    build_conflict_index,
    generate_workload,
)
from conflictsched.oracle import DEFAULT_NODE_BUDGET, exact_optimal, validate_schedule
from conflictsched.scheduler import (
    AssignType,
    SortType,
    Strategy,
    schedule,
)


# EVENT once (it reads no sort key), then the 10 greedy strategies, in the
# order of the oracle's incumbent sweep
DISTINCT_STRATEGIES = [Strategy(assign_type=AssignType.EVENT)] + [
    Strategy(sort, assign, 3) for sort in SortType for assign in (AssignType.LOOSE, AssignType.STRICT)
]


def pure_enumeration_optimum(w):
    """The minimum makespan over every placement order and core choice.

    The reference for `exact_optimal`, sharing no code with it: each
    process starts on its chosen core at the earliest time after that
    core's last finish and its placed partners' finishes, and the minimum
    is taken over the leaves that `validate_schedule` accepts (so an
    attestor leaf out of id order counts for nothing). A leaf no shorter
    than the best accepted one cannot lower the minimum, so only the
    others are validated.
    """
    n, m = w.n, w.cores.core_count
    times = [p.exec_time_ms for p in w.processes]
    partners = [[] for _ in range(n)]
    for a, b in w.conflicts:
        partners[a].append(b)
        partners[b].append(a)
    ends = [0] * m
    spans = [None] * n  # process id -> (core, start, finish) once placed
    best = []

    def place(unplaced):
        if not unplaced:
            makespan = max(ends)
            if not best or makespan < best[-1]:
                sch = Schedule(
                    assignments=tuple(Assignment(pid, *spans[pid]) for pid in range(n)),
                    horizon_ms=sum(times),
                    schedule_makespan_ms=makespan,
                    wall_time_ms=0.0,
                )
                if validate_schedule(sch, w).ok:
                    best.append(makespan)
            return
        for pid in unplaced:
            floor = 0
            for q in partners[pid]:
                if spans[q] and spans[q][2] > floor:
                    floor = spans[q][2]
            rest = [q for q in unplaced if q != pid]
            for k in range(m):
                prev_end = ends[k]
                start = max(prev_end, floor)
                ends[k] = start + times[pid]
                spans[pid] = (k, start, ends[k])
                place(rest)
                ends[k] = prev_end
            spans[pid] = None

    place(range(n))
    return best[-1]


def make_workload(times, pairs, m=2, attestor=False):
    return Workload(
        processes=tuple(Process(i, t, t * 10) for i, t in enumerate(times)),
        conflicts=tuple(ConflictPair(a, b) for a, b in pairs),
        cores=CoreProfile(m),
        attestor=attestor,
    )


def make_schedule(assignments, horizon=None):
    asg = tuple(Assignment(*a) for a in assignments)
    makespan = max((a.finish_ms for a in asg), default=0)
    return Schedule(
        assignments=asg,
        horizon_ms=horizon if horizon is not None else sum(a.finish_ms - a.start_ms for a in asg),
        schedule_makespan_ms=makespan,
        wall_time_ms=0.0,
    )


class TestValidateSchedule:
    def test_serial_single_core_is_valid(self):
        w = make_workload([3, 4, 5], [(0, 1), (1, 2)], m=1, attestor=True)
        sch = make_schedule([(0, 0, 0, 3), (1, 0, 3, 7), (2, 0, 7, 12)])
        assert validate_schedule(sch, w).ok

    def test_cross_core_conflict_overlap_is_c2(self):
        w = make_workload([4, 4], [(0, 1)], m=2)
        sch = make_schedule([(0, 0, 0, 4), (1, 1, 2, 6)])
        report = validate_schedule(sch, w)
        assert not report.ok
        assert [v.constraint for v in report.violations] == ["C2"]
        assert report.violations[0].process_ids == (0, 1)

    def test_wrong_order_without_overlap_is_c3_only(self):
        w = make_workload([4, 4], [(0, 1)], m=2, attestor=True)
        sch = make_schedule([(0, 0, 5, 9), (1, 1, 0, 4)])
        report = validate_schedule(sch, w)
        assert [v.constraint for v in report.violations] == ["C3"]

    def test_c3_not_checked_in_proposer_mode(self):
        w = make_workload([4, 4], [(0, 1)], m=2, attestor=False)
        sch = make_schedule([(0, 0, 5, 9), (1, 1, 0, 4)])
        assert validate_schedule(sch, w).ok

    def test_same_core_overlap_is_c1(self):
        w = make_workload([4, 4], [], m=1)
        sch = make_schedule([(0, 0, 0, 4), (1, 0, 2, 6)])
        report = validate_schedule(sch, w)
        assert "C1" in [v.constraint for v in report.violations]

    def test_c1_reports_each_interval_inside_a_longer_one(self):
        # [3,4) starts after [1,2) ends, but [0,10) before both still runs
        w = make_workload([10, 1, 1], [], m=1)
        sch = make_schedule([(0, 0, 0, 10), (1, 0, 1, 2), (2, 0, 3, 4)])
        report = validate_schedule(sch, w)
        assert [(v.constraint, v.process_ids, v.detail) for v in report.violations] == [
            ("C1", (0, 1), "processes 0 and 1 overlap on core 0"),
            ("C1", (0, 2), "processes 0 and 2 overlap on core 0"),
        ]

    def test_back_to_back_intervals_are_legal(self):
        w = make_workload([4, 4], [(0, 1)], m=2, attestor=True)
        sch = make_schedule([(0, 0, 0, 4), (1, 1, 4, 8)])
        assert validate_schedule(sch, w).ok

    def test_missing_and_duplicate_assignments(self):
        w = make_workload([2, 2], [], m=2)
        report = validate_schedule(make_schedule([(0, 0, 0, 2), (0, 1, 0, 2)]), w)
        constraints = [v.constraint for v in report.violations]
        assert constraints.count("COMPLETENESS") == len(constraints) >= 2

    def test_wrong_finish_time_is_completeness(self):
        w = make_workload([2], [], m=1)
        report = validate_schedule(make_schedule([(0, 0, 0, 5)]), w)
        assert not report.ok
        assert report.violations[0].constraint == "COMPLETENESS"

    def test_all_violations_reported(self):
        w = make_workload([4, 4, 4], [(0, 1), (0, 2)], m=2)
        sch = make_schedule([(0, 0, 0, 4), (1, 1, 0, 4), (2, 1, 1, 5)])
        report = validate_schedule(sch, w)
        kinds = sorted(v.constraint for v in report.violations)
        assert kinds == ["C1", "C2", "C2"]

    def test_false_makespan_is_completeness(self):
        w = make_workload([4, 4], [], m=2)
        sch = make_schedule([(0, 0, 0, 4), (1, 0, 4, 8)])
        assert validate_schedule(sch, w).ok
        for claimed in (1, 0, 9):
            report = validate_schedule(dataclasses.replace(sch, schedule_makespan_ms=claimed), w)
            assert [(v.constraint, v.process_ids, v.detail) for v in report.violations] == [
                ("COMPLETENESS", (), f"schedule makespan {claimed} != latest finish 8"),
            ]

    def test_false_horizon_is_completeness(self):
        w = make_workload([4, 4], [], m=2)
        sch = make_schedule([(0, 0, 0, 4), (1, 0, 4, 8)])
        assert validate_schedule(sch, w).ok
        for claimed in (0, 7, 9, 10**9):
            report = validate_schedule(dataclasses.replace(sch, horizon_ms=claimed), w)
            assert [(v.constraint, v.process_ids, v.detail) for v in report.violations] == [
                ("COMPLETENESS", (), f"schedule horizon {claimed} != total execution time 8"),
            ]

    def test_empty_schedule_makespan_is_zero(self):
        w = make_workload([2], [], m=1)
        empty = Schedule(assignments=(), horizon_ms=0, schedule_makespan_ms=3, wall_time_ms=0.0)
        details = [v.detail for v in validate_schedule(empty, w).violations]
        assert details == [
            "process 0 is unassigned",
            "schedule makespan 3 != latest finish 0",
            "schedule horizon 0 != total execution time 2",
        ]

    @pytest.mark.parametrize("attestor", [False, True])
    def test_pair_with_an_unassigned_member_is_skipped(self, attestor):
        w = make_workload([2, 3, 1], [(0, 1), (1, 2)], m=2, attestor=attestor)
        # pair (0, 1) is skipped, pair (1, 2) after it is still checked
        sch = make_schedule([(1, 0, 0, 3), (2, 1, 0, 1)], horizon=6)
        report = validate_schedule(sch, w)
        expected = [
            ("COMPLETENESS", (0,), "process 0 is unassigned"),
            ("C2", (1, 2), "conflicting processes 1 and 2 overlap in time"),
        ]
        if attestor:
            expected.append(
                ("C3", (1, 2), "conflicting process 2 starts at 0 before predecessor 1 finishes at 3")
            )
        assert [(v.constraint, v.process_ids, v.detail) for v in report.violations] == expected

    def test_every_kind_in_order_with_its_message(self):
        w = make_workload([4, 4, 4, 3, 2, 1], [(0, 1), (0, 2), (1, 3)], m=2, attestor=True)
        sch = make_schedule([
            (0, 0, 0, 4), (1, 1, 2, 6), (1, 1, 8, 12), (2, 0, 3, 7),
            (3, 5, -1, 2), (7, 0, 0, 1), (2, 0, 9, 10), (4, 1, 20, 25),
        ])
        report = validate_schedule(sch, w)
        assert [(v.constraint, v.process_ids, v.detail) for v in report.violations] == [
            ("COMPLETENESS", (1,), "process 1 assigned twice"),
            ("COMPLETENESS", (3,), "process 3 starts at -1 < 0"),
            ("COMPLETENESS", (3,), "core id 5 out of range 0..1"),
            ("COMPLETENESS", (7,), "unknown process id 7"),
            ("COMPLETENESS", (2,), "process 2 assigned twice"),
            ("COMPLETENESS", (4,), "process 4 finish 25 != start 20 + time 2"),
            ("COMPLETENESS", (5,), "process 5 is unassigned"),
            ("COMPLETENESS", (), "schedule horizon 26 != total execution time 18"),
            ("C1", (0, 2), "processes 0 and 2 overlap on core 0"),
            ("C2", (0, 1), "conflicting processes 0 and 1 overlap in time"),
            ("C3", (0, 1), "conflicting process 1 starts at 2 before predecessor 0 finishes at 4"),
            ("C2", (0, 2), "conflicting processes 0 and 2 overlap in time"),
            ("C3", (0, 2), "conflicting process 2 starts at 3 before predecessor 0 finishes at 4"),
            ("C3", (1, 3), "conflicting process 3 starts at -1 before predecessor 1 finishes at 6"),
        ]


class TestExactOptimal:
    def test_single_process(self):
        res = exact_optimal(make_workload([9], [], m=3))
        assert res.makespan_ms == 9
        assert res.optimal

    def test_complete_graph_forces_serialization(self):
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        w = make_workload([2, 3, 4, 5, 6], pairs, m=3)
        res = exact_optimal(w)
        assert res.makespan_ms == 20

    def test_three_process_example(self):
        res = exact_optimal(make_workload([4, 3, 2], [(0, 1)], m=2))
        assert res.makespan_ms == 7
        assert res.optimal

    def test_witness_always_validates(self):
        rng = random.Random(31)
        for i in range(25):
            n = rng.randint(1, 7)
            w = generate_workload(
                n, rng.random(), model=ConflictModel.PAIRWISE, seed=600 + i,
                cores=CoreProfile(rng.choice([2, 3])), attestor=bool(i % 2),
            )
            res = exact_optimal(w)
            assert res.optimal
            report = validate_schedule(res.schedule, w)
            assert report.ok, report.violations

    def test_single_core_equals_horizon_and_non_increasing_in_m(self):
        w = generate_workload(6, 0.5, model=ConflictModel.PAIRWISE, seed=44, cores=CoreProfile(1))
        horizon = sum(p.exec_time_ms for p in w.processes)
        prev = None
        for m in (1, 2, 3):
            res = exact_optimal(w.with_cores(CoreProfile(m)))
            if m == 1:
                assert res.makespan_ms == horizon
            if prev is not None:
                assert res.makespan_ms <= prev
            prev = res.makespan_ms

    def test_pruning_matches_pure_enumeration(self):
        rng = random.Random(13)
        for i in range(10):
            n = rng.randint(2, 5)
            w = generate_workload(
                n, rng.random(), model=ConflictModel.PAIRWISE, seed=700 + i,
                cores=CoreProfile(rng.choice([2, 3])), attestor=bool(i % 2),
            )
            res = exact_optimal(w)
            assert res.optimal
            assert res.makespan_ms == pure_enumeration_optimum(w)

    def test_greedy_never_beats_oracle(self):
        rng = random.Random(23)
        for i in range(40):
            n = rng.randint(2, 8)
            w = generate_workload(
                n, rng.random(), seed=800 + i,
                model=rng.choice(list(ConflictModel)),
                cores=CoreProfile(rng.choice([2, 3])), attestor=bool(i % 2),
            )
            res = exact_optimal(w)
            assert res.optimal
            greedy = schedule(w)
            assert greedy.schedule_makespan_ms >= res.makespan_ms

    def test_budget_exhaustion_returns_best_found_flagged(self):
        w = generate_workload(10, 0.4, model=ConflictModel.PAIRWISE, seed=1, cores=CoreProfile(3))
        res = exact_optimal(w, node_budget=20)
        assert not res.optimal and res.nodes == 21
        assert validate_schedule(res.schedule, w).ok

    def test_searches_a_block_of_501_processes(self):
        # pairwise conflicts: the incumbent misses the static bound, so
        # the search runs until the budget stops it
        w = generate_workload(501, 0.45, model=ConflictModel.PAIRWISE, seed=1, cores=CoreProfile(3))
        res = exact_optimal(w, node_budget=5000)
        assert not res.optimal and res.nodes == 5001
        assert validate_schedule(res.schedule, w).ok
        assert res.makespan_ms == res.schedule.schedule_makespan_ms

    def test_a_dive_deeper_than_the_recursion_limit(self):
        # an odd count of conflict-free 10 ms processes on 2 cores: the load
        # bound is 5 ms below the optimum, so the search runs, and its first
        # dive goes about three quarters of n deep, well past the limit
        n = 2 * sys.getrecursionlimit() + 3
        w = make_workload([10] * n, [], m=2)
        res = exact_optimal(w, node_budget=n)
        assert not res.optimal and res.nodes == n + 1
        assert validate_schedule(res.schedule, w).ok

    @pytest.mark.parametrize("budget", [0, -1])
    def test_rejects_a_budget_below_one(self, budget):
        w = generate_workload(6, 0.4, seed=3, cores=CoreProfile(2))
        with pytest.raises(ValueError) as exc_info:
            exact_optimal(w, node_budget=budget)
        assert str(exc_info.value) == f"node_budget must be >= 1, got {budget}"

    @pytest.mark.parametrize("budget", [2_000_000, 2])
    def test_builds_one_conflict_index_per_call(self, monkeypatch, budget):
        # the greedy incumbents reuse the workload's index, also when the
        # search runs out of budget and returns one of them
        calls = []

        def counted(w):
            calls.append(w)
            return build_conflict_index(w)

        monkeypatch.setattr(conflictsched.model, "build_conflict_index", counted)
        w = generate_workload(10, 0.4, model=ConflictModel.PAIRWISE, seed=3, cores=CoreProfile(2))
        res = exact_optimal(w, node_budget=budget)
        assert res.optimal == (budget > 2)
        assert validate_schedule(res.schedule, w).ok
        assert len(calls) == 1

    @pytest.mark.parametrize("attestor,runs", [(False, 11), (True, 3)])
    def test_incumbent_runs_each_distinct_schedule_once(self, monkeypatch, attestor, runs):
        # with a bound no schedule meets, the sweep runs EVENT and then one
        # sort per greedy assign type in attestor mode (attestor sorting
        # ignores the sort key), and keeps the earliest of the shortest of
        # all the distinct strategies
        real = conflictsched.oracle.schedule
        labels = []

        def counted(w, strategy):
            labels.append(strategy.label)
            return real(w, strategy)

        monkeypatch.setattr(conflictsched.oracle, "schedule", counted)
        for seed in range(30):
            w = generate_workload(
                8, 0.5, model=ConflictModel.PAIRWISE, seed=seed, cores=CoreProfile(2),
                attestor=attestor,
            )
            everyone = [real(w, strat) for strat in DISTINCT_STRATEGIES]
            best = min(everyone, key=lambda sch: sch.schedule_makespan_ms)
            labels.clear()
            incumbent = conflictsched.oracle._incumbent(w, 0)
            assert len(labels) == len(set(labels)) == runs
            assert labels[0] == "EVENT"
            assert incumbent.schedule_makespan_ms == best.schedule_makespan_ms
            assert incumbent.assignments == best.assignments

    def test_stopping_at_the_bound_changes_no_result(self, monkeypatch):
        # the reference sweeps every distinct strategy with no stop; an
        # incumbent at a lower bound is already the shortest, so stopping
        # there moves neither the optimum, the verdict nor the node count
        def full_sweep(w, bound):
            everyone = [schedule(w, strat) for strat in DISTINCT_STRATEGIES]
            return min(everyone, key=lambda sch: sch.schedule_makespan_ms)

        # oracle-small's shapes, then random ones
        bases = [
            generate_workload(n, rate, seed=seed, cores=CoreProfile(2))
            for n in (8, 10) for rate in (0.25, 0.45) for seed in range(5)
        ]
        rng = random.Random(61)
        bases += [
            generate_workload(
                rng.randint(1, 11), rng.random(), seed=1400 + i,
                model=rng.choice(list(ConflictModel)), cores=CoreProfile(rng.randint(1, 3)),
            )
            for i in range(200)
        ]
        for base in bases:
            for attestor in (False, True):
                w = base.with_attestor(attestor)
                res = exact_optimal(w, node_budget=20_000)
                with monkeypatch.context() as patch:
                    patch.setattr(conflictsched.oracle, "_incumbent", full_sweep)
                    ref = exact_optimal(w, node_budget=20_000)
                assert (res.makespan_ms, res.optimal, res.nodes) == (
                    ref.makespan_ms, ref.optimal, ref.nodes
                )
                assert validate_schedule(res.schedule, w).ok
                assert validate_schedule(ref.schedule, w).ok

    def test_a_schedule_at_the_static_bound_is_reported_optimal(self):
        # the search ends at the first schedule that meets its bound, so no
        # budget can leave a proven optimum undecided. A search that ends
        # within its budget runs the same at every larger one.
        rng = random.Random(61)
        for i in range(200):
            base = generate_workload(
                rng.randint(1, 11), rng.random(), seed=1400 + i,
                model=rng.choice(list(ConflictModel)), cores=CoreProfile(rng.randint(1, 3)),
            )
            for attestor in (False, True):
                w = base.with_attestor(attestor)
                static_lb = conflictsched.oracle._static_lower_bound(w)
                for budget in range(1, 61):
                    res = exact_optimal(w, node_budget=budget)
                    if res.makespan_ms <= static_lb:
                        assert res.optimal, (i, attestor, budget)
                    if res.nodes <= budget:
                        break

    def test_attestor_optimum_at_least_proposer_optimum(self):
        rng = random.Random(77)
        for i in range(15):
            w = generate_workload(
                rng.randint(2, 7), rng.random(), model=ConflictModel.PAIRWISE,
                seed=900 + i, cores=CoreProfile(2),
            )
            prop = exact_optimal(w.with_attestor(False))
            att = exact_optimal(w.with_attestor(True))
            assert prop.optimal and att.optimal
            assert att.makespan_ms >= prop.makespan_ms

    def test_event_never_beats_a_decided_optimum(self):
        rng = random.Random(97)
        for i in range(80):
            w = generate_workload(
                rng.randint(2, 10), rng.random(), seed=1200 + i,
                model=rng.choice(list(ConflictModel)),
                cores=CoreProfile(rng.choice([2, 3])), attestor=bool(i % 2),
            )
            res = exact_optimal(w)
            assert res.optimal
            event = schedule(w, Strategy(assign_type=AssignType.EVENT))
            assert event.schedule_makespan_ms >= res.makespan_ms

    def test_an_incumbent_at_the_cheap_bound_needs_no_clique_table(self, monkeypatch):
        # the load/pair/neighbourhood/chain bound is cheap and comes first;
        # the clique table is O(2^n) and is built only when the incumbent
        # misses that bound. When EVENT meets it, EVENT is the only
        # schedule the oracle runs.
        real_table = conflictsched.oracle._clique_weight_table
        real_schedule = conflictsched.oracle.schedule
        tables = []
        labels = []

        def counted_table(times, adj_mask):
            tables.append(times)
            return real_table(times, adj_mask)

        def counted_schedule(w, strategy):
            labels.append(strategy.label)
            return real_schedule(w, strategy)

        monkeypatch.setattr(conflictsched.oracle, "_clique_weight_table", counted_table)
        monkeypatch.setattr(conflictsched.oracle, "schedule", counted_schedule)
        event = Strategy(assign_type=AssignType.EVENT)
        by_event = by_greedy = missed = 0
        for seed in range(40):
            w = generate_workload(10, 0.45, seed=seed, cores=CoreProfile(2), attestor=bool(seed % 2))
            cheap = conflictsched.oracle._static_lower_bound(w)
            event_ms = real_schedule(w, event).schedule_makespan_ms
            at_bound = conflictsched.oracle._incumbent(w, cheap).schedule_makespan_ms <= cheap
            tables.clear()
            labels.clear()
            res = exact_optimal(w)
            assert res.optimal
            if event_ms <= cheap:
                by_event += 1
                assert labels == ["EVENT"]
            if at_bound:
                by_greedy += event_ms > cheap
                assert tables == [] and res.nodes == 0
                assert res.makespan_ms == cheap
            else:
                missed += 1
                assert len(tables) == 1
        assert by_event and by_greedy and missed

    def test_optima_equal_pure_enumeration_up_to_six_processes(self):
        rng = random.Random(17)
        for i in range(24):
            n = 1 + i % 6
            w = generate_workload(
                n, rng.random(), seed=1300 + i, model=rng.choice(list(ConflictModel)),
                cores=CoreProfile(2 if n == 6 else rng.choice([2, 3])), attestor=bool(i % 2),
            )
            res = exact_optimal(w)
            assert res.optimal
            assert res.makespan_ms == pure_enumeration_optimum(w)
            assert validate_schedule(res.schedule, w).ok

    @pytest.mark.parametrize("budget,digest", [
        (DEFAULT_NODE_BUDGET, "ffb783348c7d8e0eaae3233eb3c4ce56cd07613b5022300a90a5cfc0ea2f0cae"),
        (50, "1898c36174616849a50d3ec9b1c3c963a1e4908451fc7e568ef217ceb1bc4537"),
    ])
    def test_search_outputs_are_pinned(self, budget, digest):
        # the benchmark's 160 oracle-small instances (n 8/10, rate
        # 0.25/0.45, 20 seeds each, 2 cores, both modes): a refactor of
        # the search keeps every optimum, verdict, node count and witness.
        # A change that means to move the node count updates the digest.
        outputs = []
        for k in range(80):
            n, rate = (8, 10)[k // 40], (0.25, 0.45)[k // 20 % 2]
            base = generate_workload(n, rate, seed=k, cores=CoreProfile(2))
            for attestor in (False, True):
                res = exact_optimal(base.with_attestor(attestor), node_budget=budget)
                outputs.append((
                    res.makespan_ms, res.optimal, res.nodes,
                    tuple(map(tuple, res.schedule.assignments)),
                ))
        assert hashlib.sha256(repr(outputs).encode()).hexdigest() == digest


class TestStaticLowerBound:
    """The load, pair and neighbourhood bound: the whole bound for n > 16,
    and the test that skips the clique table when the incumbent meets it."""

    @pytest.mark.parametrize("attestor", [False, True])
    def test_at_most_the_optimum_on_small_instances(self, attestor):
        rng = random.Random(41)
        for i in range(60):
            w = generate_workload(
                rng.randint(2, 9), rng.random(), seed=1000 + i,
                model=rng.choice(list(ConflictModel)),
                cores=CoreProfile(rng.choice([2, 3])), attestor=attestor,
            )
            res = exact_optimal(w)
            assert res.optimal
            assert conflictsched.oracle._static_lower_bound(w) <= res.makespan_ms

    def test_attestor_chain_term_binds_on_a_chain(self):
        # 0 - 1 - 2 in id order: attestor mode runs the chain end to end,
        # 6 ms, above the load (2), pair (4) and neighbourhood (2 + 2)
        # terms; proposer mode runs 0 and 2 together, then 1
        w = make_workload([2, 2, 2], [(0, 1), (1, 2)], m=3, attestor=True)
        assert conflictsched.oracle._static_lower_bound(w) == 6
        assert conflictsched.oracle._static_lower_bound(w.with_attestor(False)) == 4
        res = exact_optimal(w)
        assert res.optimal and res.makespan_ms == 6 and res.nodes == 0
        assert exact_optimal(w.with_attestor(False)).makespan_ms == 4

    @pytest.mark.parametrize("attestor", [False, True])
    def test_at_most_every_greedy_makespan_above_the_clique_table(self, attestor):
        rng = random.Random(43)
        for n in range(17, 61):
            w = generate_workload(
                n, rng.random(), seed=1100 + n,
                model=rng.choice(list(ConflictModel)),
                cores=CoreProfile(rng.choice([2, 3, 4, 8])), attestor=attestor,
            )
            lb = conflictsched.oracle._static_lower_bound(w)
            for strat in DISTINCT_STRATEGIES:
                assert lb <= schedule(w, strat).schedule_makespan_ms
