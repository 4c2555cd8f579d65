import itertools
import random
from fractions import Fraction

import pytest

import modesched as ms
from conftest import case_study_raw, knapsack_brute, random_system


def test_lopez_mode1(case_study):
    verdict = ms.lopez_test(case_study, "mode1")
    assert verdict.beta == 3
    assert verdict.bound == Fraction(7, 4)
    assert verdict.u_sum == Fraction("1.545")
    assert verdict.feasible
    assert verdict.margin == Fraction(7, 4) - Fraction("1.545")


def test_lopez_mode2(case_study):
    verdict = ms.lopez_test(case_study, "mode2")
    assert verdict.beta == 2
    assert verdict.bound == Fraction(5, 3)
    assert verdict.u_sum == Fraction(23, 15)
    assert verdict.feasible


def test_lopez_degenerate_full_utilization():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [{"id": "a", "kind": "MD", "wcet": 5, "period": 5}],
            "modes": [{"id": "m", "md_tasks": ["a"]}],
            "transitions": [],
        }
    )
    verdict = ms.lopez_test(system, "m")
    assert verdict.beta == 1
    assert verdict.bound == 1
    assert verdict.feasible  # u_sum == bound exactly


def test_lopez_exact_at_equality():
    # u_max = 1/2 on two processors: bound (2*2+1)/3 = 5/3; u_sum built to hit it exactly
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 1, "period": 2, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 1, "period": 2, "processor": 2},
            {"id": "c", "kind": "MD", "wcet": 1, "period": 2},
            {"id": "d", "kind": "MD", "wcet": 1, "period": 6},
        ],
        "modes": [{"id": "m", "md_tasks": ["c", "d"]}],
        "transitions": [],
    }
    verdict = ms.lopez_test(ms.build_system(raw), "m")
    assert verdict.bound == Fraction(5, 3)
    assert verdict.u_sum == Fraction(5, 3)
    assert verdict.margin == 0
    assert verdict.feasible
    # one sliver more must fail
    raw["tasks"].append({"id": "e", "kind": "MD", "wcet": 1, "period": 600})
    raw["modes"][0]["md_tasks"].append("e")
    assert not ms.lopez_test(ms.build_system(raw), "m").feasible


def test_lopez_empty_mode():
    system = ms.build_system(
        {"processors": 2, "tasks": [], "modes": [{"id": "m", "md_tasks": []}], "transitions": []}
    )
    verdict = ms.lopez_test(system, "m")
    assert verdict.feasible and verdict.beta == 0 and verdict.bound == 1


def test_ffd_mode2_forced_to_second_processor(case_study):
    allocation = ms.first_fit_decreasing(case_study, "mode2")
    assert allocation.assignment == {"tau10": 2}


def test_ffd_mode1_placement(case_study):
    # order by decreasing utilization: tau5 (.175), tau9 (.12), tau6 (.1), tau8 (1/15), tau7 (.05)
    allocation = ms.first_fit_decreasing(case_study, "mode1")
    assert allocation.assignment == {"tau5": 1, "tau9": 1, "tau6": 2, "tau8": 2, "tau7": 2}
    ms.validate_allocation(case_study, allocation)


def test_ffd_empty_mode():
    system = ms.build_system(
        {"processors": 1, "tasks": [], "modes": [{"id": "m", "md_tasks": []}], "transitions": []}
    )
    assert ms.first_fit_decreasing(system, "m").assignment == {}


def test_ffd_failure_names_task():
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 3, "period": 5, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 3, "period": 5, "processor": 2},
            {"id": "big", "kind": "MD", "wcet": 1, "period": 2},
        ],
        "modes": [{"id": "m", "md_tasks": ["big"]}],
        "transitions": [],
    }
    with pytest.raises(ms.PlacementError) as excinfo:
        ms.first_fit_decreasing(ms.build_system(raw), "m")
    assert excinfo.value.task_id == "big"


def test_ffd_utilization_ties_broken_by_id():
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "z_first", "kind": "MI", "wcet": 1, "period": 2, "processor": 1},
            {"id": "a2", "kind": "MD", "wcet": 2, "period": 4},
            {"id": "a1", "kind": "MD", "wcet": 1, "period": 2},
        ],
        "modes": [{"id": "m", "md_tasks": ["a1", "a2"]}],
        "transitions": [],
    }
    allocation = ms.first_fit_decreasing(ms.build_system(raw), "m")
    # equal utilizations: a1 considered first, fills processor 1 to the brim
    assert allocation.assignment == {"a1": 1, "a2": 2}


def test_worst_case_selection_first_processor(case_study):
    result = ms.worst_case_selection(case_study, 1, case_study.md_tasks_of("mode1"))
    assert result.selected == ("tau5", "tau9")
    assert result.packed_wcet == 10
    assert result.capacity == Fraction(1, 3)


def test_worst_case_selection_second_processor(case_study):
    result = ms.worst_case_selection(case_study, 2, case_study.md_tasks_of("mode1"))
    assert result.selected == ("tau5", "tau6", "tau7", "tau8", "tau9")
    assert result.packed_wcet == 14
    assert result.capacity == Fraction(19, 30)


def test_worst_case_selection_zero_capacity():
    raw = {
        "processors": 1,
        "tasks": [
            {"id": "full", "kind": "MI", "wcet": 5, "period": 5, "processor": 1},
            {"id": "x", "kind": "MD", "wcet": 1, "period": 4},
        ],
        "modes": [{"id": "m", "md_tasks": ["x"]}],
        "transitions": [],
    }
    system = ms.build_system(raw)
    result = ms.worst_case_selection(system, 1, system.md_tasks_of("m"))
    assert result.selected == () and result.packed_wcet == 0 and result.capacity == 0


def test_worst_case_selection_tie_prefers_excluding_earlier_ids():
    raw = {
        "processors": 1,
        "tasks": [
            {"id": "a", "kind": "MD", "wcet": 2, "period": 10},
            {"id": "b", "kind": "MD", "wcet": 1, "period": 10},
            {"id": "c", "kind": "MD", "wcet": 1, "period": 10},
            {"id": "pad", "kind": "MI", "wcet": 4, "period": 5, "processor": 1},
        ],
        "modes": [{"id": "m", "md_tasks": ["a", "b", "c"]}],
        "transitions": [],
    }
    system = ms.build_system(raw)
    # capacity 1/5; {a} and {b, c} both pack wcet 2
    result = ms.worst_case_selection(system, 1, system.md_tasks_of("m"))
    assert result.packed_wcet == 2
    assert result.selected == ("b", "c")


def test_knapsack_matches_brute_force():
    rng = random.Random(987123)
    for round_no in range(60):
        size = rng.randint(1, 12) if round_no < 55 else 15
        raw_tasks = [{"id": "host", "kind": "MI", "wcet": rng.randint(1, 4), "period": 10, "processor": 1}]
        ids = []
        for i in range(size):
            period = rng.randint(2, 30)
            raw_tasks.append(
                {"id": f"k{i:02d}", "kind": "MD", "wcet": rng.randint(1, period), "period": period}
            )
            ids.append(f"k{i:02d}")
        system = ms.build_system(
            {
                "processors": 1,
                "tasks": raw_tasks,
                "modes": [{"id": "m", "md_tasks": ids}],
                "transitions": [],
            }
        )
        pool = system.md_tasks_of("m")
        result = ms.worst_case_selection(system, 1, pool)
        expected = knapsack_brute([(t.wcet, t.utilization) for t in pool], result.capacity)
        assert result.packed_wcet == expected
        chosen = [system.task(tid) for tid in result.selected]
        assert sum((t.utilization for t in chosen), Fraction(0)) <= result.capacity
        assert sum((t.wcet for t in chosen), Fraction(0)) == result.packed_wcet


def test_latency_upper_bound_case_study(case_study):
    assert ms.latency_upper_bound(case_study, "mode1") == 50
    assert ms.latency_upper_bound(case_study, "mode2") == 85
    detail = ms.transition_bound_detail(case_study, "mode1")
    assert [row.latency for row in detail] == [50, 49]
    mode2 = ms.transition_bound_detail(case_study, "mode2")
    assert mode2[0].selection.selected == () and mode2[0].latency == 0
    assert mode2[1].selection.packed_wcet == 50 and mode2[1].latency == 85


def test_latency_upper_bound_empty_mode():
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [{"id": "a", "kind": "MI", "wcet": 1, "period": 4, "processor": 1}],
            "modes": [{"id": "m", "md_tasks": []}],
            "transitions": [],
        }
    )
    assert ms.latency_upper_bound(system, "m") == 0


def test_bound_dominates_every_feasible_allocation():
    rng = random.Random(55221)
    checked = 0
    for _ in range(30):
        system = random_system(rng)
        for mode_id in system.mode_ids():
            md = system.md_tasks_of(mode_id)
            if not md or len(md) > 5:
                continue
            bound = ms.latency_upper_bound(system, mode_id)
            for combo in itertools.product(system.processors, repeat=len(md)):
                allocation = ms.Allocation(mode_id, {t.id: p for t, p in zip(md, combo)})
                try:
                    ms.validate_allocation(system, allocation)
                except ms.AllocationError:
                    continue
                report = ms.analyze_allocation(system, mode_id, allocation)
                assert report.platform_bound <= bound
                checked += 1
    assert checked > 50


def test_ffd_never_fails_after_lopez_pass():
    # premise: MI tasks themselves sit where a first-fit pass would put them
    rng = random.Random(773311)
    confirmed = 0
    for _ in range(120):
        system = random_system(rng, md_heavy=True, ff_mi=True)
        for mode_id in system.mode_ids():
            if ms.lopez_test(system, mode_id).feasible:
                allocation = ms.first_fit_decreasing(system, mode_id)
                ms.validate_allocation(system, allocation)
                confirmed += 1
    assert confirmed > 80


def test_lopez_premise_void_under_exotic_mi_pinning():
    """Hand-pinned MI placements no first-fit order would produce can defeat
    the utilization guarantee: the test passes yet placement fails."""
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "mi1", "kind": "MI", "wcet": 3, "period": 10, "processor": 1},
            {"id": "mi2", "kind": "MI", "wcet": 2, "period": 12, "processor": 2},
            {"id": "md1", "kind": "MD", "wcet": 10, "period": 10},
        ],
        "modes": [{"id": "m", "md_tasks": ["md1"]}],
        "transitions": [],
    }
    system = ms.build_system(raw)
    verdict = ms.lopez_test(system, "m")
    assert verdict.feasible and verdict.u_sum == Fraction(22, 15) and verdict.bound == Fraction(3, 2)
    with pytest.raises(ms.PlacementError):
        ms.first_fit_decreasing(system, "m")


def test_validate_online_scheme_case_study(case_study):
    validation = ms.validate_online_scheme(case_study)
    assert validation.passed
    by_mode = {v.mode_id: v for v in validation.modes}
    assert by_mode["mode1"].entry_latency == 85
    assert by_mode["mode2"].entry_latency == 50
    tau10 = [c for c in by_mode["mode2"].deadline_checks if c.task_id == "tau10"][0]
    assert tau10.passed and tau10.slack == 0
    tau5 = [c for c in by_mode["mode1"].deadline_checks if c.task_id == "tau5"][0]
    assert tau5.passed and tau5.slack == 25


def test_validate_online_scheme_boundary_flip():
    system = ms.build_system(case_study_raw(deadline_tau10=149))
    validation = ms.validate_online_scheme(system)
    assert not validation.passed
    mode2 = [v for v in validation.modes if v.mode_id == "mode2"][0]
    tau10 = [c for c in mode2.deadline_checks if c.task_id == "tau10"][0]
    assert not tau10.passed and tau10.slack == -1


def test_validate_online_scheme_single_mode():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 1, "period": 4, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 1, "period": 5, "transition_deadline": 9},
            ],
            "modes": [{"id": "m", "md_tasks": ["x"]}],
            "transitions": [],
        }
    )
    validation = ms.validate_online_scheme(system)
    assert validation.passed
    assert validation.modes[0].entry_latency == 0


def test_validate_online_scheme_evidence(case_study):
    for mode in ms.validate_online_scheme(case_study).modes:
        assert mode.bound == ms.latency_upper_bound(case_study, mode.mode_id)
        assert mode.evidence.per_processor == ms.transition_bound_detail(case_study, mode.mode_id)
        assert mode.evidence.feasibility == ms.lopez_test(case_study, mode.mode_id)
        assert mode.feasible and mode.utilization == ms.utilization_summary(case_study, mode.mode_id)


def test_validate_online_scheme_infeasible_mode_keeps_its_bound():
    validation = ms.validate_online_scheme(ms.build_system(case_study_raw(wcet_tau10=90)))
    mode1, mode2 = validation.modes
    # mode2 fails the utilization test; its bound still holds, so mode1 is checked against it
    assert not mode2.feasible and not mode2.passed and mode2.evidence.feasibility.margin < 0
    assert mode1.entry_latency == mode2.bound and mode1.deadline_checks
