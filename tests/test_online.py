import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import modesched as ms
from modesched.cli import main
from conftest import (
    case_study_raw,
    fraction_worst_case_selection,
    knapsack_brute,
    knapsack_lex_brute,
    random_system,
)
from modesched.online import _Knapsack


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


def _selection(system, processor=1, mode_id="m"):
    """The worst-case selection of one ``transition_bound_detail`` row."""
    return ms.transition_bound_detail(system, mode_id)[processor - 1].selection


def test_worst_case_selection_first_processor(case_study):
    result = _selection(case_study, 1, "mode1")
    assert result.processor == 1
    assert result.selected == ("tau5", "tau9")
    assert result.packed_wcet == 10
    assert result.capacity == Fraction(1, 3)


def test_worst_case_selection_second_processor(case_study):
    result = _selection(case_study, 2, "mode1")
    assert result.processor == 2
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
    result = _selection(ms.build_system(raw))
    assert result.selected == () and result.packed_wcet == 0 and result.capacity == 0


def test_processor_saturated_by_mi_tasks_bounds_latency_at_zero():
    """MI load 1 leaves no capacity, so the bound packs nothing there and the
    busy-period recurrence, which diverges only for positive MD demand, gives 0."""
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "full", "kind": "MI", "wcet": 5, "period": 5, "processor": 1},
            {"id": "x", "kind": "MD", "wcet": 1, "period": 4},
        ],
        "modes": [{"id": "m", "md_tasks": ["x"]}],
        "transitions": [],
    }
    system = ms.build_system(raw)
    rows = ms.transition_bound_detail(system, "m")
    assert [(row.processor, row.selection.packed_wcet, row.latency) for row in rows] == [(1, 0, 0), (2, 1, 1)]
    assert ms.latency_upper_bound(system, "m") == 1


def test_mi_load_that_disagrees_with_the_mi_tasks_fails_instead_of_hanging():
    """The busy periods take the MI load from the system's cache; a cache that
    says 1/2 on a processor whose MI tasks load it fully must not spin."""
    raw = {
        "processors": 1,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 1, "period": 2, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 1, "period": 2, "processor": 1},
            {"id": "x", "kind": "MD", "wcet": 1, "period": 4},
        ],
        "modes": [{"id": "m", "md_tasks": ["x"]}],
        "transitions": [],
    }
    system = ms.build_system(raw)
    assert ms.transition_bound_detail(system, "m")[0].latency == 0
    system.__dict__["_mi_loads"] = {1: Fraction(1, 2)}
    with pytest.raises(RuntimeError, match="busy period passed its bound"):
        ms.transition_bound_detail(system, "m")


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
    # capacity 1/5; {a} and {b, c} both pack wcet 2
    result = _selection(ms.build_system(raw))
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
        result = _selection(system)
        expected = knapsack_brute([(t.wcet, t.utilization) for t in pool], result.capacity)
        assert result.packed_wcet == expected
        chosen = [system.task(tid) for tid in result.selected]
        assert sum((t.utilization for t in chosen), Fraction(0)) <= result.capacity
        assert sum((t.wcet for t in chosen), Fraction(0)) == result.packed_wcet
        if size <= 12:
            assert knapsack_lex_brute(pool, result.capacity) == (result.packed_wcet, result.selected)


# time units of the mixed-denominator pools: every wcet and period is a multiple of one
MIXED_UNITS = (Fraction(1, 3), Fraction(7, 2), Fraction(1, 10), Fraction(2, 7))


def _mixed_times(rng, max_share=3):
    """(wcet, period), both multiples of one of ``MIXED_UNITS``, with wcet at
    most about 1/``max_share`` of the period."""
    unit = rng.choice(MIXED_UNITS)
    steps = rng.randint(2, 30)
    return rng.randint(1, max(1, steps // max_share)) * unit, steps * unit


def _mixed_task(rng, task_id):
    return ms.Task(task_id, "MD", *_mixed_times(rng))


def _pool_system(pool, pads):
    """One mode ``m`` holding the MD tasks ``pool``; processor p carries one MI
    task per (wcet, period) pair in ``pads[p - 1]``."""
    tasks = [{"id": t.id, "kind": "MD", "wcet": t.wcet, "period": t.period} for t in pool]
    for p, pad in enumerate(pads, start=1):
        tasks.extend(
            {"id": f"mi{p}_{k}", "kind": "MI", "wcet": wcet, "period": period, "processor": p}
            for k, (wcet, period) in enumerate(pad)
        )
    return ms.build_system(
        {
            "processors": len(pads),
            "tasks": tasks,
            "modes": [{"id": "m", "md_tasks": [t.id for t in pool]}],
            "transitions": [],
        }
    )


def _assert_matches_rational_reference(system):
    pool = system.md_tasks_of("m")
    for row in ms.transition_bound_detail(system, "m"):
        expected = fraction_worst_case_selection(system, row.processor, pool)
        assert row.selection == expected
        assert row.latency == ms.busy_period(expected.packed_wcet, system.mi_on(row.processor))


def test_knapsack_matches_rational_reference_on_mixed_denominators():
    rng = random.Random(31337)
    for _ in range(40):
        pool = [_mixed_task(rng, f"k{i:02d}") for i in range(rng.randint(1, 10))]
        pads = [
            [_mixed_times(rng, max_share=4) for _ in range(rng.randint(0, 2))]
            for _ in range(rng.randint(1, 4))
        ]
        _assert_matches_rational_reference(_pool_system(pool, pads))


def test_knapsack_equal_capacities_share_one_solution():
    # processors 1-3 have spare capacity 3/4 from differently scaled MI tasks,
    # processor 4 has 2/3, processor 5 again 3/4 from two MI tasks
    pads = [
        [(Fraction(1), Fraction(4))],
        [(Fraction(7, 2), Fraction(14))],
        [(Fraction(2, 7), Fraction(8, 7))],
        [(Fraction(1, 3), Fraction(1))],
        [(Fraction(1, 10), Fraction(4, 5)), (Fraction(1, 3), Fraction(8, 3))],
    ]
    rng = random.Random(4711)
    for _ in range(15):
        pool = [_mixed_task(rng, f"k{i:02d}") for i in range(rng.randint(1, 10))]
        system = _pool_system(pool, pads)
        _assert_matches_rational_reference(system)
        rows = ms.transition_bound_detail(system, "m")
        shared = {(row.selection.selected, row.selection.packed_wcet) for i, row in enumerate(rows) if i != 3}
        assert len(shared) == 1
        assert [row.selection.processor for row in rows] == [1, 2, 3, 4, 5]
        assert all(row.selection.capacity == Fraction(3, 4) for i, row in enumerate(rows) if i != 3)


def test_knapsack_edge_pools_match_rational_reference():
    full = [(Fraction(7, 2), Fraction(7, 2))]
    pool = [ms.Task("a", "MD", Fraction(1, 3), Fraction(1)), ms.Task("b", "MD", Fraction(1, 10), Fraction(2, 5))]
    # zero capacity: nothing fits
    system = _pool_system(pool, [full])
    _assert_matches_rational_reference(system)
    result = _selection(system)
    assert result.selected == () and result.packed_wcet == 0 and result.capacity == 0
    # every task fits: all are taken
    system = _pool_system(pool, [[]])
    _assert_matches_rational_reference(system)
    result = _selection(system)
    assert result.selected == ("a", "b") and result.packed_wcet == Fraction(13, 30)
    # tied optima: four equal tasks of utilization 1/4, room for two; the
    # lexicographically smallest inclusion vector 0011 takes the last two ids
    tied = [
        ms.Task("t1", "MD", Fraction(1), Fraction(4)),
        ms.Task("t2", "MD", Fraction(1), Fraction(4)),
        ms.Task("t3", "MD", Fraction(1), Fraction(4)),
        ms.Task("t4", "MD", Fraction(1), Fraction(4)),
    ]
    half = [(Fraction(7, 2), Fraction(7))]
    system = _pool_system(tied, [half])
    _assert_matches_rational_reference(system)
    result = _selection(system)
    assert result.selected == ("t3", "t4") and result.packed_wcet == 2


def test_knapsack_selection_is_lexicographically_smallest_optimum():
    # small period and wcet sets make tied optima and exact fills common
    rng = random.Random(424242)
    for round_no in range(80):
        pool = []
        for i in range(rng.randint(1, 12)):
            period = rng.choice((2, 4, 5, 10, 20))
            pool.append(ms.Task(f"k{i:02d}", "MD", Fraction(rng.randint(1, max(1, period // 2))), Fraction(period)))
        rng.shuffle(pool)
        pads = []
        for p in range(1, 4):
            spare = Fraction(rng.randint(0, 20), 20)
            pads.append([] if spare == 1 else [(1 - spare, Fraction(1))])
        system = _pool_system(pool, pads)
        for row in ms.transition_bound_detail(system, "m"):
            packed, selected = knapsack_lex_brute(pool, row.selection.capacity)
            assert (row.selection.packed_wcet, row.selection.selected) == (packed, selected)


def _fractional_relaxation(items, capacity):
    """Dantzig bound on rationals over (value, utilization) pairs: whole items
    by decreasing value/utilization, then the fitting fraction of the first
    that does not fit."""
    value = Fraction(0)
    room = capacity
    for item_value, utilization in sorted(items, key=lambda item: -(item[0] / item[1])):
        if utilization <= room:
            room -= utilization
            value += item_value
        else:
            value += item_value * room / utilization
            break
    return value


def test_knapsack_prune_bound_is_floor_of_fractional_relaxation():
    rng = random.Random(2718)
    for _ in range(60):
        pool = sorted((_mixed_task(rng, f"k{i:02d}") for i in range(rng.randint(1, 10))), key=lambda t: t.id)
        capacity = Fraction(rng.randint(0, 30), rng.choice((30, 7, 10)))
        knapsack = _Knapsack(pool, (capacity,))
        room = capacity * knapsack.scale
        assert room.denominator == 1
        # tie-broken values: scaled wcet times 2**n, less 2**(n-1-i) for the i-th id
        n = len(pool)
        items = {
            t.id: (t.wcet * knapsack.time_scale * 2**n - 2 ** (n - 1 - i), t.utilization) for i, t in enumerate(pool)
        }
        assert sorted(knapsack.ids) == [t.id for t in pool]
        for index in range(n + 1):
            relaxation = _fractional_relaxation([items[tid] for tid in knapsack.ids[index:]], capacity)
            assert knapsack.bound(index, int(room)) == math.floor(relaxation)


def deep_pool_raw(mi_wcet=None):
    """One processor and one mode of 1,200 MD tasks (wcet 1, period 2000), more
    than the interpreter's recursion limit; optionally an MI task of period
    2000 that takes ``mi_wcet`` of the processor."""
    tasks = [{"id": f"t{i:04d}", "kind": "MD", "wcet": 1, "period": 2000} for i in range(1200)]
    mode = {"id": "m", "md_tasks": [t["id"] for t in tasks]}
    if mi_wcet is not None:
        tasks.append({"id": "mi", "kind": "MI", "wcet": mi_wcet, "period": 2000, "processor": 1})
    return {"processors": 1, "tasks": tasks, "modes": [mode], "transitions": []}


def test_knapsack_searches_pools_deeper_than_the_recursion_limit(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(deep_pool_raw()), encoding="utf-8")
    assert main(["analyze-online", str(path)]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    system = ms.build_system(deep_pool_raw())
    pool = system.md_tasks_of("m")
    ids = tuple(sorted(t.id for t in pool))
    result = _selection(system)
    assert (result.selected, result.packed_wcet) == (ids, 1200)
    # with half the processor taken, 1,000 tasks fit: the lexicographically
    # smallest optimum leaves the first 200 ids out
    result = _selection(ms.build_system(deep_pool_raw(mi_wcet=1000)))
    assert (result.selected, result.packed_wcet) == (ids[200:], 1000)
    prefix = sorted(pool, key=lambda t: t.id)[:12]
    for units in (0, 5, 12):
        capacity = Fraction(units, 2000)
        selected, packed = _Knapsack(prefix, (capacity,)).solve(capacity)
        assert knapsack_lex_brute(prefix, capacity) == (packed, selected)


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


def test_static_dominance_chain():
    """Optimum <= First-Fit's own bound <= the allocation-independent bound,
    on every mode both allocators can place."""
    rng = random.Random(7007)
    checked = 0
    for _ in range(400):
        system = random_system(rng, ff_mi=True)
        for mode_id in system.mode_ids():
            try:
                optimum = ms.solve_optimal(system, mode_id).optimal_latency
                first_fit = ms.first_fit_decreasing(system, mode_id)
            except (ms.InfeasibleModeError, ms.PlacementError):
                continue
            first_fit_bound = ms.analyze_allocation(system, mode_id, first_fit).platform_bound
            assert optimum <= first_fit_bound <= ms.latency_upper_bound(system, mode_id), (system, mode_id)
            checked += 1
    assert checked > 550


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


def test_validate_online_scheme_builds_each_summary_once(case_study, monkeypatch):
    built = []
    summary_of = ms.utilization_summary

    def counting(system, mode_id):
        built.append(mode_id)
        return summary_of(system, mode_id)

    for module in ("modesched.model", "modesched.online"):
        monkeypatch.setattr(f"{module}.utilization_summary", counting)
    validation = ms.validate_online_scheme(case_study)
    assert built == ["mode1", "mode2"]
    assert [mode.utilization for mode in validation.modes] == [
        summary_of(case_study, mode_id) for mode_id in built
    ]


def test_validate_online_scheme_infeasible_mode_keeps_its_bound():
    validation = ms.validate_online_scheme(ms.build_system(case_study_raw(wcet_tau10=90)))
    mode1, mode2 = validation.modes
    # mode2 fails the utilization test; its bound still holds, so mode1 is checked against it
    assert not mode2.feasible and not mode2.passed and mode2.evidence.feasibility.margin < 0
    assert mode1.entry_latency == mode2.bound and mode1.deadline_checks
