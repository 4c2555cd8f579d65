import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

import modesched as ms
from modesched.offline import _lp_names, default_big_m
from conftest import (
    brute_force_optimal,
    fraction_busy_period,
    incumbent_values,
    infeasible_mode_raw,
    parse_lp_rows,
    random_system,
    row_holds,
    violated_rows,
)


def test_solve_mode1_optimum(case_study):
    result = ms.solve_optimal(case_study, "mode1")
    assert result.optimal_latency == 40
    assert result.proof_of_optimality
    assert result.explored_nodes > 0
    assert result.best_allocation.assignment == {"tau5": 1, "tau6": 1, "tau7": 1, "tau8": 2, "tau9": 2}


def test_solve_mode2_forced_placement(case_study):
    result = ms.solve_optimal(case_study, "mode2")
    assert result.best_allocation.assignment == {"tau10": 2}
    assert result.optimal_latency == 85


def test_mode1_exhaustive_oracle(case_study):
    md = case_study.md_tasks_of("mode1")
    assert len(md) == 5
    bounds = []
    for combo in itertools.product((1, 2), repeat=5):
        allocation = ms.Allocation("mode1", {t.id: p for t, p in zip(md, combo)})
        try:
            ms.validate_allocation(case_study, allocation)
        except ms.AllocationError:
            continue
        bounds.append(ms.analyze_allocation(case_study, "mode1", allocation).platform_bound)
    assert min(bounds) == 40
    assert all(b >= 40 for b in bounds)


def test_solve_is_deterministic(case_study):
    first = ms.solve_optimal(case_study, "mode1")
    second = ms.solve_optimal(case_study, "mode1")
    assert first == second


def test_witness_consistency(case_study):
    result = ms.solve_optimal(case_study, "mode1")
    replay = ms.analyze_allocation(case_study, "mode1", result.best_allocation)
    assert replay.platform_bound == result.optimal_latency


def test_empty_mode_trivial():
    system = ms.build_system(
        {
            "processors": 3,
            "tasks": [{"id": "a", "kind": "MI", "wcet": 1, "period": 2, "processor": 2}],
            "modes": [{"id": "m", "md_tasks": []}],
            "transitions": [],
        }
    )
    result = ms.solve_optimal(system, "m")
    assert result.optimal_latency == 0 and result.best_allocation.assignment == {}
    assert result.explored_nodes == 0 and result.proof_of_optimality
    assert result.latency_report == ms.analyze_allocation(system, "m", result.best_allocation)


def test_infeasible_mode_names_task():
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 3, "period": 5, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 3, "period": 5, "processor": 2},
            {"id": "lone", "kind": "MD", "wcet": 1, "period": 2},
        ],
        "modes": [{"id": "m", "md_tasks": ["lone"]}],
        "transitions": [],
    }
    with pytest.raises(ms.InfeasibleModeError) as excinfo:
        ms.solve_optimal(ms.build_system(raw), "m")
    assert excinfo.value.task_id == "lone"
    assert excinfo.value.mode_id == "m"


def test_search_places_more_tasks_than_the_recursion_limit():
    """One processor and one mode of 300 MD tasks of wcet 1: the search goes
    one level deeper per task, past a recursion limit of 200."""

    def deep_mode(period):
        tasks = [{"id": f"t{i:03d}", "kind": "MD", "wcet": 1, "period": period} for i in range(300)]
        modes = [{"id": "m", "md_tasks": [t["id"] for t in tasks]}]
        return ms.build_system({"processors": 1, "tasks": tasks, "modes": modes, "transitions": []})

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        result = ms.solve_optimal(deep_mode(2000), "m")
        # 1.5 of utilization: the 201st task in id order is the stuck one
        with pytest.raises(ms.InfeasibleModeError) as excinfo:
            ms.solve_optimal(deep_mode(200), "m")
    finally:
        sys.setrecursionlimit(limit)
    assert result.optimal_latency == 300
    assert set(result.best_allocation.assignment.values()) == {1}
    assert excinfo.value.task_id == "t200"


def test_validate_offline_scheme_case_study(case_study):
    verdict = ms.validate_offline_scheme(case_study)
    assert verdict.passed
    mode1, mode2 = verdict.modes
    assert (mode1.bound, mode2.bound) == (40, 85)
    assert (mode1.entry_latency, mode2.entry_latency) == (85, 40)
    assert mode1.utilization == ms.utilization_summary(case_study, "mode1")
    (tau10,) = mode2.deadline_checks
    assert tau10.task_id == "tau10" and tau10.passed and tau10.slack == 10
    for mode in verdict.modes:
        result = mode.evidence
        assert isinstance(result, ms.OptimizationResult) and mode.feasible
        # the search's own latency report is the one for its allocation
        assert result.latency_report == ms.analyze_allocation(case_study, mode.mode_id, result.best_allocation)
        assert result.optimal_latency == result.latency_report.platform_bound == mode.bound


def test_validate_offline_scheme_infeasible_mode():
    system = ms.build_system(infeasible_mode_raw())
    verdict = ms.validate_offline_scheme(system)
    assert not verdict.passed
    m1, m2 = verdict.modes
    assert m1.bound is None and not m1.feasible and not m1.passed
    assert isinstance(m1.evidence, ms.InfeasibleModeError) and m1.evidence.task_id == "big"
    # m1's only predecessor (m2) is feasible, so m1 still gets an entry latency
    assert m1.entry_latency == m2.bound == 4
    # m2 is feasible on its own, but its only predecessor is not
    assert m2.feasible and m2.entry_latency is None and m2.deadline_checks == ()
    assert m2.passed is False


def test_lexicographic_tie_break():
    # splitting the identical tasks is optimal (busy period 2 per processor);
    # the two mirrored splits tie and the id-ordered lexicographic minimum wins
    raw = {
        "processors": 2,
        "tasks": [
            {"id": "a", "kind": "MD", "wcet": 2, "period": 8},
            {"id": "b", "kind": "MD", "wcet": 2, "period": 8},
        ],
        "modes": [{"id": "m", "md_tasks": ["a", "b"]}],
        "transitions": [],
    }
    result = ms.solve_optimal(ms.build_system(raw), "m")
    assert result.optimal_latency == 2
    assert result.best_allocation.assignment == {"a": 1, "b": 2}


def test_symmetry_of_identical_processors():
    base = {
        "processors": 2,
        "tasks": [
            {"id": "i1", "kind": "MI", "wcet": 2, "period": 10, "processor": 1},
            {"id": "i2", "kind": "MI", "wcet": 2, "period": 10, "processor": 2},
            {"id": "x", "kind": "MD", "wcet": 3, "period": 12},
            {"id": "y", "kind": "MD", "wcet": 5, "period": 18},
        ],
        "modes": [{"id": "m", "md_tasks": ["x", "y"]}],
        "transitions": [],
    }
    swapped = {
        **base,
        "tasks": [
            {"id": "i1", "kind": "MI", "wcet": 2, "period": 10, "processor": 2},
            {"id": "i2", "kind": "MI", "wcet": 2, "period": 10, "processor": 1},
        ] + base["tasks"][2:],
    }
    first = ms.solve_optimal(ms.build_system(base), "m")
    second = ms.solve_optimal(ms.build_system(swapped), "m")
    assert first.optimal_latency == second.optimal_latency


def _utilization_feasible(system, tasks, combo):
    load = {p: system.mi_utilization(p) for p in system.processors}
    for task, p in zip(tasks, combo):
        load[p] += task.utilization
    return all(value <= 1 for value in load.values())


def brute_force_witness(system, mode_id):
    """First optimal assignment in ``itertools.product`` order over the
    id-ordered tasks, which is the lexicographically smallest one."""
    md = sorted(system.md_tasks_of(mode_id), key=lambda t: t.id)
    optimum = brute_force_optimal(system, mode_id)
    for combo in itertools.product(system.processors, repeat=len(md)):
        if not _utilization_feasible(system, md, combo):
            continue
        allocation = ms.Allocation(mode_id=mode_id, assignment={t.id: p for t, p in zip(md, combo)})
        if ms.analyze_allocation(system, mode_id, allocation).platform_bound == optimum:
            return allocation.assignment
    raise AssertionError("the optimum is attained by some assignment")


def brute_force_stuck_task(system, mode_id):
    """``order[k]`` for the longest prefix ``order[:k]`` of the (-utilization,
    id) order that some assignment places within every processor's utilization."""
    order = sorted(system.md_tasks_of(mode_id), key=lambda t: (-t.utilization, t.id))
    k = max(
        k
        for k in range(len(order))
        if any(
            _utilization_feasible(system, order[:k], combo)
            for combo in itertools.product(system.processors, repeat=k)
        )
    )
    return order[k].id


def _two_processor_system(md, mi=()):
    tasks = [
        {"id": f"i{p}", "kind": "MI", "wcet": wcet, "period": period, "processor": p}
        for p, (wcet, period) in enumerate(mi, start=1)
    ]
    tasks += [{"id": f"t{i}", "kind": "MD", "wcet": w, "period": t} for i, (w, t) in enumerate(md)]
    return ms.build_system(
        {
            "processors": 2,
            "tasks": tasks,
            "modes": [{"id": "m", "md_tasks": [f"t{i}" for i in range(len(md))]}],
            "transitions": [],
        }
    )


@pytest.mark.parametrize(
    "system, optimum",
    [
        # two processors reach equal utilization with different MD demand
        (_two_processor_system([(3, 8), (6, 16), (1, 4), (1, 3), (1, 2)]), 7),
        # ... and equal MD demand with different utilization
        (_two_processor_system([(1, 3), (5, 16), (1, 4), (2, 8), (1, 2), (1, 3)]), 7),
        # equal utilization and demand, but only one holds a period above the limit
        (
            _two_processor_system(
                [(4, 31), (4, 20), (8, "1240/51"), (2, 25), (1, 12)], mi=[(4, 7), (4, 7)]
            ),
            25,
        ),
        # equal MI utilization, but the MI tasks interfere differently
        (_two_processor_system([(1, 2), (1, 3)], mi=[(1, 2), (2, 4)]), 2),
    ],
)
def test_processors_are_interchangeable_only_in_equal_states(system, optimum):
    result = ms.solve_optimal(system, "m")
    assert result.optimal_latency == optimum == brute_force_optimal(system, "m")
    assert result.best_allocation.assignment == brute_force_witness(system, "m")


def test_a_tightened_limit_forgets_the_states_tried_before_it():
    """Both processors hold the MI task (2, 8).  In branching order (t1, t3,
    t0, t2, t4) the first placement puts t1 and t0 on processor 1 and t3 and
    t2 on processor 2: equal utilization and demand 6, but longest MD periods
    14 and 10.  Adding t4 to processor 1 completes it with bound 11 (busy
    period 11, below 14).  Below the new limit 10, processor 1 holds a period
    above the limit, so t4 fits only on processor 2, for the optimum 10.
    Under the old limit the two processors were in the same state, so a
    search that remembered trying processor 1 at that step would skip
    processor 2 and report 11."""
    system = _two_processor_system([(2, 14), (4, 8), (1, 7), (5, 10), (1, 10)], mi=[(2, 8), (2, 8)])
    result = ms.solve_optimal(system, "m")
    assert result.optimal_latency == 10 == brute_force_optimal(system, "m")
    assert result.best_allocation.assignment == brute_force_witness(system, "m")
    assert result.best_allocation.assignment == {"t0": 1, "t1": 1, "t2": 2, "t3": 2, "t4": 2}


def test_random_systems_match_brute_force():
    rng = random.Random(424242)
    solved = stuck = 0
    for _ in range(40):
        system = random_system(rng, md_heavy=True)
        for mode_id in system.mode_ids():
            if len(system.md_tasks_of(mode_id)) > 5:
                continue
            expected = brute_force_optimal(system, mode_id)
            if expected is None:
                with pytest.raises(ms.InfeasibleModeError) as excinfo:
                    ms.solve_optimal(system, mode_id)
                assert excinfo.value.task_id == brute_force_stuck_task(system, mode_id)
                stuck += 1
            else:
                result = ms.solve_optimal(system, mode_id)
                assert result.optimal_latency == expected
                assert result.best_allocation.assignment == brute_force_witness(system, mode_id)
                solved += 1
    assert solved > 30 and stuck > 20


def test_witness_takes_one_oracle_call_per_task(case_study, monkeypatch):
    """One minimizing call finds the optimum; after it the witness asks the
    oracle once per MD task, the k-th call with the k tasks before it in id
    order fixed, and every call succeeds."""
    from modesched import offline

    calls = []
    allocate = offline._SearchState.allocate

    def counting(self, fixed, rest, limit, minimize=False):
        found = allocate(self, fixed, rest, limit, minimize)
        calls.append((minimize, len(fixed), found is not None))
        return found

    monkeypatch.setattr(offline._SearchState, "allocate", counting)
    rng = random.Random(1606)
    systems = [case_study] + [random_system(rng, md_heavy=True) for _ in range(40)]
    solved = 0
    for system in systems:
        for mode_id in system.mode_ids():
            calls.clear()
            try:
                ms.solve_optimal(system, mode_id)
            except ms.InfeasibleModeError:
                # the minimizing call finds no placement, and no witness call follows
                assert calls == [(True, 0, False)], (system, mode_id)
                continue
            n = len(system.md_tasks_of(mode_id))
            # a mode with no MD tasks: the minimizing call places nothing, and no witness call follows
            expected = [(True, 0, True)] + [(False, k, True) for k in range(n)]
            assert calls == expected, (system, mode_id)
            solved += 1
    assert solved > 30


def test_every_incumbent_improves_on_the_last(case_study, monkeypatch):
    """The minimizing call computes the bound of each placement it completes,
    and ``solve_optimal`` that of the one it returns.  After each incumbent
    the search backs up to the first step the lowered limit refuses, so it
    never completes a placement outside the limit in force: the incumbents'
    bounds strictly fall, and the last is the optimum."""
    from modesched import offline

    bounds = []
    bound = offline._SearchState.bound

    def recording(self, items, placement):
        bounds.append(bound(self, items, placement))
        return bounds[-1]

    monkeypatch.setattr(offline._SearchState, "bound", recording)
    rng = random.Random(2718)
    systems = [case_study] + [random_system(rng, m_max=4, max_tasks=16, md_heavy=True) for _ in range(200)]
    improved = 0
    for system in systems:
        for mode_id in system.mode_ids():
            if not system.md_tasks_of(mode_id):
                continue
            bounds.clear()
            try:
                ms.solve_optimal(system, mode_id)
            except ms.InfeasibleModeError:
                continue
            *incumbents, optimum = bounds
            assert incumbents[-1] == optimum, (system, mode_id)
            assert all(a > b for a, b in zip(incumbents, incumbents[1:])), (system, mode_id, incumbents)
            improved += len(incumbents) > 1
    assert improved > 40


# ---------------------------------------------------------------------------
# integer time base: equivalence with the search on rationals
# ---------------------------------------------------------------------------

class _FractionSearchState:
    """The search's per-processor accumulators on rationals (reference)."""

    def __init__(self, system):
        self.processors = list(system.processors)
        self.mi_sets = {p: system.mi_on(p) for p in self.processors}
        self.util = {p: system.mi_utilization(p) for p in self.processors}
        self.demand = {p: Fraction(0) for p in self.processors}
        self.max_period = {p: Fraction(0) for p in self.processors}
        self.effective = {p: Fraction(0) for p in self.processors}
        self.signature = {
            p: tuple(sorted((t.wcet, t.period) for t in self.mi_sets[p])) for p in self.processors
        }
        self._busy_cache = {}

    def busy(self, processor, demand):
        key = (processor, demand)
        if key not in self._busy_cache:
            self._busy_cache[key] = fraction_busy_period(demand, self.mi_sets[processor])
        return self._busy_cache[key]

    def place(self, task, processor):
        saved = (self.max_period[processor], self.effective[processor])
        self.util[processor] += task.utilization
        self.demand[processor] += task.wcet
        self.max_period[processor] = max(self.max_period[processor], task.period)
        self.effective[processor] = min(
            self.max_period[processor], self.busy(processor, self.demand[processor])
        )
        return saved

    def unplace(self, task, processor, saved):
        self.util[processor] -= task.utilization
        self.demand[processor] -= task.wcet
        self.max_period[processor], self.effective[processor] = saved

    def bound(self):
        return max(self.effective.values())


def fraction_solve_optimal(system, mode_id):
    """Reference search on rationals: (optimum, witness, explored nodes).

    Same branching order, symmetry rule, pruning and witness phase as
    ``solve_optimal``, with a fresh state for the witness phase; raises
    ``InfeasibleModeError`` naming the task the search got stuck on.
    """
    md_tasks = system.md_tasks_of(mode_id)
    if not md_tasks:
        return Fraction(0), {}, 1
    order = sorted(md_tasks, key=lambda t: (-t.utilization, t.id))
    state = _FractionSearchState(system)
    explored = 0
    best = None
    deepest = 0

    def search(index):
        nonlocal explored, best, deepest
        deepest = max(deepest, index)
        if index == len(order):
            value = state.bound()
            if best is None or value < best:
                best = value
            return
        task = order[index]
        tried_empty_signatures = set()
        for p in state.processors:
            if state.util[p] + task.utilization > 1:
                continue
            if state.demand[p] == 0:
                if state.signature[p] in tried_empty_signatures:
                    continue
                tried_empty_signatures.add(state.signature[p])
            saved = state.place(task, p)
            explored += 1
            if best is None or state.bound() < best:
                search(index + 1)
            state.unplace(task, p, saved)

    search(0)
    if best is None:
        raise ms.InfeasibleModeError(mode_id, order[deepest].id)

    limit = best
    id_order = sorted(md_tasks, key=lambda t: t.id)
    state = _FractionSearchState(system)

    def completable(remaining):
        nonlocal explored
        if state.bound() > limit:
            return False
        if not remaining:
            return True
        task = remaining[0]
        for p in state.processors:
            if state.util[p] + task.utilization > 1:
                continue
            saved = state.place(task, p)
            explored += 1
            ok = state.bound() <= limit and completable(remaining[1:])
            state.unplace(task, p, saved)
            if ok:
                return True
        return False

    assignment = {}
    for i, task in enumerate(id_order):
        rest = sorted(id_order[i + 1:], key=lambda t: (-t.utilization, t.id))
        for p in state.processors:
            if state.util[p] + task.utilization > 1:
                continue
            saved = state.place(task, p)
            explored += 1
            if state.bound() <= limit and completable(rest):
                assignment[task.id] = p
                break
            state.unplace(task, p, saved)
    return best, assignment, explored


# time units with denominators 3, 2, 10 and 7, so a system mixes all four
MIXED_UNITS = (Fraction(1, 3), Fraction(7, 2), Fraction("0.1"), Fraction(2, 7))


def _time_text(value):
    """Input text of a time: a one-digit decimal such as "3.5" where one is exact, else "p/q"."""
    if (value * 10).denominator == 1 and value.denominator != 1:
        tenths = int(value * 10)
        return f"{tenths // 10}.{tenths % 10}"
    return str(value)


def mixed_denominator_system(rng):
    """A random two-mode system whose times are multiples of the MIXED_UNITS."""

    def draw(share):
        period = rng.choice(MIXED_UNITS) * rng.randint(5, 40)
        unit = rng.choice(MIXED_UNITS)
        top = math.floor(period * share / unit)
        if top < 1:
            return None
        return unit * rng.randint(1, top), period

    processors = rng.randint(1, 3)
    tasks = []
    for p in range(1, processors + 1):
        spare = Fraction(1)
        for k in range(rng.randint(0, 2)):
            drawn = draw(min(spare, Fraction(1, 2)))
            if drawn is None:
                continue
            wcet, period = drawn
            spare -= wcet / period
            tasks.append(
                {"id": f"mi{p}_{k}", "kind": "MI", "wcet": _time_text(wcet),
                 "period": _time_text(period), "processor": p}
            )
    modes = []
    for mode in ("alpha", "beta"):
        share = rng.choice((Fraction(1, 8), Fraction(1, 3), Fraction(2, 3)))
        ids = []
        for i in range(rng.randint(1, 5)):
            drawn = draw(share)
            if drawn is None:
                continue
            wcet, period = drawn
            ids.append(f"{mode}{i}")
            tasks.append(
                {"id": ids[-1], "kind": "MD", "wcet": _time_text(wcet), "period": _time_text(period)}
            )
        modes.append({"id": mode, "md_tasks": ids})
    return ms.build_system(
        {
            "processors": processors,
            "tasks": tasks,
            "modes": modes,
            "transitions": [["alpha", "beta"], ["beta", "alpha"]],
        }
    )


def _equivalence_corpus():
    rng = random.Random(20261018)
    for _ in range(150):
        yield mixed_denominator_system(rng)
    rng = random.Random(7)
    for _ in range(200):
        yield random_system(rng, md_heavy=True)


def test_integer_search_matches_fraction_search():
    feasible = infeasible = 0
    denominators = set()
    for system in _equivalence_corpus():
        denominators.update(
            v.denominator for t in system.mi_tasks + system.md_tasks for v in (t.wcet, t.period)
        )
        for mode_id in system.mode_ids():
            try:
                optimum, witness, _ = fraction_solve_optimal(system, mode_id)
            except ms.InfeasibleModeError as expected:
                with pytest.raises(ms.InfeasibleModeError) as excinfo:
                    ms.solve_optimal(system, mode_id)
                assert excinfo.value.task_id == expected.task_id
                infeasible += 1
                continue
            result = ms.solve_optimal(system, mode_id)
            assert result.optimal_latency == optimum
            assert result.best_allocation.assignment == witness
            feasible += 1
    assert feasible + infeasible == 700
    assert feasible > 450 and infeasible > 150
    assert {2, 3, 7, 10} <= denominators


@pytest.mark.parametrize("wcet, feasible", [("4/7", True), ("85/147", False)])
def test_utilization_bound_is_exact(wcet, feasible):
    # MI utilization 1/3; the MD task adds 2/3 (sum exactly 1, so it fits) or
    # 85/126 (sum 127/126, one part in 126 above 1, so it does not)
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "i", "kind": "MI", "wcet": "1/3", "period": 1, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": wcet, "period": "6/7"},
            ],
            "modes": [{"id": "m", "md_tasks": ["x"]}],
            "transitions": [],
        }
    )
    if feasible:
        result = ms.solve_optimal(system, "m")
        assert result.best_allocation.assignment == {"x": 1}
        # busy period 4/7 + 1/3 = 19/21 against the period 6/7 = 18/21
        assert result.optimal_latency == Fraction(6, 7)
    else:
        with pytest.raises(ms.InfeasibleModeError) as excinfo:
            ms.solve_optimal(system, "m")
        assert excinfo.value.task_id == "x"


# ---------------------------------------------------------------------------
# MILP export
# ---------------------------------------------------------------------------

def test_export_structure_mode1(case_study):
    doc = ms.export_milp(case_study, "mode1")
    assert doc.big_m == 179  # wcet sum 79 + largest period 100
    names = [row.name for row in doc.constraints]
    assert names.count("util_1") == 1 and names.count("util_2") == 1
    assert sum(1 for n in names if n.startswith("assign_")) == 5
    assert sum(1 for n in names if n.startswith("end_")) == 4
    assert sum(1 for n in names if n.startswith("sel2_")) == 2
    assert sum(1 for n in names if n.startswith("sel1_")) == 10
    # assignment + utilization + busy-end + selector families
    assert doc.constraint_count == 5 + 2 + 4 + 2 + 10
    assert doc.binary_count == 12
    assert len(doc.integer_variables) == 4
    assert doc.continuous_variables == ("L",)
    assert dict(doc.integer_upper_bounds) == {"x_tau1": 6, "x_tau2": 3, "x_tau3": 2, "x_tau4": 2}


def test_export_mode2_big_m(case_study):
    doc = ms.export_milp(case_study, "mode2")
    assert doc.big_m == (65 + 50) + 100
    assert doc.binary_count == 2 * (1 + 1)


def test_export_rejects_non_dominating_big_m(case_study):
    # attainable latencies out of mode1 reach 50; 50 must be rejected, 51 accepted
    with pytest.raises(ValueError, match="dominate"):
        ms.export_milp(case_study, "mode1", big_m=50)
    assert ms.export_milp(case_study, "mode1", big_m=51).big_m == 51


def test_export_empty_mode():
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [{"id": "a", "kind": "MI", "wcet": 1, "period": 4, "processor": 1}],
            "modes": [{"id": "m", "md_tasks": []}],
            "transitions": [],
        }
    )
    doc = ms.export_milp(system, "m")
    assert not any(row.name.startswith("assign_") for row in doc.constraints)
    assert doc.binary_variables == ("p_1", "p_2")
    text = doc.to_lp()
    assert "Minimize" in text and "End" in text


def test_incumbent_satisfies_document(case_study):
    for mode_id in ("mode1", "mode2"):
        doc = ms.export_milp(case_study, mode_id)
        allocation = ms.solve_optimal(case_study, mode_id).best_allocation
        values = incumbent_values(case_study, mode_id, allocation)
        assert violated_rows(doc, values) == ()


def test_colliding_lp_names_get_suffixes():
    """``a-b``, ``a_b`` and ``a.b`` all sanitize to ``a_b``: the export keeps
    their variables apart, and the optimum satisfies every row."""
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [
                {"id": "m-i", "kind": "MI", "wcet": 1, "period": 4, "processor": 1},
                {"id": "a-b", "kind": "MD", "wcet": 1, "period": 5},
                {"id": "a_b", "kind": "MD", "wcet": 2, "period": 6},
                {"id": "a.b", "kind": "MD", "wcet": 3, "period": 8},
            ],
            "modes": [{"id": "m", "md_tasks": ["a-b", "a_b", "a.b"]}],
            "transitions": [],
        }
    )
    assert _lp_names(["a-b", "a_b", "a.b"]) == {"a-b": "a_b", "a_b": "a_b_2", "a.b": "a_b_3"}
    doc = ms.export_milp(system, "m")
    assert sorted(doc.binary_variables) == [
        "p_1", "p_2", "y_1_a_b", "y_1_a_b_2", "y_1_a_b_3", "y_2_a_b", "y_2_a_b_2", "y_2_a_b_3",
    ]
    assert len({row.name for row in doc.constraints}) == doc.constraint_count
    allocation = ms.solve_optimal(system, "m").best_allocation
    assert violated_rows(doc, incumbent_values(system, "m", allocation)) == ()


def test_incumbent_satisfies_parsed_text(case_study):
    """Independent check: parse the LP text back and evaluate each row exactly."""
    doc = ms.export_milp(case_study, "mode1")
    allocation = ms.solve_optimal(case_study, "mode1").best_allocation
    values = incumbent_values(case_study, "mode1", allocation)
    rows = parse_lp_rows(doc.to_lp())
    assert len(rows) == doc.constraint_count
    for name, terms, sense, rhs in rows:
        assert row_holds(terms.items(), sense, rhs, values), name


def test_incumbent_objective_is_platform_bound(case_study):
    allocation = ms.solve_optimal(case_study, "mode1").best_allocation
    values = incumbent_values(case_study, "mode1", allocation)
    assert values["L"] == 40
    # job counts are the ceilings of the per-processor busy periods
    assert values["x_tau1"] == 2 and values["x_tau2"] == 1  # busy 49 on processor 1
    assert values["x_tau3"] == 1 and values["x_tau4"] == 1  # busy 40 on processor 2
    assert values["p_1"] == 0 and values["p_2"] == 0  # period bound selected on both


def test_lp_text_rounding_warning(case_study):
    text = ms.export_milp(case_study, "mode1").to_lp()
    assert "rounded to 12 significant digits" in text
    assert "0.333333333333" in text  # 1/3 capped at 12 significant digits
    # fully dyadic system needs no warning
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 1, "period": 2, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 1, "period": 4},
            ],
            "modes": [{"id": "m", "md_tasks": ["x"]}],
            "transitions": [],
        }
    )
    assert "rounded" not in ms.export_milp(system, "m").to_lp()


def test_lp_names_sanitized():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "odd name!", "kind": "MD", "wcet": 1, "period": 4},
                {"id": "odd-name1", "kind": "MD", "wcet": 1, "period": 4},
            ],
            "modes": [{"id": "m", "md_tasks": ["odd name!", "odd-name1"]}],
            "transitions": [],
        }
    )
    doc = ms.export_milp(system, "m")
    for var in doc.binary_variables:
        assert " " not in var and "!" not in var and "-" not in var
    assert len(set(doc.binary_variables)) == len(doc.binary_variables)


def test_external_solver_reproduces_optima(case_study):
    """Cross-check the export end to end: an independent mixed-integer solver
    run on the emitted text must find the same optima as the exact search."""
    pytest.importorskip("scipy")
    from conftest import solve_lp_text

    for mode_id, expected in (("mode1", 40), ("mode2", 85)):
        value = solve_lp_text(ms.export_milp(case_study, mode_id).to_lp())
        assert abs(value - expected) < 1e-6


def test_external_optimum_needs_assignment_rows(case_study):
    """Every other row bounds the placement binaries only from above, so
    without the one assignment equality per MD task the all-zero placement is
    feasible and the solver's optimum collapses to 0.  A row layout with no
    room for these |M| rows (such as m*(n+2) rows, one per task and processor
    plus two per processor) cannot reproduce the exact optima."""
    pytest.importorskip("scipy")
    from conftest import solve_lp_text

    for mode_id, expected in (("mode1", 40), ("mode2", 85)):
        text = ms.export_milp(case_study, mode_id).to_lp()
        stripped = "".join(
            line for line in text.splitlines(keepends=True) if not line.startswith(" assign_")
        )
        assert stripped.count("\n") == text.count("\n") - len(case_study.md_tasks_of(mode_id))
        assert abs(solve_lp_text(text) - expected) < 1e-6
        assert abs(solve_lp_text(stripped)) < 1e-6


def test_lp_export_without_mi_tasks():
    """With no MI task there are no job counts: no General section, an empty
    Bounds section, and the external optimum still equals the search's."""
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [
                {"id": "a", "kind": "MD", "wcet": 3, "period": 4},
                {"id": "b", "kind": "MD", "wcet": 1, "period": 5},
                {"id": "c", "kind": "MD", "wcet": 2, "period": 8},
            ],
            "modes": [{"id": "m", "md_tasks": ["a", "b", "c"]}],
            "transitions": [],
        }
    )
    doc = ms.export_milp(system, "m")
    assert doc.integer_variables == () and doc.integer_upper_bounds == ()
    text = doc.to_lp()
    lines = text.splitlines()
    assert "General" not in lines and "warning" not in text
    assert lines[lines.index("Bounds") + 1] == "Binary"
    # a alone on one processor, b and c on the other: both drain within 3
    assert ms.solve_optimal(system, "m").optimal_latency == 3
    pytest.importorskip("scipy")
    from conftest import solve_lp_text

    assert abs(solve_lp_text(text) - 3) < 1e-6


def test_default_big_m_exceeds_all_attainable(case_study):
    rng = random.Random(13579)
    for _ in range(25):
        system = random_system(rng)
        for mode_id in system.mode_ids():
            hv = default_big_m(system, mode_id)
            try:
                doc = ms.export_milp(system, mode_id)
            except ValueError:
                pytest.fail(f"default big-M {hv} rejected for {mode_id}")
            assert doc.big_m == hv
