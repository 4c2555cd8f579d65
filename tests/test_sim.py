import contextlib
import io
import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

import modesched as ms
from modesched import sim
from modesched.cli import main
from conftest import (
    SAMPLES,
    drain_instant,
    execution_intervals,
    random_system,
    rational_trace,
)


def events_of(trace, kind, task=None):
    return [e for e in trace.events if e.kind == kind and (task is None or e.task == task)]


# ---------------------------------------------------------------------------
# reference replay: two processors, MCR at t=7
# ---------------------------------------------------------------------------

def test_replay_latency_and_transition_deadline(handover_trace):
    assert handover_trace.observed_latencies == ((Fraction(7), Fraction(4)),)
    check = handover_trace.transition_checks[0]
    assert check.task_id == "tau5"
    assert check.absolute_deadline == 18
    assert check.first_completion == 15
    assert check.ok
    assert handover_trace.deadline_miss_count == 0


def test_replay_job_released_at_mcr_instant_is_drained(handover_trace):
    # tau2's second job is released exactly at the request instant and still runs
    releases = events_of(handover_trace, "release", "tau2")
    assert [e.time for e in releases] == [1, 7]
    completes = events_of(handover_trace, "complete", "tau2")
    assert [e.time for e in completes] == [5, 11]


def test_replay_transition_bookkeeping(handover_trace):
    (end,) = events_of(handover_trace, "transition-end")
    assert end.time == 11
    (enable,) = events_of(handover_trace, "enable", "tau5")
    assert enable.time == 11 and enable.processor == 1
    disabled = {e.task for e in events_of(handover_trace, "MD-disabled")}
    assert disabled == {"tau2", "tau4"}
    (mcr,) = events_of(handover_trace, "MCR")
    assert mcr.time == 7 and mcr.task == "new"


def test_replay_protocol_safety(handover_trace):
    """No destination-mode job may execute before the transition ends."""
    (end,) = events_of(handover_trace, "transition-end")
    for event in handover_trace.events:
        if event.task == "tau5" and event.kind in ("release", "start", "resume"):
            assert event.time >= end.time


def test_replay_mi_releases_are_unbroken(handover_trace):
    assert [e.time for e in events_of(handover_trace, "release", "tau1")] == [
        0, 3, 6, 9, 12, 15, 18, 21, 24,
    ]
    assert [e.time for e in events_of(handover_trace, "release", "tau3")] == [0, 5, 10, 15, 20]


def test_replay_event_conservation(handover_trace):
    """Every completed job was released once and executed exactly its wcet."""
    wcet = {"tau1": 1, "tau2": 3, "tau3": 4, "tau4": 1, "tau5": 3}
    completed = {(e.task, e.job) for e in events_of(handover_trace, "complete")}
    released = [(e.task, e.job) for e in events_of(handover_trace, "release")]
    assert len(released) == len(set(released))
    assert completed <= set(released)
    for task_id, job in completed:
        intervals = execution_intervals(handover_trace, task=task_id, job=job)
        executed = sum((end - begin for begin, end in intervals), Fraction(0))
        assert executed == wcet[task_id], (task_id, job)


def test_replay_edf_schedule_detail(handover_trace):
    # processor-1 execution windows, matching the expected preemption pattern
    tau5_first = execution_intervals(handover_trace, task="tau5", job=0)
    assert tau5_first == [(11, 12), (13, 15)]
    tau2_last = execution_intervals(handover_trace, task="tau2", job=1)
    assert tau2_last == [(7, 9), (10, 11)]


def test_replay_is_deterministic(handover_system):
    scenario = ms.load_scenario(SAMPLES / "handover_mcr7.json", handover_system)
    assert ms.run(scenario) == ms.run(scenario)


def test_trace_text_format(handover_trace):
    text = handover_trace.to_text()
    lines = text.splitlines()
    assert "7\t-\tMCR\tnew\t-" in lines
    assert "11\t-\ttransition-end\t-\t-" in lines
    assert "# latency\t7\t4" in lines
    assert "# transition-deadline\ttau5\t7\t18\t15\tok" in lines
    assert lines[-1] == "# deadline-misses\t0"


# ---------------------------------------------------------------------------
# plain EDF and protocol edge cases
# ---------------------------------------------------------------------------

def test_no_mcr_feasible_system_has_no_misses(case_study):
    scenario = ms.make_scenario(
        case_study, initial_mode="mode1", allocation_source="offline-table",
        mcrs=[], horizon=200,
    )
    trace = ms.run(scenario)
    assert trace.deadline_miss_count == 0
    assert trace.observed_latencies == ()


def test_mcr_with_no_pending_jobs_is_instant():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 1, "period": 4, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 1, "period": 6},
            ],
            "modes": [{"id": "empty", "md_tasks": []}, {"id": "busy", "md_tasks": ["x"]}],
            "transitions": [["empty", "busy"]],
        }
    )
    scenario = ms.make_scenario(system, "empty", "offline-table", [(5, "busy")], horizon=30)
    trace = ms.run(scenario)
    assert trace.observed_latencies == ((Fraction(5), Fraction(0)),)
    (enable,) = [e for e in trace.events if e.kind == "enable" and e.task == "x"]
    assert enable.time == 5


def test_nested_mcr_rejected(case_study):
    scenario = ms.make_scenario(
        case_study, "mode1", "offline-table",
        [(0, "mode2"), (1, "mode1")], horizon=500,
    )
    with pytest.raises(ms.SimulationError, match="ongoing transition"):
        ms.run(scenario)


def test_online_placement_failure_reported_with_time_and_task():
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [
                {"id": "mi1", "kind": "MI", "wcet": 3, "period": 10, "processor": 1},
                {"id": "mi2", "kind": "MI", "wcet": 2, "period": 12, "processor": 2},
                {"id": "md1", "kind": "MD", "wcet": 10, "period": 10},
            ],
            "modes": [{"id": "calm", "md_tasks": []}, {"id": "storm", "md_tasks": ["md1"]}],
            "transitions": [["calm", "storm"]],
        }
    )
    scenario = ms.make_scenario(system, "calm", "online-ffd", [(3, "storm")], horizon=50)
    with pytest.raises(ms.SimulationError) as excinfo:
        ms.run(scenario)
    assert excinfo.value.time == 3
    assert excinfo.value.task_id == "md1"


def test_zero_horizon_empty_trace(handover_system):
    scenario = ms.make_scenario(handover_system, "old", "offline-table", [], horizon=0)
    trace = ms.run(scenario)
    assert trace.events == ()
    assert trace.deadline_miss_count == 0


def test_deadline_miss_recorded_not_fatal():
    """With validated inputs EDF never misses, so force an overloaded static
    table through the raw constructor: misses are trace events, not errors."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 2, "period": 3, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 2, "period": 3},
            ],
            "modes": [{"id": "m", "md_tasks": ["x"]}],
            "transitions": [],
        }
    )
    scenario = ms.Scenario(
        system=system,
        initial_mode="m",
        allocation_source="offline-table",
        mcr_schedule=(),
        horizon=Fraction(30),
        release_offsets={},
        static_tables={"m": ms.Allocation("m", {"x": 1})},  # utilization 4/3
    )
    trace = ms.run(scenario)
    assert trace.job_deadline_misses > 0
    assert any(e.kind == "deadline-miss" for e in trace.events)
    # the run still conserves work: completions keep arriving after the misses
    assert any(e.kind == "complete" and e.time > 5 for e in trace.events)


def test_rational_timestamps():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": "0.5", "period": "1.5", "processor": 1},
                {"id": "x", "kind": "MD", "wcet": "1/3", "period": "2", "transition_deadline": "4"},
            ],
            "modes": [{"id": "m", "md_tasks": ["x"]}, {"id": "n", "md_tasks": []}],
            "transitions": [["m", "n"]],
        }
    )
    scenario = ms.make_scenario(system, "m", "offline-table", [("2.25", "n")], horizon=10)
    trace = ms.run(scenario)
    assert trace.deadline_miss_count == 0
    completes = [e for e in trace.events if e.kind == "complete" and e.task == "x"]
    assert completes[0].time == Fraction(5, 6)  # 1/2 + 1/3, after the MI job


# ---------------------------------------------------------------------------
# scenario validation
# ---------------------------------------------------------------------------

def test_scenario_validation_errors(case_study):
    with pytest.raises(ms.ScenarioError, match="outside the horizon"):
        ms.make_scenario(case_study, "mode1", "offline-table", [(60, "mode2")], horizon=60)
    with pytest.raises(ms.ScenarioError, match="strictly increasing"):
        ms.make_scenario(
            case_study, "mode1", "offline-table", [(5, "mode2"), (5, "mode1")], horizon=60
        )
    with pytest.raises(ms.ScenarioError, match="no transition"):
        ms.make_scenario(case_study, "mode1", "offline-table", [(5, "mode1")], horizon=60)
    with pytest.raises(ms.SystemValidationError):
        ms.make_scenario(case_study, "mode9", "offline-table", [], horizon=60)
    with pytest.raises(ms.ScenarioError, match="allocation"):
        ms.make_scenario(case_study, "mode1", "best-fit", [], horizon=60)
    with pytest.raises(ms.ScenarioError, match="below period"):
        ms.make_scenario(
            case_study, "mode1", "offline-table", [], horizon=60,
            release_offsets={"tau5": [0, 39]},
        )


def test_parse_scenario_sweep_and_errors(case_study):
    spec = ms.parse_scenario(
        '{"allocation": "offline-table", "sweep": {"from_mode": "mode1", "to_mode": "mode2", "step": 1}}',
        case_study,
    )
    assert isinstance(spec, ms.SweepSpec) and spec.step == 1
    sweep = {"from_mode": "mode1", "to_mode": "mode2", "step": 1}
    for extra in (
        {"mcrs": []},
        {"initial_mode": "nope"},
        {"horizon": 5},
        {"release_offsets": {"zzz": ["abc"]}},
        {"initial_mode": "nope", "horizon": 5, "release_offsets": {"zzz": ["abc"]}},
    ):
        with pytest.raises(ms.ScenarioError, match="not both"):
            ms.parse_scenario(json.dumps({"sweep": sweep, **extra}), case_study)
    with pytest.raises(ms.ScenarioError, match="got 'bogus'"):
        ms.parse_scenario(json.dumps({"allocation": "bogus", "sweep": sweep}), case_study)
    with pytest.raises(ms.ScenarioError, match="invalid JSON"):
        ms.parse_scenario("{", case_study)
    with pytest.raises(ms.ScenarioError, match="missing scenario key"):
        ms.parse_scenario('{"initial_mode": "mode1"}', case_study)


# ---------------------------------------------------------------------------
# agreement with the analytical bounds
# ---------------------------------------------------------------------------

def test_critical_instant_drain_equals_busy_period():
    """One job of each MD task plus MI tasks released together: the first idle
    instant equals the busy-period fixed point."""
    rng = random.Random(90210)
    checked = 0
    for _ in range(25):
        mi_tasks = []
        spare = Fraction(9, 10)
        for i in range(rng.randint(0, 3)):
            period = rng.choice((4, 5, 6, 8, 10, 12))
            ceiling = int(spare * period)
            if ceiling < 1:
                continue
            wcet = rng.randint(1, ceiling)
            spare -= Fraction(wcet, period)
            mi_tasks.append({"id": f"mi{i}", "kind": "MI", "wcet": wcet, "period": period, "processor": 1})
        md_tasks = []
        md_spare = spare
        for i in range(rng.randint(1, 3)):
            period = rng.choice((6, 8, 10, 12, 15))
            ceiling = int(md_spare * period)
            if ceiling < 1:
                continue
            wcet = rng.randint(1, ceiling)
            md_spare -= Fraction(wcet, period)
            md_tasks.append({"id": f"md{i}", "kind": "MD", "wcet": wcet, "period": period})
        if not md_tasks:
            continue
        system = ms.build_system(
            {
                "processors": 1,
                "tasks": mi_tasks + md_tasks,
                "modes": [
                    {"id": "drain", "md_tasks": [t["id"] for t in md_tasks]},
                    {"id": "idle", "md_tasks": []},
                ],
                "transitions": [["drain", "idle"]],
            }
        )
        demand = sum((Fraction(t["wcet"]) for t in md_tasks), Fraction(0))
        expected = ms.busy_period(demand, system.mi_tasks)
        scenario = ms.make_scenario(
            system, "drain", "offline-table", [(0, "idle")], horizon=expected + 40
        )
        trace = ms.run(scenario)
        assert drain_instant(trace) == expected
        checked += 1
    assert checked >= 15


def test_sweep_static_mode1_full_hyperperiod(case_study):
    # step 1 over one hyperperiod of the source mode's tasks (lcm = 1800)
    spec = ms.SweepSpec("mode1", "mode2", Fraction(1), "offline-table")
    result = ms.run_sweep(case_study, spec)
    assert result.points == 1800
    assert result.max_latency <= 40
    assert (result.max_latency, result.at_time) == (35, 80)
    assert result.deadline_misses == 0


def test_sweep_static_mode2_full_hyperperiod(case_study):
    spec = ms.SweepSpec("mode2", "mode1", Fraction(1), "offline-table")
    result = ms.run_sweep(case_study, spec)
    assert result.points == 900
    assert result.max_latency <= 85
    assert result.max_latency == 65
    assert result.deadline_misses == 0


def test_sweep_online_ffd_within_algorithm_bound(case_study):
    result = ms.sweep_mcr(case_study, "online-ffd", ("mode1", "mode2"), range(0, 120))
    assert result.max_latency <= 50
    assert result.deadline_misses == 0


def test_sweep_source_without_md_tasks():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 1, "period": 5, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 1, "period": 5},
            ],
            "modes": [{"id": "quiet", "md_tasks": []}, {"id": "busy", "md_tasks": ["x"]}],
            "transitions": [["quiet", "busy"]],
        }
    )
    result = ms.sweep_mcr(system, "offline-table", ("quiet", "busy"), range(0, 10))
    assert result.max_latency == 0


def test_run_sweep_spec_covers_source_hyperperiod():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 1, "period": 4, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 2, "period": 6},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 8},
            ],
            "modes": [{"id": "m1", "md_tasks": ["x"]}, {"id": "m2", "md_tasks": ["y"]}],
            "transitions": [["m1", "m2"], ["m2", "m1"]],
        }
    )
    spec = ms.SweepSpec(from_mode="m1", to_mode="m2", step=Fraction(1), allocation_source="offline-table")
    result = ms.run_sweep(system, spec)
    assert result.points == 12  # lcm(4, 6)
    assert result.max_latency <= ms.latency_upper_bound(system, "m1")
    assert ms.hyperperiod(system.mi_tasks + system.md_tasks) == 24 and ms.hyperperiod([]) == 1


def test_run_sweep_streams_its_grid(case_study, monkeypatch):
    """The grid reaches ``sweep_mcr`` as an iterator, never as a list of points."""
    received = []
    sweep = ms.sweep_mcr

    def spy(system, allocation_source, mode_pair, mcr_time_grid):
        received.append(mcr_time_grid)
        return sweep(system, allocation_source, mode_pair, mcr_time_grid)

    monkeypatch.setattr("modesched.sim.sweep_mcr", spy)
    result = ms.run_sweep(case_study, ms.SweepSpec("mode1", "mode2", Fraction(1), "offline-table"))
    (grid,) = received
    assert iter(grid) is grid
    assert (result.points, result.max_latency, result.at_time) == (1800, 35, 80)
    # a step that does not divide the hyperperiod: ceil(1800 / (7/3)) points
    result = ms.run_sweep(case_study, ms.SweepSpec("mode1", "mode2", Fraction(7, 3), "online-ffd"))
    grid = [k * Fraction(7, 3) for k in range(772)]
    assert result == sweep(case_study, "online-ffd", ("mode1", "mode2"), grid)


def test_consecutive_transitions(case_study):
    scenario = ms.make_scenario(
        case_study, "mode1", "offline-table",
        [(10, "mode2"), (300, "mode1")], horizon=600,
    )
    trace = ms.run(scenario)
    assert len(trace.observed_latencies) == 2
    (first_at, first_latency), (second_at, second_latency) = trace.observed_latencies
    assert first_at == 10 and first_latency <= 40
    assert second_at == 300 and second_latency <= 85
    assert trace.deadline_miss_count == 0
    # every transition deadline of the entered modes was honored
    assert all(check.ok for check in trace.transition_checks)


def test_online_placement_computed_once_per_mode(case_study, monkeypatch):
    calls = []
    first_fit = ms.first_fit_decreasing

    def counting(system, mode_id):
        calls.append(mode_id)
        return first_fit(system, mode_id)

    monkeypatch.setattr("modesched.sim.first_fit_decreasing", counting)
    trace = ms.run(
        ms.make_scenario(
            case_study, "mode1", "online-ffd",
            [(10, "mode2"), (300, "mode1"), (600, "mode2"), (900, "mode1")], horizon=1200,
        )
    )
    assert len(trace.observed_latencies) == 4
    assert calls == ["mode1", "mode2"]
    calls.clear()
    result = ms.sweep_mcr(case_study, "online-ffd", ("mode1", "mode2"), range(0, 120, 10))
    assert result.points == 12
    assert calls == ["mode1", "mode2"]


def test_each_entered_table_is_checked_once(case_study, monkeypatch):
    """500 alternating MCRs enter each mode about 250 times: a caller-given
    table is validated once and a computed one is solved once, never validated."""
    validated, solved = [], []
    validate, solve = sim.validate_allocation, sim.solve_optimal

    def validating(system, allocation):
        validated.append(allocation.mode_id)
        validate(system, allocation)

    def solving(system, mode_id):
        solved.append(mode_id)
        return solve(system, mode_id)

    monkeypatch.setattr(sim, "validate_allocation", validating)
    monkeypatch.setattr(sim, "solve_optimal", solving)
    mcrs = [(397 * (i + 1), ("mode2", "mode1")[i % 2]) for i in range(500)]
    tables = {mode_id: solve(case_study, mode_id).best_allocation for mode_id in ("mode1", "mode2")}
    for given, expected_validated, expected_solved in (
        ({}, [], ["mode1", "mode2"]),
        ({"mode2": tables["mode2"]}, ["mode2"], ["mode1"]),
        (tables, ["mode1", "mode2"], []),
    ):
        validated.clear()
        solved.clear()
        scenario = ms.make_scenario(
            case_study, "mode1", "offline-table", mcrs, horizon=397 * 501, static_tables=given
        )
        assert (validated, solved) == (expected_validated, expected_solved)
        assert scenario.static_tables == tables


def test_transient_overload_can_miss_job_deadlines_but_not_certified_verdicts():
    """Per-mode feasibility does not extend to the transition window itself.

    Here the old mode drains by t=5, the new mode's jobs release immediately,
    and the window [0, 20) then carries 5 (old burst) + 9 (MI) + 7 (new) = 21
    units of demand: some job deadline must be missed whatever EDF does.  The
    certified claims are untouched: the observed latency stays within the
    allocation-independent bound (whose busy period budgets the MI backlog)
    and every transition-deadline verdict still holds.
    """
    system = ms.build_system(
        {
            "processors": 3,
            "tasks": [
                {"id": "mi1", "kind": "MI", "wcet": 9, "period": 20, "processor": 1},
                {"id": "md1", "kind": "MD", "wcet": 3, "period": 20},
                {"id": "md4", "kind": "MD", "wcet": 1, "period": 10},
                {"id": "md6", "kind": "MD", "wcet": 1, "period": 5},
                {"id": "md2", "kind": "MD", "wcet": 7, "period": 15, "transition_deadline": 29},
                {"id": "md3", "kind": "MD", "wcet": 1, "period": 5, "transition_deadline": 19},
                {"id": "md5", "kind": "MD", "wcet": 1, "period": 24, "transition_deadline": 38},
                {"id": "md7", "kind": "MD", "wcet": 3, "period": 8, "transition_deadline": 22},
            ],
            "modes": [
                {"id": "alpha", "md_tasks": ["md1", "md4", "md6"]},
                {"id": "beta", "md_tasks": ["md2", "md3", "md5", "md7"]},
            ],
            "transitions": [["alpha", "beta"], ["beta", "alpha"]],
        }
    )
    assert ms.validate_online_scheme(system).passed
    bound = ms.latency_upper_bound(system, "alpha")
    assert bound == 14  # worst packing 5 plus ceil(14/20) * 9 of MI interference
    scenario = ms.make_scenario(system, "alpha", "online-ffd", [(0, "beta")], horizon=60)
    trace = ms.run(scenario)
    assert trace.observed_latencies[0][1] == 5 <= bound
    missed = [e for e in trace.events if e.kind == "deadline-miss"]
    assert [e.task for e in missed] == ["mi1"]
    assert all(check.ok for check in trace.transition_checks)


def test_observed_latency_never_exceeds_static_bound_randomized():
    rng = random.Random(31337)
    swept = 0
    for _ in range(10):
        system = random_system(rng, ff_mi=True)
        for source, destination in (("alpha", "beta"), ("beta", "alpha")):
            try:
                result_bound = ms.solve_optimal(system, source).optimal_latency
            except ms.InfeasibleModeError:
                continue
            try:
                ms.solve_optimal(system, destination)
            except ms.InfeasibleModeError:
                continue
            end = min(ms.hyperperiod(system.mi_tasks + system.md_tasks_of(source)), 60)
            sweep = ms.sweep_mcr(
                system, "offline-table", (source, destination), range(0, int(end))
            )
            assert sweep.max_latency <= result_bound
            swept += 1
    assert swept >= 8


def random_placement(rng, system, mode_id):
    """A random utilization-feasible table for ``mode_id``: each MD task, in
    random order, goes to a random processor with room for it; None if a
    task finds no room."""
    room = {p: 1 - system.mi_utilization(p) for p in system.processors}
    tasks = list(system.md_tasks_of(mode_id))
    rng.shuffle(tasks)
    assignment = {}
    for task in tasks:
        fits = [p for p, spare in room.items() if task.utilization <= spare]
        if not fits:
            return None
        assignment[task.id] = processor = rng.choice(fits)
        room[processor] -= task.utilization
    return ms.Allocation(mode_id, assignment)


def test_observed_latency_never_exceeds_online_bound_under_random_placements():
    """The online bound holds for any runtime placement: random
    utilization-feasible source and destination tables, one request at a
    random quarter instant of the source hyperperiod."""
    rng = random.Random(2026)
    runs = attained = 0
    for case in range(2000):
        system = random_system(rng, ff_mi=True)
        source, destination = rng.choice((("alpha", "beta"), ("beta", "alpha")))
        tables = {mode_id: random_placement(rng, system, mode_id) for mode_id in (source, destination)}
        if None in tables.values():
            continue
        bound = ms.latency_upper_bound(system, source)
        span = ms.hyperperiod(system.mi_tasks + system.md_tasks_of(source))
        request = Fraction(rng.randrange(int(4 * span)), 4)
        margin = max(t.period for t in system.mi_tasks + system.md_tasks) + 1
        scenario = ms.make_scenario(
            system, source, "offline-table", [(request, destination)], request + bound + margin,
            static_tables=tables,
        )
        latencies = ms.run(scenario).observed_latencies
        assert len(latencies) == 1 and latencies[0][1] <= bound, (case, tables, request, bound, latencies)
        runs += 1
        attained += latencies[0][1] == bound
    assert runs >= 1000 and attained >= 100, (runs, attained)


# ---------------------------------------------------------------------------
# the forked sweep against one scenario per grid point
# ---------------------------------------------------------------------------

def per_point_sweep(system, allocation_source, mode_pair, mcr_time_grid):
    """Reference sweep: each grid point is its own scenario, run from t=0."""
    source, destination = mode_pair
    if (source, destination) not in system.mode_graph.edges:
        raise ms.ScenarioError(f"no transition from mode {source!r} to {destination!r}")
    tables = None
    if allocation_source == "offline-table":
        tables = {m: ms.solve_optimal(system, m).best_allocation for m in (source, destination)}
        bound = ms.analyze_allocation(system, source, tables[source]).platform_bound
    else:
        bound = ms.latency_upper_bound(system, source)
    active = system.mi_tasks + system.md_tasks_of(source) + system.md_tasks_of(destination)
    margin = max((t.period for t in active), default=Fraction(1)) + 1
    best = None
    points = job_misses = transition_misses = 0
    for raw_time in mcr_time_grid:
        mcr_time = ms.as_time(raw_time, what="sweep grid point")
        scenario = ms.make_scenario(
            system, source, allocation_source, [(mcr_time, destination)],
            horizon=mcr_time + bound + margin, static_tables=tables,
        )
        trace = ms.run(scenario)
        if not trace.observed_latencies:
            raise ms.SimulationError(
                f"transition requested at {mcr_time} did not complete within the analytical bound"
            )
        latency = trace.observed_latencies[0][1]
        job_misses += trace.job_deadline_misses
        transition_misses += sum(1 for c in trace.transition_checks if c.ok is False)
        points += 1
        if best is None or latency > best[0]:
            best = (latency, mcr_time)
    if best is None:
        raise ms.ScenarioError("empty MCR time grid")
    return ms.SweepResult(best[0], best[1], points, job_misses, transition_misses)


def sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except (ValueError, ms.SimulationError) as exc:
        return type(exc), str(exc), getattr(exc, "time", None), getattr(exc, "task_id", None)


def with_transition_deadlines(rng, base):
    """``base`` with a transition deadline, often a tight one, on most MD tasks."""
    tasks = [
        {"id": t.id, "kind": "MI", "wcet": str(t.wcet), "period": str(t.period),
         "processor": t.home_processor}
        for t in base.mi_tasks
    ]
    for t in base.md_tasks:
        raw = {"id": t.id, "kind": "MD", "wcet": str(t.wcet), "period": str(t.period)}
        if rng.random() < 0.7:
            raw["transition_deadline"] = str(t.period + rng.randint(0, 12))
        tasks.append(raw)
    return ms.build_system(
        {
            "processors": base.processor_count,
            "tasks": tasks,
            "modes": [{"id": m, "md_tasks": list(base.mode(m).md_tasks)} for m in base.mode_ids()],
            "transitions": [["alpha", "beta"], ["beta", "alpha"]],
        }
    )


def saturated_handover(rng):
    """One or two processors whose MI load plus either mode's MD load is close
    to 1, so the jobs of the two modes overlap into job deadline misses."""
    processors = rng.randint(1, 2)
    tasks = []
    modes = {"alpha": [], "beta": []}
    for p in range(1, processors + 1):
        period = rng.choice((15, 20, 24, 30))
        wcet = rng.randint(period // 4, period // 2)
        tasks.append({"id": f"mi{p}", "kind": "MI", "wcet": wcet, "period": period, "processor": p})
        for mode_id, ids in modes.items():
            room = 1 - Fraction(wcet, period)
            for _ in range(rng.randint(1, 2)):
                md_period = rng.choice((4, 5, 6, 8, 10, 12))
                top = int(room * md_period)
                if top < 1:
                    continue
                md_wcet = rng.randint(max(1, top - 1), top)
                room -= Fraction(md_wcet, md_period)
                ids.append(f"{mode_id}{len(ids)}")
                task = {"id": ids[-1], "kind": "MD", "wcet": md_wcet, "period": md_period}
                if rng.random() < 0.5:
                    task["transition_deadline"] = md_period + rng.randint(0, 12)
                tasks.append(task)
    return ms.build_system(
        {
            "processors": processors,
            "tasks": tasks,
            "modes": [{"id": m, "md_tasks": ids} for m, ids in modes.items()],
            "transitions": [["alpha", "beta"], ["beta", "alpha"]],
        }
    )


def test_forked_sweep_matches_per_point_runs_randomized():
    rng = random.Random(4242)
    steps = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(7, 3))
    errors = job_missing = transition_missing = 0
    for case in range(160):
        if case % 4 == 3:
            system = saturated_handover(rng)
        else:
            base = random_system(rng, max_tasks=7, md_heavy=case % 2 == 0, ff_mi=case % 3 == 0)
            system = with_transition_deadlines(rng, base)
        mode_pair = rng.choice((("alpha", "beta"), ("beta", "alpha")))
        allocation_source = rng.choice(("offline-table", "online-ffd"))
        step = steps[case % len(steps)]
        grid = [k * step for k in range(rng.randint(1, 14))]
        if case % 3 == 1:  # out of order, with repeated points
            grid += rng.choices(grid, k=rng.randint(1, 4))
            rng.shuffle(grid)
        args = (system, allocation_source, mode_pair, grid)
        expected = sweep_outcome(per_point_sweep, *args)
        assert sweep_outcome(ms.sweep_mcr, *args) == expected, (case, grid)
        if isinstance(expected, ms.SweepResult):
            job_missing += expected.job_misses > 0
            transition_missing += expected.transition_misses > 0
        else:
            errors += 1
    # the draws reach every kind of outcome
    assert errors >= 20 and job_missing >= 5 and transition_missing >= 10, (
        errors, job_missing, transition_missing,
    )


def test_forked_sweep_edge_cases(case_study):
    for sweep in (ms.sweep_mcr, per_point_sweep):
        with pytest.raises(ms.ScenarioError, match="empty MCR time grid"):
            sweep(case_study, "offline-table", ("mode1", "mode2"), [])
        # an unknown allocation source is refused, not simulated as online-ffd
        with pytest.raises(ms.ScenarioError, match="allocation must be"):
            sweep(case_study, "bogus", ("mode1", "mode2"), range(5))
    # the source is checked first: before the grid is read or a bound computed
    with pytest.raises(ms.ScenarioError, match="got 'bogus'"):
        ms.sweep_mcr(case_study, "bogus", ("mode1", "mode2"), [])
    quiet = ms.build_system(
        {
            "processors": 2,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 2, "period": 5, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 3, "period": 4, "transition_deadline": 4},
                {"id": "y", "kind": "MD", "wcet": 3, "period": 6, "transition_deadline": 9},
            ],
            "modes": [{"id": "quiet", "md_tasks": []}, {"id": "busy", "md_tasks": ["x", "y"]}],
            "transitions": [["quiet", "busy"]],
        }
    )
    grid = [Fraction(k, 3) for k in (5, 0, 5, 14, 2, 2)]
    for allocation_source in ("offline-table", "online-ffd"):
        args = (quiet, allocation_source, ("quiet", "busy"), grid)
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
    storm = ms.build_system(
        {
            "processors": 2,
            "tasks": [
                {"id": "mi1", "kind": "MI", "wcet": 3, "period": 10, "processor": 1},
                {"id": "mi2", "kind": "MI", "wcet": 2, "period": 12, "processor": 2},
                {"id": "md1", "kind": "MD", "wcet": 10, "period": 10},
            ],
            "modes": [{"id": "calm", "md_tasks": []}, {"id": "storm", "md_tasks": ["md1"]}],
            "transitions": [["calm", "storm"]],
        }
    )
    # a failed destination placement is reported for the first grid point
    args = (storm, "online-ffd", ("calm", "storm"), [7, 3, 3])
    outcome = sweep_outcome(ms.sweep_mcr, *args)
    assert outcome == sweep_outcome(per_point_sweep, *args)
    assert outcome[0] is ms.SimulationError and outcome[2] == 7


# ---------------------------------------------------------------------------
# one fork per interval between two instants the source run processes
# ---------------------------------------------------------------------------

@pytest.fixture
def forks(monkeypatch):
    """The source-run instant of every fork a sweep makes, in order."""
    made = []
    fork = sim._SourceRun._fork

    def recording(self):
        made.append(self.time)
        return fork(self)

    monkeypatch.setattr(sim._SourceRun, "_fork", recording)
    return made


def backlogged_handover():
    """One processor that the MI task ``a`` and the destination task ``y``
    fill exactly.  Released at 6, ``a``'s second job waits for ``x`` to
    finish at 8; ``y``'s first job, released at 8, then ties it at deadline
    12, loses on task id and completes at 13.  The backlog never clears, so
    ``y`` misses a deadline now and then for good.  Alpha processes the
    instants 0, 3, 6, 8 and 10 first; nothing of it is pending in [8, 10)."""
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 3, "period": 6, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 5, "period": 10},
                {"id": "y", "kind": "MD", "wcet": 2, "period": 4, "transition_deadline": 8},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )


def one_point_each(system, grid):
    return [per_point_sweep(system, "offline-table", ("alpha", "beta"), [t]) for t in grid]


def test_reused_fork_moves_transition_deadlines(forks):
    """Requests at 3, 4 and 5 all end the transition at 8, and ``y``'s first
    job completes at 13: its transition deadline 8 after the request is
    missed at 3 and 4 and met at 5."""
    system = backlogged_handover()
    grid = [3, 4, 5]
    assert [r.transition_misses for r in one_point_each(system, grid)] == [1, 1, 0]
    args = (system, "offline-table", ("alpha", "beta"), grid)
    result = ms.sweep_mcr(*args)
    assert result == per_point_sweep(*args)
    assert (result.max_latency, result.at_time, result.transition_misses) == (5, 3, 2)
    assert forks == [3]


def test_reused_fork_counts_job_misses_up_to_each_horizon(forks):
    """``y`` misses its deadline 24, which lies between the horizons of the
    requests at 3 and at 4 (the bound 10 and the margin 11 after each)."""
    system = backlogged_handover()
    assert ms.solve_optimal(system, "alpha").optimal_latency == 10
    grid = [3, 4]
    assert [r.job_misses for r in one_point_each(system, grid)] == [1, 2]
    args = (system, "offline-table", ("alpha", "beta"), grid)
    result = ms.sweep_mcr(*args)
    assert result == per_point_sweep(*args)
    assert result.job_misses == 3
    assert forks == [3]


def test_request_with_nothing_pending_gets_its_own_fork(forks):
    """At 8 and 9 nothing of alpha is pending, so beta starts at the request:
    at 8 ``y`` ties the waiting job of ``a`` and misses, at 9 it does not."""
    system = backlogged_handover()
    grid = [7, 8, 9]
    points = one_point_each(system, grid)
    assert [r.max_latency for r in points] == [1, 0, 0]
    assert [r.job_misses for r in points] == [2, 2, 0]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        assert forks == [7, 8, 9]


def test_repeated_and_backward_points_in_one_interval(forks):
    system = backlogged_handover()
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), [4, 4, 3, 5, 5, 3])
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        # a point before the source run's instant restarts it from time 0
        assert forks == [4, 3, 3]


def test_committed_sweep_forks_once_per_source_interval(case_study, forks):
    result = ms.run_sweep(case_study, ms.load_scenario(SAMPLES / "case_study_sweep.json", case_study))
    assert (result.points, result.max_latency, result.at_time) == (1800, 35, 80)
    assert len(forks) <= 1019


def test_interval_sweep_matches_per_point_runs_randomized():
    rng = random.Random(9001)
    steps = (Fraction(1), Fraction(1, 2), Fraction(1, 5), Fraction(3, 4), Fraction(7, 3))
    errors = job_missing = transition_missing = 0
    for case in range(200):
        if case % 4 == 3:
            system = saturated_handover(rng)
        else:
            base = random_system(rng, max_tasks=7, md_heavy=case % 2 == 0, ff_mi=case % 3 == 0)
            system = with_transition_deadlines(rng, base)
        if case % 5 == 4:  # mixed denominators
            system = rescaled(rng, system)
        mode_pair = rng.choice((("alpha", "beta"), ("beta", "alpha")))
        allocation_source = rng.choice(("offline-table", "online-ffd"))
        step = steps[case % len(steps)]
        grid = [k * step for k in range(rng.randint(1, 60))]
        if case % 3 == 1:  # out of order, with repeated points
            grid += rng.choices(grid, k=rng.randint(1, 6))
            rng.shuffle(grid)
        args = (system, allocation_source, mode_pair, grid)
        expected = sweep_outcome(per_point_sweep, *args)
        assert sweep_outcome(ms.sweep_mcr, *args) == expected, (case, grid)
        if isinstance(expected, ms.SweepResult):
            job_missing += expected.job_misses > 0
            transition_missing += expected.transition_misses > 0
        else:
            errors += 1
    # the draws reach every kind of outcome
    assert errors >= 40 and job_missing >= 8 and transition_missing >= 15, (
        errors, job_missing, transition_missing,
    )


# ---------------------------------------------------------------------------
# a fork stops once EDF can no longer change its outcome
# ---------------------------------------------------------------------------

@pytest.fixture
def instants(monkeypatch):
    """How many instants the engines process: a one-item list that every
    ``process_instant`` call, sweep forks' included, counts up."""
    calls = [0]
    process_instant = sim._Engine.process_instant

    def counting(self, time):
        calls[0] += 1
        process_instant(self, time)

    monkeypatch.setattr(sim._Engine, "process_instant", counting)
    return calls


@pytest.fixture
def settlements(monkeypatch):
    """The instant at which each settled fork stopped, in order."""
    settled = []
    dispatch = sim._SourceRun.dispatch

    def recording(self, time):
        waiting = self.waiting
        dispatch(self, time)
        if waiting and not self.waiting:
            settled.append(time)

    monkeypatch.setattr(sim._SourceRun, "dispatch", recording)
    return settled


def test_sweep_instant_totals(case_study, instants, settlements):
    """A count of the simulated instants, not a timing, bounds the sweep cost."""
    committed = ms.load_scenario(SAMPLES / "case_study_sweep.json", case_study)
    assert ms.run_sweep(case_study, committed).points == 1800
    assert instants[0] <= 13563
    assert len(settlements) >= 981
    instants[0] = 0
    settlements.clear()
    spec = ms.SweepSpec("mode2", "mode1", Fraction(1), "online-ffd")
    assert ms.run_sweep(case_study, spec).points == 900
    assert instants[0] <= 12904
    assert len(settlements) == 467


def idling_handover():
    """``backlogged_handover`` with a lighter destination task ``y``: beta
    loads the processor to 3/4.  A request at 3, 4 or 5 ends the transition
    at 8, ``y``'s first job completes at 12, and the processor first idles
    at 17, before the horizon of the request at 3 (3 + bound 10 + margin 11)."""
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 3, "period": 6, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 5, "period": 10},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 4, "transition_deadline": 8},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )


def test_settled_fork_serves_later_points_of_its_interval(forks, instants, settlements):
    """The fork made at 3 stops at 17 and still gives the points 4 and 5
    their own outcomes: the transition deadline, 8 after each request, is
    missed at 3 (12 > 11) and met at 4 and 5."""
    system = idling_handover()
    grid = [3, 4, 5]
    points = one_point_each(system, grid)
    assert [r.transition_misses for r in points] == [1, 0, 0]
    assert [r.max_latency for r in points] == [5, 4, 3]
    args = (system, "offline-table", ("alpha", "beta"), grid)
    expected = per_point_sweep(*args)
    instants[0] = 0
    ms.sweep_mcr(system, "offline-table", ("alpha", "beta"), [3])
    alone = instants[0]
    forks.clear()
    settlements.clear()
    instants[0] = 0
    result = ms.sweep_mcr(*args)
    assert instants[0] == alone  # the later points process no instant
    assert result == expected
    assert (result.max_latency, result.at_time, result.transition_misses) == (5, 3, 1)
    assert forks == [3] and settlements == [17]


def test_overloaded_destination_never_settles():
    """A hand-made allocation loads the processor to 1/2 + 3/5.  Beta starts
    at the request at 5; the processor idles at 8, yet ``y`` misses its
    deadline 20, so settling at an idle processor needs the load premise
    that ``test_sweeps_simulate_only_utilization_feasible_allocations`` checks."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 5, "period": 10, "processor": 1},
                {"id": "y", "kind": "MD", "wcet": 3, "period": 5},
            ],
            "modes": [{"id": "alpha", "md_tasks": []}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )
    scenario = ms.Scenario(
        system, "alpha", "offline-table", ((Fraction(5), "beta"),), Fraction(30),
        static_tables={"alpha": ms.Allocation("alpha", {}), "beta": ms.Allocation("beta", {"y": 1})},
    )
    trace = ms.run(scenario)
    assert [e.time for e in events_of(trace, "complete", "y")][0] == 8
    assert [e.time for e in events_of(trace, "deadline-miss")] == [20]


def exactly_saturated(rng):
    """One or two processors, each with an MI task and, in either mode, MD
    tasks that fill it to a utilization of exactly 1.  Any allocation of a
    mode then loads every processor to 1 (online First-Fit may find none),
    and the backlog a handover leaves can make jobs miss deadlines after the
    transition end, for good."""
    processors = rng.randint(1, 2)
    tasks = []
    modes = {"alpha": [], "beta": []}
    for p in range(1, processors + 1):
        period = rng.choice((4, 6, 8, 10, 12))
        wcet = rng.randint(1, period - 2)
        tasks.append({"id": f"mi{p}", "kind": "MI", "wcet": wcet, "period": period, "processor": p})
        for mode_id, ids in modes.items():
            md_period = period * rng.choice((1, 2))
            room = md_period - wcet * (md_period // period)
            parts = [room] if room < 2 or rng.random() < 0.5 else [rng.randint(1, room - 1)]
            if parts[0] < room:
                parts.append(room - parts[0])
            for md_wcet in parts:
                ids.append(f"{mode_id}{len(ids)}")
                task = {"id": ids[-1], "kind": "MD", "wcet": md_wcet, "period": md_period}
                if rng.random() < 0.5:
                    task["transition_deadline"] = md_period + rng.randint(0, 8)
                tasks.append(task)
    return ms.build_system(
        {
            "processors": processors,
            "tasks": tasks,
            "modes": [{"id": m, "md_tasks": ids} for m, ids in modes.items()],
            "transitions": [["alpha", "beta"], ["beta", "alpha"]],
        }
    )


def settling_sweep_draws():
    """The 200 seeded sweeps of the settling tests: ``(case, args)`` with
    ``args`` the arguments of ``sweep_mcr``.  Case ``% 4 == 0`` is
    ``exactly_saturated``, ``== 1`` is ``saturated_handover``."""
    rng = random.Random(5150)
    steps = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(7, 3))
    for case in range(200):
        if case % 4 == 0:
            system = exactly_saturated(rng)
        elif case % 4 == 1:
            system = saturated_handover(rng)
        else:
            base = random_system(rng, max_tasks=7, md_heavy=case % 2 == 0, ff_mi=case % 3 == 0)
            system = with_transition_deadlines(rng, base)
        if case % 3 == 2:  # mixed denominators
            system = rescaled(rng, system)
        mode_pair = rng.choice((("alpha", "beta"), ("beta", "alpha")))
        allocation_source = rng.choice(("offline-table", "online-ffd"))
        step = steps[case % len(steps)]
        span = ms.hyperperiod(system.mi_tasks + system.md_tasks_of(mode_pair[0]))
        count = math.ceil(span / step)
        grid = []
        for start in sorted(rng.sample(range(count), k=min(count, 4))):
            grid += [k * step for k in range(start, min(count, start + rng.randint(1, 5)))]
        if case % 5 == 1:  # out of order, with repeated points
            grid += rng.choices(grid, k=rng.randint(1, 4))
            rng.shuffle(grid)
        yield case, (system, allocation_source, mode_pair, grid)


def test_settling_sweep_matches_per_point_runs_over_a_hyperperiod_randomized(settlements):
    """Runs of consecutive grid points spread over the whole source
    hyperperiod, so forks settle and serve later points across it."""
    errors = job_missing = transition_missing = saturated_missing = settling = 0
    for case, args in settling_sweep_draws():
        settlements.clear()
        expected = sweep_outcome(per_point_sweep, *args)
        assert sweep_outcome(ms.sweep_mcr, *args) == expected, (case, args[3])
        settling += bool(settlements)
        if isinstance(expected, ms.SweepResult):
            job_missing += expected.job_misses > 0
            transition_missing += expected.transition_misses > 0
            # a mode loading its processors to 1 misses nothing on its own:
            # these misses come after the transition end
            saturated_missing += case % 4 == 0 and expected.job_misses > 0
        else:
            errors += 1
    # the draws reach every kind of outcome, and many have forks that settle
    assert errors >= 30 and job_missing >= 15 and transition_missing >= 30, (
        errors, job_missing, transition_missing,
    )
    assert saturated_missing >= 5 and settling >= 60, (saturated_missing, settling)


def test_sweeps_simulate_only_utilization_feasible_allocations(monkeypatch):
    """A fork settles at idle processors without checking the destination
    load: the premise is that every allocation a sweep's source run or forks
    use loads no processor above 1.  Each one passes ``validate_allocation``
    over the settling corpus, both allocation sources and the saturated
    systems (load exactly 1) included."""
    used = []
    allocation_for = sim._SourceRun.allocation_for

    def recording(self, mode_id, time):
        used.append(allocation_for(self, mode_id, time))
        return used[-1]

    monkeypatch.setattr(sim._SourceRun, "allocation_for", recording)
    sources = set()
    saturated = set()  # cases with a processor loaded to exactly 1
    for case, args in settling_sweep_draws():
        del used[:]
        sweep_outcome(ms.sweep_mcr, *args)
        system, source = args[:2]
        if used:
            sources.add(source)
        for allocation in used:
            ms.validate_allocation(system, allocation)
            loads = {p: system.mi_utilization(p) for p in system.processors}
            for task_id, p in allocation.assignment.items():
                loads[p] += system.task(task_id).utilization
            if case % 4 == 0 and max(loads.values()) == 1:
                saturated.add(case)
    assert sources == {"offline-table", "online-ffd"} and len(saturated) >= 40, (sources, saturated)


# ---------------------------------------------------------------------------
# the integer trace against its rational materialization
# ---------------------------------------------------------------------------

FACTORS = (Fraction(1), Fraction(1, 3), Fraction(7, 2), Fraction(2, 3), Fraction(5, 4))


def rescaled(rng, base):
    """``base`` with every task's times multiplied by a factor of its own:
    utilizations and feasibility stay, the time base gets mixed denominators."""
    tasks = []
    for t in base.mi_tasks + base.md_tasks:
        factor = rng.choice(FACTORS)
        raw = {"id": t.id, "kind": t.kind, "wcet": str(t.wcet * factor), "period": str(t.period * factor)}
        if t.home_processor is not None:
            raw["processor"] = t.home_processor
        if t.transition_deadline is not None:
            raw["transition_deadline"] = str(t.transition_deadline * factor)
        tasks.append(raw)
    return ms.build_system(
        {
            "processors": base.processor_count,
            "tasks": tasks,
            "modes": [{"id": m, "md_tasks": list(base.mode(m).md_tasks)} for m in base.mode_ids()],
            "transitions": [list(edge) for edge in base.mode_graph.edges],
        }
    )


def random_replay(rng, system):
    """A scenario with a few MCRs alternating between the two modes, sometimes
    with release offsets, and now and then a zero horizon."""
    initial, other = rng.choice((("alpha", "beta"), ("beta", "alpha")))
    unit = rng.choice(FACTORS)
    if rng.random() < 0.1:
        return initial, [], 0, None
    mcrs, time = [], 0
    for i in range(rng.randint(0, 4)):
        time += unit * rng.randint(3, 40)
        mcrs.append((time, (other, initial)[i % 2]))
    horizon = time + unit * rng.randint(1, 60)
    tasks = system.mi_tasks + system.md_tasks
    offsets = {}
    for task in rng.sample(tasks, k=min(2, len(tasks))):
        first = unit * rng.randint(0, 6)
        offsets[task.id] = [first, first + task.period + unit * rng.randint(0, 3)]
    return initial, mcrs, horizon, offsets if rng.random() < 0.6 else None


def replay_draws():
    """The 120 seeded replay draws: ``(case, system, make_scenario arguments)``."""
    rng = random.Random(2718)
    for case in range(120):
        if case % 3 != 0:
            base = saturated_handover(rng)
        else:
            base = with_transition_deadlines(rng, random_system(rng, max_tasks=7, md_heavy=case % 2 == 0))
        system = rescaled(rng, base)
        initial, mcrs, horizon, offsets = random_replay(rng, system)
        allocation_source = rng.choice(("offline-table", "online-ffd"))
        yield case, system, (initial, allocation_source, mcrs, horizon, offsets)


def test_trace_matches_rational_materialization_randomized():
    seen = {"mixed": 0, "mcrs": 0, "offsets": 0, "job_miss": 0, "transition_miss": 0, "zero": 0}
    for case, system, arguments in replay_draws():
        try:
            scenario = ms.make_scenario(system, *arguments)
            engine = sim._Engine(scenario)
            trace = engine.execute()
        except (ms.ScenarioError, ms.SimulationError):
            continue
        events, text, job_misses, miss_count = rational_trace(engine)
        assert trace.to_text() == text, case
        assert trace.events == events, case
        assert trace.job_deadline_misses == job_misses, case
        assert trace.deadline_miss_count == miss_count, case
        seen["mixed"] += len({t.period.denominator for t in system.mi_tasks + system.md_tasks} - {1}) >= 2
        seen["mcrs"] += len(trace.observed_latencies) >= 2
        seen["offsets"] += bool(arguments[4])
        seen["job_miss"] += job_misses > 0
        seen["transition_miss"] += miss_count > job_misses
        seen["zero"] += arguments[3] == 0
    # the draws reach every kind of trace
    assert min(seen.values()) >= 5, seen


def test_trace_rows_show_edf_and_conserved_work_randomized():
    """On the replay draws, read from the trace rows alone: every completed
    job ran exactly its wcet, no processor runs two jobs at once, every
    ``resume`` follows a ``preempt`` of the same job, and each ``start`` or
    ``resume`` picks the smallest (deadline, task id, job index) among the
    jobs pending on its processor.  At the end of each instant, a processor
    with a job pending runs one earlier in that order."""
    checked = preempted = 0
    for case, system, arguments in replay_draws():
        try:
            trace = ms.run(ms.make_scenario(system, *arguments))
        except (ms.ScenarioError, ms.SimulationError):
            continue
        tasks = {t.id: t for t in system.mi_tasks + system.md_tasks}
        deadlines, pending, running, preempts, since, ran = {}, {}, {}, set(), {}, {}

        def order(job):
            return deadlines[job], job[0], job[1]

        def instant_ends():
            for processor, queue in pending.items():
                if queue:
                    assert running.get(processor) is not None, (case, instant, processor)
                    assert order(running[processor]) < min(map(order, queue)), (case, instant, processor)

        instant = None
        for event in trace.events:
            if event.time != instant:
                instant_ends()
                instant = event.time
            job = (event.task, event.job)
            if event.kind == "release":
                deadlines[job] = event.time + tasks[event.task].period
                pending.setdefault(event.processor, set()).add(job)
            elif event.kind in ("start", "resume"):
                assert running.get(event.processor) is None, (case, event)
                assert (event.kind == "resume") == (job in preempts), (case, event)
                preempts.discard(job)
                queue = pending[event.processor]
                assert job == min(queue, key=order), (case, event)
                queue.discard(job)
                running[event.processor] = job
                since[job] = event.time
            elif event.kind == "preempt":
                assert running[event.processor] == job, (case, event)
                running[event.processor] = None
                pending[event.processor].add(job)
                preempts.add(job)
                ran[job] = ran.get(job, 0) + event.time - since[job]
                preempted += 1
            elif event.kind == "complete":
                assert running[event.processor] == job, (case, event)
                running[event.processor] = None
                assert ran.get(job, 0) + event.time - since[job] == tasks[event.task].wcet, (case, event)
        instant_ends()
        checked += 1
    assert checked >= 60 and preempted >= 100, (checked, preempted)


# ---------------------------------------------------------------------------
# a run ends only in ``advance``, which never processes its limit
# ---------------------------------------------------------------------------

def test_nothing_at_the_horizon_is_processed():
    """With a request at 3, ``y``'s job 3 misses its deadline 24, and ``a``'s
    listed release offsets (its periodic releases) put a release there too.
    A run up to 24 shows neither; a run up to 25 shows both."""
    system = backlogged_handover()
    offsets = {"a": [0, 6, 12, 18, 24]}

    def run(horizon):
        return ms.run(ms.make_scenario(system, "alpha", "offline-table", [(3, "beta")], horizon, offsets))

    trace = run(24)
    assert max(event.time for event in trace.events) < 24
    assert trace.job_deadline_misses == 1
    assert [(check.task_id, check.first_completion, check.ok) for check in trace.transition_checks] == [
        ("y", 13, False)
    ]
    later = run(25)
    at_24 = [(event.kind, event.task) for event in later.events if event.time == 24]
    assert at_24[:3] == [("deadline-miss", "y"), ("release", "a"), ("release", "y")]
    assert later.job_deadline_misses == 2


def test_transition_check_at_the_horizon_is_undecided():
    """``b1`` enters at the request at 0 once ``a1``'s job completes at 1,
    and completes at 4, its absolute transition deadline.  A run up to 4
    processes neither its completion nor its deadline; a run up to 5 does."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a1", "kind": "MD", "wcet": 1, "period": 10},
                {"id": "b1", "kind": "MD", "wcet": 3, "period": 10, "transition_deadline": 4},
            ],
            "modes": [{"id": "a", "md_tasks": ["a1"]}, {"id": "b", "md_tasks": ["b1"]}],
            "transitions": [["a", "b"]],
        }
    )
    for horizon, completion, ok in ((4, None, None), (5, 4, True)):
        trace = ms.run(ms.make_scenario(system, "a", "offline-table", [(0, "b")], horizon))
        (check,) = trace.transition_checks
        assert (check.absolute_deadline, check.first_completion, check.ok) == (4, completion, ok)


def test_no_trace_row_reaches_the_horizon_randomized():
    """The draws of ``test_trace_matches_rational_materialization_randomized``:
    every row of every run lies strictly before its horizon."""
    runs = 0
    for case, system, arguments in replay_draws():
        try:
            engine = sim._Engine(ms.make_scenario(system, *arguments))
            trace = engine.execute()
        except (ms.ScenarioError, ms.SimulationError):
            continue
        assert all(row[0] < engine.horizon for row in trace.rows), case
        runs += 1
    assert runs >= 60, runs


# ---------------------------------------------------------------------------
# the streamed text output against the kept rows
# ---------------------------------------------------------------------------

def system_raw(system):
    """``system`` as the object ``build_system`` reads, numbers as exact strings."""
    tasks = []
    for t in system.mi_tasks + system.md_tasks:
        raw = {"id": t.id, "kind": t.kind, "wcet": str(t.wcet), "period": str(t.period)}
        if t.home_processor is not None:
            raw["processor"] = t.home_processor
        if t.transition_deadline is not None:
            raw["transition_deadline"] = str(t.transition_deadline)
        tasks.append(raw)
    return {
        "processors": system.processor_count,
        "tasks": tasks,
        "modes": [{"id": m, "md_tasks": list(system.mode(m).md_tasks)} for m in system.mode_ids()],
        "transitions": [list(edge) for edge in system.mode_graph.edges],
    }


def scenario_raw(initial, allocation_source, mcrs, horizon, offsets=None):
    """The arguments of ``make_scenario`` as a scenario file's object."""
    raw = {
        "initial_mode": initial,
        "allocation": allocation_source,
        "horizon": str(horizon),
        "mcrs": [{"time": str(time), "to": to} for time, to in mcrs],
    }
    if offsets is not None:
        raw["release_offsets"] = {tid: [str(v) for v in values] for tid, values in offsets.items()}
    return raw


def simulate_outputs(tmp_path, capsys, system, arguments):
    """``simulate`` of ``system`` and a scenario: the exit code, the ``--trace``
    file's text (None if there is none) and stdout, then the exit code and
    stdout without ``--trace``."""
    system_path, scenario_path, trace_path = (tmp_path / name for name in ("s.json", "sc.json", "t.tsv"))
    system_path.write_text(json.dumps(system_raw(system)), encoding="utf-8")
    scenario_path.write_text(json.dumps(scenario_raw(*arguments)), encoding="utf-8")
    if trace_path.exists():
        trace_path.unlink()
    argv = ["simulate", str(system_path), str(scenario_path)]
    code = main(argv + ["--trace", str(trace_path)])
    text = trace_path.read_bytes().decode("utf-8") if trace_path.exists() else None
    out = capsys.readouterr().out
    return code, text, out, main(argv), capsys.readouterr().out


def test_streamed_text_equals_the_kept_trace_randomized(tmp_path, capsys):
    """On the replay draws, ``simulate`` writes ``run(scenario).to_text()``
    byte for byte, to its ``--trace`` file and to stdout, and a draw the
    simulator refuses leaves no file and prints nothing."""
    compared = refused = 0
    for case, system, arguments in replay_draws():
        outputs = simulate_outputs(tmp_path, capsys, system, arguments)
        try:
            trace = ms.run(ms.make_scenario(system, *arguments))
        except (ms.ScenarioError, ms.SimulationError):
            assert outputs == (2, None, "", 2, ""), case
            refused += 1
            continue
        code = 1 if trace.deadline_miss_count else 0
        assert outputs == (code, trace.to_text(), trace.footer(), code, trace.to_text()), case
        compared += 1
    assert compared >= 60 and refused >= 5, (compared, refused)


def replay_every_397(horizon):
    """The case study with a request every 397, alternately to mode2 and
    back, up to ``horizon``."""
    mcrs = [(time, ("mode2", "mode1")[i % 2]) for i, time in enumerate(range(397, horizon, 397))]
    return "mode1", "offline-table", mcrs, horizon


def test_streamed_text_spans_several_write_chunks(case_study, tmp_path, capsys):
    arguments = replay_every_397(16_000)
    trace = ms.run(ms.make_scenario(case_study, *arguments))
    assert len(trace.to_text()) > 4 * io.DEFAULT_BUFFER_SIZE
    streamed = ms.run(ms.make_scenario(case_study, *arguments), out=(buffer := io.StringIO()))
    assert streamed.rows == () and streamed._replace(rows=trace.rows) == trace
    assert buffer.getvalue() == trace.to_text()
    outputs = simulate_outputs(tmp_path, capsys, case_study, arguments)
    assert outputs == (0, trace.to_text(), trace.footer(), 0, trace.to_text())


def test_streamed_trace_memory_does_not_grow_with_the_trace(case_study, tmp_path):
    """The peak of a streamed run is the same at horizon H and 4H, while the
    rows it would keep grow about fourfold."""
    peaks, rows = [], []
    for horizon in (10_000, 40_000):
        scenario = ms.make_scenario(case_study, *replay_every_397(horizon))
        with open(tmp_path / "t.tsv", "w", encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                ms.run(scenario, out=handle)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        rows.append(len(ms.run(scenario).rows))
    assert 3.5 * rows[0] < rows[1] < 4.5 * rows[0], rows
    assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks


def test_stdout_trace_memory_does_not_grow_with_the_trace(case_study, tmp_path):
    """``simulate`` without ``--trace`` holds no more of the trace at horizon
    4H than at H, while the text it prints grows about fourfold."""
    system_path, scenario_path, out_path = (tmp_path / name for name in ("s.json", "sc.json", "out.tsv"))
    system_path.write_text(json.dumps(system_raw(case_study)), encoding="utf-8")
    peaks, sizes = [], []
    for horizon in (10_000, 40_000):
        scenario_path.write_text(json.dumps(scenario_raw(*replay_every_397(horizon))), encoding="utf-8")
        with open(out_path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            tracemalloc.start()
            try:
                assert main(["simulate", str(system_path), str(scenario_path)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        text = out_path.read_text(encoding="utf-8")
        assert text == ms.run(ms.make_scenario(case_study, *replay_every_397(horizon))).to_text()
        sizes.append(len(text))
    assert 3.5 * sizes[0] < sizes[1] < 4.5 * sizes[0], sizes
    assert abs(peaks[1] - peaks[0]) < 2 ** 20, peaks
