import contextlib
import io
import json
import math
import random
import sys
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


def test_equal_deadlines_go_to_the_smaller_task_id_not_the_first_declared():
    """The engine declares the MI task ``t9`` before the MD task ``t10``,
    but ``t10`` sorts first, so of their jobs due at 10 ``t10``'s runs
    first: in the kept rows and in the streamed text alike."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "t9", "kind": "MI", "wcet": 2, "period": 10, "processor": 1},
                {"id": "t10", "kind": "MD", "wcet": 3, "period": 10},
            ],
            "modes": [{"id": "m", "md_tasks": ["t10"]}],
            "transitions": [],
        }
    )
    scenario = ms.make_scenario(system, "m", "offline-table", [], horizon=10)
    assert list(sim._Engine(scenario).states) == ["t9", "t10"]
    rows = [
        (0, 1, "enable", "t10", None), (0, 1, "release", "t9", 0), (0, 1, "release", "t10", 0),
        (0, 1, "start", "t10", 0), (3, 1, "complete", "t10", 0), (3, 1, "start", "t9", 0),
        (5, 1, "complete", "t9", 0),
    ]
    trace = ms.run(scenario)
    assert trace.scale == 1 and list(trace.rows) == rows
    streamed = io.StringIO()
    ms.run(scenario, out=streamed)
    lines = [f"{time}\t{p}\t{kind}\t{task}\t{'-' if job is None else job}\n" for time, p, kind, task, job in rows]
    assert streamed.getvalue() == "".join(lines) + "# deadline-misses\t0\n"


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


def test_trace_times_print_as_reduced_fractions_on_a_scaled_time_base(monkeypatch):
    """On a time base of 12 whole and fractional instants alternate, and a
    streamed window holds a whole instant right after a fractional one
    (``3`` after ``7/3``): every time of the kept and the streamed text, rows
    and footer, is ``str`` of its reduced fraction."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": "0.5", "period": "1.5", "processor": 1},
                {"id": "x", "kind": "MD", "wcet": "1/3", "period": "2"},
                {"id": "y", "kind": "MD", "wcet": "0.25", "period": "2.5", "transition_deadline": "1.5"},
            ],
            "modes": [{"id": "m", "md_tasks": ["x"]}, {"id": "n", "md_tasks": ["y"]}],
            "transitions": [["m", "n"]],
        }
    )
    scenario = ms.make_scenario(system, "m", "offline-table", [("2.25", "n")], horizon=10)
    trace = ms.run(scenario)
    scale = trace.scale
    assert scale == 12
    batches = []
    write = sim._TraceText.write

    def recording(self, rows):
        batches.append([row[0] for row in rows])
        write(self, rows)

    monkeypatch.setattr(sim._TraceText, "write", recording)
    ms.run(scenario, out=(streamed := io.StringIO()))
    assert len(batches) > 1
    assert any(
        earlier % scale and not later % scale
        for batch in batches for earlier, later in zip(batch, batch[1:])
    )

    def shown(time):
        return str(Fraction(time, scale))

    stamps = [shown(t) for t, *_ in trace.rows]
    assert {"3", "7/3", "9/4"} <= set(stamps)
    footer = [f"# latency\t{shown(at)}\t{shown(latency)}" for at, latency in trace.latencies]
    footer += [
        f"# transition-deadline\t{task}\t{shown(mcr)}\t{shown(absolute)}\t{shown(done)}\tok"
        for task, mcr, absolute, done, _ in trace.checks
    ]
    assert footer == ["# latency\t9/4\t1/12", "# transition-deadline\ty\t9/4\t15/4\t31/12\tok"]
    for text in (trace.to_text(), streamed.getvalue()):
        lines = text.splitlines()
        assert [line.split("\t", 1)[0] for line in lines if not line.startswith("#")] == stamps
        assert [line for line in lines if line.startswith("# ")][:-1] == footer


def test_whole_trace_time_too_long_to_print_is_refused_once_the_run_ends():
    """A library caller may pass integers of any length.  ``a``'s second
    release falls at a whole instant one digit longer than the interpreter
    prints: the kept and the streamed text refuse it as they refuse a
    fractional one, once every row is formatted."""
    limit = sys.get_int_max_str_digits()
    period = 10 ** limit
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [{"id": "a", "kind": "MI", "wcet": 1, "period": period, "processor": 1}],
            "modes": [{"id": "m", "md_tasks": []}],
            "transitions": [],
        }
    )
    scenario = ms.make_scenario(system, "m", "offline-table", [], period + 2)
    message = f"trace time: a number with more than {limit} digits is too long to print"
    with pytest.raises(ms.SystemValidationError, match=message):
        ms.run(scenario).to_text()
    streamed = io.StringIO()
    with pytest.raises(ms.SystemValidationError, match=message):
        ms.run(scenario, out=streamed)
    # the rows at ``period`` and ``period + 1`` carry ``-`` for their time
    assert [line.split("\t", 1)[0] for line in streamed.getvalue().splitlines()] == ["0", "0", "1", "-", "-", "-"]


def plain_lines(rows, scale):
    """Trace rows as text, each column formatted on its own: ``-`` for None."""
    return "".join(
        "\t".join("-" if value is None else str(value) for value in (Fraction(time, scale), *rest)) + "\n"
        for time, *rest in rows
    )


def test_trace_text_matches_a_plain_formatter_within_and_across_batches():
    """The writer's processor and job texts come from tables grown on demand
    up to ``_JOB_TEXTS`` entries.  Its lines equal a column-by-column
    formatter for None columns, job indices on both sides of the cap and
    far past it, a processor past the table after the job table grew, and a
    fractional instant right after a whole one, whether the rows come in
    one batch, one by one or in two uneven batches."""
    cap = sim._JOB_TEXTS
    rows = [
        (0, 1, "release", "a", 0),
        (0, None, "MCR", "n", None),
        (0, 2, "release", "b", 3),
        (4, 2, "start", "b", 1),
        (4, 3, "enable", "c", None),
        (5, 1, "start", "a", cap - 1),
        (5, 2, "complete", "b", cap),
        (6, None, "transition-end", None, None),
        (8, 1, "release", "a", cap + 1),
        (8, 5, "release", "c", 2),
        (9, 2, "release", "b", 10 ** 6),
        (9, 1, "complete", "a", cap - 1),
        (10, 4, "release", "d", 5),
        (12, 2, "deadline-miss", "b", cap + 1),
    ]
    expected = plain_lines(rows, 4)
    for batches in ([rows], [[row] for row in rows], [rows[:5], rows[5:]]):
        out = io.StringIO()
        text = sim._TraceText(4, out)
        for batch in batches:
            text.write(batch)
        assert out.getvalue() == expected
        assert len(text.tails) == cap


def test_streamed_text_of_job_indices_past_the_text_table():
    """A period-1 task releases more jobs than the writer keeps texts for:
    the streamed text equals ``to_text()``, whose rows equal a plain
    formatter's.  Lines are compared as lists: a failing text comparison
    of this size would spend minutes in pytest's line diff."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [{"id": "a", "kind": "MI", "wcet": "1/2", "period": 1, "processor": 1}],
            "modes": [{"id": "m", "md_tasks": []}],
            "transitions": [],
        }
    )
    scenario = ms.make_scenario(system, "m", "offline-table", [], sim._JOB_TEXTS + 3)
    trace = ms.run(scenario)
    assert trace.rows[-1][4] > sim._JOB_TEXTS
    lines = trace.to_text().splitlines()
    assert lines == (plain_lines(trace.rows, trace.scale) + trace.footer()).splitlines()
    ms.run(scenario, out=(streamed := io.StringIO()))
    assert streamed.getvalue().splitlines() == lines


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
    """The grid reaches ``sweep_mcr`` as a step and a count, never as a list
    of points."""
    received = []
    sweep = ms.sweep_mcr

    def spy(system, allocation_source, mode_pair, mcr_time_grid):
        received.append(mcr_time_grid)
        return sweep(system, allocation_source, mode_pair, mcr_time_grid)

    monkeypatch.setattr("modesched.sim.sweep_mcr", spy)
    result = ms.run_sweep(case_study, ms.SweepSpec("mode1", "mode2", Fraction(1), "offline-table"))
    (grid,) = received
    assert (grid.step, grid.count) == (1, 1800) and not isinstance(grid, (list, tuple))
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


def test_static_table_filed_under_another_mode_is_refused(case_study):
    table = ms.solve_optimal(case_study, "mode2").best_allocation
    with pytest.raises(ms.ScenarioError) as refusal:
        ms.make_scenario(case_study, "mode1", "offline-table", [], 100, static_tables={"mode1": table})
    assert str(refusal.value) == "static table for mode 'mode1' is the table of mode 'mode2'"


def test_carry_in_at_the_request_outlasts_the_certified_bound(tmp_path, capsys):
    """``samples/carry_in.json``: both analyses bound mode c's transitions by
    11 and pass b0 with slack 0, yet at the request at 6 the MI job released
    at 0 still has 2 units left, which the busy-period recurrence does not
    budget.  The transition takes 13 and b0's first job completes at 20,
    after its transition deadline 19.  These are facts of the simulator;
    the bound the verdicts rest on is a separate decision."""
    system_path = str(SAMPLES / "carry_in.json")
    for command in ("analyze-offline", "analyze-online"):
        assert main([command, system_path]) == 0
        out = capsys.readouterr().out
        assert "platform latency bound L = 11\n" in out
        assert "    b0: 11 + 2 <= 13  pass (slack 0)\n" in out and out.endswith("GLOBAL: PASS\n")
    trace_path = tmp_path / "carry_in.tsv"
    assert main(["simulate", system_path, str(SAMPLES / "carry_in_mcr6.json"), "--trace", str(trace_path)]) == 1
    assert capsys.readouterr().out == (
        "# latency\t6\t13\n# transition-deadline\tb0\t6\t19\t20\tMISS\n# deadline-misses\t1\n"
    )
    b0_rows = [line for line in trace_path.read_text(encoding="utf-8").splitlines() if "\tb0\t" in line]
    assert b0_rows[:4] == [
        "19\t1\tenable\tb0\t-", "19\t1\trelease\tb0\t0", "19\t1\tstart\tb0\t0", "20\t1\tcomplete\tb0\t0",
    ]
    sweep_path = tmp_path / "sweep.json"
    sweep_path.write_text(
        json.dumps({"allocation": "offline-table", "sweep": {"from_mode": "c", "to_mode": "b", "step": 1}}),
        encoding="utf-8",
    )
    assert main(["simulate", system_path, str(sweep_path)]) == 1
    assert capsys.readouterr().out == (
        "# sweep\tc\tb\tstep\t1\tpoints\t60\n# max-latency\t13\tat\t6\n# deadline-misses\t20\n"
    )


def sweeps_over_the_bound(name, expected):
    """Sweep ``samples/<name>_sweep.json`` under both allocation sources: each
    gives ``expected``, ``(max_latency, at_time, bound)``, above its bound."""
    system = ms.load_system(SAMPLES / f"{name}.json")
    spec = ms.load_scenario(SAMPLES / f"{name}_sweep.json", system)
    for allocation_source in ("offline-table", "online-ffd"):
        result = ms.run_sweep(system, spec._replace(allocation_source=allocation_source))
        assert (result.max_latency, result.at_time, result.bound) == expected, allocation_source
        assert result.max_latency > result.bound and result.deadline_misses == 0


def test_three_processor_carry_in_outlasts_the_certified_bound(capsys):
    """``samples/carry_in_seed2_draw57.json`` (``sweep-vs-bound``, seed 2,
    draw 57): ``mi2`` and ``mi3`` fill processors 2 and 3, so every MD task
    runs beside ``mi1`` on processor 1.  Both analyses bound alpha by 10, and
    the offline one passes; the online one fails only its First-Fit
    feasibility test.  A request at 2 takes 12 under both sources.  These
    are facts of the simulator, as in the carry-in sample above."""
    system_path = str(SAMPLES / "carry_in_seed2_draw57.json")
    for command, status, verdict in (("analyze-offline", 0, "PASS"), ("analyze-online", 1, "FAIL")):
        assert main([command, system_path]) == status
        out = capsys.readouterr().out
        assert out.count("platform latency bound L = 10\n") == 2 and out.endswith(f"GLOBAL: {verdict}\n")
    assert main(["simulate", system_path, str(SAMPLES / "carry_in_seed2_draw57_sweep.json")]) == 0
    assert capsys.readouterr().out == (
        "# sweep\talpha\tbeta\tstep\t1/2\tpoints\t120\n# max-latency\t12\tat\t2\n# deadline-misses\t0\n"
    )
    sweeps_over_the_bound("carry_in_seed2_draw57", (12, 2, 10))


def test_one_processor_carry_in_outlasts_the_certified_bound(capsys):
    """``samples/carry_in_one_proc.json``, from an exhaustive search over tiny
    one-processor systems: both analyses pass with alpha bounded by 13, yet
    the step-1 sweep over alpha's hyperperiod (25,935 points) reaches 14 at
    1,425 under both sources."""
    system_path = str(SAMPLES / "carry_in_one_proc.json")
    for command in ("analyze-offline", "analyze-online"):
        assert main([command, system_path]) == 0
        out = capsys.readouterr().out
        assert "platform latency bound L = 13\n" in out and out.endswith("GLOBAL: PASS\n")
    sweeps_over_the_bound("carry_in_one_proc", (14, 1425, 13))


def test_one_processor_carry_in_past_mi7_outlasts_the_certified_bound(capsys):
    """``samples/carry_in_mi7.json``, from seeded draws of one-processor
    systems (the smallest such finding so far): beside ``mi`` (3, 7), both
    analyses pass with alpha bounded by 7, yet the step-1 sweep over alpha's
    hyperperiod (399 points) reaches 8 at 3 under both sources."""
    system_path = str(SAMPLES / "carry_in_mi7.json")
    for command in ("analyze-offline", "analyze-online"):
        assert main([command, system_path]) == 0
        out = capsys.readouterr().out
        assert "platform latency bound L = 7\n" in out and out.endswith("GLOBAL: PASS\n")
    assert main(["simulate", system_path, str(SAMPLES / "carry_in_mi7_sweep.json")]) == 0
    assert capsys.readouterr().out == (
        "# sweep\talpha\tbeta\tstep\t1\tpoints\t399\n# max-latency\t8\tat\t3\n# deadline-misses\t0\n"
    )
    sweeps_over_the_bound("carry_in_mi7", (8, 3, 7))


def test_chained_requests_outlast_the_bound_of_the_placement_in_use(capsys):
    """``samples/chained_requests.json`` with ``_mcrs.json``: a -> b at 3,
    b -> c at 17/4 and c -> a at 25/4.  Under online-ffd ``c0`` runs beside
    ``mi0`` on processor 1, whose job released at 0 still has 4 units at
    25/4, so the c -> a transition takes 27/4, above the bound 6 of that
    placement, though below mode c's online bound 8 that the online-ffd
    verdict rests on.  Both analyses pass.  These are facts of the
    simulator, as in the carry-in samples above."""
    system_path = str(SAMPLES / "chained_requests.json")
    system = ms.load_system(system_path)
    for command in ("analyze-offline", "analyze-online"):
        assert main([command, system_path]) == 0
        assert capsys.readouterr().out.endswith("GLOBAL: PASS\n")
    assert ms.validate_offline_scheme(system).passed and ms.validate_online_scheme(system).passed
    placement = ms.first_fit_decreasing(system, "c")
    assert placement.assignment == {"c0": 1}
    placement_bound = ms.analyze_allocation(system, "c", placement).platform_bound
    assert (placement_bound, ms.latency_upper_bound(system, "c")) == (6, 8)

    scenario = ms.load_scenario(SAMPLES / "chained_requests_mcrs.json", system)
    assert main(["simulate", system_path, str(SAMPLES / "chained_requests_mcrs.json")]) == 1
    assert capsys.readouterr().out.endswith(
        "# latency\t3\t0\n# latency\t17/4\t7/4\n# latency\t25/4\t27/4\n"
        "# transition-deadline\tc0\t17/4\t77/4\t13\tok\n# deadline-misses\t5\n"
    )
    trace = ms.run(scenario)
    latencies = [latency for _, latency in trace.observed_latencies]
    assert latencies == [0, Fraction(7, 4), Fraction(27, 4)] and trace.job_deadline_misses == 5
    assert latencies[-1] > placement_bound

    static = ms.make_scenario(system, "a", "offline-table", scenario.mcr_schedule, scenario.horizon)
    trace = ms.run(static)
    assert [latency for _, latency in trace.observed_latencies] == [0, Fraction(7, 4), Fraction(11, 4)]
    assert trace.deadline_miss_count == 0


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
    """Reference sweep: each grid point is its own scenario, run from t=0, in
    ascending order, so the earliest point of a tie or a failure counts.
    The bound in force is computed here on its own, from the analysis of the
    optimal table or the online bound."""
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
    # every point is validated before any is simulated
    mcr_times = [ms.as_time(raw_time, what="sweep grid point") for raw_time in mcr_time_grid]
    best = None
    points = job_misses = transition_misses = 0
    for mcr_time in sorted(mcr_times):
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
    return ms.SweepResult(best[0], best[1], points, job_misses, transition_misses, bound)


def sweep_outcome(sweep, *args):
    try:
        return sweep(*args)
    except (ValueError, ms.SimulationError) as exc:
        return type(exc), str(exc), getattr(exc, "time", None), getattr(exc, "task_id", None)


def with_transition_deadlines(rng, base):
    """``base`` with a transition deadline, often a tight one, on most MD
    tasks: from half the period to 12 past it, so that some checks' jobs
    are due after their transition deadline."""
    tasks = [
        {"id": t.id, "kind": "MI", "wcet": str(t.wcet), "period": str(t.period),
         "processor": t.home_processor}
        for t in base.mi_tasks
    ]
    for t in base.md_tasks:
        raw = {"id": t.id, "kind": "MD", "wcet": str(t.wcet), "period": str(t.period)}
        if rng.random() < 0.7:
            raw["transition_deadline"] = str(t.period * rng.randint(2, 4) / 4 + rng.randint(0, 12))
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


def test_forked_sweep_edge_cases(case_study, source_runs):
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
    # a failed destination placement is reported for the earliest grid point
    args = (storm, "online-ffd", ("calm", "storm"), [7, 3, 3])
    outcome = sweep_outcome(ms.sweep_mcr, *args)
    assert outcome == sweep_outcome(per_point_sweep, *args)
    assert outcome[0] is ms.SimulationError and outcome[2] == 3
    # every point is validated before any is simulated: an invalid point
    # after 7 is refused before 7's placement fails, with no source run built
    source_runs.clear()
    args = (storm, "online-ffd", ("calm", "storm"), [7, -1])
    outcome = sweep_outcome(ms.sweep_mcr, *args)
    assert outcome == sweep_outcome(per_point_sweep, *args)
    assert outcome[:2] == (ms.SystemValidationError, "sweep grid point: must be non-negative, got -1")
    assert source_runs == []


# ---------------------------------------------------------------------------
# one fork per stretch before the source mode's next MD release and the transition end
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


@pytest.fixture
def requests(monkeypatch):
    """The instant of every request a sweep makes of its source runs, in order."""
    made = []
    request = sim._SourceRun.request

    def recording(self, time, destination, limit):
        made.append(Fraction(time, self.scale))
        return request(self, time, destination, limit)

    monkeypatch.setattr(sim._SourceRun, "request", recording)
    return made


@pytest.fixture
def source_runs(monkeypatch):
    """The scenario of every source run a sweep builds, in order."""
    built = []
    init = sim._SourceRun.__init__

    def recording(self, scenario):
        built.append(scenario)
        init(self, scenario)

    monkeypatch.setattr(sim._SourceRun, "__init__", recording)
    return built


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


def test_fork_processes_its_request_instant_as_the_points_own_run(monkeypatch, settlements):
    """A fork's rows, from its request instant on, are those of the point's
    own run.  In ``samples/carry_in.json`` the job of ``c0`` released at 6
    comes before the request at 6, so it counts as pending and the
    transition waits for it."""
    system = ms.load_system(SAMPLES / "carry_in.json")
    made = []
    fork = sim._SourceRun._fork

    def keeping_rows(self):
        twin = fork(self)
        made.append((twin, []))
        twin._emit = made[-1][1].append
        return twin

    monkeypatch.setattr(sim._SourceRun, "_fork", keeping_rows)
    assert ms.sweep_mcr(system, "offline-table", ("c", "b"), [6]).max_latency == 13
    ((twin, rows),) = made
    request = twin.scaled(Fraction(6))
    assert rows[:2] == [(request, 1, "release", "c0", 1), (request, None, "MCR", "b", None)]
    # not at the transition end 19: ``b0``'s first job is due at 21, after its
    # transition deadline 19, so the check stays open until the job completes
    # at 20 and the processor idles
    assert settlements == [twin.scaled(Fraction(20))]
    # the source run requests at the grid's unit; the point's own scenario at 6
    own = twin.scenario._replace(mcr_schedule=((Fraction(6), "b"),))
    assert rows == [row for row in ms.run(own).rows if request <= row[0] <= settlements[0]]


def held_jobs(engine):
    """``(where, job)`` for every job list ``engine`` holds: running, ready
    or in a bucket entry."""
    held = [("running", job) for job in engine.running if job is not None]
    held += [("ready", job) for queue in engine.ready for job in queue]
    held += [("due", job) for bucket in engine.due.values() for job, _, _ in bucket if job is not None]
    return held


def test_fork_copies_every_job_with_work_left_and_shares_completed_ones():
    """One processor: after the instants 0 and 1, ``a``'s first job has
    completed (its deadline entry at 4 is still queued), ``b``'s runs and
    ``x``'s is ready.  A fork made then holds its own copy of every job with
    work left, wherever it holds it, shares the completed one, and runs its
    request at 2 without touching the source's jobs."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MI", "wcet": 1, "period": 4, "processor": 1},
                {"id": "b", "kind": "MI", "wcet": 2, "period": 8, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 3, "period": 12},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 8},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )
    source = sim._SourceRun(ms.make_scenario(system, "alpha", "offline-table", [(2, "beta")], 40))
    source.advance(2)
    fork = source._fork()
    remaining = sim._REMAINING
    held = held_jobs(fork)
    assert {(where, job[sim._TASK], job[remaining] > 0) for where, job in held} == {
        ("running", "b", True), ("ready", "x", True),
        ("due", "a", False), ("due", "b", True), ("due", "x", True),
    }
    shared = {id(job) for _, job in held_jobs(source)}
    for where, job in held:
        assert (id(job) in shared) == (job[remaining] == 0), (where, job)
    # each bucket entry of a job with work left points to the copy the fork runs
    pending = {id(job) for where, job in held if where != "due"}
    assert all(id(job) in pending for where, job in held if where == "due" and job[remaining])
    before = [(where, job[:]) for where, job in held_jobs(source)]
    fork._request(2, "beta")
    fork.advance(40)
    assert fork.latencies == [(2, 5)]  # ``x`` is preempted at 4 and completes at 7
    assert [(where, job[:]) for where, job in held_jobs(source)] == before


def test_repeated_and_backward_points_in_one_interval(forks):
    system = backlogged_handover()
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), [4, 4, 3, 5, 5, 3])
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        # walked ascending, the fork made at 3 serves every later point
        assert forks == [3]


def test_repeats_of_a_point_whose_transition_ends_at_once_fork_once(forks):
    """At 8 nothing of alpha is pending, so the fork made there ends its
    transition at the request and serves no later point; the repeats of 8
    take its outcome, with no fork of their own."""
    system = backlogged_handover()
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), [8, 8, 8])
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        assert forks == [8]


def test_shuffled_grid_walks_one_source_run_and_reports_the_earliest_tie(source_runs):
    """Alpha's schedule repeats every 30, so a request at 33 has the latency
    5 of a request at 3.  Shuffled with repeats, the grid is walked by one
    source run, and the tie goes to the earliest point, 3."""
    system = backlogged_handover()
    for allocation_source in ("offline-table", "online-ffd"):
        source_runs.clear()
        args = (system, allocation_source, ("alpha", "beta"), [33, 4, 3, 33, 8, 3, 34])
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert (result.max_latency, result.at_time, result.points) == (5, 3, 7)
        assert len(source_runs) == 1


def test_committed_sweep_forks_only_where_no_fork_serves_and_the_demand_test_fails(case_study, forks):
    result = ms.run_sweep(case_study, ms.load_scenario(SAMPLES / "case_study_sweep.json", case_study))
    assert (result.points, result.max_latency, result.at_time) == (1800, 35, 80)
    assert len(forks) == 25


def draining_handover():
    """One processor: the MI task ``m`` and alpha's ``x`` and ``z``, all
    released at 0.  A request at 0 leaves ``x`` and ``z`` pending; ``m``
    runs 0-1, 3-4 and 6-7, ``x`` completes at 6 and ``z`` at 8, the
    transition end.  Alpha's next MD release is at 12, so nothing of alpha
    is pending in [8, 12)."""
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 1, "period": 3, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 4, "period": 12},
                {"id": "z", "kind": "MD", "wcet": 1, "period": 12},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 4, "transition_deadline": 4},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x", "z"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )


def test_fork_serves_across_mi_releases_and_old_md_completions(forks):
    """The fork made at 0 serves every point up to the transition end 8,
    across ``m``'s releases at 3 and 6 and ``x``'s completion at 6: alpha
    releases no MD job in between, so a later request leaves the same jobs
    pending.  ``y``'s first job completes at 9, past its transition deadline
    4 after the requests up to 4 and by it after the later ones."""
    system = draining_handover()
    grid = list(range(8))
    points = one_point_each(system, grid)
    assert [r.max_latency for r in points] == [8, 7, 6, 5, 4, 3, 2, 1]
    assert [r.transition_misses for r in points] == [1, 1, 1, 1, 1, 0, 0, 0]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert (result.max_latency, result.at_time, result.transition_misses) == (8, 0, 5)
        assert forks == [0]


def test_points_at_or_after_the_transition_end_are_decided_without_a_fork(forks):
    """From the transition end 8 of the fork made at 0 on, nothing of alpha
    is pending, so beta starts at the request itself: latency 0.  The fork
    made at 0 has placed beta, and the demand test holds at 8, 9 and 11, so
    no later point needs a fork."""
    system = draining_handover()
    grid = [0, 7, 8, 9, 11]
    assert [r.max_latency for r in one_point_each(system, grid)] == [8, 1, 0, 0, 0]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        assert forks == [0]


def short_period_handover():
    """One processor: the MI task ``m`` of ``draining_handover``, and
    alpha's ``w``, released every 4, and ``x``.  A request at 3 leaves
    ``x`` pending until 9; one at 4 also leaves ``w``'s job released at 4,
    and the transition ends at 11; one at 8 leaves ``w``'s job released at
    8, and it ends at 12, where ``y``'s first job is released; it completes
    at 14, past the transition deadline 12."""
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 1, "period": 3, "processor": 1},
                {"id": "w", "kind": "MD", "wcet": 1, "period": 4},
                {"id": "x", "kind": "MD", "wcet": 5, "period": 12},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 4, "transition_deadline": 4},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["w", "x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )


def test_point_at_the_next_md_release_gets_its_own_fork(forks):
    """The fork made at 3 ends its transition at 9, but alpha releases
    ``w`` at 4: served from that fork, the request at 4 would show a
    latency of 5, not 7."""
    system = short_period_handover()
    grid = [3, 4]
    assert [r.max_latency for r in one_point_each(system, grid)] == [6, 7]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert (result.max_latency, result.at_time) == (7, 4)
        assert forks == [3, 4]


def test_fork_at_an_md_release_serves_up_to_the_following_one(forks):
    """``w``'s job released at 4 is pending at the request at 4, so the
    fork made there serves 5, 6 and 7; the next release strictly after 4 is
    at 8, before that fork's transition end 11.  Served from it, the request
    at 8 would end its transition at 11 and meet ``y``'s transition deadline
    12; its own run ends at 12 and misses it."""
    system = short_period_handover()
    grid = [4, 5, 6, 7, 8]
    points = one_point_each(system, grid)
    assert [r.max_latency for r in points] == [7, 6, 5, 4, 4]
    assert [r.transition_misses for r in points] == [1, 1, 1, 1, 1]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert result.transition_misses == 5
        assert forks == [4, 8]


def test_first_point_with_nothing_pending_forks_until_the_destination_is_placed(forks):
    """Nothing of alpha is pending at 8, 9 or 11, but no fork has placed beta
    before 8, so the point 8 gets a fork (under online-ffd the placement,
    and any placement error, falls at the point's own transition end); the
    demand test then decides 9 and 11."""
    system = draining_handover()
    grid = [8, 9, 11]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        assert forks == [8]


def test_request_at_a_source_md_release_gets_a_fork(forks):
    """At 12 nothing of alpha is pending before the instant, but ``x`` and
    ``z`` are released at 12 itself, so the transition waits for them: a
    latency of 8, not 0."""
    system = draining_handover()
    grid = [8, 12]
    assert [r.max_latency for r in one_point_each(system, grid)] == [0, 8]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert (result.max_latency, result.at_time) == (8, 12)
        assert forks == [8, 12]


def test_check_due_after_its_transition_deadline_gets_a_fork(forks):
    """``y``'s period 10 exceeds its transition deadline 3, so the demand
    test, which shows only that each job meets its own deadline, cannot
    decide its check.  At 4 nothing of alpha is pending, yet ``m``'s job
    released at 4 runs first and ``y``'s first job completes at 8, after
    the transition deadline 7."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 2, "period": 4, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 1, "period": 8},
                {"id": "y", "kind": "MD", "wcet": 2, "period": 10, "transition_deadline": 3},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )
    grid = [0, 4]
    points = one_point_each(system, grid)
    assert [(r.max_latency, r.transition_misses) for r in points] == [(3, 1), (0, 1)]
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert result.transition_misses == 2
        assert forks == [0, 4]


@contextlib.contextmanager
def drains_against_forks():
    """While open, each request a sweep makes of its source run is checked
    once it returns: the closed-form transition end (``_SourceRun.drain``)
    against that of a fork requested at the same instant, the request's own
    fork if it made one, else a new fork advanced just past the closed form.
    Yields a list that gets ``(scale, request, closed form, the fork's
    transition end or None, decided without a fork)`` per request, its
    times in units of ``1 / scale``."""
    seen = []
    request = sim._SourceRun.request

    def checking(self, time, destination, limit):
        answer = request(self, time, destination, limit)
        end, _ = self.drain(time)
        fork = answer[2]
        decided = not isinstance(fork, sim._SourceRun)
        if decided:
            fork = self._fork()
            fork._request(time, destination)
            fork.advance(end + 1)
        ends = [requested + latency for requested, latency in fork.latencies]
        seen.append((self.scale, time, end, ends[0] if ends else None, decided))
        return answer

    sim._SourceRun.request = checking
    try:
        yield seen
    finally:
        sim._SourceRun.request = request


def committed_sweeps():
    """``(system, spec)`` of each committed sweep: the case study's both ways
    and those of the finding samples (ROADMAP direction 17), the chained
    requests' along each of its transitions at a step of 1/4."""
    case_study = ms.load_system(SAMPLES / "case_study.json")
    yield case_study, ms.load_scenario(SAMPLES / "case_study_sweep.json", case_study)
    yield case_study, ms.SweepSpec("mode2", "mode1", Fraction(1), "online-ffd")
    yield ms.load_system(SAMPLES / "carry_in.json"), ms.SweepSpec("c", "b", Fraction(1), "offline-table")
    for name in ("carry_in_seed2_draw57", "carry_in_one_proc", "carry_in_mi7"):
        system = ms.load_system(SAMPLES / f"{name}.json")
        yield system, ms.load_scenario(SAMPLES / f"{name}_sweep.json", system)
    chained = ms.load_system(SAMPLES / "chained_requests.json")
    for source, destination in chained.mode_graph.edges:
        yield chained, ms.SweepSpec(source, destination, Fraction(1, 4), "offline-table")


def test_closed_form_transition_end_equals_a_forks_at_every_committed_request():
    """Direction 20's closed form, the end of the level-k* busy window from
    the request, is the engine's transition end at every request of the
    committed sweeps under both sources: where the demand test fails and
    the request forks, and where it holds, with old jobs pending or none.
    On one processor First-Fit places every task as the optimal table
    does, so such a sweep is one run under both sources, checked once."""
    with drains_against_forks() as seen:
        for system, spec in committed_sweeps():
            for allocation_source in ("offline-table", "online-ffd"):
                if allocation_source == "online-ffd" and system.processor_count == 1:
                    for mode_id in system.mode_ids():
                        placement = ms.first_fit_decreasing(system, mode_id).assignment
                        assert placement == ms.solve_optimal(system, mode_id).best_allocation.assignment
                    continue
                ms.run_sweep(system, spec._replace(allocation_source=allocation_source))
    assert [entry for entry in seen if entry[2] != entry[3]] == []
    forked = sum(not decided for *_, decided in seen)
    pending = sum(decided and end > time for _, time, end, _, decided in seen)
    assert len(seen) == 10324 and forked > 0 and pending > 0, (len(seen), forked, pending)


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
    """How many instants sweep forks process, read by calling the returned
    function: each fork's ``instants`` counter, from the fork on."""
    made = []
    fork = sim._SourceRun._fork

    def recording(self):
        twin = fork(self)
        made.append((twin, twin.instants))
        return twin

    monkeypatch.setattr(sim._SourceRun, "_fork", recording)
    return lambda: sum(twin.instants - forked for twin, forked in made)


@pytest.fixture
def settlements(monkeypatch):
    """The instant at which each settled fork stopped, in order."""
    settled = []
    stop = sim._SourceRun.stop

    def recording(self, time):
        settled.append(time)
        stop(self, time)

    monkeypatch.setattr(sim._SourceRun, "stop", recording)
    return settled


def test_sweep_instant_totals(case_study, forks, instants, settlements, requests):
    """A count of the simulated instants, not a timing, bounds the sweep cost."""
    committed = ms.load_scenario(SAMPLES / "case_study_sweep.json", case_study)
    assert ms.run_sweep(case_study, committed).points == 1800
    assert instants() <= 122
    assert len(forks) == len(settlements) == 25
    assert len(requests) == 396
    committed_instants = instants()
    forks.clear()
    settlements.clear()
    requests.clear()
    spec = ms.SweepSpec("mode2", "mode1", Fraction(1), "online-ffd")
    assert ms.run_sweep(case_study, spec).points == 900
    assert instants() - committed_instants <= 165
    assert len(forks) == len(settlements) == 28
    assert len(requests) == 117


def idling_handover():
    """``backlogged_handover`` with a lighter destination task ``y``: beta
    loads the processor to 3/4.  A request at 3, 4 or 5 ends the transition
    at 8 and ``y``'s first job completes at 12, after which no pending job is
    behind its fluid share, well before the horizon of the request at 3
    (3 + bound 10 + margin 11)."""
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
    """The fork made at 3 stops at 12 and still gives the points 4 and 5
    their own outcomes: the transition deadline, 8 after each request, is
    missed at 3 (12 > 11) and met at 4 and 5."""
    system = idling_handover()
    grid = [3, 4, 5]
    points = one_point_each(system, grid)
    assert [r.transition_misses for r in points] == [1, 0, 0]
    assert [r.max_latency for r in points] == [5, 4, 3]
    args = (system, "offline-table", ("alpha", "beta"), grid)
    expected = per_point_sweep(*args)
    ms.sweep_mcr(system, "offline-table", ("alpha", "beta"), [3])
    alone = instants()
    forks.clear()
    settlements.clear()
    result = ms.sweep_mcr(*args)
    assert instants() - alone == alone  # the later points process no instant
    assert result == expected
    assert (result.max_latency, result.at_time, result.transition_misses) == (5, 3, 1)
    assert forks == [3] and settlements == [12]


def test_demand_test_holds_at_every_pending_deadline():
    """The processor-demand test on alpha's processor, ``m`` (weight 2/4)
    and ``a`` (1/8), in units of 1/8 (the lcm of the periods), over given
    pending jobs ``((deadline, task, index), remaining work)``.  A task
    with no pending job counts as released at the instant itself."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 2, "period": 4, "processor": 1},
                {"id": "a", "kind": "MD", "wcet": 1, "period": 8},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["a"]}],
            "transitions": [],
        }
    )
    source = sim._SourceRun(ms.make_scenario(system, "alpha", "offline-table", [], 40))
    assert source.scale == 1

    def holds(time, jobs):
        return source.meets_deadlines(1, time, "alpha", jobs)

    assert holds(0, [])
    # by 4: 2 units; by 8: 2 + 1 units and 2 of ``m``'s job released at 4
    assert holds(0, [((4, "m", 0), 2), ((8, "a", 0), 1)])
    # an unfinished job due at the instant, or past its deadline, misses
    assert not holds(3, [((3, "m", 0), 1)])
    assert not holds(5, [((4, "m", 0), 1), ((8, "a", 0), 1)])
    # 5 units of ``a`` fit by 8, but not with the 4 ``m`` releases from 0 on
    assert not holds(0, [((8, "a", 0), 5)])
    # the first deadline holds (1 by 4); the second does not (1 + 6 + 2 > 8)
    assert not holds(0, [((4, "m", 0), 1), ((8, "a", 0), 6)])


def lagging_handover():
    """One processor: alpha's ``x`` is due at 8, before the MI job of ``m``
    released at 0 and due at 12, so a request at 0 ends the transition at
    4 with all 4 units of ``m``'s job left: behind its fluid share (4 * 12 >
    4 * (12 - 4)).  Beta's ``y`` adds only 1/10 to ``m``'s 1/3, and the
    processor-demand test holds there at once."""
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 4, "period": 12, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 4, "period": 8},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 10},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )


def test_fork_settles_where_a_job_is_behind_its_fluid_share_but_demand_fits(forks, settlements):
    """The fork settles at the transition end 4; waiting for every pending
    job to be on its fluid share would run it on to 9, where the processor
    idles after ``m`` (4-8) and ``y`` (8-9)."""
    system = lagging_handover()
    for allocation_source in ("offline-table", "online-ffd"):
        forks.clear()
        settlements.clear()
        args = (system, allocation_source, ("alpha", "beta"), [0])
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert (result.max_latency, result.job_misses) == (4, 0)
        assert forks == [0] and settlements == [4]


def test_fork_does_not_settle_while_a_ready_job_is_behind(settlements):
    """Alpha's job of ``a`` wins the tie at deadline 12 against the MI job of
    ``m`` released at 6, so the transition ends at 9.  There ``u``'s first job
    runs on its fluid share (1 unit, 2 to its deadline, at rate 1/2), but
    ``m``'s job waits with all 3 units and deadline 12, behind its share
    (3 * 6 > 3 * (12 - 9)).  It misses at 12, and at load 1 the backlog makes
    ``m`` and ``u`` miss for good: 5 misses by the horizon 25."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 3, "period": 6, "processor": 1},
                {"id": "a", "kind": "MD", "wcet": 6, "period": 12},
                {"id": "u", "kind": "MD", "wcet": 1, "period": 2},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["a"]}, {"id": "beta", "md_tasks": ["u"]}],
            "transitions": [["alpha", "beta"]],
        }
    )
    args = (system, "offline-table", ("alpha", "beta"), [0])
    result = ms.sweep_mcr(*args)
    assert result == per_point_sweep(*args)
    assert (result.max_latency, result.job_misses) == (9, 5)
    assert settlements == []


def test_open_check_due_after_its_job_keeps_the_fork_running(forks, settlements):
    """The fork made at 0 serves the points 0 to 3: the transition ends at 4
    and ``y``'s first job runs 4 to 6, on its fluid share, but its deadline 8
    falls after the transition deadline 4 after the request.  The check is
    missed at 0 and 1 (6 > 4, 6 > 5) and met at 2 and 3, so the fork runs on
    until the job completes at 6, where the processor idles."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "x", "kind": "MD", "wcet": 4, "period": 8},
                {"id": "y", "kind": "MD", "wcet": 2, "period": 4, "transition_deadline": 4},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )
    grid = [0, 1, 2, 3]
    assert [r.transition_misses for r in one_point_each(system, grid)] == [1, 1, 0, 0]
    args = (system, "offline-table", ("alpha", "beta"), grid)
    result = ms.sweep_mcr(*args)
    assert result == per_point_sweep(*args)
    assert (result.max_latency, result.transition_misses) == (4, 2)
    assert forks == [0] and settlements == [6]


def test_fork_does_not_settle_while_a_job_is_past_its_deadline(settlements):
    """A request at 4 ends the transition at 8; ``y``'s first job misses its
    deadline 12 and is still pending there, when the new jobs of ``a`` and
    ``y``, both just released, run on their fluid shares.  The backlog makes
    ``y`` miss again at 24, before the horizon 25, and its first job
    completes at 13, after the transition deadline 12: a job due by the
    check's deadline decides the check only while no job is behind."""
    system = backlogged_handover()
    args = (system, "offline-table", ("alpha", "beta"), [4])
    result = ms.sweep_mcr(*args)
    assert result == per_point_sweep(*args)
    assert (result.job_misses, result.transition_misses) == (2, 1)
    assert settlements == []


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
            # load <= 1: each pending source-mode job meets its deadline, so
            # no transition outlasts the source's longest MD period
            system, _, (source, _), _ = args
            longest = max((t.period for t in system.md_tasks_of(source)), default=0)
            assert expected.max_latency <= longest, (case, expected, longest)
        else:
            errors += 1
    # the draws reach every kind of outcome, and many have forks that settle
    assert errors >= 30 and job_missing >= 15 and transition_missing >= 30, (
        errors, job_missing, transition_missing,
    )
    assert saturated_missing >= 5 and settling >= 60, (saturated_missing, settling)


def test_sweeps_simulate_only_utilization_feasible_allocations(monkeypatch):
    """A fork settles a processor once no pending job is behind its fluid
    share, without checking the destination load: the premise, under which
    EDF meets every deadline the fluid schedule meets, is that every
    allocation a sweep's source run or forks use loads no processor above 1.
    Each one passes ``validate_allocation``
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
# one request per stretch of grid points
# ---------------------------------------------------------------------------

def quarters(first, stop):
    """The grid points ``k / 4`` for ``first <= k < stop``."""
    return [Fraction(k, 4) for k in range(first, stop)]


def test_quarter_step_grid_reads_points_between_source_instants_from_one_request(requests):
    """In ``idling_handover`` the fork made at 13/4 stops at 12 and serves
    every point before its transition end 8; at 33/4 the demand test decides
    the point, and the points up to alpha's next instant 10 with it.  Only
    the first point of each stretch is requested (8 is itself an instant of
    alpha, so its stretch is empty)."""
    system = idling_handover()
    grid = quarters(13, 44)
    for allocation_source in ("offline-table", "online-ffd"):
        requests.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        assert requests == [Fraction(13, 4), 8, Fraction(33, 4), 10]


def behind_share_handover():
    """One processor: the MI task ``m`` and alpha's ``x``, due first, both
    released at 0.  ``x`` runs 0-2 and ``m`` 2-5, so from 2 to alpha's next
    instant 5 nothing of alpha is pending but ``m`` is behind its share.  A
    request in [2, 3) releases beta's ``y`` (period 2) while ``m`` still
    has too much left: its own run misses two deadlines.  From 3 on it
    misses none, though the demand test, which counts ``y`` at its full
    load, holds only from 4 on."""
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "m", "kind": "MI", "wcet": 3, "period": 6, "processor": 1},
                {"id": "x", "kind": "MD", "wcet": 2, "period": 5},
                {"id": "y", "kind": "MD", "wcet": 1, "period": 2},
            ],
            "modes": [{"id": "alpha", "md_tasks": ["x"]}, {"id": "beta", "md_tasks": ["y"]}],
            "transitions": [["alpha", "beta"]],
        }
    )


def test_points_after_a_failed_demand_test_are_requested_each(requests):
    """The fork made at 1/4 serves every point before ``x`` completes at 2.
    The demand test fails at 2, where nothing of alpha is pending, and holds
    from 4 on, all before alpha's next instant 5.  A failure gives no
    window: every point from 2 up to 4 gets its own request, and its own job
    misses; only the points after 4 are decided with it."""
    system = behind_share_handover()
    grid = quarters(1, 20)
    points = one_point_each(system, grid)
    assert [r.job_misses for r in points] == [2] * 11 + [0] * 8
    for allocation_source in ("offline-table", "online-ffd"):
        requests.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert result.job_misses == 22
        assert requests == grid[:1] + grid[7:16]


def test_unsettled_fork_serves_its_window_run_on_to_each_horizon(forks, requests):
    """In ``backlogged_handover`` the fork made at 3 never settles: ``y``
    misses a deadline at 24, inside the horizon of the request at 4 but not
    of the one at 3.  The fork serves every point up to its transition end
    8 without a request, and runs on to each point's horizon."""
    system = backlogged_handover()
    grid = [3, 4, 5, 6, 7]
    points = one_point_each(system, grid)
    assert [(r.job_misses, r.transition_misses) for r in points] == [(1, 1), (2, 1), (2, 0), (2, 0), (2, 0)]
    args = (system, "offline-table", ("alpha", "beta"), grid)
    assert ms.sweep_mcr(*args) == per_point_sweep(*args)
    assert forks == [3] and requests == [3]


def test_check_flips_from_miss_to_met_inside_a_served_stretch(forks, requests):
    """The fork made at 13/4 stops at 12 and serves the points up to 8.
    ``y``'s first job completes at 12: its transition deadline, 8 after the
    request, is missed up to 15/4 and met from 4 on."""
    system = idling_handover()
    grid = quarters(13, 32)
    assert [r.transition_misses for r in one_point_each(system, grid)] == [1] * 3 + [0] * 16
    args = (system, "offline-table", ("alpha", "beta"), grid)
    result = ms.sweep_mcr(*args)
    assert result == per_point_sweep(*args)
    assert result.transition_misses == 3
    assert requests == [Fraction(13, 4)] and len(forks) == 1


def test_shuffled_grid_with_repeats_across_stretches(requests):
    """Points out of order and repeated, across served and decided
    stretches: a point before the last request restarts the source run."""
    rng = random.Random(28)
    for system, grid in ((idling_handover(), quarters(13, 44)), (behind_share_handover(), quarters(1, 24))):
        grid += rng.choices(grid, k=12)
        rng.shuffle(grid)
        for allocation_source in ("offline-table", "online-ffd"):
            requests.clear()
            args = (system, allocation_source, ("alpha", "beta"), grid)
            assert ms.sweep_mcr(*args) == per_point_sweep(*args)
            assert len(requests) < len(grid)


def test_source_run_with_nothing_queued_decides_every_later_point(requests):
    """With no MI task and no MD task in the source mode, the source run
    has no next instant: the point after the fork that places ``busy`` is
    decided, and every later point with it."""
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [{"id": "x", "kind": "MD", "wcet": 1, "period": 5, "transition_deadline": 5}],
            "modes": [{"id": "quiet", "md_tasks": []}, {"id": "busy", "md_tasks": ["x"]}],
            "transitions": [["quiet", "busy"]],
        }
    )
    for allocation_source in ("offline-table", "online-ffd"):
        requests.clear()
        args = (system, allocation_source, ("quiet", "busy"), range(10))
        assert ms.sweep_mcr(*args) == per_point_sweep(*args)
        assert requests == [0, 1]


def test_run_sweep_walks_its_step_grid_on_one_source_run(case_study, source_runs):
    """At step 7/3 ``run_sweep`` builds its one source run on a time base
    that holds the step, and a list grid of the same points on one that
    holds the lcm of the points' denominators: neither restarts."""
    result = ms.run_sweep(case_study, ms.SweepSpec("mode1", "mode2", Fraction(7, 3), "offline-table"))
    assert len(source_runs) == 1 and result.points == 772
    source_runs.clear()
    grid = [k * Fraction(7, 3) for k in range(772)]
    assert ms.sweep_mcr(case_study, "offline-table", ("mode1", "mode2"), grid) == result
    assert len(source_runs) == 1


def test_list_grid_of_mixed_denominators_walks_on_one_source_run(forks, source_runs):
    """No point of ``3, 7/2, 11/3, 4, 9/2, 14/3`` carries both halves and
    thirds: the grid's time base is the lcm of all its denominators, so the
    sweep builds one source run, and the fork made at 3 serves every point
    up to its transition end 8."""
    system = backlogged_handover()
    grid = [Fraction(n, d) for n, d in ((3, 1), (7, 2), (11, 3), (4, 1), (9, 2), (14, 3))]
    for allocation_source in ("offline-table", "online-ffd"):
        source_runs.clear()
        forks.clear()
        args = (system, allocation_source, ("alpha", "beta"), grid)
        result = ms.sweep_mcr(*args)
        assert result == per_point_sweep(*args)
        assert (result.max_latency, result.at_time) == (5, 3)
        assert len(source_runs) == len(forks) == 1


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
