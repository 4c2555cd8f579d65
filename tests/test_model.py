import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modesched as ms
from conftest import case_study_raw


def test_case_study_structure(case_study):
    assert case_study.processor_count == 2
    assert [t.id for t in case_study.mi_on(1)] == ["tau1", "tau2"]
    assert [t.id for t in case_study.mi_on(2)] == ["tau3", "tau4"]
    assert case_study.mode("mode1").md_tasks == ("tau5", "tau6", "tau7", "tau8", "tau9")
    assert case_study.mode("mode2").md_tasks == ("tau10",)
    assert case_study.mi_utilization(1) == Fraction(2, 3)
    assert case_study.mi_utilization(2) == Fraction(11, 30)
    assert case_study.mi_utilization(3) == 0  # no processor 3, so no MI load on it
    assert case_study.task("tau5").utilization == Fraction(7, 40)


def test_utilization_summary_mode1(case_study):
    summary = ms.utilization_summary(case_study, "mode1")
    assert summary.u_sum == Fraction("1.545")
    assert summary.u_max == Fraction(1, 3)
    assert summary.per_processor_mi == (Fraction(2, 3), Fraction(11, 30))


def test_utilization_summary_mode2(case_study):
    summary = ms.utilization_summary(case_study, "mode2")
    assert summary.u_sum == Fraction(23, 15)
    assert summary.u_max == Fraction(1, 2)


def test_utilization_summary_empty_system():
    system = ms.build_system(
        {"processors": 1, "tasks": [], "modes": [{"id": "only", "md_tasks": []}], "transitions": []}
    )
    summary = ms.utilization_summary(system, "only")
    assert summary.u_sum == 0
    assert summary.u_max == 0
    assert summary.per_processor_mi == (Fraction(0),)


def test_utilization_summary_unknown_mode(case_study):
    with pytest.raises(ms.SystemValidationError):
        ms.utilization_summary(case_study, "mode3")


def test_decimal_strings_parse_exactly():
    raw = case_study_raw()
    raw["tasks"][0]["wcet"] = "10.00"
    raw["tasks"][4]["wcet"] = "7"
    system = ms.build_system(raw)
    assert system.task("tau1").wcet == 10
    assert ms.utilization_summary(system, "mode1").u_sum == Fraction(309, 200)


def test_numbers_past_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    assert ms.as_time(f"1e{limit - 1}") == 10 ** (limit - 1)  # exactly ``limit`` digits
    assert ms.as_time(f"1e-{limit - 1}") == Fraction(1, 10 ** (limit - 1))
    too_long = [
        f"1e{limit}", f"1e-{limit}", f"{10 ** (limit // 2)}e{limit // 2}", "1e1000000000", "1e1_000_000_000 ",
        # a run of more digits than the interpreter's own conversion takes
        "9" * (limit + 1), "1." + "0" * (limit + 1), "1/" + "3" * (limit // 2) + "_" + "3" * (limit // 2 + 1),
    ]
    for value in too_long:
        with pytest.raises(ms.SystemValidationError, match=f"^w: a number with more than {limit} digits"):
            ms.as_time(value, what="w")
    sys.set_int_max_str_digits(0)  # no limit
    try:
        assert ms.as_time(f"1e{limit}") == 10 ** limit
    finally:
        sys.set_int_max_str_digits(limit)


def test_floats_rejected():
    raw = case_study_raw()
    raw["tasks"][0]["wcet"] = 10.0
    with pytest.raises(ms.SystemValidationError, match="inexact"):
        ms.build_system(raw)


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda r: r["tasks"].append(dict(r["tasks"][0])), "duplicate task id"),
        (lambda r: r["modes"][1]["md_tasks"].append("tau5"), "belongs to both"),
        (lambda r: r["tasks"][0].pop("processor"), "require a processor"),
        (lambda r: r["tasks"][0].update(wcet=0), "must be positive"),
        (lambda r: r["tasks"][0].update(period=0), "must be positive"),
        (lambda r: r["tasks"][4].update(wcet=41), "exceeds period"),
        (lambda r: r["tasks"][4].update(processor=1), "must not carry a static processor"),
        (lambda r: r["tasks"][0].update(transition_deadline=5), "no transition deadline"),
        (lambda r: r["tasks"][0].update(processor=3), "outside 1..2"),
        (lambda r: r["transitions"].append(["mode1", "mode1"]), "self-loop"),
        (lambda r: r["transitions"].append(["mode1", "mode9"]), "unknown mode"),
        (lambda r: r["transitions"].append(["mode1", "mode2"]), "duplicate edge"),
        (lambda r: r["modes"][0]["md_tasks"].append("tau1"), "mode-independent"),
        (lambda r: r["modes"][0]["md_tasks"].remove("tau5"), "belong to no mode"),
    ],
)
def test_build_system_rejections(mutate, match):
    raw = case_study_raw()
    mutate(raw)
    with pytest.raises(ms.SystemValidationError, match=match):
        ms.build_system(raw)


def test_mi_overload_rejected():
    # 0.525 + 0.525 = 1.05 on processor 1
    raw = {
        "processors": 1,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 21, "period": 40, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 21, "period": 40, "processor": 1},
        ],
        "modes": [{"id": "m", "md_tasks": []}],
        "transitions": [],
    }
    with pytest.raises(ms.SystemValidationError, match="exceeds 1"):
        ms.build_system(raw)


def test_zero_md_modes_valid():
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [{"id": "a", "kind": "MI", "wcet": 1, "period": 2, "processor": 1}],
            "modes": [{"id": "m1", "md_tasks": []}, {"id": "m2", "md_tasks": []}],
            "transitions": [["m1", "m2"]],
        }
    )
    assert system.md_tasks_of("m1") == ()


def test_check_transition_deadline_boundaries(case_study):
    tau10 = case_study.task("tau10")
    passing = ms.check_transition_deadline(tau10, 40)
    assert passing.passed and passing.slack == 10 and passing.checked
    tight = ms.check_transition_deadline(tau10, 50)
    assert tight.passed and tight.slack == 0
    failing = ms.check_transition_deadline(tau10, 51)
    assert not failing.passed and failing.slack == -1


def test_check_transition_deadline_unchecked():
    task = ms.Task(id="x", kind="MD", wcet=Fraction(1), period=Fraction(5))
    verdict = ms.check_transition_deadline(task, 1000)
    assert verdict.passed and not verdict.checked and verdict.slack is None


def test_check_transition_deadline_rejects_mi(case_study):
    with pytest.raises(ValueError):
        ms.check_transition_deadline(case_study.task("tau1"), 1)


@settings(max_examples=60, deadline=None)
@given(
    deadline=st.integers(min_value=1, max_value=500),
    period=st.integers(min_value=1, max_value=100),
    latency=st.fractions(min_value=0, max_value=500),
    smaller=st.fractions(min_value=0, max_value=1),
)
def test_deadline_check_monotone(deadline, period, latency, smaller):
    task = ms.Task(
        id="t", kind="MD", wcet=Fraction(1, 2), period=Fraction(period) + 1,
        transition_deadline=Fraction(deadline),
    )
    if ms.check_transition_deadline(task, latency).passed:
        assert ms.check_transition_deadline(task, latency * smaller).passed


@settings(max_examples=80, deadline=None)
@given(
    num=st.integers(min_value=1, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
)
def test_utilization_exact_for_bounded_denominators(num, den):
    wcet = Fraction(num, den)
    period = wcet + Fraction(num, den)  # utilization exactly 1/2
    task = ms.Task(id="t", kind="MD", wcet=wcet, period=period)
    assert task.utilization == Fraction(1, 2)
    assert sum([task.utilization] * 3, Fraction(0)) == Fraction(3, 2)


def four_mode_graph():
    return ms.build_system(
        {
            "processors": 1,
            "tasks": [],
            "modes": [{"id": f"mode{i}", "md_tasks": []} for i in (1, 2, 3, 4)],
            "transitions": [
                ["mode1", "mode2"],
                ["mode2", "mode3"],
                ["mode2", "mode4"],
                ["mode3", "mode4"],
                ["mode4", "mode1"],
            ],
        }
    )


def test_worst_predecessor_latency_over_graph():
    system = four_mode_graph()
    latencies = {"mode1": Fraction(3), "mode2": Fraction(11), "mode3": Fraction(9), "mode4": Fraction(2)}
    assert system.mode_graph.predecessors("mode4") == ("mode2", "mode3")
    assert ms.worst_predecessor_latency(system, "mode4", latencies) == 11
    assert ms.worst_predecessor_latency(system, "mode1", latencies) == 2
    # mode with no incoming edges
    lone = ms.build_system(
        {
            "processors": 1,
            "tasks": [],
            "modes": [{"id": "a", "md_tasks": []}, {"id": "b", "md_tasks": []}],
            "transitions": [["a", "b"]],
        }
    )
    assert ms.worst_predecessor_latency(lone, "a", {}) == 0


def test_worst_predecessor_latency_cycle(case_study):
    assert ms.worst_predecessor_latency(case_study, "mode1", {"mode2": Fraction(85)}) == 85


def test_worst_predecessor_latency_missing_entry():
    system = four_mode_graph()
    with pytest.raises(ValueError, match="no latency provided"):
        ms.worst_predecessor_latency(system, "mode4", {"mode2": Fraction(1)})


def test_validate_allocation(case_study):
    good = ms.Allocation("mode1", {"tau5": 1, "tau6": 1, "tau7": 1, "tau8": 2, "tau9": 2})
    ms.validate_allocation(case_study, good)
    with pytest.raises(ms.AllocationError, match="unassigned"):
        ms.validate_allocation(case_study, ms.Allocation("mode1", {"tau5": 1}))
    with pytest.raises(ms.AllocationError, match="not in mode"):
        ms.validate_allocation(
            case_study,
            ms.Allocation("mode1", {"tau5": 1, "tau6": 1, "tau7": 1, "tau8": 2, "tau9": 2, "tau10": 2}),
        )
    with pytest.raises(ms.AllocationError, match="outside"):
        ms.validate_allocation(
            case_study,
            ms.Allocation("mode1", {"tau5": 3, "tau6": 1, "tau7": 1, "tau8": 2, "tau9": 2}),
        )
    # tau10 (U=1/2) overloads processor 1 (MI 2/3)
    with pytest.raises(ms.AllocationError, match="exceeds 1"):
        ms.validate_allocation(case_study, ms.Allocation("mode2", {"tau10": 1}))


def test_overload_message_leaves_out_a_load_too_long_to_print(case_study):
    """Two MD tasks of 2,501-digit periods load one processor above 1 by a
    sum whose denominator has about 5,000 digits: the error names the
    processor and leaves the load out."""
    wcet = 6 * 10 ** 2499
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [
                {"id": "a", "kind": "MD", "wcet": str(wcet), "period": str(10 ** 2500 + 1)},
                {"id": "b", "kind": "MD", "wcet": str(wcet), "period": str(10 ** 2500 + 3)},
            ],
            "modes": [{"id": "m", "md_tasks": ["a", "b"]}],
            "transitions": [],
        }
    )
    with pytest.raises(ms.AllocationError) as caught:
        ms.validate_allocation(system, ms.Allocation("m", {"a": 1, "b": 1}))
    assert str(caught.value) == "allocation for mode m: processor 1 utilization exceeds 1"
    # a printable load is still quoted: tau10 (U=1/2) on processor 1 (MI 2/3)
    with pytest.raises(ms.AllocationError, match="processor 1 utilization 7/6 exceeds 1$"):
        ms.validate_allocation(case_study, ms.Allocation("mode2", {"tau10": 1}))


def test_long_ids_in_allocation_refusals_are_cut():
    """A library caller's static table with 5,000-character ids: each
    refusal quotes an id's start and length and at most five ids of a list."""
    mode, extra = "m" * 5000, "x" * 5000
    tasks = [f"{i}{'t' * 4999}" for i in range(7)]
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [{"id": tid, "kind": "MD", "wcet": 1, "period": 6} for tid in tasks],
            "modes": [{"id": mode, "md_tasks": tasks}],
            "transitions": [],
        }
    )
    placed = dict.fromkeys(tasks, 1)
    messages = []
    for assignment in ({}, {**placed, extra: 1}, {**placed, tasks[0]: "p" * 5000}, placed):
        with pytest.raises(ms.AllocationError) as caught:
            ms.make_scenario(
                system, mode, "offline-table", [], 10, static_tables={mode: ms.Allocation(mode, assignment)}
            )
        messages.append(str(caught.value))
    cut_mode = f"{'m' * 60}... (5000 characters)"
    quoted = [f"'{i}{'t' * 58}... (5000 characters)" for i in range(5)]
    assert messages == [
        f"allocation for mode {cut_mode}: unassigned tasks [{', '.join(quoted)}, ... (7 in all)]",
        f"allocation for mode {cut_mode}: tasks not in mode: ['{'x' * 59}... (5000 characters)]",
        f"task 0{'t' * 59}... (5000 characters): processor '{'p' * 59}... (5000 characters) outside 1..1",
        f"allocation for mode {cut_mode}: processor 1 utilization 7/6 exceeds 1",
    ]


def test_tasks_are_immutable(case_study):
    task = case_study.task("tau5")
    with pytest.raises(AttributeError):
        task.wcet = Fraction(1)
    # every public record type is immutable too
    offline_mode = ms.validate_offline_scheme(case_study).modes[0]
    optimum = offline_mode.evidence
    online = ms.validate_online_scheme(case_study)
    evidence = online.modes[0].evidence
    milp = ms.export_milp(case_study, "mode1")
    scenario = ms.make_scenario(case_study, "mode1", "online-ffd", [(5, "mode2")], horizon=200)
    trace = ms.run(scenario)
    spec = ms.SweepSpec("mode1", "mode2", Fraction(1), "online-ffd")
    records = [
        task, case_study.mode("mode1"), case_study.mode_graph, case_study,
        optimum.best_allocation, offline_mode.utilization, offline_mode.deadline_checks[0],
        offline_mode, online, optimum.latency_report.per_processor[0], optimum.latency_report,
        optimum, milp.constraints[0], milp, evidence.feasibility,
        evidence.per_processor[0].selection, evidence.per_processor[0], evidence, scenario, spec,
        trace.events[0], trace.transition_checks[0], trace,
        ms.sweep_mcr(case_study, "online-ffd", ("mode1", "mode2"), [0, 1]),
    ]
    assert [type(record).__name__ for record in records] == [
        "Task", "Mode", "ModeGraph", "ModeSystem", "Allocation", "UtilizationSummary",
        "DeadlineVerdict", "ModeVerdict", "SchemeVerdict", "ProcessorLatency", "LatencyReport",
        "OptimizationResult", "ConstraintRow", "MilpDocument", "FeasibilityVerdict",
        "KnapsackResult", "ProcessorBound", "OnlineEvidence", "Scenario", "SweepSpec", "SimEvent",
        "TransitionCheck", "SimTrace", "SweepResult",
    ]
    # each record's fields, in order, and its defaults: a dropped, renamed or
    # reordered field changes what a record unpacks to
    assert {type(record).__name__: (record._fields, record._field_defaults) for record in records} == {
        "Task": (
            ("id", "kind", "wcet", "period", "transition_deadline", "home_processor"),
            {"transition_deadline": None, "home_processor": None},
        ),
        "Mode": (("id", "md_tasks"), {}),
        "ModeGraph": (("modes", "edges"), {}),
        "ModeSystem": (("processor_count", "mi_tasks", "md_tasks", "mode_graph"), {}),
        "Allocation": (("mode_id", "assignment"), {}),
        "UtilizationSummary": (("mode_id", "u_sum", "u_max", "per_processor_mi"), {}),
        "DeadlineVerdict": (("task_id", "latency", "passed", "slack", "checked"), {}),
        "ModeVerdict": (
            ("mode_id", "utilization", "bound", "feasible", "evidence", "entry_latency", "deadline_checks",
             "passed"),
            {},
        ),
        "SchemeVerdict": (("modes", "passed"), {}),
        "ProcessorLatency": (("processor", "period_bound", "busy_bound", "effective"), {}),
        "LatencyReport": (("mode_id", "per_processor", "platform_bound"), {}),
        "OptimizationResult": (
            ("mode_id", "best_allocation", "latency_report", "explored_nodes", "proof_of_optimality"), {}
        ),
        "ConstraintRow": (("name", "terms", "sense", "rhs"), {}),
        "MilpDocument": (
            ("mode_id", "big_m", "objective", "constraints", "binary_variables", "integer_variables",
             "continuous_variables", "integer_upper_bounds"),
            {},
        ),
        "FeasibilityVerdict": (("mode_id", "beta", "bound", "u_sum", "feasible", "margin"), {}),
        "KnapsackResult": (("processor", "selected", "packed_wcet", "capacity"), {}),
        "ProcessorBound": (("processor", "selection", "latency"), {}),
        "OnlineEvidence": (("feasibility", "per_processor"), {}),
        "Scenario": (
            ("system", "initial_mode", "allocation_source", "mcr_schedule", "horizon", "release_offsets",
             "static_tables"),
            {"release_offsets": {}, "static_tables": None},
        ),
        "SweepSpec": (("from_mode", "to_mode", "step", "allocation_source"), {}),
        "SimEvent": (("time", "processor", "kind", "task", "job"), {}),
        "TransitionCheck": (("task_id", "mcr_time", "absolute_deadline", "first_completion", "ok"), {}),
        "SimTrace": (("rows", "scale", "latencies", "checks", "job_deadline_misses"), {}),
        "SweepResult": (
            ("max_latency", "at_time", "points", "job_misses", "transition_misses", "bound"), {}
        ),
    }
    for record in records:
        # only ModeSystem keeps an instance dict, for its cached task index and MI loads
        assert isinstance(record, tuple) and hasattr(record, "__dict__") == (record is case_study)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    with pytest.raises(AttributeError):
        case_study.extra = 1


def test_equal_systems_are_equal_records_with_equal_hashes():
    first, second = ms.build_system(case_study_raw()), ms.build_system(case_study_raw())
    assert first is not second and first == second and hash(first) == hash(second)
    # the task index is built on one side only: it takes no part in equality or hash
    assert first.task("tau5").wcet == 7
    assert first == second and hash(first) == hash(second)
    assert first != ms.build_system(case_study_raw(deadline_tau10=149))


def test_task_constructor_still_validates():
    with pytest.raises(ms.SystemValidationError, match="kind must be"):
        ms.Task("x", "XX", 1, 2)
    with pytest.raises(ms.SystemValidationError, match="exceeds period"):
        ms.Task(id="x", kind="MD", wcet=Fraction(3), period=Fraction(2))
    with pytest.raises(ms.SystemValidationError, match="wcet must be positive"):
        ms.Task("x", "MD", 1, 2)._replace(wcet=0)


def test_certify_modes_entry_latency_and_pass_flags(case_study):
    bounds = {"mode1": Fraction(30), "mode2": None}

    def analyze(summary):
        mode_id = summary.mode_id
        return bounds[mode_id], bounds[mode_id] is not None, f"evidence of {mode_id}"

    verdict = ms.certify_modes(case_study, analyze)
    mode1, mode2 = verdict.modes
    assert [m.evidence for m in verdict.modes] == ["evidence of mode1", "evidence of mode2"]
    # mode1 is entered only from the infeasible mode2: no entry latency, no checks
    assert mode1.feasible and mode1.entry_latency is None and mode1.deadline_checks == ()
    assert not mode1.passed
    # mode2 is entered from mode1 at latency 30: tau10 meets 30 + 100 <= 150
    assert mode2.entry_latency == 30 and mode2.deadline_checks[0].slack == 20
    assert not mode2.feasible and not mode2.passed and not verdict.passed
    assert mode2.utilization == ms.utilization_summary(case_study, "mode2")


def test_certify_modes_source_mode_entered_at_zero():
    system = ms.build_system(
        {
            "processors": 1,
            "tasks": [{"id": "x", "kind": "MD", "wcet": 1, "period": 5, "transition_deadline": 5}],
            "modes": [{"id": "m", "md_tasks": ["x"]}],
            "transitions": [],
        }
    )
    verdict = ms.certify_modes(system, lambda summary: (Fraction(7), True, None))
    (mode,) = verdict.modes
    assert mode.bound == 7 and mode.entry_latency == 0 and mode.deadline_checks[0].slack == 0
    assert mode.passed and verdict.passed
