"""Acceptance gate: one test per numbered criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line.  Criterion 9
checks the exported Mode-1 LP against the row families that ``export_milp``
documents: one assignment equality per MD task and, per processor, a
utilization row, one busy-end row per resident MI task, one ``sel2`` row and
one ``sel1`` row per MD task -- |M|*(m+1) + |I| + 2*m rows, 23 on Mode 1.  It
once required m*(n+2) rows with n = |I| + |M|.  That tally agrees with the
documented families only when |M| = (m-1)*|I|: on Mode 1 it asks for 22 rows
against 23, on Mode 2 for 14 against 11.  It has no term for the |M|
assignment equalities: the layout it does count (one row per task and
processor, plus two per processor) leaves them out, and without them the
exported program's optimum is 0 on both modes instead of 40 and 85 (see
``test_external_optimum_needs_assignment_rows`` in ``test_offline.py``).
"""

import itertools
import random
import time
from fractions import Fraction

import modesched as ms
from modesched.cli import build_offline_report
from conftest import (
    SAMPLES,
    brute_force_optimal,
    case_study_raw,
    drain_instant,
    incumbent_values,
    knapsack_brute,
    parse_lp_rows,
    random_system,
    row_holds,
    violated_rows,
)


def _verdict(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_offline_mode1_optimum(case_study):
    started = time.perf_counter()
    report = build_offline_report(case_study)
    elapsed = time.perf_counter() - started
    result = ms.solve_optimal(case_study, "mode1")
    reported = Fraction(report["modes"][0]["platform_bound"]["exact"])

    md = case_study.md_tasks_of("mode1")
    feasible_bounds = []
    for combo in itertools.product((1, 2), repeat=5):
        allocation = ms.Allocation("mode1", {t.id: p for t, p in zip(md, combo)})
        try:
            ms.validate_allocation(case_study, allocation)
        except ms.AllocationError:
            continue
        feasible_bounds.append(ms.analyze_allocation(case_study, "mode1", allocation).platform_bound)

    ok = (
        result.optimal_latency == 40
        and reported == 40
        and elapsed < 1.0
        and min(feasible_bounds) == 40
        and all(b >= 40 for b in feasible_bounds)
    )
    _verdict(
        1,
        ok,
        f"offline Mode-1 optimum L={result.optimal_latency} in {elapsed * 1000:.1f} ms; "
        f"exhaustive oracle over {len(feasible_bounds)} feasible of 32 assignments agrees",
    )


def test_criterion_2_offline_mode2_optimum(case_study):
    result = ms.solve_optimal(case_study, "mode2")
    report = ms.analyze_allocation(case_study, "mode2", result.best_allocation)
    row = report.per_processor[1]
    ok = (
        result.best_allocation.assignment == {"tau10": 2}
        and result.optimal_latency == 85
        and row.period_bound == 100
        and row.busy_bound == 85
    )
    _verdict(
        2,
        ok,
        f"tau10 -> processor {result.best_allocation.assignment['tau10']}, L={result.optimal_latency}, "
        f"bounds ({row.period_bound}, {row.busy_bound})",
    )


def test_criterion_3_busy_period_regression(case_study):
    stated = ms.Allocation("mode1", {"tau5": 1, "tau6": 1, "tau7": 2, "tau8": 2, "tau9": 2})
    report = ms.analyze_allocation(case_study, "mode1", stated)
    first, second = report.per_processor
    busy_values = (
        ms.busy_period(Fraction(8), case_study.mi_on(1)),
        ms.busy_period(Fraction(6), case_study.mi_on(2)),
    )
    # the max-period bounds follow the formula for this placement (40 and 30);
    # they are asserted as computed
    ok = (
        busy_values == (48, 41)
        and (first.busy_bound, second.busy_bound) == (48, 41)
        and (first.period_bound, second.period_bound) == (40, 30)
    )
    _verdict(
        3,
        ok,
        f"busy periods ({busy_values[0]}, {busy_values[1]}) for the stated placement; "
        f"period bounds computed as ({first.period_bound}, {second.period_bound})",
    )


def test_criterion_4_online_feasibility(case_study):
    one = ms.lopez_test(case_study, "mode1")
    two = ms.lopez_test(case_study, "mode2")
    ok = (
        (one.beta, one.bound, one.feasible) == (3, Fraction(7, 4), True)
        and (two.beta, two.bound, two.feasible) == (2, Fraction(5, 3), True)
    )
    _verdict(4, ok, f"mode1 (beta={one.beta}, bound={one.bound}), mode2 (beta={two.beta}, bound={two.bound})")


def test_criterion_5_online_latency_bound(case_study):
    detail = ms.transition_bound_detail(case_study, "mode1")
    first, second = detail
    ok = (
        first.selection.selected == ("tau5", "tau9")
        and first.selection.packed_wcet == 10
        and first.latency == 50
        and second.selection.packed_wcet == 14
        and len(second.selection.selected) == 5
        and second.latency == 49
        and ms.latency_upper_bound(case_study, "mode1") == 50
        and ms.latency_upper_bound(case_study, "mode2") == 85
    )
    _verdict(
        5,
        ok,
        f"mode1: z=({first.selection.packed_wcet}, {second.selection.packed_wcet}), "
        f"latencies ({first.latency}, {second.latency}), bound 50; mode2 bound 85",
    )


def test_criterion_6_deadline_checks(case_study):
    tau10 = case_study.task("tau10")
    offline_check = ms.check_transition_deadline(tau10, 40)
    online_check = ms.check_transition_deadline(tau10, 50)
    flipped = ms.validate_online_scheme(ms.build_system(case_study_raw(deadline_tau10=149)))
    flipped_mode2 = [v for v in flipped.modes if v.mode_id == "mode2"][0]
    flipped_tau10 = [c for c in flipped_mode2.deadline_checks if c.task_id == "tau10"][0]
    ok = (
        offline_check.passed and offline_check.slack == 10
        and online_check.passed and online_check.slack == 0
        and not flipped.passed
        and not flipped_tau10.passed and flipped_tau10.slack == -1
    )
    _verdict(
        6,
        ok,
        f"slacks {offline_check.slack} and {online_check.slack}; deadline 149 flips the online "
        f"verdict (slack {flipped_tau10.slack})",
    )


def test_criterion_7_protocol_replay():
    system = ms.load_system(SAMPLES / "two_proc_handover.json")
    scenario = ms.load_scenario(SAMPLES / "handover_mcr7.json", system)
    trace = ms.run(scenario)
    (mcr_time, latency) = trace.observed_latencies[0]
    check = trace.transition_checks[0]
    ok = (
        (mcr_time, latency) == (7, 4)
        and check.task_id == "tau5"
        and check.first_completion == 15
        and check.absolute_deadline == 18
        and check.ok
        and trace.deadline_miss_count == 0
    )
    _verdict(
        7,
        ok,
        f"latency {latency} at MCR {mcr_time}; first completion {check.first_completion} <= "
        f"{check.absolute_deadline}; misses {trace.deadline_miss_count}",
    )


def test_criterion_8_property_suite():
    started = time.perf_counter()

    # (a) exact search equals brute-force enumeration on >= 200 random systems
    rng = random.Random(80081)
    systems_checked = 0
    modes_compared = 0
    while systems_checked < 200:
        system = random_system(rng, md_heavy=(systems_checked % 3 == 0))
        systems_checked += 1
        for mode_id in system.mode_ids():
            if len(system.md_tasks_of(mode_id)) > 6:
                continue
            expected = brute_force_optimal(system, mode_id)
            if expected is None:
                try:
                    ms.solve_optimal(system, mode_id)
                    assert False, f"search found a solution where enumeration found none ({mode_id})"
                except ms.InfeasibleModeError:
                    pass
            else:
                assert ms.solve_optimal(system, mode_id).optimal_latency == expected
            modes_compared += 1

    # (b) knapsack equals exhaustive subset enumeration for pools up to 15
    rng_b = random.Random(80082)
    pools_checked = 0
    for round_no in range(45):
        size = 15 if round_no >= 42 else rng_b.randint(1, 12)
        tasks = []
        for i in range(size):
            period = rng_b.randint(2, 30)
            tasks.append(
                ms.Task(id=f"k{i:02d}", kind="MD", wcet=Fraction(rng_b.randint(1, period)), period=Fraction(period))
            )
        capacity = Fraction(rng_b.randint(0, 40), 40)
        pad = [
            {"id": "pad", "kind": "MI", "wcet": (1 - capacity).numerator,
             "period": (1 - capacity).denominator, "processor": 1}
        ] if capacity != 1 else []
        host = ms.build_system(
            {
                "processors": 1,
                "tasks": pad + [{"id": t.id, "kind": "MD", "wcet": t.wcet, "period": t.period} for t in tasks],
                "modes": [{"id": "m", "md_tasks": [t.id for t in tasks]}],
                "transitions": [],
            }
        )
        result = ms.transition_bound_detail(host, "m")[0].selection
        assert result.capacity == capacity
        assert result.packed_wcet == knapsack_brute([(t.wcet, t.utilization) for t in tasks], capacity)
        pools_checked += 1

    # (c) the busy-period fixed point equals the simulated critical-instant drain
    rng_c = random.Random(80083)
    drains_checked = 0
    for _ in range(30):
        mi_tasks, md_tasks = [], []
        spare = Fraction(9, 10)
        for i in range(rng_c.randint(0, 3)):
            period = rng_c.choice((4, 5, 6, 8, 10, 12))
            ceiling = int(spare * period)
            if ceiling < 1:
                continue
            wcet = rng_c.randint(1, ceiling)
            spare -= Fraction(wcet, period)
            mi_tasks.append({"id": f"mi{i}", "kind": "MI", "wcet": wcet, "period": period, "processor": 1})
        for i in range(rng_c.randint(1, 3)):
            period = rng_c.choice((6, 8, 10, 12, 15))
            ceiling = int(spare * period)
            if ceiling < 1:
                continue
            wcet = rng_c.randint(1, ceiling)
            spare -= Fraction(wcet, period)
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
        trace = ms.run(
            ms.make_scenario(system, "drain", "offline-table", [(0, "idle")], horizon=expected + 40)
        )
        assert drain_instant(trace) == expected
        drains_checked += 1

    # (d) swept MCR times: simulation never exceeds the applicable bound and
    # never contradicts a certified verdict.  Certification is made bite by
    # attaching transition deadlines at or near zero slack.  Transient
    # job-deadline misses inside the switching window are a separate,
    # documented phenomenon (see the transient-overload regression) and are
    # reported, not asserted away.
    rng_d = random.Random(80084)
    sweeps = 0
    certified = 0
    transition_misses = 0
    job_misses_observed = 0
    while certified < 8:
        base = random_system(rng_d, ff_mi=True)
        try:
            bounds = {m: ms.latency_upper_bound(base, m) for m in base.mode_ids()}
        except ArithmeticError:
            continue
        entry = {
            mode_id: max(
                (bounds[p] for p in base.mode_graph.predecessors(mode_id)), default=Fraction(0)
            )
            for mode_id in base.mode_ids()
        }
        raw_tasks = [
            {"id": t.id, "kind": "MI", "wcet": str(t.wcet), "period": str(t.period),
             "processor": t.home_processor}
            for t in base.mi_tasks
        ]
        for mode_id in base.mode_ids():
            for t in base.md_tasks_of(mode_id):
                deadline = entry[mode_id] + t.period + rng_d.choice((0, 0, 1, 5))
                raw_tasks.append(
                    {"id": t.id, "kind": "MD", "wcet": str(t.wcet), "period": str(t.period),
                     "transition_deadline": str(deadline)}
                )
        system = ms.build_system(
            {
                "processors": base.processor_count,
                "tasks": raw_tasks,
                "modes": [{"id": m, "md_tasks": list(base.mode(m).md_tasks)} for m in base.mode_ids()],
                "transitions": [["alpha", "beta"], ["beta", "alpha"]],
            }
        )
        if not ms.validate_online_scheme(system).passed:
            continue
        certified += 1
        for source, destination in (("alpha", "beta"), ("beta", "alpha")):
            end = min(ms.hyperperiod(system.mi_tasks + system.md_tasks_of(source)), 100)
            online = ms.sweep_mcr(system, "online-ffd", (source, destination), range(0, int(end)))
            assert online.max_latency <= ms.latency_upper_bound(system, source)
            transition_misses += online.transition_misses
            job_misses_observed += online.job_misses
            sweeps += online.points
            try:
                static_bound = ms.solve_optimal(system, source).optimal_latency
                ms.solve_optimal(system, destination)
            except ms.InfeasibleModeError:
                continue
            static = ms.sweep_mcr(system, "offline-table", (source, destination), range(0, int(end)))
            assert static.max_latency <= static_bound
            transition_misses += static.transition_misses
            job_misses_observed += static.job_misses
            sweeps += static.points

    elapsed = time.perf_counter() - started
    ok = (
        modes_compared >= 200
        and pools_checked == 45
        and drains_checked >= 15
        and sweeps >= 400
        and transition_misses == 0
    )
    _verdict(
        8,
        ok,
        f"(a) {modes_compared} modes over {systems_checked} systems match enumeration; "
        f"(b) {pools_checked} knapsack pools match 2^n; (c) {drains_checked} critical-instant drains match; "
        f"(d) {sweeps} swept simulations within bounds on {certified} certified systems, "
        f"0 certified-verdict (transition-deadline) misses required, got {transition_misses}; "
        f"transient job-deadline misses observed: {job_misses_observed} (documented phenomenon); "
        f"{elapsed:.1f} s",
    )


def test_criterion_9_milp_export_fidelity(case_study):
    document = ms.export_milp(case_study, "mode1")
    text = document.to_lp()
    rows = parse_lp_rows(text)
    allocation = ms.solve_optimal(case_study, "mode1").best_allocation
    values = incumbent_values(case_study, "mode1", allocation)
    violations = [name for name, terms, sense, rhs in rows if not row_holds(terms.items(), sense, rhs, values)]

    m = len(case_study.processors)
    md = case_study.md_tasks_of("mode1")
    mi = case_study.mi_tasks
    # documented families, |M|(m+1)+|I|+2m rows in all: assignment, utilization,
    # busy-end (one per resident MI task), sel2, sel1
    expected_families = {
        "assign_": len(md), "util_": m, "end_": len(mi), "sel2_": m, "sel1_": m * len(md),
    }
    target_count = sum(expected_families.values())
    families = {
        prefix: sum(1 for name, *_ in rows if name.startswith(prefix)) for prefix in expected_families
    }
    binaries_ok = document.binary_count == 2 * (5 + 1)
    incumbent_ok = not violations and violated_rows(document, values) == ()
    count_ok = len(rows) == target_count and families == expected_families

    ok = count_ok and binaries_ok and incumbent_ok
    _verdict(
        9,
        ok,
        f"rows {len(rows)} (required |M|(m+1)+|I|+2m={target_count}), families {families}, "
        f"binaries {document.binary_count}, incumbent violations {violations!r}",
    )
