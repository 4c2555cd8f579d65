"""Command-line surface: analyze system files, export MILPs, run simulations.

Commands:
    analyze-offline <system.json> [--report out.json]
    analyze-online  <system.json> [--report out.json]
    simulate        <system.json> <scenario.json> [--trace out.tsv]
    export-milp     <system.json> --mode <id> [--hv <value>] -o <file.lp>

Exit codes: 0 analysis passed, 1 analysis failed (deadline, feasibility or
simulated deadline miss), 2 input or scenario error.  Any other exception is
a bug in modesched and propagates with its traceback.

Reports are deterministic: identical input files produce byte-identical
output, with every number carried both as an exact fraction string and as a
clearly marked decimal approximation.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from .model import (
    ModeSystem,
    SystemValidationError,
    check_transition_deadline,
    load_system,
    utilization_summary,
    worst_predecessor_latency,
)
from .latency import analyze_allocation
from .offline import BigMError, InfeasibleModeError, export_milp, solve_optimal
from .online import lopez_test, transition_bound_detail
from .sim import (
    ScenarioError,
    SimulationError,
    SweepSpec,
    load_scenario,
    run,
    run_sweep,
)

PASS = 0
FAIL = 1
INPUT_ERROR = 2


def _num(value: Optional[Fraction]):
    if value is None:
        return None
    return {"exact": str(value), "approx": float(value)}


def _fmt(value: Optional[Fraction]) -> str:
    if value is None:
        return "--"
    if value.denominator == 1:
        return str(value)
    return f"{value} (~{float(value):.6g})"


def _deadline_check_rows(system: ModeSystem, mode_id: str, entry_latency: Fraction) -> list[dict]:
    rows = []
    for task in system.md_tasks_of(mode_id):
        verdict = check_transition_deadline(task, entry_latency)
        rows.append(
            {
                "task": task.id,
                "period": _num(task.period),
                "transition_deadline": _num(task.transition_deadline),
                "latency": _num(entry_latency),
                "checked": verdict.checked,
                "passed": verdict.passed,
                "slack": _num(verdict.slack),
            }
        )
    return rows


def _mode_header(system: ModeSystem, mode_id: str) -> dict:
    summary = utilization_summary(system, mode_id)
    return {
        "mode": mode_id,
        "u_sum": _num(summary.u_sum),
        "u_max": _num(summary.u_max),
        "per_processor_mi": [_num(u) for u in summary.per_processor_mi],
    }


def build_offline_report(system: ModeSystem) -> dict:
    """Per-mode optimal allocations, latency bounds and deadline verdicts."""
    latency_by_mode: dict[str, Optional[Fraction]] = {}
    solutions = {}
    unplaceable = {}
    for mode_id in system.mode_ids():
        try:
            result = solve_optimal(system, mode_id)
            solutions[mode_id] = result
            latency_by_mode[mode_id] = result.optimal_latency
        except InfeasibleModeError as exc:
            unplaceable[mode_id] = exc.task_id
            latency_by_mode[mode_id] = None

    modes = []
    for mode_id in system.mode_ids():
        section = _mode_header(system, mode_id)
        if mode_id in unplaceable:
            section["feasible"] = False
            section["unplaceable_task"] = unplaceable[mode_id]
            section["passed"] = False
            modes.append(section)
            continue
        result = solutions[mode_id]
        report = analyze_allocation(system, mode_id, result.best_allocation)
        section["feasible"] = True
        section["allocation"] = {
            tid: result.best_allocation.assignment[tid]
            for tid in sorted(result.best_allocation.assignment)
        }
        section["explored_nodes"] = result.explored_nodes
        section["per_processor"] = [
            {
                "processor": row.processor,
                "max_period_bound": _num(row.period_bound),
                "busy_period_bound": _num(row.busy_bound),
                "effective": _num(row.effective),
            }
            for row in report.per_processor
        ]
        section["platform_bound"] = _num(report.platform_bound)

        predecessors = system.mode_graph.predecessors(mode_id)
        if any(latency_by_mode[p] is None for p in predecessors):
            section["entry_latency"] = None
            section["deadline_checks"] = []
            section["passed"] = False
        else:
            entry = worst_predecessor_latency(system, mode_id, latency_by_mode)
            section["entry_latency"] = _num(entry)
            section["deadline_checks"] = _deadline_check_rows(system, mode_id, entry)
            section["passed"] = all(c["passed"] for c in section["deadline_checks"])
        modes.append(section)

    return {
        "analysis": "offline",
        "processors": system.processor_count,
        "modes": modes,
        "passed": all(m["passed"] for m in modes),
    }


def build_online_report(system: ModeSystem) -> dict:
    """Per-mode First-Fit certification: feasibility test, worst-case latency
    bound (valid for any runtime placement) and deadline verdicts."""
    bounds: dict[str, Fraction] = {}
    details = {}
    for mode_id in system.mode_ids():
        detail = transition_bound_detail(system, mode_id)
        details[mode_id] = detail
        bounds[mode_id] = max((row.latency for row in detail), default=Fraction(0))

    modes = []
    for mode_id in system.mode_ids():
        section = _mode_header(system, mode_id)
        verdict = lopez_test(system, mode_id)
        section["lopez"] = {
            "beta": verdict.beta,
            "bound": _num(verdict.bound),
            "u_sum": _num(verdict.u_sum),
            "feasible": verdict.feasible,
            "margin": _num(verdict.margin),
        }
        section["per_processor"] = [
            {
                "processor": row.processor,
                "capacity": _num(row.selection.capacity),
                "selected": list(row.selection.selected),
                "packed_wcet": _num(row.selection.packed_wcet),
                "latency": _num(row.latency),
            }
            for row in details[mode_id]
        ]
        section["platform_bound"] = _num(bounds[mode_id])
        entry = worst_predecessor_latency(system, mode_id, bounds)
        section["entry_latency"] = _num(entry)
        section["deadline_checks"] = _deadline_check_rows(system, mode_id, entry)
        section["passed"] = verdict.feasible and all(c["passed"] for c in section["deadline_checks"])
        modes.append(section)

    return {
        "analysis": "online",
        "processors": system.processor_count,
        "modes": modes,
        "passed": all(m["passed"] for m in modes),
    }


def _render_exact(entry) -> str:
    if entry is None:
        return "--"
    value = Fraction(entry["exact"])
    return _fmt(value)


def render_report(report: dict) -> str:
    """Human-readable summary of an analysis report."""
    lines = [f"{report['analysis']} analysis, {report['processors']} processors"]
    for section in report["modes"]:
        lines.append("")
        lines.append(f"Mode {section['mode']}")
        lines.append(
            f"  U_sum = {_render_exact(section['u_sum'])}   U_max = {_render_exact(section['u_max'])}"
        )
        mi = "  ".join(
            f"pi_{p + 1}={_render_exact(u)}" for p, u in enumerate(section["per_processor_mi"])
        )
        lines.append(f"  MI utilization: {mi}")
        if not section.get("feasible", True):
            lines.append(f"  INFEASIBLE: task {section['unplaceable_task']} fits on no processor")
            continue
        if "lopez" in section:
            lf = section["lopez"]
            outcome = "pass" if lf["feasible"] else "FAIL"
            lines.append(
                f"  first-fit feasibility: beta={lf['beta']} bound={_render_exact(lf['bound'])}"
                f" U_sum={_render_exact(lf['u_sum'])} -> {outcome}"
            )
            lines.append("  worst-case packing per processor:")
            for row in section["per_processor"]:
                selected = " ".join(row["selected"]) if row["selected"] else "-"
                lines.append(
                    f"    pi_{row['processor']}: capacity {_render_exact(row['capacity'])}"
                    f"  selected [{selected}]  demand {_render_exact(row['packed_wcet'])}"
                    f"  latency {_render_exact(row['latency'])}"
                )
        else:
            placement = " ".join(
                f"{tid}->pi_{p}" for tid, p in section["allocation"].items()
            )
            lines.append(f"  optimal allocation: {placement if placement else '(no MD tasks)'}")
            lines.append("  processor   max-T bound   busy bound   effective")
            for row in section["per_processor"]:
                lines.append(
                    f"    pi_{row['processor']:<9}{_render_exact(row['max_period_bound']):<14}"
                    f"{_render_exact(row['busy_period_bound']):<13}{_render_exact(row['effective'])}"
                )
        lines.append(f"  platform latency bound L = {_render_exact(section['platform_bound'])}")
        if section["entry_latency"] is None:
            lines.append("  entry latency: unavailable (an infeasible predecessor)")
        else:
            lines.append(f"  worst entry latency: {_render_exact(section['entry_latency'])}")
            for check in section["deadline_checks"]:
                if not check["checked"]:
                    lines.append(f"    {check['task']}: no transition deadline (unchecked)")
                    continue
                outcome = "pass" if check["passed"] else "FAIL"
                lines.append(
                    f"    {check['task']}: {_render_exact(check['latency'])} +"
                    f" {_render_exact(check['period'])} <= {_render_exact(check['transition_deadline'])}"
                    f"  {outcome} (slack {_render_exact(check['slack'])})"
                )
        lines.append(f"  mode verdict: {'pass' if section['passed'] else 'FAIL'}")
    lines.append("")
    lines.append(f"GLOBAL: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def _write_report(report: dict, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")


def _cmd_analyze(args, builder) -> int:
    system = load_system(args.system)
    report = builder(system)
    sys.stdout.write(render_report(report))
    _write_report(report, args.report)
    return PASS if report["passed"] else FAIL


def _cmd_simulate(args) -> int:
    system = load_system(args.system)
    scenario = load_scenario(args.scenario, system)
    if isinstance(scenario, SweepSpec):
        result = run_sweep(system, scenario)
        text = (
            f"# sweep\t{scenario.from_mode}\t{scenario.to_mode}\tstep\t{scenario.step}"
            f"\tpoints\t{result.points}\n"
            f"# max-latency\t{result.max_latency}\tat\t{result.at_time}\n"
            f"# deadline-misses\t{result.deadline_misses}\n"
        )
        misses = result.deadline_misses
    else:
        trace = run(scenario)
        text = trace.to_text()
        misses = trace.deadline_miss_count
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            handle.write(text)
        summary = [line for line in text.splitlines() if line.startswith("#")]
        sys.stdout.write("\n".join(summary) + "\n")
    else:
        sys.stdout.write(text)
    return FAIL if misses else PASS


def _cmd_export_milp(args) -> int:
    system = load_system(args.system)
    document = export_milp(system, args.mode, big_m=args.hv)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(document.to_lp())
    sys.stdout.write(
        f"wrote {args.output}: {document.constraint_count} constraints, "
        f"{document.binary_count} binaries, {len(document.integer_variables)} integers\n"
    )
    return PASS


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="modesched",
        description="Analysis of multimode partitioned-EDF real-time systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("analyze-offline", help="optimal static allocation per mode")
    p_off.add_argument("system")
    p_off.add_argument("--report", help="write the JSON report here")

    p_on = sub.add_parser("analyze-online", help="certify online First-Fit allocation")
    p_on.add_argument("system")
    p_on.add_argument("--report", help="write the JSON report here")

    p_sim = sub.add_parser("simulate", help="run the mode-change protocol simulator")
    p_sim.add_argument("system")
    p_sim.add_argument("scenario")
    p_sim.add_argument("--trace", help="write the event trace here")

    p_lp = sub.add_parser("export-milp", help="write the allocation MILP in LP format")
    p_lp.add_argument("system")
    p_lp.add_argument("--mode", required=True)
    p_lp.add_argument("--hv", help="disjunction big-M constant (default derived from the mode)")
    p_lp.add_argument("-o", "--output", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze-offline":
            return _cmd_analyze(args, build_offline_report)
        if args.command == "analyze-online":
            return _cmd_analyze(args, build_online_report)
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_export_milp(args)
    except (
        SystemValidationError, InfeasibleModeError, BigMError, ScenarioError, SimulationError, OSError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
