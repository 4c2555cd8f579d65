"""Command-line surface: analyze system files, export MILPs, run simulations.

Commands:
    analyze-offline <system.json> [--report out.json]
    analyze-online  <system.json> [--report out.json]
    simulate        <system.json> <scenario.json> [--trace out.tsv]
    export-milp     <system.json> --mode <id> [--hv <value>] -o <file.lp>

Exit codes: 0 analysis passed, 1 analysis failed (deadline, feasibility or
simulated deadline miss), 2 input or scenario error, 3 internal error.  Any
exception other than an input or scenario error is a bug in modesched: its
traceback goes to stderr and the exit code is 3.

The analyses themselves live in the library (``validate_offline_scheme``,
``validate_online_scheme``); this module only serializes their verdicts.

Reports are deterministic: identical input files produce byte-identical
output, with every number carried both as an exact fraction string and as a
clearly marked decimal approximation.

Each command imports only the layers it runs (``simulate`` alone loads the
simulator), so start-up stays a small part of a one-system command.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
from fractions import Fraction
from typing import Callable, Optional

from .model import (
    BigMError,
    InfeasibleModeError,
    ModeSystem,
    ModeVerdict,
    ScenarioError,
    SchemeVerdict,
    SimulationError,
    SystemValidationError,
    load_system,
    printable,
)

PASS = 0
FAIL = 1
INPUT_ERROR = 2
INTERNAL_ERROR = 3


def _num(value: Optional[Fraction]):
    if value is None:
        return None
    exact = str(printable(value, what="derived value"))
    try:
        approx = float(value)
    except OverflowError:
        raise SystemValidationError(
            f"derived value: a number of magnitude above {sys.float_info.max:.1e} has no float approximation"
        ) from None
    return {"exact": exact, "approx": approx}


def _mode_section(system: ModeSystem, verdict: ModeVerdict, detail: dict) -> dict:
    """A mode's report section: utilization, the scheme's ``detail``, then the verdicts.

    A mode without a bound (an infeasible offline mode) reports no latency
    or deadline checks.
    """
    summary = verdict.utilization
    section = {
        "mode": verdict.mode_id,
        "u_sum": _num(summary.u_sum),
        "u_max": _num(summary.u_max),
        "per_processor_mi": [_num(u) for u in summary.per_processor_mi],
        **detail,
    }
    if verdict.bound is not None:
        section["platform_bound"] = _num(verdict.bound)
        section["entry_latency"] = _num(verdict.entry_latency)
        section["deadline_checks"] = [
            {
                "task": check.task_id,
                "period": _num(system.task(check.task_id).period),
                "transition_deadline": _num(system.task(check.task_id).transition_deadline),
                "latency": _num(check.latency),
                "checked": check.checked,
                "passed": check.passed,
                "slack": _num(check.slack),
            }
            for check in verdict.deadline_checks
        ]
    section["passed"] = verdict.passed
    return section


def _report(
    analysis: str, system: ModeSystem, verdict: SchemeVerdict, detail: Callable[[ModeVerdict], dict]
) -> dict:
    return {
        "analysis": analysis,
        "processors": system.processor_count,
        "modes": [_mode_section(system, mode, detail(mode)) for mode in verdict.modes],
        "passed": verdict.passed,
    }


def _offline_detail(verdict: ModeVerdict) -> dict:
    if not verdict.feasible:
        return {"feasible": False, "unplaceable_task": verdict.evidence.task_id}
    result = verdict.evidence
    assignment = result.best_allocation.assignment
    return {
        "feasible": True,
        "allocation": {tid: assignment[tid] for tid in sorted(assignment)},
        "per_processor": [
            {
                "processor": row.processor,
                "max_period_bound": _num(row.period_bound),
                "busy_period_bound": _num(row.busy_bound),
                "effective": _num(row.effective),
            }
            for row in result.latency_report.per_processor
        ],
    }


def build_offline_report(system: ModeSystem) -> dict:
    """Per-mode optimal allocations, latency bounds and deadline verdicts."""
    from .offline import validate_offline_scheme

    return _report("offline", system, validate_offline_scheme(system), _offline_detail)


def _online_detail(verdict: ModeVerdict) -> dict:
    lopez = verdict.evidence.feasibility
    return {
        "lopez": {
            "beta": lopez.beta,
            "bound": _num(lopez.bound),
            "u_sum": _num(lopez.u_sum),
            "feasible": lopez.feasible,
            "margin": _num(lopez.margin),
        },
        "per_processor": [
            {
                "processor": row.processor,
                "capacity": _num(row.selection.capacity),
                "selected": list(row.selection.selected),
                "packed_wcet": _num(row.selection.packed_wcet),
                "latency": _num(row.latency),
            }
            for row in verdict.evidence.per_processor
        ],
    }


def build_online_report(system: ModeSystem) -> dict:
    """Per-mode First-Fit certification: feasibility test, worst-case latency
    bound (valid for any runtime placement) and deadline verdicts."""
    from .online import validate_online_scheme

    return _report("online", system, validate_online_scheme(system), _online_detail)


def _render_exact(entry) -> str:
    """A report number as text: its exact string, with the decimal
    approximation added when that string is a fraction."""
    if entry is None:
        return "--"
    if "/" not in entry["exact"]:
        return entry["exact"]
    return f"{entry['exact']} (~{entry['approx']:.6g})"


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


def _write_replacing(path: str, write: Callable):
    """``write(handle)`` into a new file beside ``path`` that replaces it once
    ``write`` returns; on any exception that file is removed and ``path`` is
    left as it was.  The new file is opened like ``open(path, "w")``, so it
    gets the same permission bits, and takes those of a file it replaces.  A
    path that is there but no regular file (a device, a pipe, ``/dev/fd/N``)
    is written directly; otherwise a link is followed and its target
    replaced."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            return write(handle)
    path = os.path.realpath(path)
    directory, name = os.path.split(path)
    # at most 48 characters of the name keep the new name within 255 bytes
    partial = os.path.join(directory, f".{name[:48]}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    handle = open(partial, "x", encoding="utf-8")
    try:
        with handle:
            result = write(handle)
        if os.path.isfile(path):
            os.chmod(partial, stat.S_IMODE(os.stat(path).st_mode))
        os.replace(partial, path)
    except BaseException:
        os.remove(partial)
        raise
    return result


def _cmd_simulate(args) -> int:
    from .sim import SweepSpec, load_scenario, run, run_sweep

    system = load_system(args.system)
    scenario = load_scenario(args.scenario, system)

    def simulate(handle) -> tuple[str, int]:
        """Write the full text to ``handle``; return the summary and the miss count."""
        if isinstance(scenario, SweepSpec):
            result = run_sweep(system, scenario)
            summary = (
                f"# sweep\t{scenario.from_mode}\t{scenario.to_mode}\tstep\t{scenario.step}"
                f"\tpoints\t{result.points}\n"
                f"# max-latency\t{result.max_latency}\tat\t{result.at_time}\n"
                f"# deadline-misses\t{result.deadline_misses}\n"
            )
            handle.write(summary)
            return summary, result.deadline_misses
        trace = run(scenario, out=handle)
        return trace.footer(), trace.deadline_miss_count

    if args.trace:
        summary, misses = _write_replacing(args.trace, simulate)
        sys.stdout.write(summary)
    elif isinstance(scenario, SweepSpec):
        _, misses = simulate(sys.stdout)
    else:
        # a refused run prints nothing: the trace reaches stdout only once it is whole
        import shutil
        import tempfile

        with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as handle:
            _, misses = simulate(handle)
            handle.seek(0)
            shutil.copyfileobj(handle, sys.stdout)
    return FAIL if misses else PASS


def _cmd_export_milp(args) -> int:
    from .offline import export_milp

    system = load_system(args.system)
    document = export_milp(system, args.mode, big_m=args.hv)
    text = document.to_lp()
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(text)
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
    except Exception:
        import traceback

        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
