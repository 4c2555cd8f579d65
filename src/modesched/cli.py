"""Command-line surface: analyze system files, export MILPs, run simulations.

Commands:
    modesched analyze-offline <system.json> [--report <out.json>]
    modesched analyze-online  <system.json> [--report <out.json>]
    modesched simulate        <system.json> <scenario.json> [--trace <out.tsv>]
    modesched export-milp     <system.json> --mode <id> [--hv <value>] -o <file.lp>
    modesched -h | --help
  Options go anywhere after the command, as --name value or --name=value;
  -o is short for --output, and a repeated option keeps its last value.

The block above is the usage text.  ``-h`` or ``--help`` anywhere prints it
to stdout and exits 0.  Any other argument list that it does not accept is a
usage error: the usage and ``error: <what>`` go to stderr, and the exit code
is 2.  The ``_COMMANDS`` table both parses and dispatches, so no command
imports argparse or gettext.

Every output file (``--report``, ``--trace``, the LP of ``-o``) is written
by ``_write_replacing``: a failed command leaves an existing file as it was.

Exit codes: 0 analysis passed, 1 analysis failed (deadline, feasibility or
simulated deadline miss), 2 usage, input or scenario error, 3 internal error.
Any exception other than an input or scenario error is a bug in modesched:
its traceback goes to stderr and the exit code is 3.

The analyses themselves live in the library (``validate_offline_scheme``,
``validate_online_scheme``); this module only serializes their verdicts.

Reports are deterministic: identical input files produce byte-identical
output, with every number carried both as an exact fraction string and as a
clearly marked decimal approximation.  ``_json_text`` writes them as
``json.dumps(report, indent=2)`` does, without its pure-Python encoder.

Each command imports only the layers it runs (``simulate`` alone loads the
simulator), so start-up stays a small part of a one-system command.
"""

from __future__ import annotations

import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
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
    _quote,
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


def _cmd_analyze(args, builder) -> int:
    system = load_system(args.system)
    report = builder(system)
    text = render_report(report)
    if args.report:  # a report that cannot be written prints nothing
        _write_replacing(args.report, lambda handle: handle.write(_json_text(report) + "\n"))
    sys.stdout.write(text)
    return PASS if report["passed"] else FAIL


def _json_text(value) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it, byte for byte.

    The standard encoder has no C path for indented output, so this writes
    the text directly.  It takes dicts with string keys, lists, strings,
    bools, ints, finite floats and None; any other type raises TypeError.
    """
    chunks: list[str] = []
    _put_json(value, "\n", chunks.append)
    return "".join(chunks)


def _put_json(value, newline: str, put: Callable[[str], None]) -> None:
    """``put`` the text of ``value``, each of its lines after the first
    started by ``newline`` (a line break and the current indent)."""
    if isinstance(value, str):
        put(encode_basestring_ascii(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(int.__repr__(value))
    elif isinstance(value, float):
        put(float.__repr__(value))
    elif isinstance(value, dict):
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            put(f"{separator}{encode_basestring_ascii(key)}: ")
            _put_json(item, inner, put)
            separator = "," + inner
        put(newline + "}" if value else "{}")
    elif isinstance(value, list):
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            put(separator)
            _put_json(item, inner, put)
            separator = "," + inner
        put(newline + "]" if value else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_replacing(path: str, write: Callable):
    """``write(handle)`` into a new file beside ``path`` that replaces it once
    ``write`` returns; on any exception that file is removed and ``path`` is
    left as it was.  The new file is opened like ``open(path, "w")``, so it
    gets the same permission bits, and takes those of a file it replaces.  A
    path that is there but no regular file (a device, a pipe, ``/dev/fd/N``)
    is written directly; otherwise a link is followed and its target
    replaced.  A new file that cannot be opened is reported under ``path``."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as handle:
            return write(handle)
    given, path = path, os.path.realpath(path)
    directory, name = os.path.split(path)
    # at most 48 characters of the name keep the new name within 255 bytes
    partial = os.path.join(directory, f".{name[:48]}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        handle = open(partial, "x", encoding="utf-8")
    except OSError as exc:  # the user named ``given``, not the new file
        raise OSError(exc.errno, exc.strerror, given) from None
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


class _LastWrite:
    """A text handle that passes each write on to ``handle`` and keeps the last."""

    def __init__(self, handle):
        self.handle, self.last = handle, ""

    def write(self, text: str) -> int:
        self.last = text
        return self.handle.write(text)


def _cmd_simulate(args) -> int:
    from .sim import SweepSpec, load_scenario, run, run_sweep

    system = load_system(args.system)
    scenario = load_scenario(args.scenario, system)

    def simulate(handle) -> tuple[str, int]:
        """Write the full text to ``handle``; return the summary and the miss count."""
        if isinstance(scenario, SweepSpec):
            result = run_sweep(system, scenario)
            latency = printable(result.max_latency, what="max latency")
            at_time = printable(result.at_time, what="sweep time")
            summary = (
                f"# sweep\t{scenario.from_mode}\t{scenario.to_mode}\tstep\t{scenario.step}"
                f"\tpoints\t{result.points}\n"
                f"# max-latency\t{latency}\tat\t{at_time}\n"
                f"# deadline-misses\t{result.deadline_misses}\n"
            )
            handle.write(summary)
            return summary, result.deadline_misses
        text = _LastWrite(handle)
        trace = run(scenario, out=text)
        return text.last, trace.deadline_miss_count  # the footer, written last

    if args.trace:
        summary, misses = _write_replacing(args.trace, simulate)
        sys.stdout.write(summary)
    else:
        # a refused run or sweep prints nothing: its text reaches stdout only once it is whole
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
    _write_replacing(args.output, lambda handle: handle.write(text))
    sys.stdout.write(
        f"wrote {args.output}: {document.constraint_count} constraints, "
        f"{document.binary_count} binaries, {len(document.integer_variables)} integers\n"
    )
    return PASS


# command -> (its positional names, {option: dest}, the dests it requires, its handler);
# the analysis handlers look their report builder up when called, so that a replaced module attribute takes effect
_COMMANDS = {
    "analyze-offline": (
        ("system",), {"--report": "report"}, (), lambda args: _cmd_analyze(args, build_offline_report)
    ),
    "analyze-online": (
        ("system",), {"--report": "report"}, (), lambda args: _cmd_analyze(args, build_online_report)
    ),
    "simulate": (("system", "scenario"), {"--trace": "trace"}, (), _cmd_simulate),
    "export-milp": (
        ("system",),
        {"--mode": "mode", "--hv": "hv", "-o": "output", "--output": "output"},
        ("mode", "output"),
        _cmd_export_milp,
    ),
}
# the docstring's ``Commands:`` block; only its heading under ``python -OO``, which strips docstrings
_USAGE = "Commands:" + (__doc__ or "").partition("Commands:")[2].partition("\n\n")[0] + "\n"


class _UsageError(Exception):
    """An argument list that ``_COMMANDS`` does not accept."""


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command, its positionals and its options (``None`` when not given)."""
    if not argv or argv[0] not in _COMMANDS:
        raise _UsageError(f"unknown command {_quote(argv[0])}" if argv else "no command given")
    command, words = argv[0], iter(argv[1:])
    positionals, options, required, _ = _COMMANDS[command]
    args = SimpleNamespace(command=command, **dict.fromkeys(options.values()))
    given = []
    for word in words:
        if word == "-" or not word.startswith("-"):
            given.append(word)
            continue
        flag, equals, value = word.partition("=") if word.startswith("--") else (word, "", "")
        if flag not in options:
            raise _UsageError(f"{command}: unknown option {_quote(flag)}")
        if not equals:
            value = next(words, None)
            if value is None:
                raise _UsageError(f"{command}: option {flag} needs a value")
        setattr(args, options[flag], value)
    if len(given) > len(positionals):
        raise _UsageError(f"{command}: unexpected argument {_quote(given[len(positionals)])}")
    if len(given) < len(positionals):
        raise _UsageError(f"{command}: missing argument <{positionals[len(given)]}>")
    for dest in required:
        if getattr(args, dest) is None:
            raise _UsageError(f"{command}: missing option --{dest}")
    vars(args).update(zip(positionals, given))
    return args


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(_USAGE)
        return PASS
    try:
        args = _parse(argv)
    except _UsageError as exc:
        sys.stderr.write(f"{_USAGE}error: {exc}\n")
        return INPUT_ERROR
    try:
        return _COMMANDS[args.command][-1](args)
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
