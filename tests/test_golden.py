"""Golden analysis reports and simulator traces: the exact bytes the CLI writes.

For each system below, ``analyze-offline`` and ``analyze-online`` must
reproduce the pinned JSON report, the pinned stdout and the pinned exit code
byte for byte; for each scenario below, ``simulate --trace`` must reproduce
the pinned trace file, stdout and exit code, and for each sweep below,
``simulate`` must reproduce the pinned stdout and exit code.  The goldens live in
``tests/golden/``; after a deliberate change to the report or trace format,
rewrite them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from modesched.cli import main
from conftest import SAMPLES, case_study_raw, infeasible_mode_raw

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("analyze-offline", "analyze-online")


CASES = {
    "case_study": "case_study.json",
    "deadline_tau10_149": lambda: case_study_raw(deadline_tau10=149),
    "infeasible_mode": infeasible_mode_raw,
    # mode2's utilization exceeds the First-Fit guarantee bound
    "tau10_wcet90": lambda: case_study_raw(wcet_tau10=90),
}


def _input_file(source, path: Path) -> str:
    """``source`` is a samples/ file name or a builder of the JSON document."""
    if isinstance(source, str):
        return str(SAMPLES / source)
    path.write_text(json.dumps(source(), indent=1), encoding="utf-8")
    return str(path)


def _system_file(case: str, workdir: Path) -> str:
    return _input_file(CASES[case], workdir / f"{case}.json")


def _analyze(case: str, command: str, workdir: Path) -> tuple[int, bytes, bytes]:
    """Exit code, report bytes and stdout bytes of one CLI run."""
    report = workdir / f"{case}.{command}.report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, _system_file(case, workdir), "--report", str(report)])
    return code, report.read_bytes(), stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_match_golden(case, command, tmp_path):
    code, report, stdout = _analyze(case, command, tmp_path)
    exit_codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[f"{case}.{command}"]
    assert report == (GOLDEN / f"{case}.{command}.json").read_bytes()
    assert stdout == (GOLDEN / f"{case}.{command}.stdout").read_bytes()


# scenarios for ``simulate --trace``: (system, scenario), inputs as for _input_file
MIXED_DENOMINATORS_SYSTEM = {
    "processors": 2,
    "tasks": [
        {"id": "mi1", "kind": "MI", "wcet": "7/2", "period": "7", "processor": 1},
        {"id": "mi2", "kind": "MI", "wcet": "2", "period": "10/3", "processor": 2},
        {"id": "md1", "kind": "MD", "wcet": "7/3", "period": "14/3", "transition_deadline": "35/3"},
        {"id": "md2", "kind": "MD", "wcet": "1/3", "period": "7/2"},
        {"id": "md3", "kind": "MD", "wcet": "7/2", "period": "7", "transition_deadline": "21/2"},
        {"id": "md4", "kind": "MD", "wcet": "4/3", "period": "10/3", "transition_deadline": "20/3"},
    ],
    "modes": [{"id": "alpha", "md_tasks": ["md1", "md2"]}, {"id": "beta", "md_tasks": ["md3", "md4"]}],
    "transitions": [["alpha", "beta"], ["beta", "alpha"]],
}


SATURATED_SYSTEM = {
    "processors": 2,
    "tasks": [
        {"id": "mi1", "kind": "MI", "wcet": 4, "period": 15, "processor": 1},
        {"id": "mi2", "kind": "MI", "wcet": 5, "period": 15, "processor": 2},
        {"id": "alpha0", "kind": "MD", "wcet": 3, "period": 5, "transition_deadline": 7},
        {"id": "alpha1", "kind": "MD", "wcet": 5, "period": 8, "transition_deadline": 14},
        {"id": "beta0", "kind": "MD", "wcet": 8, "period": 12, "transition_deadline": 15},
        {"id": "beta1", "kind": "MD", "wcet": 7, "period": 12},
        {"id": "beta2", "kind": "MD", "wcet": 1, "period": 12, "transition_deadline": 14},
    ],
    "modes": [
        {"id": "alpha", "md_tasks": ["alpha0", "alpha1"]},
        {"id": "beta", "md_tasks": ["beta0", "beta1", "beta2"]},
    ],
    "transitions": [["alpha", "beta"], ["beta", "alpha"]],
}


def _alternating(gap: int, horizon: int, modes=("mode1", "mode2"), **extra) -> dict:
    """An MCR every ``gap`` from the first of ``modes`` (by default the case
    study's), alternately to the second and back; ``extra`` adds scenario keys."""
    targets = modes[::-1]
    mcrs = [{"time": time, "to": targets[i % 2]} for i, time in enumerate(range(gap, horizon, gap))]
    return {"initial_mode": modes[0], "allocation": "offline-table", "horizon": horizon, "mcrs": mcrs, **extra}


SIM_CASES = {
    "handover_mcr7": ("two_proc_handover.json", "handover_mcr7.json"),
    "case_study_alternating": ("case_study.json", lambda: _alternating(331, 5000)),
    # times in units of 1/3 and 7/2; the transient overload after the
    # request at 5 makes mi1 miss a job deadline
    "mixed_denominators": (
        lambda: MIXED_DENOMINATORS_SYSTEM,
        lambda: {
            "initial_mode": "alpha",
            "allocation": "online-ffd",
            "horizon": "70/3",
            "mcrs": [{"time": 5, "to": "beta"}, {"time": "35/3", "to": "alpha"}],
            "release_offsets": {"mi1": ["1/3", "31/3"], "md3": ["7/6"], "md2": ["1/2", "13/3"]},
        },
    ),
    # heavy in job deadline misses: beta1 and beta2, disabled at 68 with
    # beta2's job 2 already past due, both miss at 80, the instant of mi1's
    # release; requests at 68 and 85 fall on release instants, and alpha0's
    # offsets apply again at each enable of alpha
    "saturated_alternating": (
        lambda: SATURATED_SYSTEM,
        lambda: _alternating(17, 150, ("alpha", "beta"), release_offsets={"mi1": [5], "alpha0": [3, 11]}),
    ),
}


def _simulate(case: str, workdir: Path) -> tuple[int, bytes, bytes]:
    """Exit code, trace bytes and stdout bytes of one ``simulate --trace`` run."""
    system, scenario = SIM_CASES[case]
    trace = workdir / f"{case}.simulate.trace.tsv"
    argv = [
        "simulate",
        _input_file(system, workdir / f"{case}.system.json"),
        _input_file(scenario, workdir / f"{case}.scenario.json"),
        "--trace",
        str(trace),
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, trace.read_bytes(), stdout.getvalue().encode("utf-8")


def _assert_trace_matches_golden(case: str, workdir: Path) -> None:
    code, trace, stdout = _simulate(case, workdir)
    exit_codes = json.loads((GOLDEN / "simulate_exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[case]
    assert trace == (GOLDEN / f"{case}.simulate.tsv").read_bytes()
    assert stdout == (GOLDEN / f"{case}.simulate.stdout").read_bytes()


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_trace_bytes_match_golden(case, tmp_path):
    _assert_trace_matches_golden(case, tmp_path)


@pytest.mark.parametrize("case", sorted(SIM_CASES))
def test_trace_written_without_simevents(case, tmp_path, monkeypatch):
    """The trace file is formatted from the engine's integer rows: the CLI
    builds no ``SimEvent``."""

    def refuse(*args, **kwargs):
        raise AssertionError("SimEvent built")

    monkeypatch.setattr("modesched.sim.SimEvent", refuse)
    _assert_trace_matches_golden(case, tmp_path)


# sweeps for ``simulate``: (system, sweep scenario), inputs as for _input_file
def _sweep(source: str, destination: str, step, allocation: str):
    return lambda: {"allocation": allocation, "sweep": {"from_mode": source, "to_mode": destination, "step": step}}


SWEEP_CASES = {
    "case_study_sweep": ("case_study.json", "case_study_sweep.json"),
    "case_study_mode2_online": ("case_study.json", _sweep("mode2", "mode1", 1, "online-ffd")),
    # a step off the system's time base of 1/6: the sweep restarts its source
    # run once on a finer base
    "mixed_denominators_fifth": (
        lambda: MIXED_DENOMINATORS_SYSTEM, _sweep("alpha", "beta", "1/5", "online-ffd"),
    ),
    # each processor's MI load plus either mode's MD load is close to 1, so
    # the sweep counts job deadline misses and missed transition deadlines
    "saturated": (lambda: SATURATED_SYSTEM, _sweep("alpha", "beta", 1, "offline-table")),
}


def _simulate_sweep(case: str, workdir: Path) -> tuple[int, bytes]:
    """Exit code and stdout bytes of one ``simulate`` run of a sweep."""
    system, scenario = SWEEP_CASES[case]
    argv = [
        "simulate",
        _input_file(system, workdir / f"{case}.system.json"),
        _input_file(scenario, workdir / f"{case}.scenario.json"),
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return code, stdout.getvalue().encode("utf-8")


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_sweep_output_matches_golden(case, tmp_path):
    code, stdout = _simulate_sweep(case, tmp_path)
    exit_codes = json.loads((GOLDEN / "sweep_exit_codes.json").read_text(encoding="utf-8"))
    assert code == exit_codes[case]
    assert stdout == (GOLDEN / f"{case}.sweep.stdout").read_bytes()


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    exit_codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            for command in COMMANDS:
                code, report, stdout = _analyze(case, command, Path(tmp))
                exit_codes[f"{case}.{command}"] = code
                (GOLDEN / f"{case}.{command}.json").write_bytes(report)
                (GOLDEN / f"{case}.{command}.stdout").write_bytes(stdout)
        sim_exit_codes = {}
        for case in sorted(SIM_CASES):
            code, trace, stdout = _simulate(case, Path(tmp))
            sim_exit_codes[case] = code
            (GOLDEN / f"{case}.simulate.tsv").write_bytes(trace)
            (GOLDEN / f"{case}.simulate.stdout").write_bytes(stdout)
        sweep_exit_codes = {}
        for case in sorted(SWEEP_CASES):
            code, stdout = _simulate_sweep(case, Path(tmp))
            sweep_exit_codes[case] = code
            (GOLDEN / f"{case}.sweep.stdout").write_bytes(stdout)
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2) + "\n", encoding="utf-8")
    (GOLDEN / "simulate_exit_codes.json").write_text(
        json.dumps(sim_exit_codes, indent=2) + "\n", encoding="utf-8"
    )
    (GOLDEN / "sweep_exit_codes.json").write_text(
        json.dumps(sweep_exit_codes, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    regenerate()
