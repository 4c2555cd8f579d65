"""Golden analysis reports: the exact bytes the CLI writes.

For each system below, ``analyze-offline`` and ``analyze-online`` must
reproduce the pinned JSON report, the pinned stdout and the pinned exit code
byte for byte.  The goldens live in ``tests/golden/``; after a deliberate
change to the report format, rewrite them with

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
    "case_study": None,
    "deadline_tau10_149": lambda: case_study_raw(deadline_tau10=149),
    "infeasible_mode": infeasible_mode_raw,
    # mode2's utilization exceeds the First-Fit guarantee bound
    "tau10_wcet90": lambda: case_study_raw(wcet_tau10=90),
}


def _system_file(case: str, workdir: Path) -> str:
    build = CASES[case]
    if build is None:
        return str(SAMPLES / "case_study.json")
    path = workdir / f"{case}.json"
    path.write_text(json.dumps(build(), indent=1), encoding="utf-8")
    return str(path)


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
    (GOLDEN / "exit_codes.json").write_text(json.dumps(exit_codes, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
