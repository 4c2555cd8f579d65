"""Launch ops as subprocesses, time them, and check their outputs.

An op's *signature* is its exit code plus the sha256 of its stdout and of
each output file.  Report files are hashed as canonical JSON without the
``explored_nodes`` fields, whose meaning a search change may legitimately
redefine.  ``pinned.json`` holds the signatures taken when the benchmark was added.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from workloads import Op

HERE = Path(__file__).resolve().parent
OPMAIN = HERE / "opmain.py"
PINNED = HERE / "pinned.json"


@dataclass(frozen=True)
class Launch:
    start: float  # perf_counter seconds
    end: float
    exit_code: int
    max_rss_kib: int


def launch(args: list[str], workdir: Path, stdout_path: Path, timeout: float) -> Launch:
    """Run ``opmain.py <args>`` in ``workdir``; stdout goes to ``stdout_path``.

    The child is killed after ``timeout`` seconds.  ``max_rss_kib`` is the
    child's own ``ru_maxrss``, read from ``wait4``.  The child is left a
    zombie until the timer is disarmed, so the timer never signals a reused
    process id.
    """
    cmd = [sys.executable, str(OPMAIN), *args]
    lock = threading.Lock()
    exited = False

    def kill() -> None:
        with lock:
            if not exited:
                os.kill(process.pid, signal.SIGKILL)

    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        process = subprocess.Popen(cmd, cwd=workdir, stdout=out, stderr=err)
        timer = threading.Timer(timeout, kill)
        timer.start()
        os.waitid(os.P_PID, process.pid, os.WEXITED | os.WNOWAIT)
        end = time.perf_counter()
        with lock:
            exited = True
        timer.cancel()
        _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    return Launch(start, end, process.returncode, usage.ru_maxrss)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _report_sha(path: Path) -> str:
    report = json.loads(path.read_text(encoding="utf-8"))
    for section in report.get("modes", []):
        section.pop("explored_nodes", None)
    return _sha(json.dumps(report, sort_keys=True).encode("utf-8"))


def signature(op: Op, exit_code: int, stdout: bytes, workdir: Path) -> dict:
    files = {name: _report_sha(workdir / name) for name in op.reports}
    files.update({name: _sha((workdir / name).read_bytes()) for name in op.files})
    return {"exit": exit_code, "stdout": _sha(stdout), "files": files}


def load_pins() -> dict:
    with open(PINNED, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class OpResult:
    op: Op
    launch: Launch
    error: Optional[str]  # None when outputs match the pins and checks
    work: int  # pinned units of work, counted only when the op passed

    @property
    def ok(self) -> bool:
        return self.error is None


def run_op(op: Op, workdir: Path, pins: dict, timeout: float, spans: Optional[Path] = None) -> OpResult:
    """Run one op and verify it against its pinned signature and known values."""
    stdout_path = workdir / f"{op.key.replace('/', '.')}.stdout"
    for name in op.reports + op.files:
        (workdir / name).unlink(missing_ok=True)
    args = (["--spans", str(spans)] if spans is not None else []) + ["--", *op.argv]
    result = launch(args, workdir, stdout_path, timeout)
    error = _verify(op, result.exit_code, stdout_path, workdir, pins)
    work = pins[op.key]["work"] if error is None else 0
    return OpResult(op, result, error, work)


def _verify(op: Op, exit_code: int, stdout_path: Path, workdir: Path, pins: dict) -> Optional[str]:
    pinned = pins.get(op.key)
    if pinned is None:
        return "no pinned signature"
    stdout = stdout_path.read_bytes()
    if exit_code != pinned["exit"]:
        return f"exit code {exit_code}, pinned {pinned['exit']}"
    try:
        found = signature(op, exit_code, stdout, workdir)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    for part in ("stdout", "files"):
        if found[part] != pinned[part]:
            return f"{part} digest differs from the pinned one"
    if op.check is not None:
        return op.check(stdout, workdir)
    return None
