"""``tools/mutants.py``: every listed mutant still applies to ``src/``.

The mutation run itself takes minutes and stays a tool; this checks that a
refactor which moves mutated code updates the list, and that a run stopped
by SIGTERM cleans up after itself.
"""

import importlib.util
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("mutants", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_old_text_occurs_exactly_once_in_src():
    tool = load_tool()
    assert len({m.name for m in tool.MUTANTS}) == len(tool.MUTANTS)
    for mutant in tool.MUTANTS:
        assert mutant.file.startswith("src/") and mutant.old != mutant.new, mutant.name
        assert tool.occurrences(mutant) == 1, mutant.name


def test_failing_count_reads_a_pytest_summary():
    tool = load_tool()
    assert tool.failing_count("3 failed, 320 passed in 20.1s") == 3
    assert tool.failing_count("24 failed, 290 passed, 8 errors in 30.0s") == 32
    assert tool.failing_count("1 failed, 1 error in 2.0s") == 2
    assert tool.failing_count("326 passed in 20.6s") == 0


def test_only_a_failing_test_or_a_timeout_kills_a_mutant():
    tool = load_tool()
    assert tool.verdict(1, "3 failed, 320 passed in 20.1s") == "killed"
    assert tool.verdict(None, "timed out after 900 s") == "killed"
    assert tool.verdict(0, "326 passed in 20.6s") == "survived"
    # pytest missing, a usage error or an internal error is no kill
    assert tool.verdict(1, "/usr/bin/python3: No module named pytest") == "error"
    assert tool.verdict(4, "ERROR: file or directory not found: tests") == "error"
    assert tool.verdict(3, "INTERNALERROR> RuntimeError") == "error"


def test_mutant_runs_leave_out_the_list_check():
    """Every mutant removes its old text, so the check above fails under any
    mutant; counted as a kill, it would let no mutant survive."""
    tool = load_tool()
    assert "--ignore=tests/test_mutants.py" in tool.PYTEST


def test_sigterm_kills_the_child_and_removes_the_copy(tmp_path):
    """A gate stopped by SIGTERM leaves no temporary copy and no running child:
    the handler raises ``SystemExit`` inside ``subprocess.run``, which kills
    the child, and the ``TemporaryDirectory`` removes the copy on the way out.
    One sleeping child stands in for the pytest run."""
    tool = load_tool()
    pid_file = tmp_path / "pid"
    child = "import os, sys, time; open(sys.argv[1], 'w').write(str(os.getpid())); time.sleep(60)"

    def terminate_once_started():
        while not pid_file.exists() or not pid_file.read_text():
            time.sleep(0.01)
        signal.pthread_kill(threading.main_thread().ident, signal.SIGTERM)

    previous = signal.signal(signal.SIGTERM, tool.stop)
    try:
        with pytest.raises(SystemExit) as excinfo:
            with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
                copy = Path(tmp)
                threading.Thread(target=terminate_once_started, daemon=True).start()
                subprocess.run([sys.executable, "-c", child, str(pid_file)], capture_output=True, timeout=60)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert excinfo.value.code == 128 + signal.SIGTERM
    assert not copy.exists()
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)
