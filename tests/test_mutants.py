"""``tools/mutants.py``: every listed mutant still applies to ``src/``.

The mutation run itself takes minutes and stays a tool; this only checks
that a refactor which moves mutated code updates the list.
"""

import importlib.util
from pathlib import Path

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
