"""``tools/coverage.py``: the per-test line map and the unrun-statement check,
on a fixture package.  The tool over all of Tier-1 takes minutes and stays a
tool."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "coverage.py"

MOD = '''"""A module."""

LIMIT = 3


def parity(n):
    """Even or odd."""
    if n % 2 == 0:
        return "even"
    return "odd"


def total(values):
    try:
        result = sum(
            values
        )
    except TypeError:
        result = None
    return result
'''

CLI = '''import sys


def main():
    return 0


if __name__ == "__main__":
    sys.exit(main())
'''

TESTS = '''from pkg import cli, mod


def test_even():
    assert mod.parity(2) == "even" and cli.main() == 0


def test_odd():
    assert mod.parity(3) == "odd"


def test_total():
    assert mod.total([1, 2]) == 3


def test_total_refused():
    assert mod.total([1, "2"]) is None
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("coverage_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_tool(tmp_path, *selection):
    for name, text in (("pkg/__init__.py", ""), ("pkg/mod.py", MOD), ("pkg/cli.py", CLI), ("tests/test_mod.py", TESTS)):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    command = [sys.executable, str(TOOL), "--package", "pkg", "--map", "map.json", "--",
               "-q", "-p", "no:cacheprovider", "tests", *selection]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    report = [line for line in done.stdout.splitlines() if line.startswith(("mod.py:", "cli.py:", "coverage\t"))]
    return done.returncode, report, json.loads((tmp_path / "map.json").read_text(encoding="utf-8"))


def test_statements_no_test_runs_are_reported(tmp_path):
    status, report, line_map = run_tool(tmp_path, "-k", "even or total and not refused")
    assert status == 1
    # the allowed __main__ guard is not reported; module-level lines are not checked
    assert report == [
        'mod.py:10\treturn "odd"',
        "mod.py:19\tresult = None",
        "coverage\t9 checked\t2 unrun\t1 allowed\t2 tests",
    ]
    assert line_map == {
        "tests/test_mod.py::test_even": {"cli.py": [5], "mod.py": [8, 9]},
        "tests/test_mod.py::test_total": {"mod.py": [14, 15, 16, 20]},
    }


def test_every_statement_run_passes(tmp_path):
    status, report, line_map = run_tool(tmp_path)
    assert status == 0
    assert report == ["coverage\t9 checked\t0 unrun\t1 allowed\t4 tests"]
    assert line_map["tests/test_mod.py::test_total_refused"] == {"mod.py": [14, 15, 16, 18, 19, 20]}


def test_checked_statements_and_the_lines_that_run_them():
    """A compound statement runs through its header or its body's first
    line, a simple one through any of its lines; docstrings and module-level
    statements are not checked, the body of a ``__main__`` guard is."""
    tool = load_tool()
    assert tool.checked_statements(MOD) == {
        8: range(8, 10), 9: range(9, 10), 10: range(10, 11),
        14: range(14, 16), 15: range(15, 18), 19: range(19, 20), 20: range(20, 21),
    }
    assert tool.checked_statements(CLI) == {5: range(5, 6), 9: range(9, 10)}
    nested = "def outer():\n    @staticmethod\n    def inner():\n        pass\n    global x\n    ...\n"
    assert tool.checked_statements(nested) == {3: range(2, 4), 4: range(4, 5)}
