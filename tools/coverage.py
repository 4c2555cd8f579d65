"""Find the statements of ``modesched`` that no test runs, with a line map per test.

The script runs pytest in this process with a line tracer (``sys.settrace``)
that records, for each test (its setup, call and teardown), the lines of the
package it runs, and writes them as JSON, ``{test id: {file: [lines]}}``,
with files relative to the package directory.  It then checks every
statement that runs only when called: each statement inside a function body,
and each one inside a module's ``if __name__ == "__main__":`` guard.  Module
level statements run at import and are not checked.  A statement counts as
run when any of its lines ran in some test; a compound statement's lines
are its header and the first line of its body, so a ``try`` counts through
its first statement.  Docstrings and other constant expressions, ``global``
and ``nonlocal`` compile to no code and are skipped.

    python3 tools/coverage.py                                   # Tier-1
    python3 tools/coverage.py --map lines.json -- -q tests/test_latency.py
    python3 tools/coverage.py --package other/pkg -- -q other/tests

Everything after ``--`` goes to pytest (default: ``-q -p no:cacheprovider
tests``).  Each statement no test ran is printed as ``file:line`` and its
first line, except those ``ALLOWED`` names; the last line sums the run up.
The exit status is 0 when every checked statement ran, 1 when one did not
and 2 when pytest failed.  Tier-1 runs several times slower under the
tracer.  Stdlib and pytest only.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "modesched"
PYTEST_ARGS = ("-q", "-p", "no:cacheprovider", "tests")
# (file relative to the package, first line of the statement): statements
# no test can run in this process
ALLOWED = {
    ("cli.py", "sys.exit(main())"),  # the __main__ guard: only ``python -m modesched.cli`` runs it
}
MAIN_GUARD = "__name__ == '__main__'"  # as ``ast.unparse`` writes it
_NO_CODE = (ast.Global, ast.Nonlocal)
_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bodies(node: ast.AST):
    """The statement lists nested directly in a compound statement."""
    for field in ("body", "orelse", "finalbody"):
        yield getattr(node, field, None) or []
    for part in (*getattr(node, "handlers", ()), *getattr(node, "cases", ())):
        yield part.body


def _statements(body: list) -> list[ast.stmt]:
    """The statements of ``body`` and of the compound statements in it, not
    those of nested function or class bodies."""
    found = []
    for node in body:
        if isinstance(node, _NO_CODE) or (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            continue
        found.append(node)
        if not isinstance(node, _NESTED):
            for inner in _bodies(node):
                found += _statements(inner)
    return found


def checked_statements(source: str) -> dict[int, range]:
    """The statements of a module that run only when called, by first line,
    each with the lines that count as running it."""
    tree = ast.parse(source)
    guards = [node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == MAIN_GUARD]
    checked = [statement for guard in guards for statement in _statements(guard.body)]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            checked += _statements(node.body)
    spans = {}
    for node in checked:
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        body = getattr(node, "body", None)
        if isinstance(node, _NESTED):  # its decorators and its ``def`` or ``class`` line
            last = node.lineno
        elif body:  # a compound statement: its header and its body's first line
            last = body[0].lineno
        else:  # a simple statement: all its lines
            last = node.end_lineno
        spans[node.lineno] = range(first, last + 1)
    return spans


class LineTracer:
    """A pytest plugin that records the package lines each test runs."""

    def __init__(self, files: set[str]):
        self.files = files
        self.lines: dict[str, set[tuple[str, int]]] = {}
        self.current: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename in self.files else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.current.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.current = self.lines.setdefault(item.nodeid, set())
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--package", type=Path, default=PACKAGE, help="the package directory to trace")
    parser.add_argument("--map", type=Path, default=Path("coverage-map.json"), help="where the line map goes")
    args = parser.parse_args(argv[:split])
    package = args.package.resolve()
    modules = {str(path): path.relative_to(package).as_posix() for path in sorted(package.rglob("*.py"))}
    sys.path.insert(0, str(package.parent))
    tracer = LineTracer(set(modules))
    status = pytest.main(argv[split + 1:] or list(PYTEST_ARGS), plugins=[tracer])

    ran: dict[str, set[int]] = {name: set() for name in modules.values()}
    line_map = {}
    for test, lines in tracer.lines.items():
        per_file: dict[str, list[int]] = {}
        for path, line in lines:
            ran[modules[path]].add(line)
            per_file.setdefault(modules[path], []).append(line)
        line_map[test] = {name: sorted(found) for name, found in sorted(per_file.items())}
    args.map.write_text(json.dumps(line_map, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    if status != 0:
        print(f"pytest exited with {int(status)}", file=sys.stderr)
        return 2

    checked = unrun = allowed = 0
    for path, name in modules.items():
        source = Path(path).read_text(encoding="utf-8")
        text = source.splitlines()
        for line, span in sorted(checked_statements(source).items()):
            checked += 1
            if ran[name].isdisjoint(span):
                statement = text[line - 1].strip()
                if (name, statement) in ALLOWED:
                    allowed += 1
                    continue
                unrun += 1
                print(f"{name}:{line}\t{statement}")
    print(f"coverage\t{checked} checked\t{unrun} unrun\t{allowed} allowed\t{len(line_map)} tests")
    return 1 if unrun else 0


if __name__ == "__main__":
    sys.exit(main())
