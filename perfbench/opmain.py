"""Run one modesched command in a fresh interpreter, as a user would.

    python3 perfbench/opmain.py [--spans FILE] -- <modesched arguments>
        calls ``modesched.cli.main(arguments)`` and exits with its code; with
        ``--spans``, records spans around the library's public functions and
        writes them to FILE as JSON when the command ends.
    python3 perfbench/opmain.py --setup SYSTEM[::SCENARIO] ...
        imports modesched and parses every listed system and scenario file.

modesched is imported from the ``src`` directory of this checkout, never
from an installed copy.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_modesched():
    sys.path.insert(0, str(SRC))
    import modesched

    if not Path(modesched.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"modesched was imported from {modesched.__file__}, not from {SRC}")
    return modesched


def _setup(inputs: list[str]) -> int:
    modesched = _import_modesched()
    for entry in inputs:
        system_path, _, scenario_path = entry.partition("::")
        system = modesched.load_system(system_path)
        if scenario_path:
            modesched.load_scenario(scenario_path, system)
    return 0


def _command(argv: list[str], spans_path: str | None) -> int:
    _import_modesched()
    if spans_path is None:
        from modesched.cli import main

        return main(argv)
    from tracing import Recorder

    recorder = Recorder()
    recorder.install()
    from modesched.cli import main

    try:
        return main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)


def main(args: list[str]) -> int:
    if args[:1] == ["--setup"]:
        return _setup(args[1:])
    spans_path = None
    if args[:1] == ["--spans"]:
        spans_path, args = args[1], args[2:]
    if args[:1] != ["--"]:
        raise SystemExit("usage: opmain.py [--spans FILE] -- <modesched arguments>")
    return _command(args[1:], spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
