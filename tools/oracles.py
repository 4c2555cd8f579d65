"""Slow oracle checks: claims that Tier-1 can only sample, run over seeded corpora.

Each check has a name, the claim it tests and a corpus: rng seeds and a
number of systems per seed, its budget.  A violation is printed as one line,
``FOUND``, the check's name, the observed value against the claimed one and
a JSON reproducer, and the exit status is then 1; otherwise it is 0.  The
last line sums the run up.  The one check so far:

  * ``sweep-vs-bound``: no MCR sweep observes a transition latency above the
    bound in force, the optimal latency of the source mode under its optimal
    table (offline-table) or the online bound (online-ffd).  Each draw of
    ``tests/conftest.py::random_system(rng, ff_mi=True)`` is swept at steps
    of 1/2 over the source mode's hyperperiod, capped at 240, for both mode
    pairs and both allocation sources.  A sweep whose modes cannot be
    allocated is skipped and counted.

    python3 tools/oracles.py sweep-vs-bound                      # seeds 1-3, 300 systems each
    python3 tools/oracles.py sweep-vs-bound --seeds 4 5 --systems 100
    python3 tools/oracles.py sweep-vs-bound --system samples/carry_in.json --pair c b

A violation is a finding: never shrink or re-seed a corpus so that one does
not show.  Stdlib, ``modesched`` and ``tests/conftest.py`` only.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import modesched as ms  # noqa: E402
from conftest import random_system  # noqa: E402

SOURCES = ("offline-table", "online-ffd")
STEP = Fraction(1, 2)
SPAN_CAP = 240


def _number(value: Fraction):
    return value.numerator if value.denominator == 1 else str(value)


def system_json(system: ms.ModeSystem) -> dict:
    """The input JSON that ``build_system`` reads back as ``system``."""
    tasks = []
    for task in system.mi_tasks + system.md_tasks:
        raw = {"id": task.id, "kind": task.kind, "wcet": _number(task.wcet), "period": _number(task.period)}
        if task.transition_deadline is not None:
            raw["transition_deadline"] = _number(task.transition_deadline)
        if task.home_processor is not None:
            raw["processor"] = task.home_processor
        tasks.append(raw)
    return {
        "processors": system.processor_count,
        "tasks": tasks,
        "modes": [{"id": mode.id, "md_tasks": list(mode.md_tasks)} for mode in system.mode_graph.modes],
        "transitions": [list(edge) for edge in system.mode_graph.edges],
    }


def bound_in_force(system: ms.ModeSystem, allocation_source: str, source: str) -> Fraction:
    if allocation_source == "offline-table":
        return ms.solve_optimal(system, source).optimal_latency
    return ms.latency_upper_bound(system, source)


def sweep_vs_bound(system: ms.ModeSystem, source: str, destination: str):
    """Sweep ``source`` -> ``destination`` under both allocation sources; yield
    ``None`` for a sweep that cannot be allocated, else ``(allocation_source,
    result, bound)``."""
    span = min(ms.hyperperiod(system.mi_tasks + system.md_tasks_of(source)), SPAN_CAP)
    grid = [k * STEP for k in range(math.ceil(span / STEP))]
    for allocation_source in SOURCES:
        try:
            bound = bound_in_force(system, allocation_source, source)
            result = ms.sweep_mcr(system, allocation_source, (source, destination), grid)
        except (ms.InfeasibleModeError, ms.SimulationError):  # no table, or First-Fit placement failed
            yield None
            continue
        yield allocation_source, result, bound


def found_line(origin, system, source, destination, allocation_source, result, bound) -> str:
    reproducer = {
        "origin": origin,
        "system": system_json(system),
        "scenario": {
            "allocation": allocation_source,
            "sweep": {"from_mode": source, "to_mode": destination, "step": str(STEP)},
        },
        "max_latency": str(result.max_latency),
        "at": str(result.at_time),
        "bound": str(bound),
    }
    return f"FOUND\tsweep-vs-bound\t{result.max_latency} > {bound}\t{json.dumps(reproducer, sort_keys=True)}"


def corpus(seeds, systems):
    """``(origin, system, source, destination)`` for both pairs of each draw."""
    for seed in seeds:
        rng = random.Random(seed)
        for draw in range(systems):
            system = random_system(rng, ff_mi=True)
            origin = {"seed": seed, "draw": draw}
            yield origin, system, "alpha", "beta"
            yield origin, system, "beta", "alpha"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("check", choices=("sweep-vs-bound",))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--systems", type=int, default=300, help="draws per seed")
    parser.add_argument("--system", help="check one system file instead of the corpus")
    parser.add_argument("--pair", nargs=2, metavar=("FROM", "TO"), help="with --system: the one mode pair")
    args = parser.parse_args(argv)
    if (args.system is None) != (args.pair is None):
        parser.error("--system and --pair go together")

    if args.system is not None:
        cases = [({"file": args.system}, ms.load_system(args.system), *args.pair)]
    else:
        cases = corpus(args.seeds, args.systems)
    started = time.perf_counter()
    swept = skipped = found = 0
    for origin, system, source, destination in cases:
        for outcome in sweep_vs_bound(system, source, destination):
            if outcome is None:
                skipped += 1
                continue
            swept += 1
            allocation_source, result, bound = outcome
            if result.max_latency > bound:
                found += 1
                print(found_line(origin, system, source, destination, allocation_source, result, bound), flush=True)
    print(f"sweep-vs-bound\t{swept} swept\t{skipped} skipped\t{found} found"
          f"\t{time.perf_counter() - started:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
