"""Slow oracle checks: claims that Tier-1 can only sample, run over seeded corpora.

Each check has a name, the claim it tests and a corpus: rng seeds and a
number of systems per seed, its budget.  A violation is printed as one line,
``FOUND``, the check's name, the observed value against the claimed one and
a JSON reproducer, and the exit status is then 1; otherwise it is 0.  The
last line sums the run up.  The checks:

  * ``sweep-vs-bound``: no MCR sweep observes a transition latency above the
    bound in force that the sweep reports (``SweepResult.bound``): the
    optimal latency of the source mode under its optimal table
    (offline-table) or the online bound (online-ffd).  Each draw of
    ``tests/conftest.py::random_system(rng, ff_mi=True)`` is swept at steps
    of 1/2 over the source mode's hyperperiod, capped at 240, for both mode
    pairs and both allocation sources.  A sweep whose modes cannot be
    allocated is skipped and counted.

    python3 tools/oracles.py sweep-vs-bound                      # seeds 1-3, 300 systems each
    python3 tools/oracles.py sweep-vs-bound --seeds 4 5 --systems 100
    python3 tools/oracles.py sweep-vs-bound --system samples/carry_in.json --pair c b

  * ``sweep-vs-points``: an MCR sweep, which forks one source-mode run and
    decides points with the processor-demand test, has the outcome of one
    scenario per grid point simulated from time 0
    (``tests/test_sim.py::per_point_sweep``): the same maximum latency and
    its earliest point, the same miss counts and bound in force, or the
    same error, whatever the grid's order.  A draw is a system
    of the Tier-1 sweep generators (saturated to a load of exactly 1, nearly
    saturated, or ``random_system``), with a transition deadline from half
    the period to 12 past it on most MD tasks and some draws rescaled to
    mixed denominators, swept for a random mode pair and allocation source
    at a random step over up to 48 points of the source hyperperiod, some
    grids shuffled with repeats.  Steps of 1/4 and 1/5 put many points
    between two instants of the source run, inside one stretch.

    python3 tools/oracles.py sweep-vs-points                     # seeds 1-3, 300 systems each
    python3 tools/oracles.py sweep-vs-points --seeds 4 --systems 50

  * ``sweep-vs-drain``: at every request an MCR sweep makes, the closed-form
    transition end of ``_SourceRun.drain`` (ROADMAP direction 20), from
    which the sweep decides requests with old jobs pending, is the
    transition end of a fork requested there
    (``tests/test_sim.py::drains_against_forks``).  The corpus is
    ``sweep-vs-points``'; a sweep that fails is checked up to its failure.

    python3 tools/oracles.py sweep-vs-drain                      # seeds 1-3, 300 systems each
    python3 tools/oracles.py sweep-vs-drain --seeds 4 --systems 50

A violation is a finding: never shrink or re-seed a corpus so that one does
not show.  Stdlib, ``modesched``, ``tests/conftest.py`` and the per-point
reference, the drain check and generators of ``tests/test_sim.py`` only.
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
from test_sim import (  # noqa: E402
    drains_against_forks, exactly_saturated, per_point_sweep, rescaled, saturated_handover, sweep_outcome,
    with_transition_deadlines,
)

SOURCES = ("offline-table", "online-ffd")
STEP = Fraction(1, 2)
SPAN_CAP = 240
POINT_STEPS = (Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(7, 3), Fraction(1, 4), Fraction(1, 5))
POINTS_CAP = 48


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


def sweep_vs_bound(system: ms.ModeSystem, source: str, destination: str):
    """Sweep ``source`` -> ``destination`` under both allocation sources; yield
    ``None`` for a sweep that cannot be allocated, else ``(allocation_source,
    result)``."""
    span = min(ms.hyperperiod(system.mi_tasks + system.md_tasks_of(source)), SPAN_CAP)
    grid = [k * STEP for k in range(math.ceil(span / STEP))]
    for allocation_source in SOURCES:
        try:
            result = ms.sweep_mcr(system, allocation_source, (source, destination), grid)
        except (ms.InfeasibleModeError, ms.SimulationError):  # no table, or First-Fit placement failed
            yield None
            continue
        yield allocation_source, result


def found_line(origin, system, source, destination, allocation_source, result) -> str:
    reproducer = {
        "origin": origin,
        "system": system_json(system),
        "scenario": {
            "allocation": allocation_source,
            "sweep": {"from_mode": source, "to_mode": destination, "step": str(STEP)},
        },
        "max_latency": str(result.max_latency),
        "at": str(result.at_time),
        "bound": str(result.bound),
    }
    return f"FOUND\tsweep-vs-bound\t{result.max_latency} > {result.bound}\t{json.dumps(reproducer, sort_keys=True)}"


def corpus(seeds, systems):
    """``(origin, system, source, destination)`` for both pairs of each draw."""
    for seed in seeds:
        rng = random.Random(seed)
        for draw in range(systems):
            system = random_system(rng, ff_mi=True)
            origin = {"seed": seed, "draw": draw}
            yield origin, system, "alpha", "beta"
            yield origin, system, "beta", "alpha"


def check_bounds(cases) -> tuple[int, int, int]:
    """Run ``sweep-vs-bound`` over ``cases``; return the sweeps made, skipped and found wrong."""
    swept = skipped = found = 0
    for origin, system, source, destination in cases:
        for outcome in sweep_vs_bound(system, source, destination):
            if outcome is None:
                skipped += 1
                continue
            swept += 1
            allocation_source, result = outcome
            if result.max_latency > result.bound:
                found += 1
                print(found_line(origin, system, source, destination, allocation_source, result), flush=True)
    return swept, skipped, found


def points_corpus(seeds, systems):
    """``(origin, system, allocation_source, (source, destination), grid)`` per draw."""
    for seed in seeds:
        rng = random.Random(seed)
        for draw in range(systems):
            if draw % 3 == 0:
                system = exactly_saturated(rng)
            elif draw % 3 == 1:
                system = saturated_handover(rng)
            else:
                system = random_system(rng, max_tasks=7, md_heavy=draw % 2 == 0, ff_mi=draw % 4 == 1)
            system = with_transition_deadlines(rng, system)
            if rng.random() < 0.3:
                system = rescaled(rng, system)
            pair = rng.choice((("alpha", "beta"), ("beta", "alpha")))
            allocation_source = rng.choice(SOURCES)
            step = rng.choice(POINT_STEPS)
            span = ms.hyperperiod(system.mi_tasks + system.md_tasks_of(pair[0]))
            grid = [k * step for k in range(min(math.ceil(span / step), POINTS_CAP))]
            if rng.random() < 0.2:  # out of order, with repeated points
                grid += rng.choices(grid, k=rng.randint(1, 4))
                rng.shuffle(grid)
            yield {"seed": seed, "draw": draw}, system, allocation_source, pair, grid


def shown(outcome) -> str:
    if isinstance(outcome, ms.SweepResult):
        return (f"{outcome.max_latency} at {outcome.at_time}, {outcome.points} points,"
                f" {outcome.job_misses} job and {outcome.transition_misses} transition misses,"
                f" bound {outcome.bound}")
    kind, message, *_ = outcome
    return f"{kind.__name__}: {message}"


def check_points(cases) -> tuple[int, int]:
    """Run ``sweep-vs-points`` over ``cases``; return the sweeps made and found wrong."""
    swept = found = 0
    for origin, system, allocation_source, pair, grid in cases:
        args = (system, allocation_source, pair, grid)
        swept += 1
        expected, outcome = sweep_outcome(per_point_sweep, *args), sweep_outcome(ms.sweep_mcr, *args)
        if outcome != expected:
            found += 1
            reproducer = {
                "origin": origin,
                "system": system_json(system),
                "allocation": allocation_source,
                "pair": list(pair),
                "grid": [str(t) for t in grid],
            }
            print(f"FOUND\tsweep-vs-points\t{shown(outcome)} != {shown(expected)}"
                  f"\t{json.dumps(reproducer, sort_keys=True)}", flush=True)
    return swept, found


def check_drains(cases) -> tuple[int, int, int]:
    """Run ``sweep-vs-drain`` over ``cases``; return the sweeps made, the
    requests checked and those found wrong."""
    swept = checked = found = 0
    for origin, system, allocation_source, pair, grid in cases:
        swept += 1
        with drains_against_forks() as seen:
            sweep_outcome(ms.sweep_mcr, system, allocation_source, pair, grid)
        checked += len(seen)
        for scale, request, end, fork_end, _ in seen:
            if end == fork_end:
                continue
            found += 1
            reproducer = {
                "origin": origin,
                "system": system_json(system),
                "allocation": allocation_source,
                "pair": list(pair),
                "grid": [str(t) for t in grid],
                "request": str(Fraction(request, scale)),
            }
            shown_end = "none" if fork_end is None else Fraction(fork_end, scale)
            print(f"FOUND\tsweep-vs-drain\t{Fraction(end, scale)} != {shown_end}"
                  f"\t{json.dumps(reproducer, sort_keys=True)}", flush=True)
    return swept, checked, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("check", choices=("sweep-vs-bound", "sweep-vs-points", "sweep-vs-drain"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--systems", type=int, default=300, help="draws per seed")
    parser.add_argument("--system", help="sweep-vs-bound: check one system file instead of the corpus")
    parser.add_argument("--pair", nargs=2, metavar=("FROM", "TO"), help="with --system: the one mode pair")
    args = parser.parse_args(argv)
    if (args.system is None) != (args.pair is None):
        parser.error("--system and --pair go together")

    started = time.perf_counter()
    if args.check in ("sweep-vs-points", "sweep-vs-drain") and args.system is not None:
        parser.error("--system is for sweep-vs-bound")
    if args.check == "sweep-vs-points":
        swept, found = check_points(points_corpus(args.seeds, args.systems))
        tally = f"{swept} swept\t{found} found"
    elif args.check == "sweep-vs-drain":
        swept, checked, found = check_drains(points_corpus(args.seeds, args.systems))
        tally = f"{swept} swept\t{checked} requests\t{found} found"
    else:
        if args.system is not None:
            cases = [({"file": args.system}, ms.load_system(args.system), *args.pair)]
        else:
            cases = corpus(args.seeds, args.systems)
        swept, skipped, found = check_bounds(cases)
        tally = f"{swept} swept\t{skipped} skipped\t{found} found"
    print(f"{args.check}\t{tally}\t{time.perf_counter() - started:.1f} s")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
