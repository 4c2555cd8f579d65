"""Seeded synthetic two-mode systems for the benchmark.

Every draw is a pure function of its arguments, and every number is written
as an exact decimal string, so the program under test reads the same
rationals on every platform:

* ``MI_PER_PROCESSOR`` MI tasks on each processor, periods from
  {10, 20, 25, 40, 50, 100}, utilization 5-20 %;
* ``n`` MD tasks per mode, integer periods 10-200, utilization 1-12 %, each
  with a transition deadline of its period plus 50-400;
* two modes ``A`` and ``B`` with transitions both ways.

Usage: ``python3 perfbench/gen.py --seed 3 --m 4 --n 12`` prints one system.
"""

from __future__ import annotations

import argparse
import json
import random
from fractions import Fraction

MI_PERIODS = (10, 20, 25, 40, 50, 100)
MI_PER_PROCESSOR = 2


def _decimal(value: Fraction) -> str:
    """Exact decimal string of a fraction whose denominator divides 10**k."""
    if value.denominator == 1:
        return str(value.numerator)
    digits = 0
    scaled = value
    while scaled.denominator != 1:
        scaled *= 10
        digits += 1
        if digits > 12:
            raise ValueError(f"{value} has no short decimal expansion")
    text = str(scaled.numerator).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def _wcet(period: int, percent: int) -> str:
    return _decimal(Fraction(period * percent, 100))


def generate_system(seed: int, m: int, n: int) -> dict:
    """One two-mode system drawn from ``seed``; the same arguments give the same dict."""
    rng = random.Random(f"modesched-synthetic/{seed}/{m}/{n}/{MI_PER_PROCESSOR}")
    tasks = []
    for p in range(1, m + 1):
        for k in range(1, MI_PER_PROCESSOR + 1):
            period = rng.choice(MI_PERIODS)
            tasks.append(
                {
                    "id": f"mi{p:02d}_{k}",
                    "kind": "MI",
                    "wcet": _wcet(period, rng.randint(5, 20)),
                    "period": period,
                    "processor": p,
                }
            )
    modes = []
    for mode in ("A", "B"):
        ids = []
        for i in range(1, n + 1):
            period = rng.randint(10, 200)
            task_id = f"{mode.lower()}{i:03d}"
            tasks.append(
                {
                    "id": task_id,
                    "kind": "MD",
                    "wcet": _wcet(period, rng.randint(1, 12)),
                    "period": period,
                    "transition_deadline": period + rng.randint(50, 400),
                }
            )
            ids.append(task_id)
        modes.append({"id": mode, "md_tasks": ids})
    return {
        "processors": m,
        "tasks": tasks,
        "modes": modes,
        "transitions": [["A", "B"], ["B", "A"]],
    }


def dumps(document: dict) -> str:
    """Canonical text of a generated document (byte-stable for equal input)."""
    return json.dumps(document, indent=1, sort_keys=True) + "\n"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--m", type=int, required=True, help="processors")
    parser.add_argument("--n", type=int, required=True, help="MD tasks per mode")
    args = parser.parse_args()
    print(dumps(generate_system(args.seed, args.m, args.n)), end="")


if __name__ == "__main__":
    main()
