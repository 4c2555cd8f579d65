"""modesched benchmark: one client runs a workload's CLI commands in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round runs every op of the workload's corpus once, in an order shuffled
by ``--seed``, each op in a fresh interpreter (``opmain.py``).  Another round
starts while it is expected to end within half a round of ``--seconds``; at
least one round always completes.  Every op's outputs are checked against
the pinned signatures and known values.

``--trace 0`` reports the end-to-end metrics; set-up probes run before the
rounds and between ops, so that they sample the whole run.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Times are in reference seconds:
wall time scaled to a reference CPU speed (see ``speed.py``).  The last line
of stdout is the JSON result; the lines before it print every metric with
its unit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import execute
import tracing
from speed import SpeedMeter
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5  # set-up probes before the first round
PROBE_EVERY_S = 1.0  # then one before any op that starts this long after the last probe
RUN_LIMIT_S = 170.0  # a run must end within 180 s

# (metric, unit, better); reported on every workload by --trace 0.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)
WORK_RATE_NAMES = {"modes": "modes_per_s", "points": "points_per_s", "events": "events_per_s"}


@dataclass
class Round:
    traced: bool
    results: list  # execute.OpResult, in run order
    times: list[float]  # reference seconds of each op
    layers: Optional[dict] = None  # per-layer metrics of a traced round

    @property
    def wall(self) -> float:
        return sum(self.times)


def _setup_probe(corpus, workdir: Path, meter: SpeedMeter, deadline: float) -> float:
    """Time for a fresh interpreter to import modesched and parse every input."""
    args = ["--setup"] + [f"{s}::{c}" if c else s for s, c in corpus.setup_inputs]
    probe = execute.launch(args, workdir, workdir / "setup.stdout", deadline - time.perf_counter())
    if probe.exit_code != 0:
        raise RuntimeError(f"set-up probe exited with {probe.exit_code}")
    return meter.reference_seconds(probe.start, probe.end)


def _rounds(corpus, workdir: Path, pins: dict, meter: SpeedMeter, args, deadline: float, setup: list):
    """Rounds for about ``args.seconds``; with tracing, untraced and traced rounds alternate.

    Without tracing, set-up probes between ops append their times to ``setup``.
    """
    rng = random.Random(args.seed)
    spans_path = workdir / "spans.json"
    rounds: list[Round] = []
    start = last_probe = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        traced = bool(args.trace) and len(rounds) % 2 == 1
        order = list(corpus.ops)
        rng.shuffle(order)
        current = Round(traced, [], [])
        span_lists = []
        for op in order:
            if not args.trace and time.perf_counter() - last_probe >= PROBE_EVERY_S:
                setup.append(_setup_probe(corpus, workdir, meter, deadline))
                last_probe = time.perf_counter()
            timeout = deadline - time.perf_counter()
            if timeout <= 0:
                break
            result = execute.run_op(op, workdir, pins, timeout, spans_path if traced else None)
            slowdown = meter.slowdown(result.launch.start, result.launch.end)
            current.results.append(result)
            current.times.append((result.launch.end - result.launch.start) / slowdown)
            if traced and spans_path.exists():
                with open(spans_path, encoding="utf-8") as handle:
                    spans = json.load(handle)
                spans_path.unlink()
                for span in spans:
                    span[1] /= slowdown
                    span[2] /= slowdown
                span_lists.append(spans)
        if traced:
            current.layers = tracing.aggregate(span_lists)
        rounds.append(current)
        now = time.perf_counter()
        if now >= deadline:
            break
        # another round like this one would end more than half a round past --seconds
        if now - start + (now - round_start) / 2 >= args.seconds and (not args.trace or len(rounds) >= 2):
            break
    return rounds


def _tail(times: list[float]) -> Optional[tuple[int, float]]:
    """Highest percentile with at least ten ops beyond it, and its value."""
    n = len(times)
    if n < 11:
        return None
    return math.floor(100 * (n - 10) / n), sorted(times)[n - 11]


def _end_to_end(rounds: list[Round], setup: list[float], unit: str):
    results = [r for rnd in rounds for r in rnd.results]
    times = [t for rnd in rounds for t in rnd.times]
    total = sum(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rnd.wall for rnd in rounds),
        "ops_per_s": sum(1 for r in results if r.ok) / total,
        "op_p50_s": statistics.median(times),
        "work_per_s": sum(r.work for r in results) / total,
        "peak_rss_mib": max(r.launch.max_rss_kib for r in results) / 1024,
    }
    raw_walls = [sum(r.launch.end - r.launch.start for r in rnd.results) for rnd in rounds]
    notes = [
        f"{WORK_RATE_NAMES[unit]} = {metrics['work_per_s']:.6g} 1/s (work_per_s counts {unit})",
        f"setup_s is the median of {len(setup)} probes",
        f"unscaled wall_s = {statistics.median(raw_walls):.6g} s of machine time",
    ]
    tail = _tail(times)
    if tail is None:
        notes.append(f"op_tail_s omitted: {len(times)} ops, fewer than 11")
    else:
        notes.append(f"op_tail_s = {tail[1]:.6g} s (p{tail[0]} of {len(times)} ops)")
    return metrics, notes


def _per_layer(rounds: list[Round]):
    traced = [rnd for rnd in rounds if rnd.traced]
    untraced = [rnd for rnd in rounds if not rnd.traced]
    overhead = statistics.median(r.wall for r in traced) - statistics.median(r.wall for r in untraced)
    notes = [f"{len(traced)} traced and {len(untraced)} untraced rounds"]
    return tracing.per_layer([rnd.layers for rnd in traced], overhead), notes


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="modesched benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S

    if not (ROOT / "src" / "modesched" / "__init__.py").is_file():
        sys.stderr.write(f"error: no modesched sources under {ROOT / 'src'}\n")
        return 2
    workload = WORKLOADS[args.workload]
    pins = execute.load_pins()
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # ops keep compiled bytecode, as an installed package does, whatever the caller's environment
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    os.environ["PYTHONPYCACHEPREFIX"] = str(workdir / "pycache")
    try:
        with SpeedMeter() as meter:
            corpus = workload.build(ROOT, workdir)
            # the first probe fills the bytecode caches, which users do not pay for per command
            _setup_probe(corpus, workdir, meter, deadline)
            repeats = 0 if args.trace else SETUP_REPEATS
            setup = [_setup_probe(corpus, workdir, meter, deadline) for _ in range(repeats)]
            rounds = _rounds(corpus, workdir, pins, meter, args, deadline, setup)
        if args.trace:
            metrics, notes = _per_layer(rounds)
            units = tracing.PER_LAYER
        else:
            metrics, notes = _end_to_end(rounds, setup, workload.unit)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    results = [r for rnd in rounds for r in rnd.results]
    failures = [r for r in results if not r.ok]
    print(
        f"workload {workload.name}: seed {args.seed}, {len(rounds)} rounds of {len(corpus.ops)} ops,"
        f" {len(results)} ops attempted, {len(failures)} failed"
        f" (failed_ratio {len(failures) / len(results):.6g})"
    )
    for result in failures[:10]:
        print(f"FAILED {result.op.key}: {result.error}")
    for name, unit, _ in units:
        print(f"{name:40} {metrics[name]:>16.6g} {unit}")
    for note in notes:
        print(note)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(results),
                "failed": len(failures),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
