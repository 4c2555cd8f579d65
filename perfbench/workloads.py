"""The benchmark's four workloads: fixed corpora of modesched CLI commands.

Each workload is a corpus of operations (ops).  An op is one CLI command,
run as ``modesched <argv>`` from the run's work directory.  The corpus of a
workload is the same for every ``--seed``: the seed only shuffles the order
in which one client walks it.  Two facts force a fixed corpus:

* the allocation search cost is heavy-tailed across random draws (at m=4,
  n=11 one draw in twelve takes ten times the median), so a per-seed corpus
  small enough for a run would make run-to-run spread exceed any useful
  bound;
* every output is checked against digests pinned when the benchmark was
  added, which exist only for inputs known in advance.

Synthetic systems come from fixed contiguous ranges of generator seeds
(``range(k)``); no draw is dropped for being slow.  Draws at m=8 with n=18 MD
tasks per mode are left out: one took 163 s (5M search nodes), and a
comparison of two commits runs each workload 22 times.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import gen

ANALYZE = "modes"  # work unit: mode sections in the analysis report
SWEEP = "points"  # work unit: simulated MCR grid points
REPLAY = "events"  # work unit: event rows in the written trace file


@dataclass(frozen=True)
class Op:
    """One CLI command of a corpus.

    ``key`` names the op in the pinned digests.  ``reports`` and ``files``
    are the output files it writes: reports are compared as JSON without
    ``explored_nodes``, files byte for byte.
    """

    key: str
    argv: tuple[str, ...]
    work: str = ""
    reports: tuple[str, ...] = ()
    files: tuple[str, ...] = ()
    check: Optional[Callable[[bytes, Path], Optional[str]]] = field(default=None, compare=False)


@dataclass(frozen=True)
class Corpus:
    ops: tuple[Op, ...]
    setup_inputs: tuple[tuple[str, Optional[str]], ...]  # (system file, scenario file or None)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str  # what ``work_per_s`` counts here
    build: Callable[[Path, Path], Corpus]  # (repo root, work dir) -> corpus


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.name


def _synthetic(workdir: Path, seed: int, m: int, n: int) -> tuple[str, str]:
    stem = f"syn-m{m}n{n}-s{seed}"
    return stem, _write(workdir / f"{stem}.json", gen.dumps(gen.generate_system(seed, m, n)))


def _case_study(root: Path, workdir: Path) -> tuple[str, str]:
    shutil.copyfile(root / "samples" / "case_study.json", workdir / "case-study.json")
    return "case-study", "case-study.json"


def _platform_bounds(expected: dict[str, str]):
    """Check of a report's per-mode platform bounds against known values."""

    def check(stdout: bytes, report: Path) -> Optional[str]:
        modes = json.loads(report.read_text(encoding="utf-8"))["modes"]
        found = {m["mode"]: m["platform_bound"]["exact"] for m in modes}
        if found != expected:
            return f"platform bounds {found}, expected {expected}"
        return None

    return check


def _analyze(stem: str, system: str, command: str, check=None) -> Op:
    report = f"{stem}.{command}.report.json"
    return Op(
        key=f"{stem}/{command}",
        argv=(command, system, "--report", report),
        work=ANALYZE,
        reports=(report,),
        check=None if check is None else (lambda out, wd: check(out, wd / report)),
    )


def _export(stem: str, system: str, mode: str) -> Op:
    lp = f"{stem}.export-milp-{mode}.lp"
    return Op(
        key=f"{stem}/export-milp-{mode}",
        argv=("export-milp", system, "--mode", mode, "-o", lp),
        files=(lp,),
    )


def _alternating(initial: str, other: str, allocation: str, gap: int, horizon: int) -> str:
    """Scenario text with an MCR every ``gap``, alternately to ``other`` and back."""
    targets = (other, initial)
    mcrs = [{"time": time, "to": targets[i % 2]} for i, time in enumerate(range(gap, horizon, gap))]
    scenario = {"initial_mode": initial, "allocation": allocation, "horizon": horizon, "mcrs": mcrs}
    return json.dumps(scenario, indent=1) + "\n"


def _replay(stem: str, system: str, workdir: Path, scenario_text: str, label: str) -> tuple[Op, str]:
    scenario = _write(workdir / f"{stem}.{label}.scenario.json", scenario_text)
    trace = f"{stem}.{label}.tsv"
    op = Op(
        key=f"{stem}/{label}",
        argv=("simulate", system, scenario, "--trace", trace),
        work=REPLAY,
        files=(trace,),
    )
    return op, scenario


# -- offline-search ---------------------------------------------------------

OFFLINE_DRAWS = range(6)  # generator seeds; m=4 processors, 11 MD tasks per mode


def build_offline(root: Path, workdir: Path) -> Corpus:
    ops, setup = [], []
    stem, system = _case_study(root, workdir)
    ops.append(_analyze(stem, system, "analyze-offline", _platform_bounds({"mode1": "40", "mode2": "85"})))
    ops += [_export(stem, system, mode) for mode in ("mode1", "mode2")]
    setup.append((system, None))
    for seed in OFFLINE_DRAWS:
        stem, system = _synthetic(workdir, seed, 4, 11)
        ops.append(_analyze(stem, system, "analyze-offline"))
        ops += [_export(stem, system, mode) for mode in ("A", "B")]
        setup.append((system, None))
    return Corpus(tuple(ops), tuple(setup))


# -- online-certify ---------------------------------------------------------

# generator seeds per (processors, MD tasks per mode); the m=16 draws dominate the time,
# the m=8 draws give a run enough ops for a steady median op time
ONLINE_DRAWS = {(16, 80): range(2), (8, 40): range(4)}


def build_online(root: Path, workdir: Path) -> Corpus:
    ops, setup = [], []
    stem, system = _case_study(root, workdir)
    ops.append(_analyze(stem, system, "analyze-online", _platform_bounds({"mode1": "50", "mode2": "85"})))
    setup.append((system, None))
    for (m, n), seeds in ONLINE_DRAWS.items():
        for seed in seeds:
            stem, system = _synthetic(workdir, seed, m, n)
            ops.append(_analyze(stem, system, "analyze-online"))
            setup.append((system, None))
    return Corpus(tuple(ops), tuple(setup))


# -- sim-sweep --------------------------------------------------------------


def _sweep_max(expected: str):
    def check(stdout: bytes, workdir: Path) -> Optional[str]:
        if expected.encode() not in stdout.split(b"\n"):
            return f"sweep summary lacks {expected!r}"
        return None

    return check


def build_sweep(root: Path, workdir: Path) -> Corpus:
    stem, system = _case_study(root, workdir)
    committed = "case-study.sweep-mode1-mode2.scenario.json"
    shutil.copyfile(root / "samples" / "case_study_sweep.json", workdir / committed)
    reverse = _write(
        workdir / "case-study.sweep-mode2-mode1.scenario.json",
        json.dumps({"allocation": "online-ffd", "sweep": {"from_mode": "mode2", "to_mode": "mode1", "step": 1}})
        + "\n",
    )
    ops = (
        Op(
            key=f"{stem}/sweep-mode1-mode2-offline-table",
            argv=("simulate", system, committed),
            work=SWEEP,
            check=_sweep_max("# max-latency\t35\tat\t80"),
        ),
        Op(key=f"{stem}/sweep-mode2-mode1-online-ffd", argv=("simulate", system, reverse), work=SWEEP),
    )
    return Corpus(ops, ((system, committed), (system, reverse)))


# -- trace-replay -----------------------------------------------------------


def build_replay(root: Path, workdir: Path) -> Corpus:
    stem, system = _case_study(root, workdir)
    text = _alternating("mode1", "mode2", "offline-table", 397, 200_000)
    case_op, case_scenario = _replay(stem, system, workdir, text, "replay-every-397-to-200000")
    stem, synthetic = _synthetic(workdir, 0, 8, 16)
    text = _alternating("A", "B", "online-ffd", 997, 45_000)
    syn_op, syn_scenario = _replay(stem, synthetic, workdir, text, "replay-every-997-to-45000")
    return Corpus((case_op, syn_op), ((system, case_scenario), (synthetic, syn_scenario)))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "offline-search",
            "exact allocation search (m=4, 11 MD tasks per mode) dominates, nothing is simulated;"
            " m=8/n=18 draws are left out: one took 163 s, and comparing two commits runs a workload 22 times",
            ANALYZE,
            build_offline,
        ),
        Workload(
            "online-certify",
            "knapsack bounds and busy periods (m=16 with 80 and m=8 with 40 MD tasks per mode); no search, no simulation",
            ANALYZE,
            build_online,
        ),
        Workload(
            "sim-sweep",
            "MCR sweeps re-simulate from t=0 at every grid point; no trace is written",
            SWEEP,
            build_sweep,
        ),
        Workload(
            "trace-replay",
            "one long simulation per op with full trace recording and text output",
            REPLAY,
            build_replay,
        ),
    )
}


def work_done(op: Op, stdout: bytes, workdir: Path) -> int:
    """Units of work an op completed, read from its outputs."""
    if op.work == ANALYZE:
        return len(json.loads((workdir / op.reports[0]).read_text(encoding="utf-8"))["modes"])
    if op.work == SWEEP:
        header = stdout.split(b"\n", 1)[0].split(b"\t")
        return int(header[header.index(b"points") + 1])
    if op.work == REPLAY:
        with open(workdir / op.files[0], "rb") as handle:
            return sum(1 for line in handle if not line.startswith(b"#"))
    return 0
