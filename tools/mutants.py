"""Run Tier-1 against one-line mutants of the analyses and the simulator.

Each mutant replaces an exact text, which must occur once in its file under
``src/``, and names the claim it breaks.  The script copies ``src/``,
``tests/``, ``samples/``, ``tools/`` and ``pyproject.toml`` to a temporary
directory and runs Tier-1 there once without a mutant, which must pass.  It
then applies each mutant in turn, runs Tier-1 and prints whether the tests
killed it (some test failed, or the run timed out), let it survive (every
test passed) or could not tell (pytest failed without a failing test).
Tier-1 here leaves out ``tests/test_mutants.py``, which checks this list
against the unmutated source and so would fail under every mutant:

    python3 tools/mutants.py

The exit status is 0 when every mutant is killed, 1 when one survived and 2
when the clean copy fails, a run could not tell, or a mutant's text does
not occur exactly once.  A survivor is a gap in the tests: add a test that
kills it, never drop the mutant.  Stdlib only; the repository itself is
never modified.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "samples", "tools", "pyproject.toml")
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
          "--ignore=tests/test_mutants.py")
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    claim: str


MUTANTS = (
    Mutant(
        "ffd-strict", "src/modesched/online.py",
        "if loads[p] + task.utilization <= 1:", "if loads[p] + task.utilization < 1:",
        "First-Fit places a task wherever the load stays at most 1",
    ),
    Mutant(
        "ffd-overfill", "src/modesched/online.py",
        "if loads[p] + task.utilization <= 1:", "if loads[p] + task.utilization <= 2:",
        "a First-Fit placement loads no processor above 1 (the premise of fork settlement)",
    ),
    Mutant(
        "check-completion-strict", "src/modesched/sim.py",
        "return completion <= deadline", "return completion < deadline",
        "a first job completing exactly at its transition deadline meets it",
    ),
    Mutant(
        "check-horizon-inclusive", "src/modesched/sim.py",
        "if deadline < horizon:", "if deadline <= horizon:",
        "a transition deadline at the horizon is undecided, not missed",
    ),
    Mutant(
        "search-capacity-strict", "src/modesched/offline.py",
        "if util[p] + utilization > capacity:", "if util[p] + utilization >= capacity:",
        "the exact search fills a processor up to utilization 1 and no further",
    ),
    Mutant(
        "lopez-denominator", "src/modesched/online.py",
        "bound = Fraction(beta * processor_count + 1, beta + 1)",
        "bound = Fraction(beta * processor_count + 1, beta)",
        "the Lopez bound is (beta * m + 1) / (beta + 1)",
    ),
    Mutant(
        "busy-period-floor", "src/modesched/latency.py",
        "nxt += -(-current // period) * wcet", "nxt += (current // period) * wcet",
        "the busy-period recurrence takes the ceiling of L / T",
    ),
    Mutant(
        "settle-early", "src/modesched/sim.py",
        "self.waiting = tuple(p for p in self.waiting if running[p] is not None)", "self.waiting = ()",
        "a sweep fork settles only once every processor has idled since the transition end",
    ),
    Mutant(
        "advance-past-limit", "src/modesched/sim.py",
        "if next_time is None or next_time >= limit:", "if next_time is None or next_time > limit:",
        "a run processes no instant at or past its horizon",
    ),
    Mutant(
        "preempt-stale-remaining", "src/modesched/sim.py",
        "current.remaining = current.finish - time", "pass",
        "a preempted job keeps only the work it has left, so every job runs exactly its wcet",
    ),
    Mutant(
        "settled-fork-stale-finish", "src/modesched/sim.py",
        "self.next_finish = None", "pass",
        "a settled fork has nothing left to complete, so it processes no further instant",
    ),
)


def occurrences(mutant: Mutant, root: Path = ROOT) -> int:
    """How often the mutant's old text occurs in its file under ``root``."""
    return (root / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run_tier1(workdir: Path) -> tuple[int | None, str]:
    """Run Tier-1 in ``workdir``; return pytest's exit status (None on a timeout) and summary line."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, *PYTEST]
    try:
        done = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()[-200:]


def failing_count(summary: str) -> int:
    """The failed and erroring tests a pytest summary line counts."""
    return sum(int(n) for n in re.findall(r"(\d+) (?:failed|errors?)\b", summary))


def verdict(status: int | None, summary: str) -> str:
    """Killed on a timeout or a failing test, survived on a clean pass, else an error."""
    if status is None or failing_count(summary) > 0:
        return "killed"
    return "survived" if status == 0 else "error"


def main() -> int:
    stale = [m.name for m in MUTANTS if occurrences(m) != 1]
    if stale:
        print(f"old text not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 2
    verdicts = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        workdir = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, workdir / name, ignore=ignore)
            else:
                shutil.copy2(source, workdir / name)
        status, summary = run_tier1(workdir)
        if status != 0:
            print(f"Tier-1 fails without a mutant: {summary}", file=sys.stderr)
            return 2
        print(f"clean\t{summary}", flush=True)
        for mutant in MUTANTS:
            path = workdir / mutant.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                status, summary = run_tier1(workdir)
            finally:
                path.write_text(original, encoding="utf-8")
            verdicts.append(verdict(status, summary))
            print(f"{verdicts[-1]}\t{failing_count(summary)} failing\t{mutant.name}\t{summary}", flush=True)
    print(f"{verdicts.count('killed')}/{len(MUTANTS)} killed")
    if "error" in verdicts:
        return 2
    return 1 if "survived" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
