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
not occur exactly once.  SIGTERM stops the run with status 143, after the
running pytest is killed and the temporary copy removed.  A survivor is a
gap in the tests: add a test that kills it, never drop the mutant.  Stdlib
only; the repository itself is never modified.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
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
        "a First-Fit placement loads no processor above 1 (the premise of the demand test in ``decides``)",
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
        "oracle-limit-inclusive", "src/modesched/offline.py",
        "return [period > limit for _, _, period in items]",
        "return [period >= limit for _, _, period in items]",
        "a processor whose longest MD period equals the limit is within it",
    ),
    Mutant(
        "tighten-keeps-tried", "src/modesched/offline.py",
        "                tried.clear()\n", "                pass\n",
        "a tightened limit voids the states each step tried: their long flags were set under the old limit",
    ),
    Mutant(
        "tighten-backs-up-one-step", "src/modesched/offline.py",
        "if now_long and busy(p, demand[p] + wcet) > limit:\n                    break",
        "if depth == len(incumbent) - 1:\n                    break",
        "a tightened limit backs the search up to the first step whose placement it refuses, so every"
        " placement completed after it is within it",
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
        "effective-takes-max", "src/modesched/latency.py",
        "effective=min(period_bound, busy)", "effective=max(period_bound, busy)",
        "a processor's latency bound is the smaller of its two bounds",
    ),
    Mutant(
        "demand-lag-flipped", "src/modesched/sim.py",
        "if demand + carry > lcm * (deadline - time):", "if demand + carry < lcm * (deadline - time):",
        "``decides`` decides a request without a fork only where no pending deadline's demand exceeds"
        " the time left to it",
    ),
    Mutant(
        "demand-skips-ready", "src/modesched/sim.py",
        "jobs = [((job[_KEY] // n, job[_TASK], job[_INDEX]), job[_REMAINING]) for job in self.ready[p]]",
        "jobs = []",
        "the demand test of ``decides`` counts every pending job, ready jobs included",
    ),
    Mutant(
        "demand-drops-carry", "src/modesched/sim.py",
        "if demand + carry > lcm", "if demand > lcm",
        "the demand test bounds the jobs released after the instant by each task's weight",
    ),
    Mutant(
        "demand-first-deadline-only", "src/modesched/sim.py",
        "for (deadline, _, _), remaining in jobs:", "for (deadline, _, _), remaining in jobs[:1]:",
        "the demand test holds at every pending deadline, not just the first",
    ),
    Mutant(
        "drain-w0-skips-mi-work", "src/modesched/sim.py",
        "                done += r\n", "                done += r if task_id in old_ids else 0\n",
        "the work ahead of the last old job at a request counts the pending MI jobs too, the carry-in"
        " that the paper's recurrence leaves out",
    ),
    Mutant(
        "drain-skips-releases-at-t", "src/modesched/sim.py",
        "if time % s.period == 0", "if False",
        "a job released at the request instant counts as pending: the transition waits for an old one,"
        " and its work counts in the closed form and the demand test",
    ),
    Mutant(
        "drain-mi-tie-flipped", "src/modesched/sim.py",
        "if s.id < star_id else", "if s.id > star_id else",
        "an MI job whose deadline equals that of the last old job runs first only if its task id is smaller",
    ),
    Mutant(
        "decides-ignores-check-due", "src/modesched/sim.py",
        "if deadline is not None and end - time + self.states[task_id].period > deadline:", "if False:",
        "a request is decided without a fork only if each transition check's job, released at the"
        " transition end, is due by the check's deadline",
    ),
    Mutant(
        "advance-past-limit", "src/modesched/sim.py",
        "if next_time is None or next_time >= limit:", "if next_time is None or next_time > limit:",
        "a run processes no instant at or past its horizon",
    ),
    Mutant(
        "preempt-stale-remaining", "src/modesched/sim.py",
        "current[_REMAINING] = current[_FINISH] - time", "pass",
        "a preempted job keeps only the work it has left, so every job runs exactly its wcet",
    ),
    Mutant(
        "fork-shares-pending-jobs", "src/modesched/sim.py",
        "jobs = {id(job): job[:] for job in self.pending_jobs()}",
        "jobs = {id(job): job for job in self.pending_jobs()}",
        "a fork's suffix mutates only its own copies",
    ),
    Mutant(
        "fork-shares-task-states", "src/modesched/sim.py",
        "twin.states = {task_id: state.copy() for task_id, state in self.states.items()}",
        "twin.states = dict(self.states)",
        "a fork's suffix mutates only its own copies",
    ),
    Mutant(
        "release-as-entry-pops", "src/modesched/sim.py",
        "                        released.append(states[task_id])\n",
        "                        released.append(states[task_id])\n                        break\n",
        "an instant's bucket is taken whole: every entry has its deadline checked, and its release"
        " collected, before the first release",
    ),
    Mutant(
        "stale-release-skips-deadline", "src/modesched/sim.py",
        "if job is not None and job[_REMAINING] > 0:",
        "if job is not None and job[_REMAINING] > 0 and (task_id is None or states[task_id].activation == activation):",
        "a disabled task's last job still has its deadline checked",
    ),
    Mutant(
        "rank-in-declaration-order", "src/modesched/sim.py",
        "enumerate(sorted(self.states))", "enumerate(self.states)",
        "equal absolute deadlines are broken by task id, whatever order the tasks are declared in",
    ),
    Mutant(
        "bucket-newest-first", "src/modesched/sim.py",
        "entries.append((job, task_id, state.activation))", "entries.insert(0, (job, task_id, state.activation))",
        "an instant's bucket keeps its entries in queue order, so its miss and release rows keep theirs",
    ),
    Mutant(
        "fork-after-request-instant", "src/modesched/sim.py",
        "(time // period + 1) * period", "-(-time // period) * period",
        "a job released exactly at an MCR instant counts as pending, so a fork made there serves on"
        " to the source mode's following MD release",
    ),
    Mutant(
        "serve-past-transition-end", "src/modesched/sim.py",
        "min((time + outcome[0], *releases))", "min((math.inf, *releases))",
        "a point at or after a fork's transition end has nothing pending and gets its own fork",
    ),
    Mutant(
        "decided-stretch-inclusive", "src/modesched/sim.py",
        "if time < until:", "if time <= until:",
        "a window ends before its end: a fork's before its transition end or the source mode's next"
        " MD release after its request, a decided one before the source run's next instant",
    ),
    Mutant(
        "fork-outcome-skips-advance", "src/modesched/sim.py",
        "        self.advance(limit)\n", "",
        "a fork's outcome is read once the fork has run up to the point's horizon",
    ),
    Mutant(
        "served-point-skips-advance", "src/modesched/sim.py",
        "self.advance(limit)", "self.latencies or self.advance(limit)",
        "a fork runs on to the horizon of each point it serves: its job misses and check completions"
        " still change with the horizon",
    ),
    Mutant(
        "walk-keeps-grid-order", "src/modesched/sim.py",
        "sorted(_scaled(point, base) for point in points)", "[_scaled(point, base) for point in points]",
        "an explicit grid is walked ascending: the source run and a serving fork never go back in time",
    ),
    Mutant(
        "max-keeps-latest-tie", "src/modesched/sim.py",
        "if latency > top:", "if latency >= top:",
        "the maximum latency is reported at the earliest point that reaches it",
    ),
    Mutant(
        "grid-base-first-point", "src/modesched/sim.py",
        "base = _time_base(points)", "base = _time_base(points[:1])",
        "an explicit grid's time base holds every point's denominator, not just the first point's",
    ),
    Mutant(
        "served-stretch-no-shift", "src/modesched/sim.py",
        "self.check_outcome(record, limit, shift)", "self.check_outcome(record, limit, 0)",
        "a point a fork serves has each transition deadline moved by its distance from the fork's request",
    ),
    Mutant(
        "window-excludes-own-point", "src/modesched/sim.py",
        "return outcome, max(until, time + 1), fork", "return outcome, until, fork",
        "a request's window holds its own point, so a repeat of it takes its outcome with no request",
    ),
    Mutant(
        "start-never-resumes", "src/modesched/sim.py",
        'kind = "resume" if current[_FINISH] else "start"', 'kind = "start"',
        "a job dispatched again after a preemption resumes; only its first dispatch starts it",
    ),
    Mutant(
        "stamp-whole-test-flipped", "src/modesched/sim.py",
        "if rest:", "if not rest:",
        "a trace time is its reduced fraction: only a whole instant prints as an integer",
    ),
    Mutant(
        "text-tail-past-cap-as-head", "src/modesched/sim.py",
        'tail = f"\\t{job}\\n"', 'tail = f"\\t{job}\\t"',
        "a trace row past the job-text table still ends with its job index and a newline",
    ),
    Mutant(
        "text-table-grows-one-short", "src/modesched/sim.py",
        'for j in range(len(tails), covered))', 'for j in range(len(tails), covered - 1))',
        "the job-text table holds a text for every index below its bound",
    ),
    Mutant(
        "old-count-never-drops", "src/modesched/sim.py",
        "                            self.old_count -= 1\n", "                            pass\n",
        "a transition ends once the last job it found pending in the disabled mode completes",
    ),
    Mutant(
        "report-booleans-swapped", "src/modesched/cli.py",
        'put("true")\n    elif value is False:\n        put("false")',
        'put("false")\n    elif value is False:\n        put("true")',
        "the report writer prints a bool as json.dumps does: True as true, False as false",
    ),
    Mutant(
        "mi-load-keeps-last-task", "src/modesched/model.py",
        "loads[t.home_processor] += t.utilization", "loads[t.home_processor] = t.utilization",
        "a processor's MI load is the sum over every MI task bound to it",
    ),
    Mutant(
        "cli-skips-required-options", "src/modesched/cli.py",
        "for dest in required:", "for dest in ():",
        "export-milp refuses an argument list without --mode or --output as a usage error",
    ),
    Mutant(
        "export-writes-in-place", "src/modesched/cli.py",
        "_write_replacing(args.output, lambda handle: handle.write(text))",
        'open(args.output, "w", encoding="utf-8").write(text)',
        "export-milp replaces its LP file: other hard links keep the old program",
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


def stop(signum: int, frame) -> None:
    """SIGTERM handler: exit through ``SystemExit``, so that ``subprocess.run``
    kills the running pytest and the temporary copy is removed on the way out."""
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
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
