"""Discrete-event partitioned-EDF simulator for the synchronous mode-change protocol.

Each processor runs preemptive EDF over its resident jobs.  On a mode-change
request (MCR) the running mode's MD tasks stop releasing jobs; their pending
jobs drain to completion, and the instant the last one completes the
transition ends: the destination mode's MD tasks are enabled (and, under the
default release policy, released immediately).  MI tasks release periodically
throughout, undisturbed.

All timestamps are exact: every release, deadline, preemption and completion
instant is a rational combination of the input parameters, so the engine
rescales the whole scenario to one integer time base (``latency._time_base``
of the horizon, the task parameters, the MCR times and the release offsets)
and simulates in integers.

One engine, three outputs, chosen by the row sink ``_Engine._emit``, a
C-level bound method that takes one row tuple.  ``run`` advances in windows
one longest period wide (``execute``) whatever its output; the outputs
differ in what becomes of a window's rows:
  * rows: ``run(scenario)`` appends each row to ``events`` and keeps them all
    in its ``SimTrace``; only ``SimTrace.events`` turns them back into
    rationals;
  * text: ``run(scenario, out=handle)`` appends to ``events`` too, and after
    each window formats its rows into ``handle`` with one write, then drops
    them, so memory is bounded by the task set, not the horizon;
  * none: a sweep's ``_SourceRun`` and its forks append to ``_DISCARD``, a
    deque of length 0, and read the engine's integer fields.
Both text paths, streamed and ``SimTrace.to_text``, go through ``_TraceText``,
which looks up the texts of a row's processor and job index in tables instead
of formatting them on every row.

The queue is a calendar (Brown, "Calendar queues", CACM 1988): ``due``
maps each instant to its bucket, the list of its job entries in queue order,
and ``due_times`` is a heap of the plain-int instants that have a bucket, so
the entries of one instant share one heap entry.  A job entry ``(job,
task_id, activation)`` checks the job's deadline and carries its task's next
release, which with implicit deadlines falls on the same instant.  A release
that an offset places instead has an entry of its own, ``(None, task_id,
activation)``, beside the deadline-only entry ``(job, None, 0)`` of the job
before it; so has the first release after each enable.  A release whose
activation is no longer the task's is stale and dropped; the deadline check
of its entry still runs.  Requests wait in ``requests``, ``(time,
destination)`` in time order, each with a bucket at its instant, empty if
need be.  ``advance`` takes an instant's bucket whole, checking each
deadline in queue order, and releases the collected jobs after the last
one, then handles the instant's request: each merged entry takes the place
of two consecutive entries, so miss rows and release rows keep their order,
and every miss row precedes every release row.  A request whose transition
ends at once refills the bucket with the destination's releases, which a
second round takes.

A pending job is one list whose first item is its EDF key, one int,
``deadline * n + rank`` for ``n`` tasks and ``rank`` its task's position
among the sorted ids: two pending jobs of one task never share a deadline,
so the key orders by deadline, then task id, and never needs the job index.
A ready queue is a heap of the job lists themselves: their keys differ, so
the heap compares only keys.  The jobs a request finds pending in the mode
it disables are marked ``old`` and counted in ``old_count``; each one's
completion lowers the count, and the transition ends when it reaches 0.

``_Engine.advance(limit)`` is the one instant loop: each instant runs the
completions, the transition-end check, the queued entries and one dispatch
pass over the processors, whose ready queues and running jobs are lists
indexed by processor number.  A running job carries its completion
instant (its ``finish`` item), so the clock moves without touching any job:
the dispatch pass sets ``finish`` when it starts or resumes a job and finds
the earliest (``next_finish``), which is where the loop stops next.
``remaining`` is exact only for a job off a processor: it is rewritten at a
preemption and zeroed at the completion.

A run ends only in ``advance(limit)``, which processes no instant at or past
its limit.  Releases and deadlines are queued whatever their instant, so what
falls at or past the horizon stays queued and never shows in the trace.

Deterministic tie rules (they fix the trace byte-for-byte):
  * equal absolute deadlines are broken by task id (then job index, which
    never decides: two pending jobs of one task never share a deadline);
  * a job released exactly at an MCR instant counts as pending (the release
    is processed before the request);
  * simultaneous trace events are ordered completion, transition bookkeeping,
    deadline check, release, MCR, then scheduler switches.

An MCR sweep (``sweep_mcr``) gives each grid point the outcome of its own
scenario without simulating each point on its own: one source-mode run
decides a request from its state there, or is forked where it cannot, and
one request gives the outcome of a window of later points.  ``_SourceRun``
states how, and why that is exact.
"""

from __future__ import annotations

import collections
import heapq
import io
import math
import sys
from fractions import Fraction
from collections.abc import Mapping
from types import MappingProxyType
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

from .model import (
    Allocation,
    ModeSystem,
    ScenarioError,
    SimulationError,
    SystemValidationError,
    _cut,
    _decode_json,
    _quote,
    _quote_all,
    _shown,
    _too_long,
    as_array,
    as_time,
    validate_allocation,
)
from .latency import _scaled, _time_base
from .offline import InfeasibleModeError, solve_optimal
from .online import first_fit_decreasing, latency_upper_bound, PlacementError

OFFLINE_TABLE = "offline-table"
ONLINE_FFD = "online-ffd"

# the row sink of sweep runs, which keep no rows
_DISCARD = collections.deque(maxlen=0).append

# how many job indices, from 0, ``_TraceText`` keeps a ready text for
_JOB_TEXTS = 1 << 14


class Scenario(collections.namedtuple(
    "Scenario",
    "system initial_mode allocation_source mcr_schedule horizon release_offsets static_tables",
    defaults=(MappingProxyType({}), None),
)):
    """One executable simulation scenario on a ``ModeSystem``.

    ``mcr_schedule`` is a tuple of (time, destination mode) pairs, and every
    time is a ``Fraction``.  ``release_offsets`` maps task ids to tuples of
    release instants relative to each enablement of the task (time 0 for MI
    tasks and the initial mode's MD tasks, the transition end for later
    modes); consecutive offsets must be at least one period apart.  After
    the listed releases the task continues strictly periodically.
    ``static_tables`` maps mode ids to the ``Allocation``s used when
    ``allocation_source`` is "offline-table", and is None otherwise.
    """

    __slots__ = ()


class SweepSpec(collections.namedtuple("SweepSpec", "from_mode to_mode step allocation_source")):
    """Directive to sweep a single MCR over a grid of request times, ``step``
    (a ``Fraction``) apart."""

    __slots__ = ()


class SimEvent(collections.namedtuple("SimEvent", "time processor kind task job")):
    """One trace row with its time a ``Fraction``; ``processor`` (an int),
    ``task`` (an id) and ``job`` (an int) may be None."""

    __slots__ = ()


class TransitionCheck(collections.namedtuple(
    "TransitionCheck", "task_id mcr_time absolute_deadline first_completion ok"
)):
    """First-job transition-deadline record for one newly enabled MD task; its
    times are ``Fraction``s, ``first_completion`` and ``ok`` None while
    undecided."""

    __slots__ = ()


class SimTrace(collections.namedtuple("SimTrace", "rows scale latencies checks job_deadline_misses")):
    """One run's trace, in the engine's integers and their time base.

    A row is ``(time, processor, kind, task, job)``, a latency ``(request,
    latency)`` and a check ``(task id, request, absolute deadline, first
    completion or None, verdict)``, every time in units of ``1/scale``;
    ``rows``, ``latencies`` and ``checks`` are tuples of them, and
    ``job_deadline_misses`` is an int.  ``events``, ``observed_latencies`` and ``transition_checks``, the same
    as exact rationals, are built anew on each access; ``to_text()`` and
    ``footer()`` format the integers directly.  A run that streamed its text
    (``run(scenario, out=...)``) keeps no rows.
    """

    __slots__ = ()

    @property
    def events(self) -> tuple[SimEvent, ...]:
        return tuple(SimEvent(Fraction(t, self.scale), *rest) for t, *rest in self.rows)

    @property
    def observed_latencies(self) -> tuple[tuple[Fraction, Fraction], ...]:
        scale = self.scale
        return tuple((Fraction(at, scale), Fraction(latency, scale)) for at, latency in self.latencies)

    @property
    def transition_checks(self) -> tuple[TransitionCheck, ...]:
        scale = self.scale
        return tuple(
            TransitionCheck(
                task_id, Fraction(mcr, scale), Fraction(absolute, scale),
                None if completion is None else Fraction(completion, scale), ok,
            )
            for task_id, mcr, absolute, completion, ok in self.checks
        )

    @property
    def deadline_miss_count(self) -> int:
        """Job deadline misses plus violated transition deadlines."""
        return self.job_deadline_misses + sum(1 for *_, ok in self.checks if ok is False)

    def footer(self) -> str:
        """The ``#`` summary lines that end ``to_text()``; a time too long to
        print is refused."""
        return _TraceText(self.scale, None).footer(self)

    def to_text(self) -> str:
        """Tab-separated event rows, then the footer (see ``_TraceText``)."""
        buffer = io.StringIO()
        text = _TraceText(self.scale, buffer)
        text.write(self.rows)
        buffer.write(text.footer(self))
        return buffer.getvalue()


class _TraceText:
    """The text output: batches of trace rows, each formatted as lines and
    written to ``out`` at once, then the footer.

    Rows come in time order, so each instant is formatted once, as ``str`` of
    its reduced fraction, even across batches: a whole instant directly, the
    others through ``fractions``, which maps ``time % scale`` to the divisor
    that reduces the instant and its ``"/denominator"`` text, each entry made
    on first use.  The footer's times go through ``_stamp``.  An instant too
    long to print is refused only by ``footer``: a run streaming its rows may
    still fail later with an error of its own, and that error comes first.

    The integer columns come from two lists of ready texts: ``heads[p]`` is
    ``"\\t{p}\\t"`` for processor ``p`` and ``tails[j]`` is ``"\\t{j}\\n"`` for
    job index ``j``, so a row is ``f"{stamp}{head}{kind}\\t{task}{tail}"``.
    Both grow only when a row's number is past their end: ``heads`` up to
    that processor, ``tails`` to at least twice its length, never past
    ``_JOB_TEXTS`` entries, so a run of any horizon keeps at most that many
    job texts; a job index at or past ``_JOB_TEXTS`` is formatted in the row,
    and a ``None`` column is ``-``.  ``write`` moves its bound on ``tails``
    with each growth, since one batch (all of ``to_text``) may grow it many
    times.
    """

    __slots__ = ("scale", "out", "instant", "stamp", "fractions", "heads", "tails", "refusal")

    def __init__(self, scale: int, out: Optional[TextIO]):
        self.scale = scale
        self.out = out
        self.instant: Optional[int] = None
        self.stamp = ""
        self.fractions: dict[int, tuple[int, str]] = {}
        self.heads: list[str] = []
        self.tails: list[str] = []
        self.refusal: Optional[SystemValidationError] = None

    def write(self, rows: Iterable[tuple]) -> None:
        """Format ``rows`` and write them to ``out`` with one call."""
        instant, stamp, scale, fractions = self.instant, self.stamp, self.scale, self.fractions
        heads, tails = self.heads, self.tails
        covered = len(tails)
        lines = []
        for time, processor, kind, task, job in rows:
            if time != instant:
                instant = time
                rest = time % scale
                try:
                    if rest:
                        reduced = fractions.get(rest)
                        if reduced is None:  # gcd(time, scale) == gcd(rest, scale)
                            divisor = math.gcd(rest, scale)
                            reduced = fractions[rest] = divisor, f"/{scale // divisor}"
                        stamp = f"{time // reduced[0]}{reduced[1]}"
                    else:
                        stamp = str(time // scale)
                except ValueError:  # an instant too long to print: ``_stamp`` refuses it
                    stamp = self._stamp(time)
            if processor is None:
                head = "\t-\t"
            else:
                try:
                    head = heads[processor]
                except IndexError:
                    heads.extend(f"\t{p}\t" for p in range(len(heads), processor + 1))
                    head = heads[processor]
            if job is None:
                tail = "\t-\n"
            elif job < covered:
                tail = tails[job]
            elif job < _JOB_TEXTS:
                covered = min(_JOB_TEXTS, max(job + 1, 2 * covered))
                tails.extend(f"\t{j}\n" for j in range(len(tails), covered))
                tail = tails[job]
            else:
                tail = f"\t{job}\n"
            lines.append(f"{stamp}{head}{kind}\t{'-' if task is None else task}{tail}")
        self.instant, self.stamp = instant, stamp
        self.out.write("".join(lines))

    def _stamp(self, time: int) -> str:
        scale = self.scale
        divisor = math.gcd(time, scale)
        try:
            return str(time // scale) if divisor == scale else f"{time // divisor}/{scale // divisor}"
        except ValueError:  # ``str`` refuses exactly what ``printable`` refuses
            self.refusal = self.refusal or _too_long("trace time", sys.get_int_max_str_digits())
            return "-"

    def footer(self, trace: SimTrace) -> str:
        """The footer of ``trace``, or the first refusal raised."""
        stamp = self._stamp
        lines = [f"# latency\t{stamp(at)}\t{stamp(latency)}\n" for at, latency in trace.latencies]
        for task_id, mcr, absolute, completion, ok in trace.checks:
            lines.append(
                f"# transition-deadline\t{task_id}\t{stamp(mcr)}\t{stamp(absolute)}"
                f"\t{'-' if completion is None else stamp(completion)}"
                f"\t{'-' if ok is None else ('ok' if ok else 'MISS')}\n"
            )
        lines.append(f"# deadline-misses\t{trace.deadline_miss_count}\n")
        if self.refusal is not None:
            raise self.refusal
        return "".join(lines)


class SweepResult(collections.namedtuple(
    "SweepResult", "max_latency at_time points job_misses transition_misses bound"
)):
    """A sweep's worst latency (a ``Fraction``), the earliest point that
    reaches it, the point count, the job and transition-deadline misses, and
    the bound in force: the source's optimal latency (offline-table) or
    online bound."""

    __slots__ = ()

    @property
    def deadline_misses(self) -> int:
        return self.job_misses + self.transition_misses


def _check_allocation_source(allocation_source: str) -> None:
    """Refuse an allocation source other than the two the simulator knows."""
    if allocation_source not in (OFFLINE_TABLE, ONLINE_FFD):
        raise ScenarioError(
            f"allocation must be {OFFLINE_TABLE!r} or {ONLINE_FFD!r}, got {_quote(allocation_source)}"
        )


def make_scenario(
    system: ModeSystem,
    initial_mode: str,
    allocation_source: str,
    mcrs: Sequence[tuple[object, str]],
    horizon,
    release_offsets: Optional[Mapping[str, Sequence[object]]] = None,
    static_tables: Optional[Mapping[str, Allocation]] = None,
) -> Scenario:
    """Validate scenario ingredients and, for static allocation, build the tables.

    Tables are computed (via the exact offline search) only for the modes the
    MCR schedule actually enters; each entered mode's table is validated, if
    the caller gave it (under that mode's id, for that mode), or computed
    once, however often the mode is entered.
    """
    system.mode(initial_mode)
    _check_allocation_source(allocation_source)
    horizon = as_time(horizon, what="horizon")

    schedule: list[tuple[Fraction, str]] = []
    active = initial_mode
    previous = None
    for i, (raw_time, dest) in enumerate(mcrs):
        time = as_time(raw_time, what=f"mcrs[{i}].time")
        if previous is not None and time <= previous:
            raise ScenarioError(f"mcrs[{i}]: times must be strictly increasing")
        if time >= horizon:
            raise ScenarioError(f"mcrs[{i}]: time {_shown(time)} is outside the horizon {_shown(horizon)}")
        if (active, dest) not in system.mode_graph.edges:
            raise ScenarioError(f"mcrs[{i}]: no transition from mode {_quote(active)} to {_quote(dest)}")
        schedule.append((time, dest))
        previous = time
        active = dest

    if release_offsets is not None and not isinstance(release_offsets, Mapping):
        raise ScenarioError(
            f"release_offsets: expected an object of task ids, got {type(release_offsets).__name__}"
        )
    offsets: dict[str, tuple[Fraction, ...]] = {}
    for task_id, raw_list in (release_offsets or {}).items():
        task = system.task(task_id)
        name = _cut(task_id)
        raw_list = as_array(raw_list, what=f"release offsets of {name}", error=ScenarioError)
        values = tuple(as_time(v, what=f"release offset of {name}") for v in raw_list)
        for earlier, later in zip(values, values[1:]):
            if later - earlier < task.period:
                raise ScenarioError(
                    f"release offsets of {name}: gap {_shown(later - earlier)} below period {_shown(task.period)}"
                )
        offsets[task_id] = values

    tables: Optional[dict[str, Allocation]] = None
    if allocation_source == OFFLINE_TABLE:
        tables = dict(static_tables or {})
        for mode_id in dict.fromkeys([initial_mode, *(dest for _, dest in schedule)]):
            if mode_id in tables:
                table = tables[mode_id]
                if table.mode_id != mode_id:
                    raise ScenarioError(
                        f"static table for mode {_quote(mode_id)} is the table of mode {_quote(table.mode_id)}"
                    )
                validate_allocation(system, table)
                continue
            try:
                tables[mode_id] = solve_optimal(system, mode_id).best_allocation
            except InfeasibleModeError as exc:
                raise ScenarioError(str(exc)) from exc

    return Scenario(
        system=system,
        initial_mode=initial_mode,
        allocation_source=allocation_source,
        mcr_schedule=tuple(schedule),
        horizon=horizon,
        release_offsets=offsets,
        static_tables=tables,
    )


def parse_scenario(text: str, system: ModeSystem) -> Union[Scenario, SweepSpec]:
    """Parse a JSON scenario file (decimal literals read exactly)."""
    raw = _decode_json(text, ScenarioError)
    if not isinstance(raw, Mapping):
        raise ScenarioError("scenario description must be an object")
    allowed = {"initial_mode", "allocation", "horizon", "mcrs", "release_offsets", "sweep"}
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(f"unknown scenario keys {_quote_all(sorted(unknown))}")
    allocation_source = raw.get("allocation", OFFLINE_TABLE)

    if "sweep" in raw:
        replaced = sorted(set(raw) & {"initial_mode", "horizon", "mcrs", "release_offsets"})
        if replaced:
            names = ", ".join(map(repr, replaced))
            raise ScenarioError(f"a scenario may carry either 'sweep' or {names}, not both")
        sweep = raw["sweep"]
        if not isinstance(sweep, Mapping) or set(sweep) - {"from_mode", "to_mode", "step"}:
            raise ScenarioError("sweep: expected an object with keys from_mode, to_mode, step")
        for key in ("from_mode", "to_mode", "step"):
            if key not in sweep:
                raise ScenarioError(f"sweep: missing key {key!r}")
        step = as_time(sweep["step"], what="sweep.step")
        if step <= 0:
            raise ScenarioError("sweep.step must be positive")
        _check_allocation_source(allocation_source)
        return SweepSpec(
            from_mode=sweep["from_mode"],
            to_mode=sweep["to_mode"],
            step=step,
            allocation_source=allocation_source,
        )

    for key in ("initial_mode", "horizon"):
        if key not in raw:
            raise ScenarioError(f"missing scenario key {key!r}")
    mcrs = []
    for i, entry in enumerate(as_array(raw.get("mcrs", []), what="mcrs", error=ScenarioError)):
        if not isinstance(entry, Mapping) or set(entry) != {"time", "to"}:
            raise ScenarioError(f"mcrs[{i}]: expected an object with keys time, to")
        mcrs.append((entry["time"], entry["to"]))
    return make_scenario(
        system,
        initial_mode=raw["initial_mode"],
        allocation_source=allocation_source,
        mcrs=mcrs,
        horizon=raw["horizon"],
        release_offsets=raw.get("release_offsets"),
    )


def load_scenario(path, system: ModeSystem) -> Union[Scenario, SweepSpec]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read(), system)


def hyperperiod(tasks) -> Fraction:
    """Least common multiple of the tasks' periods (exact, works for rationals)."""
    periods = [t.period for t in tasks]
    scale = _time_base(periods)
    return Fraction(math.lcm(*(_scaled(p, scale) for p in periods)), scale)


class _TaskState:
    __slots__ = (
        "id", "rank", "wcet", "period", "offsets", "processor",
        "activation", "enable_time", "offset_index", "job_count",
    )

    def __init__(self, task, wcet: int, period: int, offsets: tuple[int, ...]):
        self.id = task.id
        self.rank = 0  # the task's position among the sorted ids, for the EDF key; set by the engine
        self.wcet = wcet
        self.period = period
        self.offsets = offsets
        self.processor: Optional[int] = task.home_processor
        self.activation = 0  # bumped at each enable and disable: queued releases go stale
        self.enable_time = 0
        self.offset_index = 0
        self.job_count = 0

    def copy(self) -> "_TaskState":
        twin = object.__new__(_TaskState)
        twin.id, twin.rank, twin.wcet, twin.period = self.id, self.rank, self.wcet, self.period
        twin.offsets, twin.processor = self.offsets, self.processor
        twin.activation, twin.enable_time = self.activation, self.enable_time
        twin.offset_index, twin.job_count = self.offset_index, self.job_count
        return twin


# A pending job is one list, ``[key, remaining, finish, task id, index,
# processor, old]``, built at its release in ``_Engine.advance`` and pushed
# onto its processor's ready heap itself.  ``key`` is the EDF key ``deadline
# * n + rank`` (see the module docstring), unique among the jobs pending on
# one processor, so the heap compares only keys.  ``remaining`` is exact only
# off a processor: a running job's work ends at ``finish``, 0 until the first
# dispatch and set by each dispatch that starts or resumes it.  ``processor``
# is pinned at release; later re-placements do not move it.  ``old`` marks a
# job that a request found pending in the mode it disabled: the transition
# ends once the last such job completes.
_KEY, _REMAINING, _FINISH, _TASK, _INDEX, _PROCESSOR, _OLD = range(7)


class _Engine:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        system = scenario.system
        self.system = system
        self.processors = system.processors

        tasks = system.mi_tasks + system.md_tasks
        times = [scenario.horizon, *(time for time, _ in scenario.mcr_schedule)]
        times += (v for t in tasks for v in (t.wcet, t.period, t.transition_deadline) if v is not None)
        times += (v for offsets in scenario.release_offsets.values() for v in offsets)
        self.scale = _time_base(times)

        self.horizon = self.scaled(scenario.horizon)
        self.states: dict[str, _TaskState] = {}
        for task in tasks:
            offsets = tuple(self.scaled(v) for v in scenario.release_offsets.get(task.id, ()))
            self.states[task.id] = _TaskState(task, self.scaled(task.wcet), self.scaled(task.period), offsets)

        self.time = 0  # the last instant processed (a sweep's source run: the last request)
        self.instants = 0  # how many instants were processed
        # the calendar: each instant's bucket of job entries (job or None, task
        # id or None, activation), the job's deadline check, the task's next
        # release or both, in queue order; the heap of the instants that have
        # a bucket; and the requests, (time, destination) in time order
        self.due: dict[int, list[tuple[Optional[list], Optional[str], int]]] = {}
        self.due_times: list[int] = []
        self.requests: list[tuple[int, str]] = []
        for rank, task_id in enumerate(sorted(self.states)):
            self.states[task_id].rank = rank
        # indexed by processor number; slot 0 stays empty
        self.ready: list[list[list]] = [[] for _ in range(len(self.processors) + 1)]
        self.running: list[Optional[list]] = [None] * (len(self.processors) + 1)
        self.next_finish: Optional[int] = None  # the earliest ``finish`` of a running job
        self.old_count = 0  # the jobs marked old still pending
        self.job_misses = 0

        # by mode, fixed for the run, so forks share them: the MD ids sorted
        # (dict keys), and from the mode's first enable on, one (task id,
        # processor, scaled transition deadline or None) per MD task
        self.md_ids = {mode: dict.fromkeys(sorted(system.mode(mode).md_tasks)) for mode in system.mode_ids()}
        self.plans: dict[str, tuple[tuple[str, int, Optional[int]], ...]] = {}
        self.current_mode = scenario.initial_mode
        self.mcr_time = 0
        self.destination: Optional[str] = None  # set only during a transition

        self.events: list[tuple[int, Optional[int], str, Optional[str], Optional[int]]] = []
        self._emit = self.events.append  # takes one row
        self.latencies: list[tuple[int, int]] = []
        self.checks: list[dict] = []
        # the checks whose job has not completed yet
        self._check_by_task_job: dict[tuple[str, int], dict] = {}

    # -- helpers ------------------------------------------------------------

    def scaled(self, value: Fraction) -> int:
        return _scaled(value, self.scale)

    def _bucket(self, time: int) -> list[tuple[Optional[list], Optional[str], int]]:
        """The bucket of ``time``, opened empty if need be."""
        bucket = self.due.get(time)
        if bucket is None:
            bucket = self.due[time] = []
            heapq.heappush(self.due_times, time)
        return bucket

    def _request(self, time: int, destination: str) -> None:
        """Queue a request after every request queued so far; it is handled
        after the bucket of its instant, which it opens if need be."""
        self.requests.append((time, destination))
        self._bucket(time)

    def _frac(self, value: int) -> Fraction:
        return Fraction(value, self.scale)

    def pending_jobs(self) -> Iterator[list]:
        """Every released job not yet complete: the running ones, then the ready queues."""
        yield from (job for job in self.running if job is not None)
        for queue in self.ready:
            yield from queue

    def allocation_for(self, mode_id: str, time: int) -> Allocation:
        if self.scenario.allocation_source == OFFLINE_TABLE:
            return self.scenario.static_tables[mode_id]
        try:
            return first_fit_decreasing(self.system, mode_id)
        except PlacementError as exc:
            raise SimulationError(
                f"online placement failed at time {_shown(self._frac(time))}: {exc}",
                time=self._frac(time),
                task_id=exc.task_id,
            ) from exc

    @staticmethod
    def check_outcome(record: dict, horizon, shift: int) -> Optional[bool]:
        """The verdict of a transition check in a run up to ``horizon``, its
        absolute deadline moved ``shift`` later."""
        deadline = record["absolute"] + shift
        completion = record["completion"]
        if completion is not None:
            return completion <= deadline
        if deadline < horizon:
            return False  # the deadline passed inside the window without a completion
        return None

    # -- protocol actions ---------------------------------------------------

    def start(self) -> None:
        """Enable the MI tasks and the initial mode at time 0."""
        for task in self.system.mi_tasks:
            self._schedule_release(self.states[task.id])
        self.enable_mode(self.scenario.initial_mode, 0)

    def enable_mode(self, mode_id: str, time: int) -> None:
        """Enable a mode's MD tasks; while a transition is under way
        (``destination`` still set), also record their transition checks."""
        plan = self.plans.get(mode_id)
        if plan is None:
            assignment = self.allocation_for(mode_id, time).assignment
            plan = self.plans[mode_id] = tuple(
                (task.id, assignment[task.id], None if task.transition_deadline is None
                 else self.scaled(task.transition_deadline))
                for task in self.system.md_tasks_of(mode_id)
            )
        for task_id, processor, transition_deadline in plan:
            state = self.states[task_id]
            state.processor = processor
            state.activation += 1
            state.enable_time = time
            state.offset_index = 0
            self._emit((time, processor, "enable", task_id, None))
            if self.destination is not None and transition_deadline is not None:
                record = {
                    "task_id": task_id,
                    "mcr": self.mcr_time,
                    "absolute": self.mcr_time + transition_deadline,
                    "completion": None,
                }
                self.checks.append(record)
                self._check_by_task_job[(task_id, state.job_count)] = record
            self._schedule_release(state)

    def _schedule_release(self, state: _TaskState) -> None:
        """Queue a release-only entry: the task's next release at an offset,
        or, with no offset left, its first release since the last enable.
        Every other release rides on its predecessor's deadline entry."""
        if state.offset_index < len(state.offsets):
            time = state.enable_time + state.offsets[state.offset_index]
            state.offset_index += 1
        else:
            time = state.enable_time
        self._bucket(time).append((None, state.id, state.activation))

    def do_mcr(self, time: int, destination: str) -> None:
        if self.destination is not None:
            raise SimulationError(
                f"mode-change request at {_shown(self._frac(time))} arrived during an ongoing transition",
                time=self._frac(time),
            )
        self._emit((time, None, "MCR", destination, None))
        self.mcr_time = time
        self.destination = destination
        old_ids = self.md_ids[self.current_mode]
        for task_id in old_ids:
            state = self.states[task_id]
            state.activation += 1
            self._emit((time, state.processor, "MD-disabled", task_id, None))
        for job in self.pending_jobs():
            if job[_TASK] in old_ids:
                job[_OLD] = True
                self.old_count += 1
        self.maybe_end_transition(time)

    def maybe_end_transition(self, time: int) -> None:
        if self.destination is None or self.old_count:
            return
        self._emit((time, None, "transition-end", None, None))
        self.latencies.append((self.mcr_time, time - self.mcr_time))
        self.enable_mode(self.destination, time)
        self.current_mode, self.destination = self.destination, None

    # -- main loop ----------------------------------------------------------

    def advance(self, limit: int) -> Optional[int]:
        """Process every instant after the current one and before ``limit``;
        return the first instant left with a completion or a bucket due,
        None if there is none.

        This is the engine's one instant loop.  Each instant runs the
        completions, the transition-end check, then its bucket (every
        deadline check, then the releases, then the request, and a second
        round for the releases a request queued), then one dispatch pass
        over the processors, which finds the earliest ``finish``
        (``next_finish``).
        """
        due, due_times, requests = self.due, self.due_times, self.requests
        ready, running, states, n = self.ready, self.running, self.states, len(self.states)
        emit, checks, processors = self._emit, self._check_by_task_job, self.processors
        heappush, heappop = heapq.heappush, heapq.heappop
        next_finish, destination = self.next_finish, self.destination
        time = self.time
        count = 0
        while True:
            next_time = due_times[0] if due_times else None
            if next_finish is not None and (next_time is None or next_finish < next_time):
                next_time = next_finish
            if next_time is None or next_time >= limit:
                break
            time = next_time
            count += 1
            if time == next_finish:
                for p in processors:
                    job = running[p]
                    if job is not None and job[_FINISH] == time:
                        running[p] = None
                        job[_REMAINING] = 0
                        emit((time, p, "complete", job[_TASK], job[_INDEX]))
                        if job[_OLD]:
                            self.old_count -= 1
                        record = checks.pop((job[_TASK], job[_INDEX]), None) if checks else None
                        if record is not None:  # the first job since an enable: its check's completion
                            record["completion"] = time
            if destination is not None and not self.old_count:
                self.maybe_end_transition(time)
                destination = self.destination
            bucket = due.pop(time, None)
            while bucket is not None:  # a second round takes the releases a request queued
                heappop(due_times)
                released = []
                for job, task_id, activation in bucket:
                    if job is not None and job[_REMAINING] > 0:  # each job's deadline is queued once
                        self.job_misses += 1
                        emit((time, job[_PROCESSOR], "deadline-miss", job[_TASK], job[_INDEX]))
                    if task_id is not None and states[task_id].activation == activation:  # not stale
                        released.append(states[task_id])
                for state in released:  # after every deadline check of the instant
                    task_id, index, p = state.id, state.job_count, state.processor
                    state.job_count = index + 1
                    deadline = time + state.period
                    job = [deadline * n + state.rank, state.wcet, 0, task_id, index, p, False]
                    emit((time, p, "release", task_id, index))
                    heappush(ready[p], job)
                    entries = due.get(deadline)
                    if entries is None:
                        entries = due[deadline] = []
                        heappush(due_times, deadline)
                    # the next release rides on this job's deadline entry unless an offset places it
                    if state.offsets and state.offset_index < len(state.offsets):
                        entries.append((job, None, 0))
                        self._schedule_release(state)
                    else:
                        entries.append((job, task_id, state.activation))
                bucket = None
                if requests and requests[0][0] == time:
                    self.do_mcr(time, requests.pop(0)[1])
                    destination = self.destination
                    bucket = due.pop(time, None)
            next_finish = None
            for p in processors:
                queue = ready[p]
                current = running[p]
                if queue and (current is None or queue[0][_KEY] < current[_KEY]):
                    if current is not None:
                        emit((time, p, "preempt", current[_TASK], current[_INDEX]))
                        current[_REMAINING] = current[_FINISH] - time
                        heappush(queue, current)
                    current = heappop(queue)
                    # ``finish`` is 0 until the first dispatch sets it past 0: every wcet is positive
                    kind = "resume" if current[_FINISH] else "start"
                    emit((time, p, kind, current[_TASK], current[_INDEX]))
                    current[_FINISH] = time + current[_REMAINING]
                    running[p] = current
                if current is not None and (next_finish is None or current[_FINISH] < next_finish):
                    next_finish = current[_FINISH]
        self.time, self.next_finish = time, next_finish
        self.instants += count
        return next_time

    def execute(self, flush=None) -> SimTrace:
        """Run the scenario to its horizon in windows one longest period wide,
        each from the next due instant: a task releases a bounded number of
        jobs in one.  With ``flush``, each window's rows go to ``flush`` and
        are then dropped."""
        if self.horizon > 0:
            self.start()
            for mcr_time, destination in self.scenario.mcr_schedule:
                self._request(self.scaled(mcr_time), destination)
            width = max((state.period for state in self.states.values()), default=self.horizon)
            following: Optional[int] = 0
            while following is not None and following < self.horizon:
                following = self.advance(min(following + width, self.horizon))
                if flush is not None:
                    flush(self.events)
                    self.events.clear()
        return self.trace()

    def trace(self) -> SimTrace:
        """The run's trace, in integers: nothing is made a rational here."""
        checks = tuple(
            (record["task_id"], record["mcr"], record["absolute"], record["completion"],
             self.check_outcome(record, self.horizon, 0))
            for record in self.checks
        )
        return SimTrace(
            rows=tuple(self.events),
            scale=self.scale,
            latencies=tuple(self.latencies),
            checks=checks,
            job_deadline_misses=self.job_misses,
        )


class _SourceRun(_Engine):
    """The one source-mode simulation of a sweep, with no MCR of its own.

    It processes every instant before a grid point's request instant ``t``
    and no more; a point it cannot decide there (below) forks it, and the
    fork queues its request as ``execute`` queues a scenario's, so instant
    ``t`` runs through the same loop as in the point's own run: its releases
    first, then the request.  Neither this run nor its forks keep rows
    (their ``_emit`` is ``_DISCARD``): a sweep reads the integer fields of a
    fork advanced up to the point's horizon.  A fork queues what the point's
    own run would queue, and ``advance`` processes neither's entries at or
    past that horizon, so the fork has processed what that run would.

    The fork made at ``t0`` serves every later point ``t`` that lies before
    both the source mode's next MD release strictly after ``t0`` and the
    fork's transition end ``E``.  A request stops only MD releases, and this
    run releases no MD job in ``(t0, t]``, so there the two runs differ in
    nothing: the same MI jobs are released, the same jobs complete (old MD
    jobs too), the same deadlines are missed and each dispatch is the same.
    The request at ``t`` thus leaves pending the fork's old jobs still
    pending at ``t``, and the transition end and the suffix are the fork's;
    the latency is ``E - t`` and each transition deadline falls ``t - t0``
    later.  A sweep has no release offsets, so that release is
    ``(t0 // T + 1) * T`` at the earliest over the source mode's MD periods
    ``T``: a job released at ``t0`` itself is pending at ``t0``, so the
    stretch runs on to the following release.  A point at or after ``E``
    finds nothing pending, as does a request with nothing pending at all:
    the destination mode then starts at the request itself, so the suffix
    moves with it, and such a point is decided without a fork (below) or
    gets a fork of its own.

    Only ``sweep_mcr`` builds this class, and every allocation it simulates
    keeps each processor's load (its MI tasks plus the mode's MD tasks placed
    there) at most 1 by construction: an optimal table of the exact search,
    which refuses any placement past capacity, or a First-Fit placement,
    which places a task only where it fits and otherwise raises.  On that
    premise rests the processor-demand test (``meets_deadlines``; Baruah,
    Rosier & Howell 1990, with the carry-in of pending jobs as in Spuri,
    INRIA RR-2772, 1996).  It takes a processor ``p`` at an instant ``t``,
    the tasks ``K`` there (the MI tasks on ``p`` and the mode's MD tasks
    placed there) and the jobs pending there, of tasks in ``K`` or not, each
    with remaining work ``r > 0`` and absolute deadline ``d``.  For a task
    ``k`` in ``K`` let ``n_k`` be the latest deadline of its pending jobs,
    or ``t`` if it has none; at a request decided without a fork (below)
    the destination's MD tasks have ``n_k = E`` instead.  The test holds
    when, at every pending deadline ``D``,
        sum(r_j for d_j <= D) + sum(C_k / T_k * max(0, D - n_k)) <= D - t;
    it is evaluated in integers, scaled by the lcm of the periods on ``p``
    (``weights``, built once per mode and processor and shared with forks).
    If it holds, EDF misses no deadline on ``p`` after ``t``:
      * deadlines are implicit and a sweep has no release offsets, so task
        ``k`` releases next at ``n_k`` or later, and its jobs released from
        then on and due by ``D`` need at most ``C_k / T_k * (D - n_k)``; a
        task outside ``K`` releases no more: the left side bounds all work
        due by ``D``;
      * between pending deadlines the left side grows at most at the load,
        at most 1, so no faster than the right side, and before the first
        one it is at most the load times ``D - t``: testing at the pending
        deadlines covers every ``D``;
      * a busy window that begins after ``t`` holds only jobs released in
        it, whose demand is at most the load times its length.
    A job due at ``t`` or earlier with work left fails the test at its own
    deadline.  The test holds wherever every pending job is of a task in
    ``K`` and on its fluid share, ``r * T <= C * (d - t)``: each task then
    has at most one pending job, due at ``n_k``, and contributes at most
    ``C / T * (D - t)``.

    A point ``t`` that no fork serves is decided at the request, without a
    fork (``decides``), from its own run's transition end ``E``, which
    ``drain`` computes from this run's state at ``t`` (ROADMAP direction
    20).  On a processor ``p`` take the jobs pending at ``t``, those
    released at ``t`` included; a sweep has no release offsets, so those
    releases fall on multiples of the period.  The request stops every
    later source-mode MD release and no destination job is released before
    ``E``, so until ``E`` only these jobs and later MI releases run on
    ``p``.  Let ``J*`` be the old (source-mode) job there with the largest
    EDF key ``k* = (deadline, task id)``.  While ``J*`` is pending EDF runs
    no job with a larger key and never idles, so ``J*``, and with it every
    old job on ``p``, completes at the end of the level-``k*`` busy window
    from ``t``, the least fixed point ``x`` of
        x - t = W0 + sum over MI tasks j on p of C_j * #{releases s of j in (t, x) with key(s + T_j) < k*},
    ``W0`` the remaining work of the jobs there with key at most ``k*``,
    pending MI work included.  The count stops growing once ``s + T_j``
    passes ``J*``'s deadline, so the fixed point exists whatever the load.
    ``E`` is the latest such end over the processors, or ``t`` if no old
    job is pending anywhere.  The point is decided when all of these hold:
      1. a fork has already placed the destination mode: the test needs
         the placement, and a fork makes it, and raises any online-ffd
         placement error, at the instant the point's own run would;
      2. each destination task ``k`` with a transition deadline ``TD_k``
         has ``E - t + T_k <= TD_k``;
      3. the demand test holds on every processor over the jobs pending
         at ``t``, those released at ``t`` included and a running job's
         ``r`` its ``finish - t``, with ``K`` the MI tasks and the
         destination's MD tasks, these first released at ``E`` (``n_k =
         E``); the source mode's tasks release no more and have no weight.
    The test stays sound: the tasks with weight, the MI tasks and the
    destination's MD tasks, load ``p`` at most 1, and a destination task
    released first at ``E`` has at most ``C_k / T_k * (D - E)`` due by
    ``D``.  The point's own run then ends its transition at ``E``, misses
    no deadline from ``t`` on (a job due at ``t`` with work left fails 3),
    and each check's job, released at ``E``, completes by ``E + T_k``, at
    most the check's deadline ``t + TD_k``: met, or undecided if that falls
    past the horizon, never missed.  The outcome is latency ``E - t``, the
    job misses of this run so far and no missed check.

    ``request`` at a point ``t0`` returns its outcome with the window of
    points over which it holds, so that a sweep needs no request there.  The
    window holds ``t0`` itself: it ends at ``t0 + 1`` at the earliest, and
    on the sweep's time base the next grid point is at least one unit on, so
    a repeat of ``t0`` takes the outcome again.  Past ``t0`` it holds
      (a) served: the points before the fork's transition end ``E`` or the
          source mode's next MD release, whichever comes first.  A point
          ``t`` there has latency ``E - t``, and the fork's job misses and
          each check's verdict ``check_outcome(record, t + reach, t - t0)``
          once the fork has processed up to ``t``'s horizon ``t + reach``.
          ``outcome`` advances the fork there first, so points must come
          in order;
      (b) decided with old jobs pending (``E > t0``): the points of (a),
          before ``E`` or the source mode's next MD release.  By (a)'s
          argument each has ``t0``'s run from the request on, so latency
          ``E - t``, the same job misses, none after ``t0``, and each check
          ``t - t0`` later, still not missed (``_Decided``);
      (c) decided with none pending (``E = t0``): the points after it
          and before the next instant this run processes, which ``advance``
          returns.  No instant is processed there, so no job is released,
          none completes and no source-mode MD job is pending.  Nor can the
          demand test's slack fall: the running job, due no later than any
          other pending job, has ``r`` shrink as fast as ``D - t``, every
          ``n_k = t`` carry term shrinks too and the rest stays; an idle
          processor has no pending deadline to test.
    """

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self._emit = _DISCARD
        self.md_periods = tuple(self.states[task_id].period for task_id in self.md_ids[scenario.initial_mode])
        # by (mode, processor), shared with forks: the lcm L of the periods
        # there and each task's weight C * L / T
        self.weights: dict[tuple[str, int], tuple[int, dict[str, int], list[str]]] = {}
        self.start()
        # by processor: the MI tasks and the source mode's MD tasks placed
        # there, each released at the multiples of its period
        self.releasing = {
            p: [task.id for task in self.system.mi_on(p)]
            + [task_id for task_id in self.md_ids[scenario.initial_mode] if self.states[task_id].processor == p]
            for p in self.processors
        }

    def pending(self, p: int, time: int) -> list[tuple[tuple[int, str, int], int]]:
        """``(key, r)`` of each job pending on ``p`` at ``time``, by deadline:
        its ``(deadline, task id, index)``, the deadline taken from its EDF
        key, and its remaining work ``r > 0``."""
        n = len(self.states)
        jobs = [((job[_KEY] // n, job[_TASK], job[_INDEX]), job[_REMAINING]) for job in self.ready[p]]
        current = self.running[p]
        if current is not None and current[_FINISH] > time:
            jobs.append(((current[_KEY] // n, current[_TASK], current[_INDEX]), current[_FINISH] - time))
        jobs.sort()
        return jobs

    def meets_deadlines(
        self, p: int, time: int, mode_id: str, jobs: list[tuple[tuple[int, str, int], int]],
        start: Optional[int] = None,
    ) -> bool:
        """The processor-demand test on ``p`` at ``time`` over its pending
        ``jobs``, with the MI tasks and ``mode_id``'s MD tasks placed there,
        the latter first released at ``start`` if given (see the class
        docstring)."""
        if (mode_id, p) not in self.weights:
            mi = [self.states[task.id] for task in self.system.mi_on(p)]
            md = [self.states[task_id] for task_id, q, _ in self.plans[mode_id] if q == p]
            lcm = math.lcm(*(state.period for state in mi + md))
            self.weights[(mode_id, p)] = (lcm, {s.id: s.wcet * (lcm // s.period) for s in mi + md}, [s.id for s in md])
        lcm, weight, md_ids = self.weights[(mode_id, p)]
        releases = dict.fromkeys(weight, time)  # each task's next release: its latest pending deadline
        if start is not None:
            releases.update(dict.fromkeys(md_ids, start))
        for (deadline, task_id, _), _ in jobs:
            if task_id in weight:  # an old job's task releases no more
                releases[task_id] = deadline
        demand = 0
        for (deadline, _, _), remaining in jobs:
            demand += remaining * lcm
            carry = 0
            for task_id, n in releases.items():
                if n < deadline:
                    carry += weight[task_id] * (deadline - n)
            if demand + carry > lcm * (deadline - time):
                return False
        return True

    def drain(self, time: int) -> tuple[int, list[list[tuple[tuple[int, str, int], int]]]]:
        """The transition end ``E`` of a request at ``time``, in closed form,
        and by processor the jobs pending at the request, those released at
        ``time`` included, by deadline (see the class docstring)."""
        old_ids, states, end, queues = self.md_ids[self.current_mode], self.states, time, []
        for p in self.processors:
            jobs = self.pending(p, time)
            released = [
                ((time + s.period, s.id, s.job_count), s.wcet)
                for s in map(states.get, self.releasing[p]) if time % s.period == 0
            ]
            if released:
                jobs = sorted(jobs + released)
            queues.append(jobs)
            star, done = None, 0
            for (deadline, task_id, _), r in jobs:
                done += r
                if task_id in old_ids:  # the latest old job so far, and W0 if it is J*
                    star, work = (deadline, task_id), done
            if star is None:
                continue
            # J*: while it is pending no later job runs; each MI task's last
            # release after ``time`` whose job comes before it
            deadline, star_id = star
            caps = [
                (s.wcet, s.period, deadline - s.period if s.id < star_id else deadline - s.period - 1)
                for s in map(states.get, self.releasing[p]) if s.id not in old_ids
            ]
            length, previous = work, None
            while length != previous:  # the least fixed point: the level-k* busy window from ``time``
                previous, length = length, work
                for wcet, period, cap in caps:
                    releases = min((time + previous - 1) // period, cap // period) - time // period
                    if releases > 0:
                        length += wcet * releases
            end = max(end, time + length)
        return end, queues

    def decides(self, time: int, destination: str) -> Optional[int]:
        """The latency of a request for ``destination`` at ``time`` decided
        without a fork, or None if it needs one: the placement is known, each
        transition check's job is due by the check's deadline, and the demand
        test holds on every processor (see the class docstring, conditions 1
        to 3)."""
        plan = self.plans.get(destination)
        if plan is None:
            return None  # no placement yet
        end, queues = self.drain(time)
        for task_id, _, deadline in plan:
            if deadline is not None and end - time + self.states[task_id].period > deadline:
                return None  # the check's job, released at ``end``, may complete after the check
        for p, jobs in zip(self.processors, queues):
            if jobs and not self.meets_deadlines(p, time, destination, jobs, end):
                return None
        return end - time

    def request(
        self, time: int, destination: str, limit: int,
    ) -> tuple[tuple[int, int, int], Union[int, float], Union["_SourceRun", "_Decided", None]]:
        """The outcome of a request for ``destination`` at instant ``time`` in
        a run up to ``limit`` (its latency, job misses and missed transition
        checks), the end of the window of later points it gives, and what
        gives them: the fork, a ``_Decided`` if the request is decided with
        old jobs pending, or None if every later point there has this
        outcome.  This run first processes every instant before ``time``;
        the outcome is decided there (``decides``), or read from a fork that
        requested at ``time`` (see the class docstring: the windows (a) to
        (c)).

        A later point before the window's end needs no request: with None
        its outcome is this one, else ``fork.outcome(point, its horizon)``,
        which advances a fork to that horizon first."""
        following = self.advance(time)
        self.time = time
        latency = self.decides(time, destination)
        if latency == 0:
            # decided up to the next instant this run processes, if there is one
            outcome, until, fork = (0, self.job_misses, 0), math.inf if following is None else following, None
        else:
            if latency is None:
                fork = self._fork()
                fork._request(time, destination)
            else:
                fork = _Decided(time + latency, self.job_misses)
            outcome = fork.outcome(time, limit)
            # served up to the transition end or the source mode's next MD
            # release strictly after ``time`` (one released at ``time`` is
            # pending at the request), whichever comes first
            releases = ((time // period + 1) * period for period in self.md_periods)
            until = min((time + outcome[0], *releases))
        # the window holds its own point, the next grid point being one unit on
        # at least: a repeat of the point needs no request
        return outcome, max(until, time + 1), fork

    def outcome(self, time: int, limit: int) -> tuple[int, int, int]:
        """The outcome of a request at ``time``, in a run up to ``limit``,
        that this fork serves, once it is advanced up to ``limit``."""
        self.advance(limit)
        # at load <= 1 every source-mode job meets its deadline, so the
        # transition ends by the request plus the source's longest MD period,
        # before limit; an engine bug that broke this fails here as an
        # internal error
        ((requested, latency),) = self.latencies
        shift = time - requested  # the fork may serve an earlier point too
        missed = sum(1 for record in self.checks if self.check_outcome(record, limit, shift) is False)
        return latency - shift, self.job_misses, missed

    def _fork(self) -> "_SourceRun":
        # Task states and pending jobs, all the suffix can mutate, are copied,
        # and every reference to a pending job is re-pointed to its copy, in
        # the ready queues and in each bucket, through a map keyed by the
        # job's ``id``.  Queued releases name their task by id and completed
        # jobs never change again, so both are shared.  A source run queues
        # no request, so it marks no job old and its ``old_count`` stays 0.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin.states = {task_id: state.copy() for task_id, state in self.states.items()}
        jobs = {id(job): job[:] for job in self.pending_jobs()}
        twin.ready = [[jobs[id(job)] for job in queue] for queue in self.ready]
        twin.running = [jobs.get(id(job)) for job in self.running]
        twin.due = {
            time: [(jobs.get(id(job), job), task_id, activation) for job, task_id, activation in bucket]
            for time, bucket in self.due.items()
        }
        twin.due_times = list(self.due_times)
        twin.requests = []
        twin.latencies = []
        twin.checks = []
        twin._check_by_task_job = {}
        return twin


class _Decided(collections.namedtuple("_Decided", "end job_misses")):
    """The window of a request with old jobs pending decided without a fork
    (see ``_SourceRun``): each point ``t`` there ends its transition at
    ``end`` and has ``job_misses`` and no missed transition check."""

    __slots__ = ()

    def outcome(self, time: int, limit: int) -> tuple[int, int, int]:
        return self.end - time, self.job_misses, 0


def run(scenario: Scenario, out: Optional[TextIO] = None) -> SimTrace:
    """Execute one scenario and return its exact event trace.

    With ``out``, the rows of each window of the run (see
    ``_Engine.execute``) are formatted and written to ``out`` as the window
    ends, so that ``out`` receives ``to_text()`` of the full trace while
    memory stays bounded by the task set; the footer is the last write, a
    single one.  The trace returned keeps no rows, only its footer data.  A
    time too long to print is refused once the run has ended, so an error
    of the run comes first; either way ``out`` may hold part of the text.
    """
    engine = _Engine(scenario)
    if out is None:
        return engine.execute()
    text = _TraceText(engine.scale, out)
    trace = engine.execute(flush=text.write)
    out.write(text.footer(trace))
    return trace


class _StepGrid:
    """The sweep grid ``k * step`` for ``0 <= k < count``: ``sweep_mcr``
    takes it as its unit ``step`` and the multiples ``range(count)``, so
    that no point needs converting."""

    __slots__ = ("step", "count")

    def __init__(self, step: Fraction, count: int):
        self.step, self.count = step, count


def sweep_mcr(
    system: ModeSystem,
    allocation_source: str,
    mode_pair: tuple[str, str],
    mcr_time_grid: Iterable,
) -> SweepResult:
    """Request the transition source -> destination once per grid point and
    report the maximum observed transition latency and where it occurred.

    Every point's outcome is that of its own scenario: a single MCR from the
    source mode at the point ``t``, simulated from time 0 up to ``t + reach``,
    ``reach`` being ``bound`` plus the largest period of the MI tasks and both
    modes' MD tasks, plus 1.  That horizon lies past the transition end:
    every allocation loads no processor above 1, so each source-mode job
    pending at the request meets its deadline, at most the source's longest
    MD period after it.  The points are not simulated one by one: one source
    run is forked at request instants, and one request gives the outcome of
    a window of later points (see ``_SourceRun``).

    The grid may be any iterable, in any order and with repeats, and the
    result does not depend on its order.  Before any point is simulated it
    becomes a unit and the points' integer multiples of it, ascending:
    ``run_sweep``'s grid (``_StepGrid``) its step and ``range(count)``; any
    other grid has every point validated first, then the unit ``1 / b`` for
    ``b`` the lcm of the points' denominators, and its multiples sorted.
    The one source run is built for a request at the unit, so its time base
    holds every point and every point's horizon, and the whole grid is
    walked in integers on that one base.  The maximum is kept in integers,
    at the earliest point that reaches it, and made a ``Fraction`` once, at
    the end; the job misses and missed transition checks are summed over the
    points.  ``bound`` is the bound in force that sets the horizons: the
    source mode's optimal latency under offline-table, its online bound
    (``latency_upper_bound``) under online-ffd.

    Before anything is simulated, a pair that is no transition, an unknown
    allocation source or an empty grid raises ``ScenarioError``, an invalid
    point ``SystemValidationError``, and under offline-table a mode with no
    feasible allocation ``InfeasibleModeError``.  Otherwise a sweep raises
    the error of the earliest point whose simulation fails, such as the
    ``SimulationError`` of a First-Fit placement that fails.
    """
    _check_allocation_source(allocation_source)
    source, destination = mode_pair
    if (source, destination) not in system.mode_graph.edges:
        raise ScenarioError(f"no transition from mode {_quote(source)} to {_quote(destination)}")

    tables = None
    if allocation_source == OFFLINE_TABLE:
        results = {mode_id: solve_optimal(system, mode_id) for mode_id in (source, destination)}
        tables = {mode_id: result.best_allocation for mode_id, result in results.items()}
        bound = results[source].optimal_latency
    else:
        bound = latency_upper_bound(system, source)
    active = system.mi_tasks + system.md_tasks_of(source) + system.md_tasks_of(destination)
    reach = bound + max((t.period for t in active), default=Fraction(1)) + 1  # a point's horizon, past it

    if isinstance(mcr_time_grid, _StepGrid):
        unit, multiples = mcr_time_grid.step, range(mcr_time_grid.count)
    else:
        points = [as_time(raw_time, what="sweep grid point") for raw_time in mcr_time_grid]
        base = _time_base(points)
        unit, multiples = Fraction(1, base), sorted(_scaled(point, base) for point in points)
    if not multiples:
        raise ScenarioError("empty MCR time grid")

    run = _SourceRun(
        make_scenario(system, source, allocation_source, [(unit, destination)], unit + reach, static_tables=tables)
    )
    scale, step, scaled_reach = run.scale, run.scaled(unit), run.scaled(reach)
    top = at = -1  # the maximum latency and its earliest point
    job_misses = transition_misses = 0
    until = 0  # the end of the last request's window
    fork: Union[_SourceRun, _Decided, None] = None  # what gives the last request's window, if not its outcome
    for time in map(step.__mul__, multiples):
        if time < until:  # inside the last request's window
            if fork is not None:
                outcome = fork.outcome(time, time + scaled_reach)
        else:
            outcome, until, fork = run.request(time, destination, time + scaled_reach)
        latency, misses, missed_checks = outcome
        job_misses += misses
        transition_misses += missed_checks
        if latency > top:
            top, at = latency, time
    return SweepResult(
        max_latency=Fraction(top, scale),
        at_time=Fraction(at, scale),
        points=len(multiples),
        job_misses=job_misses,
        transition_misses=transition_misses,
        bound=bound,
    )


def run_sweep(system: ModeSystem, spec: SweepSpec) -> SweepResult:
    """Sweep with step ``spec.step`` over one hyperperiod of the source
    mode's tasks, handed to ``sweep_mcr`` as a ``_StepGrid``, never a list."""
    active = system.mi_tasks + system.md_tasks_of(spec.from_mode)
    grid = _StepGrid(spec.step, math.ceil(hyperperiod(active) / spec.step))
    return sweep_mcr(system, spec.allocation_source, (spec.from_mode, spec.to_mode), grid)
