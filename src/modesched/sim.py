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

One engine, three outputs, chosen by what ``_Engine._emit`` does with a row:
  * rows: ``run(scenario)`` keeps the integer rows in its ``SimTrace``; only
    ``SimTrace.events`` turns them back into rationals;
  * text: ``run(scenario, out=handle)`` formats each row as it is emitted and
    writes it to ``handle`` at once, so memory does not grow with the trace;
  * none: a sweep's ``_SourceRun`` and its forks keep nothing and read the
    engine's integer fields.
Both text paths, streamed and ``SimTrace.to_text``, go through ``_TraceText``.

A running job carries its completion instant (``_Job.finish``), so the clock
moves without touching any job: ``dispatch`` sets ``finish`` when it starts or
resumes a job and, in the one processor pass it makes, finds the earliest
(``next_finish``), which is where ``advance`` stops next.  ``remaining`` is
exact only for a job off a processor: it is rewritten at a preemption and
zeroed at the completion.

A run ends only in ``advance(limit)``, which processes no instant at or past
its limit.  Releases and deadlines are queued whatever their instant, so what
falls at or past the horizon stays queued and never shows in the trace.

Deterministic tie rules (they fix the trace byte-for-byte):
  * equal absolute deadlines are broken by task id, then job index;
  * a job released exactly at an MCR instant counts as pending (the release
    is processed before the request);
  * simultaneous trace events are ordered completion, transition bookkeeping,
    deadline check, release, MCR, then scheduler switches.

An MCR sweep (``sweep_mcr``) simulates the source mode once and forks it at
request instants.  It costs one fork per interval between two instants the
source run processes, not one suffix per grid point: until the next such
instant the pending source-mode jobs stay the same, and so do the transition
end and the suffix schedule.  The exception is a request with nothing pending,
whose destination mode starts at the request itself; such a point gets its
own fork.  A fork stops once EDF can no longer change its outcome: its
transition has ended and every processor has idled since the end.  A sweep
simulates only allocations that load no processor above 1 (an optimal table
or a First-Fit placement), and with implicit deadlines and load at most 1,
EDF then misses no deadline under any sporadic release pattern (Liu &
Layland 1973; Baruah, Rosier & Howell 1990); each transition check already
has its completion.
"""

from __future__ import annotations

import heapq
import io
import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, TextIO, Union

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
    as_array,
    as_time,
    printable,
    validate_allocation,
)
from .latency import _scaled, _time_base
from .offline import InfeasibleModeError, solve_optimal
from .online import first_fit_decreasing, latency_upper_bound, PlacementError

OFFLINE_TABLE = "offline-table"
ONLINE_FFD = "online-ffd"

# heap phases: processing order among same-instant queued events
_PHASE_DEADLINE = 0
_PHASE_RELEASE = 1
_PHASE_MCR = 2


class Scenario(NamedTuple):
    """One executable simulation scenario.

    ``release_offsets`` maps task ids to release instants relative to each
    enablement of the task (time 0 for MI tasks and the initial mode's MD
    tasks, the transition end for later modes); consecutive offsets must be at
    least one period apart.  After the listed releases the task continues
    strictly periodically.  ``static_tables`` holds the per-mode allocations
    used when ``allocation_source`` is "offline-table".
    """

    system: ModeSystem
    initial_mode: str
    allocation_source: str
    mcr_schedule: tuple[tuple[Fraction, str], ...]
    horizon: Fraction
    release_offsets: Mapping[str, tuple[Fraction, ...]] = MappingProxyType({})
    static_tables: Optional[Mapping[str, Allocation]] = None


class SweepSpec(NamedTuple):
    """Directive to sweep a single MCR over a grid of request times."""

    from_mode: str
    to_mode: str
    step: Fraction
    allocation_source: str


class SimEvent(NamedTuple):
    time: Fraction
    processor: Optional[int]
    kind: str
    task: Optional[str]
    job: Optional[int]


class TransitionCheck(NamedTuple):
    """First-job transition-deadline record for one newly enabled MD task."""

    task_id: str
    mcr_time: Fraction
    absolute_deadline: Fraction
    first_completion: Optional[Fraction]
    ok: Optional[bool]


class SimTrace(NamedTuple):
    """One run's trace: the engine's integer event rows and their time base.

    A row is ``(time, processor, kind, task, job)`` with ``time`` in units of
    ``1/scale``.  ``events``, the rows as exact ``SimEvent``s, is built anew
    on each access; ``to_text()`` formats the rows directly.  A run that
    streamed its text (``run(scenario, out=...)``) keeps no rows.
    """

    rows: tuple[tuple[int, Optional[int], str, Optional[str], Optional[int]], ...]
    scale: int
    observed_latencies: tuple[tuple[Fraction, Fraction], ...]
    transition_checks: tuple[TransitionCheck, ...]
    job_deadline_misses: int

    @property
    def events(self) -> tuple[SimEvent, ...]:
        return tuple(SimEvent(Fraction(t, self.scale), *rest) for t, *rest in self.rows)

    @property
    def deadline_miss_count(self) -> int:
        """Job deadline misses plus violated transition deadlines."""
        return self.job_deadline_misses + sum(1 for c in self.transition_checks if c.ok is False)

    def footer(self) -> str:
        """The ``#`` summary lines that end ``to_text()``; a time too long to
        print is refused."""
        def time(value: Fraction) -> Fraction:
            return printable(value, what="trace time")

        lines = [f"# latency\t{time(at)}\t{time(latency)}\n" for at, latency in self.observed_latencies]
        for check in self.transition_checks:
            outcome = "-" if check.ok is None else ("ok" if check.ok else "MISS")
            completion = "-" if check.first_completion is None else time(check.first_completion)
            lines.append(
                f"# transition-deadline\t{check.task_id}\t{time(check.mcr_time)}"
                f"\t{time(check.absolute_deadline)}\t{completion}\t{outcome}\n"
            )
        lines.append(f"# deadline-misses\t{self.deadline_miss_count}\n")
        return "".join(lines)

    def to_text(self) -> str:
        """Tab-separated event rows, then the footer (see ``_TraceText``)."""
        buffer = io.StringIO()
        text = _TraceText(self.scale, buffer)
        for row in self.rows:
            text.row(*row)
        text.close(self)
        return buffer.getvalue()


class _TraceText:
    """The text output: trace rows formatted as lines, each written to
    ``out`` as it comes, then the footer; ``out`` does its own buffering.

    Rows come in time order, so each instant is formatted once, as ``str`` of
    its reduced fraction.  An instant too long to print is refused only by
    ``close``: a run streaming its rows may still fail later with an error of
    its own, and that error comes first.
    """

    __slots__ = ("scale", "out", "instant", "stamp", "refusal")

    def __init__(self, scale: int, out: TextIO):
        self.scale = scale
        self.out = out
        self.instant: Optional[int] = None
        self.stamp = ""
        self.refusal: Optional[SystemValidationError] = None

    def row(self, time: int, processor, kind: str, task, job) -> None:
        if time != self.instant:
            self.instant = time
            self.stamp = self._stamp(time)
        self.out.write(
            f"{self.stamp}\t{'-' if processor is None else processor}\t{kind}"
            f"\t{'-' if task is None else task}\t{'-' if job is None else job}\n"
        )

    def _stamp(self, time: int) -> str:
        scale = self.scale
        divisor = math.gcd(time, scale)
        try:
            return str(time // scale) if divisor == scale else f"{time // divisor}/{scale // divisor}"
        except ValueError:  # ``str`` refuses what ``printable`` refuses: keep its refusal
            try:
                printable(Fraction(time, scale), what="trace time")
            except SystemValidationError as exc:
                self.refusal = self.refusal or exc
                return "-"
            raise

    def close(self, trace: SimTrace) -> None:
        """Write the footer of ``trace``, or raise the first refusal."""
        if self.refusal is not None:
            raise self.refusal
        self.out.write(trace.footer())


class SweepResult(NamedTuple):
    max_latency: Fraction
    at_time: Fraction
    points: int
    job_misses: int
    transition_misses: int

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
    the caller gave it, or computed once, however often the mode is entered.
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
                validate_allocation(system, tables[mode_id])
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
        "task", "wcet", "period", "offsets", "processor",
        "activation", "enable_time", "offset_index", "job_count",
    )

    def __init__(self, task, wcet: int, period: int, offsets: tuple[int, ...]):
        self.task = task
        self.wcet = wcet
        self.period = period
        self.offsets = offsets
        self.processor: Optional[int] = task.home_processor
        self.activation = 0  # bumped at each enable and disable: queued releases go stale
        self.enable_time = 0
        self.offset_index = 0
        self.job_count = 0


class _Job:
    # ``remaining`` is exact only off a processor; a running job's work ends
    # at ``finish``, set by each dispatch that starts or resumes it
    __slots__ = (
        "state", "index", "deadline", "remaining", "finish", "processor", "key",
    )

    def __init__(self, state: _TaskState, index: int, release: int):
        self.state = state
        self.index = index
        self.deadline = release + state.period
        self.remaining = state.wcet
        self.finish = 0
        self.processor = state.processor  # pinned at release; later re-placements do not move it
        self.key = (self.deadline, state.task.id, index)


def _copy_slots(obj):
    twin = object.__new__(type(obj))
    for name in obj.__slots__:
        setattr(twin, name, getattr(obj, name))
    return twin


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

        self.time = 0
        self.heap: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self.ready: dict[int, list] = {p: [] for p in self.processors}
        self.running: dict[int, Optional[_Job]] = {p: None for p in self.processors}
        self.next_finish: Optional[int] = None  # the earliest ``finish`` of a running job
        self.old_pending: set[_Job] = set()
        self.job_misses = 0

        # First-Fit placements by mode: a pure function of the system and the
        # mode, so forks share them
        self.placements: dict[str, Allocation] = {}
        self.current_mode = scenario.initial_mode
        self.mcr_time = 0
        self.destination: Optional[str] = None  # set only during a transition

        self.events: list[tuple[int, Optional[int], str, Optional[str], Optional[int]]] = []
        self.latencies: list[tuple[int, int]] = []
        self.checks: list[dict] = []
        self._check_by_task_job: dict[tuple[str, int], dict] = {}

    # -- helpers ------------------------------------------------------------

    def scaled(self, value: Fraction) -> int:
        return _scaled(value, self.scale)

    def _push(self, time: int, phase: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self.heap, (time, phase, self._seq, payload))

    def _emit(self, time: int, processor, kind: str, task, job) -> None:
        self.events.append((time, processor, kind, task, job))

    def _frac(self, value: int) -> Fraction:
        return Fraction(value, self.scale)

    def pending_jobs(self) -> Iterator[_Job]:
        """Every released job not yet complete: the running ones, then the ready queues."""
        yield from (job for job in self.running.values() if job is not None)
        for queue in self.ready.values():
            yield from (job for _, job in queue)

    def allocation_for(self, mode_id: str, time: int) -> Allocation:
        if self.scenario.allocation_source == OFFLINE_TABLE:
            return self.scenario.static_tables[mode_id]
        allocation = self.placements.get(mode_id)
        if allocation is None:
            try:
                allocation = first_fit_decreasing(self.system, mode_id)
            except PlacementError as exc:
                raise SimulationError(
                    f"online placement failed at time {_shown(self._frac(time))}: {exc}",
                    time=self._frac(time),
                    task_id=exc.task_id,
                ) from exc
            self.placements[mode_id] = allocation
        return allocation

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
            self._schedule_release(self.states[task.id], None)
        self.enable_mode(self.scenario.initial_mode, 0)

    def enable_mode(self, mode_id: str, time: int) -> None:
        """Enable a mode's MD tasks; while a transition is under way
        (``destination`` still set), also record their transition checks."""
        allocation = self.allocation_for(mode_id, time)
        for task in self.system.md_tasks_of(mode_id):
            state = self.states[task.id]
            state.processor = allocation.assignment[task.id]
            state.activation += 1
            state.enable_time = time
            state.offset_index = 0
            self._emit(time, state.processor, "enable", task.id, None)
            if self.destination is not None and task.transition_deadline is not None:
                record = {
                    "task_id": task.id,
                    "mcr": self.mcr_time,
                    "absolute": self.mcr_time + self.scaled(task.transition_deadline),
                    "completion": None,
                }
                self.checks.append(record)
                self._check_by_task_job[(task.id, state.job_count)] = record
            self._schedule_release(state, None)

    def _schedule_release(self, state: _TaskState, previous: Optional[int]) -> None:
        """Queue the release after the one at ``previous``, or the first since
        the task's last enable if ``previous`` is None."""
        if state.offset_index < len(state.offsets):
            time = state.enable_time + state.offsets[state.offset_index]
            state.offset_index += 1
        else:
            time = state.enable_time if previous is None else previous + state.period
        self._push(time, _PHASE_RELEASE, (state, state.activation))

    def do_release(self, state: _TaskState, time: int) -> None:
        job = _Job(state, state.job_count, time)
        state.job_count += 1
        self._emit(time, job.processor, "release", state.task.id, job.index)
        heapq.heappush(self.ready[job.processor], (job.key, job))
        self._push(job.deadline, _PHASE_DEADLINE, job)
        self._schedule_release(state, time)

    def do_mcr(self, time: int, destination: str) -> None:
        if self.destination is not None:
            raise SimulationError(
                f"mode-change request at {_shown(self._frac(time))} arrived during an ongoing transition",
                time=self._frac(time),
            )
        self._emit(time, None, "MCR", destination, None)
        self.mcr_time = time
        self.destination = destination
        old_ids = set(self.system.mode(self.current_mode).md_tasks)
        for task_id in sorted(old_ids):
            state = self.states[task_id]
            state.activation += 1
            self._emit(time, state.processor, "MD-disabled", task_id, None)
        self.old_pending = {j for j in self.pending_jobs() if j.state.task.id in old_ids}
        self.maybe_end_transition(time)

    def maybe_end_transition(self, time: int) -> None:
        if self.destination is None or self.old_pending:
            return
        self._emit(time, None, "transition-end", None, None)
        self.latencies.append((self.mcr_time, time - self.mcr_time))
        self.enable_mode(self.destination, time)
        self.current_mode, self.destination = self.destination, None

    def complete_job(self, processor: int, job: _Job, time: int) -> None:
        self._emit(time, processor, "complete", job.state.task.id, job.index)
        self.old_pending.discard(job)
        record = self._check_by_task_job.get((job.state.task.id, job.index))
        if record is not None and record["completion"] is None:
            record["completion"] = time

    # -- main loop ----------------------------------------------------------

    def dispatch(self, time: int) -> None:
        next_finish = None
        for p in self.processors:
            queue = self.ready[p]
            current = self.running[p]
            if queue and (current is None or queue[0][0] < current.key):
                if current is not None:
                    self._emit(time, p, "preempt", current.state.task.id, current.index)
                    current.remaining = current.finish - time
                    heapq.heappush(queue, (current.key, current))
                _, current = heapq.heappop(queue)
                # a dispatched job runs before any later instant: it has run iff it was dispatched
                kind = "resume" if current.remaining < current.state.wcet else "start"
                self._emit(time, p, kind, current.state.task.id, current.index)
                current.finish = time + current.remaining
                self.running[p] = current
            if current is not None and (next_finish is None or current.finish < next_finish):
                next_finish = current.finish
        self.next_finish = next_finish

    def settle(self, time: int) -> None:
        """Everything of instant ``time`` before dispatch: completions, the
        transition-end check, then the queued deadline, release and MCR phases."""
        if time == self.next_finish:
            for p in self.processors:
                job = self.running[p]
                if job is not None and job.finish == time:
                    self.running[p] = None
                    job.remaining = 0
                    self.complete_job(p, job, time)
        self.maybe_end_transition(time)
        while self.heap and self.heap[0][0] == time:
            _, phase, _, payload = heapq.heappop(self.heap)
            if phase == _PHASE_DEADLINE:
                job = payload
                if job.remaining > 0:  # each job's deadline is queued once
                    self.job_misses += 1
                    self._emit(time, job.processor, "deadline-miss", job.state.task.id, job.index)
            elif phase == _PHASE_RELEASE:
                state, activation = payload
                if state.activation == activation:
                    self.do_release(state, time)
            else:
                self.do_mcr(time, payload)

    def process_instant(self, time: int) -> None:
        self.settle(time)
        self.dispatch(time)

    def elapse(self, time: int) -> None:
        """Move the clock to ``time``; running jobs keep their ``finish``."""
        self.time = time

    def advance(self, limit: int) -> Optional[int]:
        """Process every instant after the current one and before ``limit``;
        return the first instant left with a completion or a queued entry
        due, None if there is none."""
        while True:
            next_time = self.heap[0][0] if self.heap else None
            finish = self.next_finish
            if finish is not None and (next_time is None or finish < next_time):
                next_time = finish
            if next_time is None or next_time >= limit:
                return next_time
            self.time = next_time
            self.process_instant(next_time)

    def execute(self) -> SimTrace:
        if self.horizon > 0:
            self.start()
            for mcr_time, destination in self.scenario.mcr_schedule:
                self._push(self.scaled(mcr_time), _PHASE_MCR, destination)
            self.process_instant(0)
            self.advance(self.horizon)
        return self.trace()

    def trace(self) -> SimTrace:
        """The run's trace; only latencies and transition checks become rationals."""
        frac = self._frac
        checks = tuple(
            TransitionCheck(
                task_id=record["task_id"],
                mcr_time=frac(record["mcr"]),
                absolute_deadline=frac(record["absolute"]),
                first_completion=None if record["completion"] is None else frac(record["completion"]),
                ok=self.check_outcome(record, self.horizon, 0),
            )
            for record in self.checks
        )
        return SimTrace(
            rows=tuple(self.events),
            scale=self.scale,
            observed_latencies=tuple((frac(at), frac(latency)) for at, latency in self.latencies),
            transition_checks=checks,
            job_deadline_misses=self.job_misses,
        )


class _SourceRun(_Engine):
    """The one source-mode simulation of a sweep, with no MCR of its own.

    It stays paused at ``time`` after that instant's deadline and release
    phases; a grid point forks it there and runs only the suffix.  Neither
    it nor its forks record events: a sweep reads the integer fields of a
    fork advanced up to the point's horizon.  A fork queues what the point's
    own run would queue, and ``advance`` processes neither's entries at or
    past that horizon, so the fork has processed what that run would.

    One fork serves every point up to the next instant this run processes:
    until then the pending source-mode jobs stay the same, and so do the
    transition end and the suffix schedule.  The exception is a request with
    nothing pending: the destination mode then starts at the request itself,
    so the suffix moves with it and each such point gets its own fork.

    Only ``sweep_mcr`` builds this class, and every allocation it simulates
    keeps each processor's load (its MI tasks plus the mode's MD tasks placed
    there) at most 1 by construction: an optimal table of the exact search,
    which refuses any placement past capacity, or a First-Fit placement,
    which places a task only where it fits and otherwise raises.  A fork
    therefore settles, and stops, once its transition has ended and every
    processor has been idle after a dispatch since the end.  An idle
    processor has completed every job released before, the first jobs of the
    destination mode included, so every transition check has its completion;
    from then on EDF misses no deadline.  Settling empties the heap, the
    ready queues and the processors, so ``advance`` returns at once, for
    later points of the interval too: ``check_outcome`` only shifts
    deadlines already decided.
    """

    def __init__(self, scenario: Scenario):
        super().__init__(scenario)
        self.serving: Optional[_SourceRun] = None
        self.waiting: tuple[int, ...] = ()  # processors yet to idle since the transition end
        self.start()
        self.settle(0)

    def _emit(self, time, processor, kind, task, job) -> None:
        pass

    def enable_mode(self, mode_id: str, time: int) -> None:
        super().enable_mode(mode_id, time)
        if self.destination is not None:
            self.waiting = tuple(self.processors)

    def dispatch(self, time: int) -> None:
        super().dispatch(time)
        running = self.running
        if self.waiting and None in running.values():
            self.waiting = tuple(p for p in self.waiting if running[p] is not None)
            if not self.waiting:  # settled: stop, leaving nothing to process
                self.heap = []
                self.ready = {p: [] for p in self.processors}
                self.running = dict.fromkeys(self.processors)
                self.next_finish = None

    def reaches(self, time: Fraction) -> bool:
        return self.scale % time.denominator == 0 and self.scaled(time) >= self.time

    def request(self, time: int, destination: str) -> "_SourceRun":
        """A fork that requested ``destination`` at instant ``time``, or the
        one made for an earlier point if it serves ``time`` too; this run
        moves on to ``time`` first if it is not there."""
        if time > self.time:
            start = self.time
            self.dispatch(start)
            if self.advance(time) == time or self.time > start:  # an instant in (start, time]
                self.serving = None
            self.elapse(time)
            self.settle(time)
        if self.serving is not None:
            return self.serving
        fork = self._fork()
        fork.do_mcr(time, destination)
        fork.process_instant(time)
        if fork.destination is not None:  # the transition waits for pending jobs
            self.serving = fork
        return fork

    def _fork(self) -> "_SourceRun":
        # Everything the suffix can mutate is copied slot by slot.  Completed
        # jobs never change again and are shared, and a job reads only the
        # immutable task fields of the state it keeps pointing to.
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        states = {state: _copy_slots(state) for state in self.states.values()}
        jobs = {job: _copy_slots(job) for job in self.pending_jobs()}
        twin.states = {task_id: states[state] for task_id, state in self.states.items()}
        twin.ready = {p: [(key, jobs[job]) for key, job in queue] for p, queue in self.ready.items()}
        twin.running = {p: None if job is None else jobs[job] for p, job in self.running.items()}
        heap = []
        for time, phase, seq, payload in self.heap:
            if phase == _PHASE_RELEASE:
                payload = (states[payload[0]], payload[1])
            else:
                payload = jobs.get(payload, payload)
            heap.append((time, phase, seq, payload))
        twin.heap = heap
        twin.old_pending = set()
        twin.serving = None
        twin.latencies = []
        twin.checks = []
        twin._check_by_task_job = {}
        return twin


def run(scenario: Scenario, out: Optional[TextIO] = None) -> SimTrace:
    """Execute one scenario and return its exact event trace.

    With ``out``, each row is formatted and written to ``out`` as the engine
    emits it, so that ``out`` receives ``to_text()`` of the full trace; the
    trace returned keeps no rows, only its footer data.  A time too long to
    print is refused once the run has ended, so an error of the run comes
    first; either way ``out`` may hold part of the text.
    """
    engine = _Engine(scenario)
    if out is None:
        return engine.execute()
    text = _TraceText(engine.scale, out)
    engine._emit = text.row
    trace = engine.execute()
    text.close(trace)
    return trace


def sweep_mcr(
    system: ModeSystem,
    allocation_source: str,
    mode_pair: tuple[str, str],
    mcr_time_grid: Iterable,
) -> SweepResult:
    """Request the transition source -> destination once per grid point and
    report the maximum observed transition latency and where it occurred.

    Every point's outcome is that of its own scenario, a single MCR from the
    source mode simulated from time 0 up to a horizon derived from the
    applicable analytical bound, with margin; a transition outlasting it would
    itself disprove the bound and is reported as an error.  The source mode
    is simulated once, in grid order, and forked at request instants: the
    sweep costs one fork per interval between two instants the source run
    processes, not one suffix per point.  A fork made at ``t0`` serves a later
    point ``t`` in its interval by advancing to ``t``'s horizon, which it
    stops short of as ``t``'s own run would: the latency is the transition
    end less ``t``, and each transition deadline moves ``t - t0`` later.  A
    point with no source-mode job pending gets its own fork, since its
    destination mode starts at ``t`` itself.  Job deadline misses before the
    request count at every point, as they would in the point's own scenario.
    A fork stops early once EDF can no longer change its outcome (see
    ``_SourceRun``): what it would simulate up to a later horizon holds no
    job miss and no new transition-check verdict.
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
    margin = max((t.period for t in active), default=Fraction(1)) + 1

    best: Optional[tuple[Fraction, Fraction]] = None
    points = 0
    job_misses = 0
    transition_misses = 0
    source_run: Optional[_SourceRun] = None
    for raw_time in mcr_time_grid:
        mcr_time = as_time(raw_time, what="sweep grid point")
        horizon = mcr_time + bound + margin
        if source_run is None or not source_run.reaches(mcr_time):
            # (re)start from time 0 on the time base of this point's scenario
            source_run = _SourceRun(
                make_scenario(
                    system, source, allocation_source, [(mcr_time, destination)], horizon,
                    static_tables=tables,
                )
            )
        time, limit = source_run.scaled(mcr_time), source_run.scaled(horizon)
        fork = source_run.request(time, destination)
        fork.advance(limit)
        if not fork.latencies:
            raise SimulationError(
                f"transition requested at {_shown(mcr_time)} did not complete within the analytical bound"
            )
        ((requested, latency),) = fork.latencies
        shift = time - requested  # the fork may serve an earlier point too
        latency = fork._frac(latency - shift)
        job_misses += fork.job_misses
        transition_misses += sum(
            1 for record in fork.checks if fork.check_outcome(record, limit, shift) is False
        )
        points += 1
        if best is None or latency > best[0]:
            best = (latency, mcr_time)
    if best is None:
        raise ScenarioError("empty MCR time grid")
    return SweepResult(
        max_latency=best[0],
        at_time=best[1],
        points=points,
        job_misses=job_misses,
        transition_misses=transition_misses,
    )


def run_sweep(system: ModeSystem, spec: SweepSpec) -> SweepResult:
    """Sweep with step ``spec.step`` over one hyperperiod of the source mode's tasks."""
    active = system.mi_tasks + system.md_tasks_of(spec.from_mode)
    grid = map(spec.step.__mul__, range(math.ceil(hyperperiod(active) / spec.step)))
    return sweep_mcr(system, spec.allocation_source, (spec.from_mode, spec.to_mode), grid)
