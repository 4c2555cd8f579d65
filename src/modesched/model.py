"""Exact-arithmetic data model for multimode partitioned real-time systems.

All time values (execution times, periods, deadlines, latencies) are
arbitrary-precision rationals, so every derived quantity -- utilizations,
utilization sums, busy-period fixed points -- is bit-exact.  Comparisons are
therefore free of epsilon tolerances; tests that are tight at equality (a
utilization bound met exactly, a transition deadline with zero slack) give
the correct verdict.

A system consists of ``m`` identical processors, a set of mode-independent
(MI) tasks statically bound to processors, and per-mode sets of
mode-dependent (MD) tasks whose placement is computed by the allocators.
Mode transitions follow a directed graph with no self-loops.
"""

from __future__ import annotations

import collections
import functools
import json
import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

MI = "MI"
MD = "MD"


class SystemValidationError(ValueError):
    """Raised when an input system description violates a model invariant."""


class AllocationError(ValueError):
    """Raised when an MD-task-to-processor assignment is invalid for a mode."""


# The offline and simulator errors live here, beside the input errors, so the
# CLI can catch them without importing those layers; ``modesched.offline`` and
# ``modesched.sim`` re-export them.

class BigMError(ValueError):
    """A big-M constant does not strictly exceed every attainable latency."""


class InfeasibleModeError(ValueError):
    """No utilization-feasible assignment of the mode's MD tasks exists."""

    def __init__(self, mode_id: str, task_id: str):
        super().__init__(
            f"mode {_cut(mode_id)}: no feasible allocation; search stuck placing task {_cut(task_id)}"
        )
        self.mode_id = mode_id
        self.task_id = task_id


class ScenarioError(ValueError):
    """Raised when a scenario description is inconsistent with its system."""


class SimulationError(RuntimeError):
    """Raised when a scenario cannot be executed (nested MCR, failed online placement)."""

    def __init__(self, message: str, time: Optional[Fraction] = None, task_id: Optional[str] = None):
        super().__init__(message)
        self.time = time
        self.task_id = task_id


def parse_exact(value, *, what: str = "value") -> Fraction:
    """Convert an integer, decimal string, or fraction string to an exact rational.

    Floats are rejected: a decimal written as a float has already been rounded
    to binary and cannot be recovered exactly.  Use a string instead.  A string
    too long to print is refused too: one with a run of more digits than
    ``sys.get_int_max_str_digits()`` (0 lifts the limit), or whose value has
    a longer numerator or denominator.
    """
    if isinstance(value, bool):
        raise SystemValidationError(f"{what}: expected a number, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()
        # The interpreter refuses to convert a longer run of digits, and
        # Fraction spends seconds expanding a huge decimal exponent: both are
        # refused before Fraction sees them
        longest = max((len(run) - run.count("_") for run in _DIGIT_RUN.findall(value)), default=0)
        try:
            exponent = value.lower().partition("e")[2]
            too_long = limit and (longest > limit or exponent and abs(int(exponent)) > limit)
            result = None if too_long else Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SystemValidationError(f"{what}: cannot parse {_quote(value)} as an exact number") from exc
        if result is None:
            raise _too_long(what, limit)
        return printable(result, what=what)
    if isinstance(value, float):
        raise SystemValidationError(
            f"{what}: floating-point input {value!r} is inexact; pass an integer or a decimal string"
        )
    raise SystemValidationError(f"{what}: unsupported number type {type(value).__name__}")


_DIGIT_RUN = re.compile(r"\d[\d_]*")
_QUOTED = 60  # characters of an input value an error message quotes
_LISTED = 5  # values of an input list an error message quotes


def printable(value: Fraction, *, what: str) -> Fraction:
    """``value``, if ``str`` can print it: its numerator and denominator have
    at most ``sys.get_int_max_str_digits()`` digits (0 lifts the limit)."""
    limit = sys.get_int_max_str_digits()
    big = max(abs(value.numerator), value.denominator)
    # at least 10**limit means more than 3 * limit bits: short numbers skip the power
    if not limit or big.bit_length() <= 3 * limit or big < 10 ** limit:
        return value
    raise _too_long(what, limit)


def _too_long(what: str, limit: int) -> SystemValidationError:
    return SystemValidationError(f"{what}: a number with more than {limit} digits is too long to print")


def _exceeds_one(subject: str, load: Fraction) -> str:
    """The message that ``subject``, of value ``load``, exceeds 1; the value
    is cut as ``_cut`` does, and left out if ``printable`` refuses it."""
    try:
        return f"{subject} {_cut(str(printable(load, what=subject)))} exceeds 1"
    except SystemValidationError:
        return f"{subject} exceeds 1"


def _cut(text: str, length: Optional[int] = None) -> str:
    """``text`` for an error message; past ``_QUOTED`` characters, its start
    and ``length``, by default its own length.  An id an error message names
    without quotes goes through here."""
    if len(text) <= _QUOTED:
        return text
    return f"{text[:_QUOTED]}... ({len(text) if length is None else length} characters)"


def _shown(value: Fraction) -> str:
    """``str(value)`` for an error message: past ``_QUOTED`` characters, its
    start and its length, and only a note if ``printable`` refuses it."""
    try:
        return _cut(str(printable(value, what="value")))
    except SystemValidationError:
        return "(a number too long to print)"


def _quote(value) -> str:
    """``repr(value)`` for an error message; past ``_QUOTED`` characters, its
    start and the length of the value's text."""
    return _cut(repr(value), len(value) if isinstance(value, str) else None)


def _quote_all(values: Sequence) -> str:
    """A list of values as its ``repr`` shows it, each value through
    ``_quote``; past ``_LISTED`` values, the first ones and the count."""
    shown = [_quote(value) for value in values[:_LISTED]]
    if len(values) > _LISTED:
        shown.append(f"... ({len(values)} in all)")
    return f"[{', '.join(shown)}]"


def _json_int(text: str):
    """A JSON integer literal as an int; one with more digits than the
    interpreter converts stays text, so the field reading it refuses it."""
    try:
        return int(text)
    except ValueError:
        return text


def _decode_json(text: str, error: type[ValueError]):
    """Decode a JSON document, decimal literals kept as text to be read
    exactly (never as floats); ``error`` reports invalid JSON."""
    try:
        return json.loads(text, parse_float=str, parse_int=_json_int)
    except json.JSONDecodeError as exc:
        raise error(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def as_time(value, *, what: str = "time value") -> Fraction:
    """Parse an exact, non-negative time value."""
    result = parse_exact(value, what=what)
    if result < 0:
        raise SystemValidationError(f"{what}: must be non-negative, got {_shown(result)}")
    return result


def as_array(value, *, what: str, error: type[ValueError] = SystemValidationError) -> Sequence:
    """Return ``value`` if it is an array (a list or tuple); raise ``error`` otherwise.

    A string, an object or a number is never read as a sequence of its
    characters, keys or digits.
    """
    if not isinstance(value, (list, tuple)):
        raise error(f"{what}: expected an array, got {type(value).__name__}")
    return value


class Task(collections.namedtuple(
    "Task", "id kind wcet period transition_deadline home_processor", defaults=(None, None)
)):
    """One recurrent sporadic task with implicit deadline.

    Attributes:
        id: unique identifier, a non-empty string.
        kind: ``"MI"`` (mode-independent) or ``"MD"`` (mode-dependent).
        wcet: worst-case execution time, a ``Fraction`` > 0.
        period: minimal interval between successive releases, a ``Fraction``
            >= wcet.
        transition_deadline: for MD tasks only, the relative bound (a
            ``Fraction``) by which the task's first job must complete after a
            mode-change request entering its mode.  May be omitted (None), in
            which case the deadline check is reported as "unchecked".
        home_processor: for MI tasks only, the 1-based static processor
            binding, an int; None for MD tasks.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not isinstance(self.id, str) or not self.id:
            raise SystemValidationError(f"task id must be a non-empty string, got {self.id!r}")
        name = _cut(self.id)
        if self.kind not in (MI, MD):
            raise SystemValidationError(f"task {name}: kind must be 'MI' or 'MD', got {_quote(self.kind)}")
        if self.wcet <= 0:
            raise SystemValidationError(f"task {name}: wcet must be positive, got {_shown(self.wcet)}")
        if self.period <= 0:
            raise SystemValidationError(f"task {name}: period must be positive, got {_shown(self.period)}")
        if self.wcet > self.period:
            raise SystemValidationError(
                f"task {name}: wcet {_shown(self.wcet)} exceeds period {_shown(self.period)} (utilization > 1)"
            )
        if self.kind == MI:
            if self.home_processor is None:
                raise SystemValidationError(f"task {name}: MI tasks require a processor binding")
            if self.transition_deadline is not None:
                raise SystemValidationError(f"task {name}: MI tasks take no transition deadline")
        else:
            if self.home_processor is not None:
                raise SystemValidationError(
                    f"task {name}: MD tasks must not carry a static processor; allocation is computed"
                )
        return self

    @classmethod
    def _make(cls, iterable) -> Task:
        # ``_replace`` builds through ``_make``: validate there too
        return cls(*iterable)

    @property
    def utilization(self) -> Fraction:
        """wcet / period, exact."""
        return self.wcet / self.period


class Mode(collections.namedtuple("Mode", "id md_tasks")):
    """A mode: an identifier plus the set of MD tasks it runs, a tuple of task ids."""

    __slots__ = ()


class ModeGraph(collections.namedtuple("ModeGraph", "modes edges")):
    """Directed mode-transition graph: a tuple of ``Mode``s and a tuple of
    (source, destination) mode-id pairs.

    Edge labels (worst-case transition delays) are never stored: the delay of a
    transition depends only on the source mode, so labels are always derived
    from the per-mode latency analysis.
    """

    __slots__ = ()

    def mode(self, mode_id: str) -> Mode:
        for mode in self.modes:
            if mode.id == mode_id:
                return mode
        raise SystemValidationError(f"unknown mode {_quote(mode_id)}")

    def mode_ids(self) -> tuple[str, ...]:
        return tuple(mode.id for mode in self.modes)

    def predecessors(self, mode_id: str) -> tuple[str, ...]:
        self.mode(mode_id)
        return tuple(sorted({src for src, dst in self.edges if dst == mode_id}))


class ModeSystem(collections.namedtuple("ModeSystem", "processor_count mi_tasks md_tasks mode_graph")):
    """A validated multimode system on ``processor_count`` identical processors.

    ``mi_tasks`` and ``md_tasks`` are tuples of ``Task``s, each sorted by id.
    Immutable after construction; every derived accessor is a pure function,
    so instances may be shared freely across threads.  The task index behind
    ``task()`` and the per-processor MI loads behind ``mi_utilization()`` are
    built on first use and kept in the instance dict, outside equality and
    hash.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign {name!r}: ModeSystem is immutable")

    @functools.cached_property
    def _by_id(self) -> dict[str, Task]:
        return {t.id: t for t in self.mi_tasks + self.md_tasks}

    @functools.cached_property
    def _mi_loads(self) -> dict[int, Fraction]:
        loads = dict.fromkeys(self.processors, Fraction(0))
        for t in self.mi_tasks:
            loads[t.home_processor] += t.utilization
        return loads

    @property
    def processors(self) -> range:
        """1-based processor indices."""
        return range(1, self.processor_count + 1)

    def task(self, task_id: str) -> Task:
        try:
            return self._by_id[task_id]
        except KeyError:
            raise SystemValidationError(f"unknown task {_quote(task_id)}") from None

    def mode(self, mode_id: str) -> Mode:
        return self.mode_graph.mode(mode_id)

    def mode_ids(self) -> tuple[str, ...]:
        return self.mode_graph.mode_ids()

    def md_tasks_of(self, mode_id: str) -> tuple[Task, ...]:
        return tuple(self.task(tid) for tid in self.mode(mode_id).md_tasks)

    def mi_on(self, processor: int) -> tuple[Task, ...]:
        return tuple(t for t in self.mi_tasks if t.home_processor == processor)

    def mi_utilization(self, processor: int) -> Fraction:
        return self._mi_loads.get(processor, Fraction(0))


class Allocation(collections.namedtuple("Allocation", "mode_id assignment")):
    """An assignment of one mode's MD tasks to processors: ``assignment``
    maps each task id to its 1-based processor index."""

    __slots__ = ()

    def tasks_on(self, processor: int) -> tuple[str, ...]:
        return tuple(sorted(tid for tid, p in self.assignment.items() if p == processor))


class UtilizationSummary(collections.namedtuple("UtilizationSummary", "mode_id u_sum u_max per_processor_mi")):
    """Aggregate utilization figures for one mode (MI tasks plus the mode's MD
    tasks), every one a ``Fraction``; ``per_processor_mi`` is a tuple of the
    MI loads in processor order."""

    __slots__ = ()


class DeadlineVerdict(collections.namedtuple("DeadlineVerdict", "task_id latency passed slack checked")):
    """Outcome of a transition-deadline check for one MD task.

    ``latency`` and ``slack`` are ``Fraction``s.  ``checked`` is False when
    the task has no transition deadline; such a verdict passes vacuously and
    carries no slack (None).
    """

    __slots__ = ()


class ModeVerdict(collections.namedtuple(
    "ModeVerdict", "mode_id utilization bound feasible evidence entry_latency deadline_checks passed"
)):
    """One mode's outcome under an allocation scheme.

    ``utilization`` is the mode's ``UtilizationSummary``.  ``bound`` is the
    scheme's transition-latency bound out of the mode (a ``Fraction``, None
    when the mode is infeasible), ``feasible`` whether the scheme can run the
    mode on its own, and ``evidence`` the scheme's record of both.
    ``entry_latency`` is the worst bound over the predecessor modes; it is
    None, with no deadline checks, when some predecessor is infeasible.
    ``deadline_checks`` is a tuple of ``DeadlineVerdict``s.
    """

    __slots__ = ()


class SchemeVerdict(collections.namedtuple("SchemeVerdict", "modes passed")):
    """Per-mode verdicts of one allocation scheme, a tuple of ``ModeVerdict``s;
    it passes when every mode does."""

    __slots__ = ()


def _parse_task(raw: Mapping, index: int) -> Task:
    if not isinstance(raw, Mapping):
        raise SystemValidationError(f"tasks[{index}]: expected an object")
    allowed = {"id", "kind", "wcet", "period", "transition_deadline", "processor"}
    unknown = set(raw) - allowed
    if unknown:
        raise SystemValidationError(f"tasks[{index}]: unknown keys {_quote_all(sorted(unknown))}")
    for key in ("id", "kind", "wcet", "period"):
        if key not in raw:
            raise SystemValidationError(f"tasks[{index}]: missing required key {key!r}")
    task_id = raw["id"]
    if not isinstance(task_id, str):
        raise SystemValidationError(f"tasks[{index}]: id must be a string")
    name = _cut(task_id)
    deadline = raw.get("transition_deadline")
    processor = raw.get("processor")
    if processor is not None and (isinstance(processor, bool) or not isinstance(processor, int)):
        raise SystemValidationError(f"task {name}: processor must be an integer index")
    return Task(
        id=task_id,
        kind=raw["kind"],
        wcet=as_time(raw["wcet"], what=f"task {name} wcet"),
        period=as_time(raw["period"], what=f"task {name} period"),
        transition_deadline=None if deadline is None
        else as_time(deadline, what=f"task {name} transition_deadline"),
        home_processor=processor,
    )


def build_system(raw: Mapping) -> ModeSystem:
    """Validate a raw (already JSON-decoded) system description.

    Checks every structural invariant: unique ids, MI processor bindings in
    range, per-processor MI utilization at most 1, MD tasks belonging to
    exactly one mode, and a well-formed transition graph.
    """
    if not isinstance(raw, Mapping):
        raise SystemValidationError("system description must be an object")
    unknown = set(raw) - {"processors", "tasks", "modes", "transitions"}
    if unknown:
        raise SystemValidationError(f"unknown top-level keys {_quote_all(sorted(unknown))}")
    try:
        processor_count = raw["processors"]
        raw_tasks = raw["tasks"]
        raw_modes = raw["modes"]
        raw_transitions = raw["transitions"]
    except KeyError as exc:
        raise SystemValidationError(f"missing top-level key {exc.args[0]!r}") from None
    if isinstance(processor_count, bool) or not isinstance(processor_count, int) or processor_count < 1:
        raise SystemValidationError(f"processors: expected a positive integer, got {_quote(processor_count)}")

    tasks: list[Task] = [_parse_task(t, i) for i, t in enumerate(as_array(raw_tasks, what="tasks"))]
    seen_ids: set[str] = set()
    for task in tasks:
        if task.id in seen_ids:
            raise SystemValidationError(f"duplicate task id {_quote(task.id)}")
        seen_ids.add(task.id)
    by_id = {t.id: t for t in tasks}

    mi_tasks = tuple(sorted((t for t in tasks if t.kind == MI), key=lambda t: t.id))
    md_tasks = tuple(sorted((t for t in tasks if t.kind == MD), key=lambda t: t.id))
    for task in mi_tasks:
        if not 1 <= task.home_processor <= processor_count:
            raise SystemValidationError(
                f"task {_cut(task.id)}: processor {_shown(task.home_processor)} outside 1..{processor_count}"
            )

    modes: list[Mode] = []
    mode_ids: set[str] = set()
    owner: dict[str, str] = {}
    for i, raw_mode in enumerate(as_array(raw_modes, what="modes")):
        if not isinstance(raw_mode, Mapping) or set(raw_mode) - {"id", "md_tasks"}:
            raise SystemValidationError(f"modes[{i}]: expected an object with keys id, md_tasks")
        mode_id = raw_mode.get("id")
        if not isinstance(mode_id, str) or not mode_id:
            raise SystemValidationError(f"modes[{i}]: id must be a non-empty string")
        if mode_id in mode_ids:
            raise SystemValidationError(f"duplicate mode id {_quote(mode_id)}")
        mode_ids.add(mode_id)
        name = _cut(mode_id)
        members = as_array(raw_mode.get("md_tasks", []), what=f"mode {name}: md_tasks")
        for tid in members:
            if not isinstance(tid, str):
                raise SystemValidationError(f"mode {name}: md_tasks must hold task ids, got {_quote(tid)}")
            if tid not in by_id:
                raise SystemValidationError(f"mode {name}: unknown task {_quote(tid)}")
            if by_id[tid].kind != MD:
                raise SystemValidationError(f"mode {name}: task {_cut(tid)} is mode-independent")
            if tid in owner:
                raise SystemValidationError(
                    f"mode {name}: repeated task {_cut(tid)} in md_tasks" if owner[tid] == mode_id
                    else f"task {_cut(tid)} belongs to both mode {_cut(owner[tid])} and mode {name}"
                )
            owner[tid] = mode_id
        modes.append(Mode(id=mode_id, md_tasks=tuple(sorted(members))))

    orphans = sorted(t.id for t in md_tasks if t.id not in owner)
    if orphans:
        raise SystemValidationError(f"MD tasks {_quote_all(orphans)} belong to no mode")

    edges: list[tuple[str, str]] = []
    for i, raw_edge in enumerate(as_array(raw_transitions, what="transitions")):
        if (
            not isinstance(raw_edge, (list, tuple))
            or len(raw_edge) != 2
            or not all(isinstance(end, str) for end in raw_edge)
        ):
            raise SystemValidationError(f"transitions[{i}]: expected a [source, destination] pair of mode ids")
        src, dst = raw_edge
        if src not in mode_ids or dst not in mode_ids:
            raise SystemValidationError(f"transitions[{i}]: unknown mode in {_quote(raw_edge)}")
        if src == dst:
            raise SystemValidationError(f"transitions[{i}]: self-loop on mode {_quote(src)}")
        if (src, dst) in edges:
            raise SystemValidationError(f"transitions[{i}]: duplicate edge {_quote(src)} -> {_quote(dst)}")
        edges.append((src, dst))

    system = ModeSystem(
        processor_count=processor_count,
        mi_tasks=mi_tasks,
        md_tasks=md_tasks,
        mode_graph=ModeGraph(modes=tuple(modes), edges=tuple(edges)),
    )
    for p in system.processors:
        load = system.mi_utilization(p)
        if load > 1:
            raise SystemValidationError(_exceeds_one(f"processor {p}: mode-independent utilization", load))
    return system


def parse_system(text: str) -> ModeSystem:
    """Parse a JSON system file.  Decimal literals are read exactly (never as floats)."""
    return build_system(_decode_json(text, SystemValidationError))


def load_system(path) -> ModeSystem:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_system(handle.read())


def utilization_summary(system: ModeSystem, mode_id: str) -> UtilizationSummary:
    """Total and maximum utilization over the tasks active in one mode.

    Active tasks are all MI tasks plus the mode's MD tasks.  An entirely empty
    mode reports ``u_max = 0``.
    """
    utilizations = [t.utilization for t in system.mi_tasks + system.md_tasks_of(mode_id)]
    u_sum = sum(utilizations, Fraction(0))
    u_max = max(utilizations, default=Fraction(0))
    per_processor = tuple(system._mi_loads.values())
    return UtilizationSummary(mode_id=mode_id, u_sum=u_sum, u_max=u_max, per_processor_mi=per_processor)


def check_transition_deadline(task: Task, latency) -> DeadlineVerdict:
    """Check that ``latency + period <= transition_deadline`` for an MD task.

    The verdict carries the slack (deadline - latency - period), which is
    negative exactly when the check fails.  Tasks without a transition
    deadline pass vacuously and are flagged unchecked.
    """
    if task.kind != MD:
        raise ValueError(f"task {task.id} is mode-independent; transition deadlines apply to MD tasks")
    latency = as_time(latency, what="latency")
    if task.transition_deadline is None:
        return DeadlineVerdict(task_id=task.id, latency=latency, passed=True, slack=None, checked=False)
    slack = task.transition_deadline - latency - task.period
    return DeadlineVerdict(task_id=task.id, latency=latency, passed=slack >= 0, slack=slack, checked=True)


def worst_predecessor_latency(
    system: ModeSystem, mode_id: str, latency_by_mode: Mapping[str, Fraction]
) -> Fraction:
    """Maximum transition latency over all predecessor modes of ``mode_id``.

    A mode with no incoming transitions is only ever entered at system start,
    so its worst entry latency is 0.
    """
    worst = Fraction(0)
    for pred in system.mode_graph.predecessors(mode_id):
        if pred not in latency_by_mode:
            raise ValueError(f"no latency provided for predecessor mode {pred!r}")
        worst = max(worst, as_time(latency_by_mode[pred], what=f"latency of mode {pred}"))
    return worst


def certify_modes(
    system: ModeSystem, analyze: Callable[[UtilizationSummary], tuple[Optional[Fraction], bool, Any]]
) -> SchemeVerdict:
    """Certify every mode under the synchronous transition protocol.

    ``analyze(summary)`` is given the mode's ``UtilizationSummary`` (built
    once per mode; it names the mode in ``mode_id`` and also goes into the
    verdict) and returns the scheme's latency bound for transitions out of
    the mode (None when the mode is infeasible), whether the mode is feasible
    on its own, and the scheme's evidence.  A mode passes when it is
    feasible, all its predecessors are, and every MD task meets
    ``entry latency + period <= transition deadline``.
    """
    summaries = {mode_id: utilization_summary(system, mode_id) for mode_id in system.mode_ids()}
    analyzed = {mode_id: analyze(summary) for mode_id, summary in summaries.items()}
    bounds = {mode_id: bound for mode_id, (bound, _, _) in analyzed.items()}
    verdicts = []
    for mode_id, (bound, feasible, evidence) in analyzed.items():
        entry, checks = None, ()
        if all(bounds[pred] is not None for pred in system.mode_graph.predecessors(mode_id)):
            entry = worst_predecessor_latency(system, mode_id, bounds)
            checks = tuple(check_transition_deadline(t, entry) for t in system.md_tasks_of(mode_id))
        verdicts.append(
            ModeVerdict(
                mode_id=mode_id,
                utilization=summaries[mode_id],
                bound=bound,
                feasible=feasible,
                evidence=evidence,
                entry_latency=entry,
                deadline_checks=checks,
                passed=feasible and entry is not None and all(c.passed for c in checks),
            )
        )
    return SchemeVerdict(modes=tuple(verdicts), passed=all(v.passed for v in verdicts))


def validate_allocation(system: ModeSystem, allocation: Allocation) -> None:
    """Check that an allocation covers the mode's MD tasks exactly once each and
    keeps every processor's total utilization at most 1."""
    mode = system.mode(allocation.mode_id)
    expected = set(mode.md_tasks)
    got = set(allocation.assignment)
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        detail = []
        if missing:
            detail.append(f"unassigned tasks {_quote_all(missing)}")
        if extra:
            detail.append(f"tasks not in mode: {_quote_all(extra)}")
        raise AllocationError(f"allocation for mode {_cut(allocation.mode_id)}: " + "; ".join(detail))
    loads = {p: system.mi_utilization(p) for p in system.processors}
    for tid in sorted(allocation.assignment):
        processor = allocation.assignment[tid]
        if isinstance(processor, bool) or not isinstance(processor, int) or processor not in loads:
            raise AllocationError(
                f"task {_cut(tid)}: processor {_quote(processor)} outside 1..{system.processor_count}"
            )
        loads[processor] += system.task(tid).utilization
    for p, load in loads.items():
        if load > 1:
            raise AllocationError(
                _exceeds_one(f"allocation for mode {_cut(allocation.mode_id)}: processor {p} utilization", load)
            )
