"""Latency-optimal static allocation of a mode's MD tasks, plus MILP export.

``solve_optimal`` finds the exact optimum with one decision oracle: a
depth-first search that places the MD tasks in decreasing-utilization order
and answers whether some allocation keeps every processor's utilization at
most 1 and every processor's latency bound at most a given limit.  The limit
is always finite.  The optimum comes from one branch-and-bound pass of the
oracle: its first limit is the mode's longest MD period, which no platform
bound exceeds, so it finds a utilization-feasible allocation whenever one
exists; each allocation it completes lowers the limit to just below that
allocation's bound, and the pass goes on from the first step the new limit
refuses, so the last allocation it completes is optimal.  The witness is
the assignment vector that is lexicographically smallest in task-id order
among the optimal ones, so results are reproducible; it takes one oracle
call per task.  When no utilization-feasible allocation exists, the mode is
reported stuck on the first task in branching order that cannot be placed
together with the tasks before it.  The oracle runs on an integer time
base: times are scaled to their ``_time_base`` and utilizations by the lcm
of the scaled periods, so every utilization test, demand sum and
busy-period iteration is exact integer arithmetic with no epsilon, and
rationals are built only for the result.

``export_milp`` emits the same optimization as a mixed-integer linear program
in CPLEX LP text format, for independent verification with any external
solver.  The in-repo search never calls a solver itself.
"""

from __future__ import annotations

import collections
import decimal
import math
from fractions import Fraction
from typing import Optional

from .model import (
    Allocation,
    BigMError,
    InfeasibleModeError,
    ModeSystem,
    SchemeVerdict,
    UtilizationSummary,
    _shown,
    as_time,
    certify_modes,
    printable,
)
from .latency import LatencyReport, _scaled, _scaled_busy_period, _time_base, analyze_allocation


class OptimizationResult(collections.namedtuple(
    "OptimizationResult", "mode_id best_allocation latency_report explored_nodes proof_of_optimality"
)):
    """Outcome of the exact allocation search for one mode: the optimal
    ``Allocation`` and its ``LatencyReport``.  ``explored_nodes`` counts the
    placements the allocation oracle tried over all of its calls."""

    __slots__ = ()

    @property
    def optimal_latency(self) -> Fraction:
        return self.latency_report.platform_bound


class _SearchState:
    """The allocation oracle of one mode, on an exact integer time base.

    Every time (wcet, period, demand, busy period) is scaled by ``scale``, the
    ``_time_base`` of the wcets and periods of the MI tasks and the mode's MD
    tasks, and every utilization by ``capacity``, the lcm of the scaled
    periods, so a full processor holds ``capacity``.  Scaling by a positive
    constant keeps every comparison, so the oracle decides exactly what it
    would decide on the rationals.  Per-processor state lives in lists indexed
    by processor number (index 0 is unused), and each processor's MI task set
    is interned as a small int, its signature.
    """

    def __init__(self, system: ModeSystem, md_tasks):
        tasks = system.mi_tasks + tuple(md_tasks)
        self.scale = _time_base(v for t in tasks for v in (t.wcet, t.period))
        self.capacity = math.lcm(*(self.time(t.period) for t in tasks))
        self.processors = system.processors
        self.mi_sets = [()] + [
            tuple((self.time(t.wcet), self.time(t.period)) for t in system.mi_on(p)) for p in self.processors
        ]
        self.util = [sum(wcet * (self.capacity // period) for wcet, period in mi) for mi in self.mi_sets]
        interned: dict[tuple, int] = {}
        self.signature = [interned.setdefault(tuple(sorted(mi)), len(interned)) for mi in self.mi_sets]
        # one busy-period cache per processor, keyed by MD demand
        self._busy_cache: list[dict[int, int]] = [{} for _ in self.mi_sets]
        self.explored = 0
        self.deepest = 0

    def time(self, value: Fraction) -> int:
        return _scaled(value, self.scale)

    def item(self, task) -> tuple[int, int, int]:
        """The task's scaled (utilization, wcet, period)."""
        wcet, period = self.time(task.wcet), self.time(task.period)
        return wcet * (self.capacity // period), wcet, period

    def busy(self, processor: int, demand: int) -> int:
        cache = self._busy_cache[processor]
        value = cache.get(demand)
        if value is None:
            # utilization feasibility guarantees convergence whenever demand > 0
            value = cache[demand] = _scaled_busy_period(demand, self.mi_sets[processor])
        return value

    def bound(self, items, placement) -> int:
        """Platform latency bound of the items placed on the given processors."""
        demand = [0] * len(self.mi_sets)
        longest = [0] * len(self.mi_sets)
        for (_, wcet, period), p in zip(items, placement):
            demand[p] += wcet
            longest[p] = max(longest[p], period)
        return max((min(longest[p], self.busy(p, demand[p])) for p in self.processors if demand[p]), default=0)

    def allocate(self, fixed, rest, limit: int, minimize: bool = False) -> Optional[tuple[int, ...]]:
        """Processors for the items of ``fixed`` (each pinned to its processor)
        and then of ``rest``, or None when no such placement exists.

        A processor admits an item when its utilization still fits and its
        latency bound stays at most ``limit``: either every MD period on it is
        at most ``limit``, or the busy period of its summed MD demand is.  At
        a ``limit`` that no MD period exceeds, only utilization is tested.
        Both only grow as items are added, so a refused item stays refused in
        every completion.  Processors in the same state (MI tasks,
        utilization, demand, and whether they hold a period above ``limit``)
        are interchangeable, so only the first of them is tried.
        ``deepest`` is left at the most items any branch placed.

        Processors are tried in ascending order, and a skipped one is in the
        state of one already tried at that step, whose subtrees all failed.
        So the placement returned is the lexicographically smallest in step
        order among all placements that exist.

        With ``minimize``, the search is a branch and bound instead: each
        placement it completes becomes the incumbent, and the limit drops to
        the incumbent's bound minus one.  The search then backs up to the
        first step whose placement the new limit refuses and goes on from
        there, so every subtree it leaves holds no placement within the limit
        in force.  The last incumbent is returned: its bound is the least of
        all placements.  At each drop every step forgets the states it tried:
        whether they held a period above the limit was judged under the old
        limit.  When no placement exists the limit never drops, so
        ``deepest`` is what a call without ``minimize`` leaves.
        """
        steps = [(item, (p,)) for item, p in fixed] + [(item, self.processors) for item in rest]
        items = [item for item, _ in steps]
        capacity, signature, busy, caches = self.capacity, self.signature, self.busy, self._busy_cache

        def above(limit: int) -> list[bool]:
            """Per step, whether its item's period is above ``limit``."""
            return [period > limit for _, _, period in items]

        over = above(limit)
        util = list(self.util)
        demand = [0] * len(util)
        long = [False] * len(util)
        placement: list[int] = []
        was_long: list[bool] = []
        incumbent = None if steps else ()  # placing nothing is complete at once
        explored = deepest = depth = 0
        # depth-first on an explicit stack, one frame per step being placed:
        # its candidates not yet tried and the processor states it tried
        frames = [(iter(steps[0][1]), set())] if steps else []
        while frames:
            candidates, tried = frames[-1]
            utilization, wcet, _ = items[depth]
            step_long = over[depth]
            for p in candidates:
                if util[p] + utilization > capacity:
                    continue
                now_long = long[p] or step_long
                if now_long and (caches[p].get(demand[p] + wcet) or busy(p, demand[p] + wcet)) > limit:
                    continue
                state = (signature[p], util[p], demand[p], long[p])
                if state in tried:
                    continue
                tried.add(state)
                explored += 1
                was_long.append(long[p])
                util[p] += utilization
                demand[p] += wcet
                long[p] = now_long
                placement.append(p)
                break
            else:
                frames.pop()
                if depth:
                    depth -= 1
                    p = placement.pop()
                    utilization, wcet, _ = items[depth]
                    util[p] -= utilization
                    demand[p] -= wcet
                    long[p] = was_long.pop()
                continue
            depth += 1
            if depth > deepest:
                deepest = depth
            if depth < len(steps):
                frames.append((iter(steps[depth][1]), set()))
                continue
            if not minimize:
                break
            incumbent = tuple(placement)
            limit = self.bound(items, incumbent) - 1
            over = above(limit)
            # replay the incumbent under the new limit up to the first step it refuses
            util, demand, long = list(self.util), [0] * len(util), [False] * len(util)
            was_long.clear()
            for depth, p in enumerate(incumbent):
                utilization, wcet, _ = items[depth]
                now_long = long[p] or over[depth]
                if now_long and busy(p, demand[p] + wcet) > limit:
                    break
                was_long.append(long[p])
                util[p] += utilization
                demand[p] += wcet
                long[p] = now_long
            del placement[depth:], frames[depth + 1:]
            for _, tried in frames:
                tried.clear()
        self.explored += explored
        self.deepest = deepest
        if minimize:
            return incumbent
        return tuple(placement) if depth == len(steps) else None


def solve_optimal(system: ModeSystem, mode_id: str) -> OptimizationResult:
    """Allocation of the mode's MD tasks minimizing the platform latency bound.

    The optimum comes from one branch-and-bound call of the allocation
    oracle, starting at the longest MD period, a limit that tests utilization
    only.  The witness is the lexicographically smallest optimal assignment
    in task-id order: each task in id order is fixed on the lowest processor
    from which an allocation within the optimum still exists, which is where
    the one oracle call that places it first, after the tasks already fixed,
    puts it.  A mode with no MD tasks goes through the same oracle: it places
    nothing and the bound is 0, with no node explored.

    Raises InfeasibleModeError when no utilization-feasible allocation
    exists, naming the stuck task: the first task, in decreasing-utilization
    order (ties by id), such that the tasks before it and it cannot all be
    placed.
    """
    md_tasks = system.md_tasks_of(mode_id)
    order = sorted(md_tasks, key=lambda t: (-t.utilization, t.id))
    state = _SearchState(system, md_tasks)
    items = {t.id: state.item(t) for t in md_tasks}
    order_items = [items[t.id] for t in order]

    # no platform bound exceeds the longest MD period, so the first limit tests utilization only
    longest = max((period for _, _, period in order_items), default=0)
    found = state.allocate([], order_items, longest, minimize=True)
    if found is None:
        raise InfeasibleModeError(mode_id, order[state.deepest].id)
    best = state.bound(order_items, found)

    assignment: dict[str, int] = {}
    fixed: list[tuple[tuple[int, int, int], int]] = []
    for task in sorted(md_tasks, key=lambda t: t.id):
        # this task first, then the tasks after it in id order, in branching order
        rest = [items[t.id] for t in order if t.id > task.id]
        assignment[task.id] = state.allocate(fixed, [items[task.id], *rest], best)[len(fixed)]
        fixed.append((items[task.id], assignment[task.id]))

    allocation = Allocation(mode_id=mode_id, assignment=assignment)
    return OptimizationResult(
        mode_id=mode_id,
        best_allocation=allocation,
        latency_report=analyze_allocation(system, mode_id, allocation),
        explored_nodes=state.explored,
        proof_of_optimality=True,
    )


def validate_offline_scheme(system: ModeSystem) -> SchemeVerdict:
    """Certify every mode under its optimal static allocation.

    A mode's bound is its optimal platform latency and its evidence the
    ``OptimizationResult``; a mode with no feasible allocation has no bound,
    and its evidence is the ``InfeasibleModeError`` naming the stuck task.
    """

    def analyze(summary: UtilizationSummary):
        try:
            result = solve_optimal(system, summary.mode_id)
        except InfeasibleModeError as exc:
            return None, False, exc
        return result.optimal_latency, True, result

    return certify_modes(system, analyze)


# --------------------------------------------------------------------------
# MILP document and LP-format export
# --------------------------------------------------------------------------

class ConstraintRow(collections.namedtuple("ConstraintRow", "name terms sense rhs")):
    """One linear row: sum of (variable, coefficient) terms, a sense (``"<="``
    or ``"="``), and a constant; coefficients and constant are ``Fraction``s."""

    __slots__ = ()


class MilpDocument(collections.namedtuple(
    "MilpDocument",
    "mode_id big_m objective constraints binary_variables integer_variables continuous_variables"
    " integer_upper_bounds",
)):
    """The allocation optimization as a mixed-integer linear program.

    Variables follow the fixed naming protocol ``y_<processor>_<task>``
    (binary placement), ``p_<processor>`` (binary bound selector),
    ``x_<task>`` (integer job count of an MI task inside the busy period) and
    ``L`` (the continuous objective).  ``constraints`` is a tuple of
    ``ConstraintRow``s, each ``*_variables`` a tuple of names and
    ``integer_upper_bounds`` a tuple of (name, int) pairs.
    """

    __slots__ = ()

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    @property
    def binary_count(self) -> int:
        return len(self.binary_variables)

    def to_lp(self) -> str:
        """The program in CPLEX LP text, with a warning comment when a number was rounded."""
        lines: list[str] = []
        body: list[str] = []
        rounded = False
        body.append("Minimize")
        body.append(f" obj: {self.objective}")
        body.append("Subject To")
        for row in self.constraints:
            terms, terms_exact = _render_terms(row.terms)
            rhs, rhs_exact = _decimal_12(row.rhs)
            rounded = rounded or not terms_exact or not rhs_exact
            body.append(f" {row.name}: {terms} {row.sense} {rhs}")
        body.append("Bounds")
        for var, upper in self.integer_upper_bounds:
            body.append(f" 0 <= {var} <= {_decimal_12(upper)[0]}")
        if self.binary_variables:
            body.append("Binary")
            for var in self.binary_variables:
                body.append(f" {var}")
        if self.integer_variables:
            body.append("General")
            for var in self.integer_variables:
                body.append(f" {var}")
        body.append("End")

        hv_text, hv_exact = _decimal_12(self.big_m)
        rounded = rounded or not hv_exact
        lines.append(f"\\ transition-latency allocation program, mode {self.mode_id}")
        lines.append(f"\\ disjunction constant HV = {hv_text}")
        if rounded:
            lines.append(
                "\\ warning: some coefficients were rounded to 12 significant digits and are not exact"
            )
        lines.extend(body)
        return "\n".join(lines) + "\n"


def _decimal_12(value: Fraction) -> tuple[str, bool]:
    """Render a rational as a decimal capped at 12 significant digits.

    Returns the text and whether it is exact.  Integers are always exact;
    one too long to print is refused.
    """
    if value.denominator == 1:
        return str(printable(value, what="LP number").numerator), True
    with decimal.localcontext() as ctx:
        ctx.prec = 12
        approx = decimal.Decimal(value.numerator) / decimal.Decimal(value.denominator)
    text = format(approx, "f")
    return text, Fraction(text) == value


def _lp_names(raw_ids) -> dict[str, str]:
    """Map task ids to LP-safe, collision-free name fragments."""
    mapping: dict[str, str] = {}
    used: set[str] = set()
    for raw in raw_ids:
        safe = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in raw) or "task"
        candidate = safe
        suffix = 2
        while candidate in used:
            candidate = f"{safe}_{suffix}"
            suffix += 1
        used.add(candidate)
        mapping[raw] = candidate
    return mapping


def default_big_m(system: ModeSystem, mode_id: str) -> Fraction:
    """Default disjunction constant: summed execution time of the mode's tasks
    plus the largest period in the system."""
    mode_tasks = system.mi_tasks + system.md_tasks_of(mode_id)
    total_wcet = sum((t.wcet for t in mode_tasks), Fraction(0))
    max_period = max(t.period for t in system.mi_tasks + system.md_tasks)
    return total_wcet + max_period


def _max_attainable_latency(system: ModeSystem, mode_id: str) -> Fraction:
    """Strict upper envelope of every latency value a feasible assignment can
    reach: the larger of the largest MD period and the First-Fit bound, which
    packs the worst subset of the mode's MD tasks on every processor."""
    from .online import latency_upper_bound  # only the export needs the online layer

    return max([latency_upper_bound(system, mode_id), *(t.period for t in system.md_tasks_of(mode_id))])


def export_milp(system: ModeSystem, mode_id: str, big_m=None) -> MilpDocument:
    """Emit the allocation MILP for one mode.

    Rows: one assignment equality per MD task; per processor a utilization
    row (only when the mode has MD tasks), one busy-period-end row per
    resident MI task, and the disjunctive
    pair selecting the smaller of the two latency bounds (period bound rows
    per MD task, one busy-bound row), relaxed by the big-M constant.

    ``big_m`` must strictly exceed every attainable latency value; the default
    is checked the same way a caller-supplied value is.
    """
    system.mode(mode_id)
    hv = default_big_m(system, mode_id) if big_m is None else as_time(big_m, what="big_m")
    attainable = _max_attainable_latency(system, mode_id)
    if hv <= attainable:
        raise BigMError(
            f"big_m {_shown(hv)} does not strictly dominate attainable latency {_shown(attainable)}"
        )

    md = sorted(system.md_tasks_of(mode_id), key=lambda t: t.id)
    names = _lp_names([t.id for t in md] + [t.id for t in system.mi_tasks])
    rows: list[ConstraintRow] = []

    for task in md:
        rows.append(
            ConstraintRow(
                name=f"assign_{names[task.id]}",
                terms=tuple((f"y_{p}_{names[task.id]}", Fraction(1)) for p in system.processors),
                sense="=",
                rhs=Fraction(1),
            )
        )
    for p in system.processors:
        if md:
            rows.append(
                ConstraintRow(
                    name=f"util_{p}",
                    terms=tuple((f"y_{p}_{names[t.id]}", t.utilization) for t in md),
                    sense="<=",
                    rhs=1 - system.mi_utilization(p),
                )
            )
        mi_here = system.mi_on(p)
        demand_terms = [(f"y_{p}_{names[t.id]}", t.wcet) for t in md]
        demand_terms += [(f"x_{names[t.id]}", t.wcet) for t in mi_here]
        for ender in mi_here:
            merged = dict(demand_terms)
            var = f"x_{names[ender.id]}"
            merged[var] = merged[var] - ender.period
            rows.append(
                ConstraintRow(
                    name=f"end_{p}_{names[ender.id]}",
                    terms=tuple(merged.items()),
                    sense="<=",
                    rhs=Fraction(0),
                )
            )
        rows.append(
            ConstraintRow(
                name=f"sel2_{p}",
                terms=tuple(demand_terms) + (("L", Fraction(-1)), (f"p_{p}", hv)),
                sense="<=",
                rhs=hv,
            )
        )
        for task in md:
            rows.append(
                ConstraintRow(
                    name=f"sel1_{p}_{names[task.id]}",
                    terms=(
                        (f"y_{p}_{names[task.id]}", task.period),
                        ("L", Fraction(-1)),
                        (f"p_{p}", -hv),
                    ),
                    sense="<=",
                    rhs=Fraction(0),
                )
            )

    binaries = tuple(f"y_{p}_{names[t.id]}" for p in system.processors for t in md) + tuple(
        f"p_{p}" for p in system.processors
    )
    integers = tuple(f"x_{names[t.id]}" for t in system.mi_tasks)
    upper_bounds = tuple(
        (f"x_{names[t.id]}", math.ceil(hv / t.period)) for t in system.mi_tasks
    )
    return MilpDocument(
        mode_id=mode_id,
        big_m=hv,
        objective="L",
        constraints=tuple(rows),
        binary_variables=binaries,
        integer_variables=integers,
        continuous_variables=("L",),
        integer_upper_bounds=upper_bounds,
    )


def _render_terms(terms) -> tuple[str, bool]:
    parts: list[str] = []
    exact = True
    for var, coef in terms:
        if coef == 0:
            continue
        magnitude, is_exact = _decimal_12(abs(coef))
        exact = exact and is_exact
        body = var if magnitude == "1" else f"{magnitude} {var}"
        if not parts:
            parts.append(body if coef > 0 else f"- {body}")
        else:
            parts.append(f"+ {body}" if coef > 0 else f"- {body}")
    return " ".join(parts) if parts else "0", exact
