"""Certification of the online First-Fit-Decreasing allocation scheme.

The online scheme places a new mode's MD tasks at runtime with First-Fit
Decreasing.  Two questions are settled offline:

* feasibility -- the Lopez utilization bound for reasonable allocators under
  partitioned EDF guarantees First-Fit never fails when the mode's total
  utilization stays within ``(beta * m + 1) / (beta + 1)``;
* latency -- an allocation-independent transition-delay bound, obtained per
  processor by packing the worst utilization-feasible subset of the source
  mode's MD tasks (an exact 0-1 knapsack maximizing summed execution time)
  and running the busy-period recurrence on the packed demand.  It shares
  the steady-state premise of the per-allocation bounds (see ``latency``):
  at the request, each task has at most one pending job and every pending
  job meets its deadline, which does not hold inside an earlier switching
  window.

The knapsack runs on an exact integer base (see ``_Knapsack``): one branch
and bound on tie-broken integer values, pruned with the floor of the Dantzig
fractional bound, finds the heaviest selection and, among those, the
lexicographically smallest in id order, with no epsilon.  A mode's pool is
sorted by density once and solved once per distinct spare capacity.

The feasibility bound presumes the combined MI + MD placement is one some
First-Fit ordering could have produced; hand placements of MI tasks that no
such ordering reaches void that premise.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
from fractions import Fraction
from typing import Iterable

from .model import (
    Allocation,
    ModeSystem,
    SchemeVerdict,
    Task,
    UtilizationSummary,
    _cut,
    certify_modes,
    utilization_summary,
)
from .latency import _scaled, _scaled_busy_period, _time_base


class PlacementError(ValueError):
    """Raised when First-Fit cannot place a task on any processor."""

    def __init__(self, mode_id: str, task_id: str):
        super().__init__(f"mode {_cut(mode_id)}: task {_cut(task_id)} fits on no processor")
        self.mode_id = mode_id
        self.task_id = task_id


class FeasibilityVerdict(collections.namedtuple("FeasibilityVerdict", "mode_id beta bound u_sum feasible margin")):
    """Outcome of the utilization feasibility test for one mode.

    ``beta`` is the largest number of maximum-utilization tasks a single
    processor can hold; the guaranteed bound is ``(beta*m + 1) / (beta + 1)``.
    ``bound``, ``u_sum`` and ``margin`` are ``Fraction``s.  The comparison is
    exact, so a mode meeting the bound with zero margin passes.
    """

    __slots__ = ()


class KnapsackResult(collections.namedtuple("KnapsackResult", "processor selected packed_wcet capacity")):
    """Worst-case MD-task subset for one processor: ``selected`` is a tuple of
    task ids.

    ``packed_wcet`` is the maximal summed execution time over subsets of the
    pool whose summed utilization fits in the processor's spare capacity;
    both are ``Fraction``s.
    """

    __slots__ = ()


class ProcessorBound(collections.namedtuple("ProcessorBound", "processor selection latency")):
    """Knapsack selection (a ``KnapsackResult``) and resulting busy-period
    latency (a ``Fraction``) for one processor."""

    __slots__ = ()


class OnlineEvidence(collections.namedtuple("OnlineEvidence", "feasibility per_processor")):
    """Why a mode's online verdict holds: the utilization feasibility test (a
    ``FeasibilityVerdict``) and the per-processor worst-case packings behind
    its latency bound (a tuple of ``ProcessorBound``s)."""

    __slots__ = ()


def lopez_test(system: ModeSystem, mode_id: str) -> FeasibilityVerdict:
    """Utilization feasibility test for a mode under First-Fit + partitioned EDF.

    ``u_max`` ranges over every task active in the mode (MI and MD alike).  An
    empty mode is trivially feasible and reported with ``beta = 0``, bound 1.
    """
    return _lopez_verdict(utilization_summary(system, mode_id), system.processor_count)


def _lopez_verdict(summary: UtilizationSummary, processor_count: int) -> FeasibilityVerdict:
    """``lopez_test`` on a mode's utilization summary."""
    beta = int(1 / summary.u_max) if summary.u_max else 0  # an empty mode: bound 1
    bound = Fraction(beta * processor_count + 1, beta + 1)
    return FeasibilityVerdict(
        mode_id=summary.mode_id,
        beta=beta,
        bound=bound,
        u_sum=summary.u_sum,
        feasible=summary.u_sum <= bound,
        margin=bound - summary.u_sum,
    )


def first_fit_decreasing(system: ModeSystem, mode_id: str) -> Allocation:
    """Place the mode's MD tasks by First-Fit Decreasing utilization.

    Tasks are taken in non-increasing utilization order (ties by id) and each
    goes to the lowest-index processor whose total utilization stays at most 1.
    Raises PlacementError naming the first task that fits nowhere; when the
    feasibility test passed, that cannot happen.
    """
    loads = {p: system.mi_utilization(p) for p in system.processors}
    assignment: dict[str, int] = {}
    for task in sorted(system.md_tasks_of(mode_id), key=lambda t: (-t.utilization, t.id)):
        for p in system.processors:
            if loads[p] + task.utilization <= 1:
                loads[p] += task.utilization
                assignment[task.id] = p
                break
        else:
            raise PlacementError(mode_id, task.id)
    return Allocation(mode_id=mode_id, assignment=assignment)


class _Knapsack:
    """One pool of MD tasks on an exact integer base, for the worst-case packing.

    Execution times are scaled to their own ``_time_base`` and utilizations
    to ``scale``, the time base of the utilizations and capacities, so every
    fit test and packed value is an int; rationals are built only for the
    result.  The tie rule is folded into the values: in id order, task ``i``
    of ``n`` is worth its scaled wcet times ``2**n`` less ``2**(n-1-i)``.  A subset's penalties sum to less than ``2**n``, so the
    most valuable subset is the heaviest and, among those, the one whose
    inclusion vector in id order is lexicographically smallest; no two
    subsets are worth the same.  Items are kept in non-increasing
    value/utilization order, with prefix sums for the fractional bound.
    """

    def __init__(self, pool: Iterable[Task], capacities: Iterable[Fraction]):
        pool = sorted(pool, key=lambda t: t.id)
        count = len(pool)
        self.time_scale = _time_base(t.wcet for t in pool)
        utils = [t.utilization for t in pool]
        self.scale = _time_base(itertools.chain(utils, capacities))
        wcets = (_scaled(t.wcet, self.time_scale) for t in pool)
        values = [(wcet << count) - (1 << (count - 1 - i)) for i, wcet in enumerate(wcets)]
        utils = [_scaled(u, self.scale) for u in utils]
        # any order among equal densities gives the same (unique) optimum
        order = sorted(range(count), key=lambda i: Fraction(values[i], utils[i]), reverse=True)
        self.ids = [pool[i].id for i in order]
        self.items = [(values[i], utils[i]) for i in order]
        self.value_sums = list(itertools.accumulate((v for v, _ in self.items), initial=0))
        self.util_sums = list(itertools.accumulate((u for _, u in self.items), initial=0))

    def bound(self, index: int, room: int) -> int:
        """Floor of the Dantzig fractional bound over ``items[index:]`` within ``room``.

        Items are taken whole in density order until one does not fit, and a
        fraction of that one fills the rest.  Packed values are integers, so
        the floor still bounds every packing.
        """
        util_sums = self.util_sums
        base = util_sums[index]
        last = bisect.bisect_right(util_sums, base + room, index) - 1
        value = self.value_sums[last] - self.value_sums[index]
        if last < len(self.items):
            item_value, util = self.items[last]
            value += item_value * (room - (util_sums[last] - base)) // util
        return value

    def solve(self, capacity: Fraction) -> tuple[tuple[str, ...], Fraction]:
        """The heaviest selection within ``capacity`` whose inclusion vector in
        id order is lexicographically smallest, and its summed execution time.

        Branch and bound on the tie-broken values in density order, taking
        each item before leaving it out, pruned where the bound cannot beat
        the best found; its own stack goes as deep as there are items.
        """
        items, count, bound = self.items, len(self.items), self.bound
        best, best_chosen = 0, None
        # nodes (index, room, value, chosen), chosen a linked list (index, rest)
        stack = [(0, _scaled(capacity, self.scale), 0, None)]
        while stack:
            index, room, value, chosen = stack.pop()
            if value > best:
                best, best_chosen = value, chosen
            if index == count or value + bound(index, room) <= best:
                continue
            item_value, util = items[index]
            stack.append((index + 1, room, value, chosen))
            if util <= room:
                stack.append((index + 1, room - util, value + item_value, (index, chosen)))
        selected = []
        while best_chosen is not None:
            index, best_chosen = best_chosen
            selected.append(self.ids[index])
        # best is the packed scaled wcet times 2**count less penalties below 2**count
        return tuple(sorted(selected)), Fraction(-(-best >> count), self.time_scale)


def transition_bound_detail(system: ModeSystem, mode_id: str) -> tuple[ProcessorBound, ...]:
    """Per-processor worst-case selections and latencies for transitions out of a mode.

    The selection pool on every processor is the mode's full MD set, which is
    what makes the resulting bound valid for any runtime placement.  The pool
    is put on its integer base once, and solved once per distinct spare
    capacity: processors with equal capacity get the same selection.  Each
    latency is ``busy_period`` of the packed execution time and the
    processor's MI tasks, run on one integer base for the whole mode with
    the MI tasks grouped and scaled once.  Its recurrence is bounded through
    the cached MI load, so a load that does not match the MI tasks raises
    ``RuntimeError`` instead of iterating forever.
    """
    capacities = {p: 1 - system.mi_utilization(p) for p in system.processors}
    knapsack = _Knapsack(system.md_tasks_of(mode_id), capacities.values())
    scale = math.lcm(knapsack.time_scale, _time_base(v for t in system.mi_tasks for v in (t.wcet, t.period)))
    mi_sets: dict[int, list[tuple[int, int]]] = {p: [] for p in capacities}
    for t in system.mi_tasks:
        mi_sets[t.home_processor].append((_scaled(t.wcet, scale), _scaled(t.period, scale)))
    solved: dict[Fraction, tuple[tuple[str, ...], Fraction]] = {}
    rows = []
    for p, capacity in capacities.items():
        if capacity not in solved:
            solved[capacity] = knapsack.solve(capacity)
        selected, packed = solved[capacity]
        selection = KnapsackResult(processor=p, selected=selected, packed_wcet=packed, capacity=capacity)
        # L = z + sum ceil(L/T)C <= z + sum C + (1 - capacity) L bounds L; past it, the cached
        # MI load is not the tasks'.  Capacity 0 packs nothing, and the recurrence stays at 0.
        z = _scaled(packed, scale)
        limit = (z + sum(c for c, _ in mi_sets[p])) * capacity.denominator // capacity.numerator if capacity else 0
        latency = Fraction(_scaled_busy_period(z, mi_sets[p], limit), scale)
        rows.append(ProcessorBound(processor=p, selection=selection, latency=latency))
    return tuple(rows)


def latency_upper_bound(system: ModeSystem, mode_id: str) -> Fraction:
    """Transition-delay upper bound out of ``mode_id`` valid for any First-Fit placement."""
    detail = transition_bound_detail(system, mode_id)
    return max((row.latency for row in detail), default=Fraction(0))


def validate_online_scheme(system: ModeSystem) -> SchemeVerdict:
    """Certify every mode: utilization feasibility plus all transition deadlines.

    A mode's bound is ``latency_upper_bound`` and its evidence an
    ``OnlineEvidence``; the bound holds for any runtime placement, so every
    mode has one, and a mode failing the feasibility test fails on its own.
    """

    def analyze(summary: UtilizationSummary):
        detail = transition_bound_detail(system, summary.mode_id)
        feasibility = _lopez_verdict(summary, system.processor_count)
        bound = max((row.latency for row in detail), default=Fraction(0))
        return bound, feasibility.feasible, OnlineEvidence(feasibility, detail)

    return certify_modes(system, analyze)
