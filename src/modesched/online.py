"""Certification of the online First-Fit-Decreasing allocation scheme.

The online scheme places a new mode's MD tasks at runtime with First-Fit
Decreasing.  Two questions are settled offline:

* feasibility -- the Lopez utilization bound for reasonable allocators under
  partitioned EDF guarantees First-Fit never fails when the mode's total
  utilization stays within ``(beta * m + 1) / (beta + 1)``;
* latency -- an allocation-independent transition-delay bound, obtained per
  processor by packing the worst utilization-feasible subset of the source
  mode's MD tasks (an exact 0-1 knapsack maximizing summed execution time)
  and running the busy-period recurrence on the packed demand.

The feasibility bound presumes the combined MI + MD placement is one some
First-Fit ordering could have produced; hand placements of MI tasks that no
such ordering reaches void that premise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    Allocation,
    ModeSystem,
    SchemeVerdict,
    Task,
    certify_modes,
    utilization_summary,
)
from .latency import busy_period


class PlacementError(ValueError):
    """Raised when First-Fit cannot place a task on any processor."""

    def __init__(self, mode_id: str, task_id: str):
        super().__init__(f"mode {mode_id}: task {task_id} fits on no processor")
        self.mode_id = mode_id
        self.task_id = task_id


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the utilization feasibility test for one mode.

    ``beta`` is the largest number of maximum-utilization tasks a single
    processor can hold; the guaranteed bound is ``(beta*m + 1) / (beta + 1)``.
    The comparison is exact, so a mode meeting the bound with zero margin
    passes.
    """

    mode_id: str
    beta: int
    bound: Fraction
    u_sum: Fraction
    feasible: bool
    margin: Fraction


@dataclass(frozen=True)
class KnapsackResult:
    """Worst-case MD-task subset for one processor.

    ``packed_wcet`` is the maximal summed execution time over subsets of the
    pool whose summed utilization fits in the processor's spare capacity.
    """

    processor: int
    selected: tuple[str, ...]
    packed_wcet: Fraction
    capacity: Fraction


@dataclass(frozen=True)
class ProcessorBound:
    """Knapsack selection and resulting busy-period latency for one processor."""

    processor: int
    selection: KnapsackResult
    latency: Fraction


@dataclass(frozen=True)
class OnlineEvidence:
    """Why a mode's online verdict holds: the utilization feasibility test and
    the per-processor worst-case packings behind its latency bound."""

    feasibility: FeasibilityVerdict
    per_processor: tuple[ProcessorBound, ...]


def lopez_test(system: ModeSystem, mode_id: str) -> FeasibilityVerdict:
    """Utilization feasibility test for a mode under First-Fit + partitioned EDF.

    ``u_max`` ranges over every task active in the mode (MI and MD alike).  An
    empty mode is trivially feasible and reported with ``beta = 0``, bound 1.
    """
    summary = utilization_summary(system, mode_id)
    if summary.u_max == 0:
        bound = Fraction(1)
        return FeasibilityVerdict(
            mode_id=mode_id, beta=0, bound=bound, u_sum=summary.u_sum,
            feasible=True, margin=bound - summary.u_sum,
        )
    beta = int(1 / summary.u_max)
    bound = Fraction(beta * system.processor_count + 1, beta + 1)
    return FeasibilityVerdict(
        mode_id=mode_id,
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


def _max_packed_wcet(items: Sequence[tuple[Fraction, Fraction]], capacity: Fraction) -> Fraction:
    """Exact 0-1 knapsack value: max sum of wcet with sum of utilization <= capacity.

    Branch and bound over items in non-increasing wcet/utilization density
    order, pruned with the fractional-relaxation bound.  All arithmetic is
    exact, so desk-scale pools solve instantly and ties are never blurred.
    """
    order = sorted(items, key=lambda cu: (-(cu[0] / cu[1]), -cu[0]))
    best = Fraction(0)

    def explore(index: int, room: Fraction, value: Fraction) -> None:
        nonlocal best
        if value > best:
            best = value
        if index == len(order):
            return
        bound = value
        free = room
        for i in range(index, len(order)):
            wcet, util = order[i]
            if util <= free:
                free -= util
                bound += wcet
            else:
                bound += wcet * free / util
                break
        if bound <= best:
            return
        wcet, util = order[index]
        if util <= room:
            explore(index + 1, room - util, value + wcet)
        explore(index + 1, room, value)

    explore(0, capacity, Fraction(0))
    return best


def worst_case_selection(system: ModeSystem, processor: int, md_task_pool: Iterable[Task]) -> KnapsackResult:
    """Subset of the pool maximizing summed execution time within the processor's spare utilization.

    Among equally heavy optima the selection vector is made lexicographically
    smallest in task-id order (a task is left out whenever the optimum remains
    reachable without it), so results are deterministic.
    """
    if processor not in system.processors:
        raise ValueError(f"processor {processor} outside 1..{system.processor_count}")
    pool = sorted(md_task_pool, key=lambda t: t.id)
    capacity = 1 - system.mi_utilization(processor)
    target = _max_packed_wcet([(t.wcet, t.utilization) for t in pool], capacity)

    selected: list[str] = []
    room = capacity
    need = target
    for i, task in enumerate(pool):
        rest = [(t.wcet, t.utilization) for t in pool[i + 1:]]
        if _max_packed_wcet(rest, room) >= need:
            continue
        selected.append(task.id)
        room -= task.utilization
        need -= task.wcet
    return KnapsackResult(
        processor=processor, selected=tuple(selected), packed_wcet=target, capacity=capacity
    )


def transition_bound_detail(system: ModeSystem, mode_id: str) -> tuple[ProcessorBound, ...]:
    """Per-processor worst-case selections and latencies for transitions out of a mode.

    The selection pool on every processor is the mode's full MD set, which is
    what makes the resulting bound valid for any runtime placement.
    """
    pool = system.md_tasks_of(mode_id)
    rows = []
    for p in system.processors:
        selection = worst_case_selection(system, p, pool)
        latency = busy_period(selection.packed_wcet, system.mi_on(p))
        if latency is None:
            raise ArithmeticError(
                f"mode {mode_id}: busy-period recurrence diverges on processor {p}"
            )
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

    def analyze(mode_id: str):
        detail = transition_bound_detail(system, mode_id)
        feasibility = lopez_test(system, mode_id)
        bound = max((row.latency for row in detail), default=Fraction(0))
        return bound, feasibility.feasible, OnlineEvidence(feasibility, detail)

    return certify_modes(system, analyze)
