"""Transition-latency upper bounds for a fixed allocation.

After a mode-change request, the old mode's pending MD jobs must drain before
the new mode starts.  Per processor, two incomparable upper bounds on that
drain time exist:

* the largest period among the MD tasks placed there (every such job meets a
  deadline at most one period after the request), and
* the synchronous busy period seeded by one job of each placed MD task plus
  the recurring interference of the processor's MI tasks.

The platform-wide bound is the maximum over processors of the smaller of the
two bounds.

Both terms rest on a steady-state premise: at the request, each task has at
most one pending job (the busy term counts one job per MD task), and every
pending job meets its deadline (the period term).  It holds in a mode's
steady state, where the allocation loads no processor above 1 and EDF meets
every implicit deadline; it does not hold for a request made inside an
earlier switching window.

Every exact kernel of the package (the busy period here, the allocation
search, the First-Fit knapsack and the simulator) runs on integers: it takes
an integer time base from ``_time_base`` and scales its rationals to it with
``_scaled``.
"""

from __future__ import annotations

import collections
import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import (
    MI,
    Allocation,
    ModeSystem,
    Task,
    as_time,
    validate_allocation,
)


class ProcessorLatency(collections.namedtuple("ProcessorLatency", "processor period_bound busy_bound effective")):
    """Per-processor latency bounds, each a ``Fraction``.

    ``period_bound`` and ``busy_bound`` are both absent (None) for a processor
    hosting no MD task (there is nothing to drain) and both present
    otherwise.  ``effective`` is the smaller of the two, or 0 when they are
    absent.
    """

    __slots__ = ()


class LatencyReport(collections.namedtuple("LatencyReport", "mode_id per_processor platform_bound")):
    """Latency bounds for one mode under one allocation: a tuple of
    ``ProcessorLatency`` rows and the ``Fraction`` bound over all processors."""

    __slots__ = ()


def busy_period(md_wcet_sum, mi_tasks: Iterable[Task]) -> Optional[Fraction]:
    """Least fixed point of ``L = z + sum_j ceil(L / T_j) * C_j`` over the MI tasks.

    ``z`` is the summed execution demand of the MD jobs to drain.  Returns 0
    for ``z = 0`` (nothing to drain) and None when the recurrence diverges,
    which happens exactly when the MI tasks alone saturate the processor
    (utilization >= 1) and ``z > 0``.  The iteration runs on integers: every
    time is scaled to one ``_time_base``, so the result is exact.
    """
    z = as_time(md_wcet_sum, what="md_wcet_sum")
    tasks = list(mi_tasks)
    for task in tasks:
        if task.kind != MI:
            raise ValueError(f"task {task.id} is not mode-independent")
    if z == 0:
        return Fraction(0)
    if sum((t.utilization for t in tasks), Fraction(0)) >= 1:
        return None
    scale = _time_base([z, *(v for t in tasks for v in (t.wcet, t.period))])
    value = _scaled_busy_period(
        _scaled(z, scale), [(_scaled(t.wcet, scale), _scaled(t.period, scale)) for t in tasks]
    )
    return Fraction(value, scale)


def _time_base(values: Iterable[Fraction]) -> int:
    """The least integer base on which every value is an integer: the lcm of
    the denominators, 1 for no values."""
    return math.lcm(*(value.denominator for value in values))


def _scaled(value: Fraction, scale: int) -> int:
    """``value * scale`` as an int; ``scale`` is a multiple of the denominator."""
    return value.numerator * (scale // value.denominator)


def _scaled_busy_period(z: int, mi: Sequence[tuple[int, int]], limit: Optional[int] = None) -> int:
    """``busy_period`` on an integer time base: ``mi`` holds (wcet, period) pairs.

    Iteration starts at ``L = z`` and ends on exact equality; the caller
    guarantees convergence (MI utilization below 1, or ``z = 0``).  A caller
    that knows an upper bound on the fixed point passes it as ``limit``: an
    iterate past it raises ``RuntimeError`` instead of iterating on.
    """
    current = z
    while True:
        nxt = z
        for wcet, period in mi:
            nxt += -(-current // period) * wcet
        if nxt == current:
            return current
        if limit is not None and nxt > limit:
            raise RuntimeError(f"busy period passed its bound {limit}")
        current = nxt


def analyze_allocation(system: ModeSystem, mode_id: str, allocation: Allocation) -> LatencyReport:
    """Per-processor and platform-wide latency bounds for a valid allocation.

    Only the given mode's MD tasks and the static MI tasks are read, so the
    report is independent of whatever runs in any subsequent mode.  A valid
    allocation loads no processor above 1, and every MD task has a positive
    wcet, so a processor holding MD tasks has MI utilization below 1: its
    busy-period recurrence converges.
    """
    if allocation.mode_id != mode_id:
        raise ValueError(f"allocation is for mode {allocation.mode_id!r}, not {mode_id!r}")
    validate_allocation(system, allocation)
    rows = []
    for p in system.processors:
        placed = [system.task(tid) for tid in allocation.tasks_on(p)]
        period_bound = max((t.period for t in placed), default=None)
        busy = busy_period(sum((t.wcet for t in placed), Fraction(0)), system.mi_on(p)) if placed else None
        rows.append(
            ProcessorLatency(
                processor=p,
                period_bound=period_bound,
                busy_bound=busy,
                effective=min(period_bound, busy) if placed else Fraction(0),
            )
        )
    return LatencyReport(
        mode_id=mode_id,
        per_processor=tuple(rows),
        platform_bound=max((row.effective for row in rows), default=Fraction(0)),
    )
