import itertools
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest

import modesched as ms

SAMPLES = Path(__file__).resolve().parent.parent / "samples"

# two-mode, two-processor reference system used throughout the regression suite
CASE_STUDY = {
    "processors": 2,
    "tasks": [
        {"id": "tau1", "kind": "MI", "wcet": 10, "period": 30, "processor": 1},
        {"id": "tau2", "kind": "MI", "wcet": 20, "period": 60, "processor": 1},
        {"id": "tau3", "kind": "MI", "wcet": 15, "period": 90, "processor": 2},
        {"id": "tau4", "kind": "MI", "wcet": 20, "period": 100, "processor": 2},
        {"id": "tau5", "kind": "MD", "wcet": 7, "period": 40, "transition_deadline": 150},
        {"id": "tau6", "kind": "MD", "wcet": 1, "period": 10, "transition_deadline": 100},
        {"id": "tau7", "kind": "MD", "wcet": 1, "period": 20, "transition_deadline": 150},
        {"id": "tau8", "kind": "MD", "wcet": 2, "period": 30, "transition_deadline": 200},
        {"id": "tau9", "kind": "MD", "wcet": 3, "period": 25, "transition_deadline": 200},
        {"id": "tau10", "kind": "MD", "wcet": 50, "period": 100, "transition_deadline": 150},
    ],
    "modes": [
        {"id": "mode1", "md_tasks": ["tau5", "tau6", "tau7", "tau8", "tau9"]},
        {"id": "mode2", "md_tasks": ["tau10"]},
    ],
    "transitions": [["mode1", "mode2"], ["mode2", "mode1"]],
}


def case_study_raw(deadline_tau10=150, wcet_tau10=50):
    raw = {
        "processors": 2,
        "tasks": [dict(t) for t in CASE_STUDY["tasks"]],
        "modes": [{"id": m["id"], "md_tasks": list(m["md_tasks"])} for m in CASE_STUDY["modes"]],
        "transitions": [list(e) for e in CASE_STUDY["transitions"]],
    }
    for task in raw["tasks"]:
        if task["id"] == "tau10":
            task["transition_deadline"] = deadline_tau10
            task["wcet"] = wcet_tau10
    return raw


def infeasible_mode_raw():
    """Two modes on two half-loaded processors: m1's task "big" fits nowhere,
    so m1 is infeasible and m2, entered only from m1, has no entry latency."""
    return {
        "processors": 2,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 3, "period": 5, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 3, "period": 5, "processor": 2},
            {"id": "big", "kind": "MD", "wcet": 1, "period": 2},
            {"id": "ok", "kind": "MD", "wcet": 1, "period": 10},
        ],
        "modes": [{"id": "m1", "md_tasks": ["big"]}, {"id": "m2", "md_tasks": ["ok"]}],
        "transitions": [["m1", "m2"], ["m2", "m1"]],
    }


@pytest.fixture(scope="session")
def case_study():
    return ms.build_system(CASE_STUDY)


@pytest.fixture(scope="session")
def handover_system():
    return ms.load_system(SAMPLES / "two_proc_handover.json")


@pytest.fixture(scope="session")
def handover_trace(handover_system):
    scenario = ms.load_scenario(SAMPLES / "handover_mcr7.json", handover_system)
    return ms.run(scenario)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def brute_force_optimal(system, mode_id):
    """Minimum platform bound over every utilization-feasible assignment, or None."""
    md = system.md_tasks_of(mode_id)
    best = None
    for combo in itertools.product(system.processors, repeat=len(md)):
        allocation = ms.Allocation(mode_id=mode_id, assignment={t.id: p for t, p in zip(md, combo)})
        try:
            ms.validate_allocation(system, allocation)
        except ms.AllocationError:
            continue
        bound = ms.analyze_allocation(system, mode_id, allocation).platform_bound
        if best is None or bound < best:
            best = bound
    return best


def knapsack_brute(items, capacity):
    """Exhaustive 0-1 knapsack value: items are (wcet, utilization) pairs."""
    if not items:
        return Fraction(0)
    wcet, util = items[0]
    skip = knapsack_brute(items[1:], capacity)
    if util <= capacity:
        return max(skip, wcet + knapsack_brute(items[1:], capacity - util))
    return skip


def knapsack_lex_brute(pool, capacity):
    """Exhaustive worst-case selection: (packed wcet, ids) of the heaviest subset
    of ``pool`` within ``capacity`` whose inclusion vector in id order is
    lexicographically smallest among the heaviest.

    Subsets are walked in lexicographic order of their inclusion vectors
    (leaving a task out before taking it), and only a strictly heavier one
    replaces the first optimum found.  Prefixes already over capacity are cut,
    since utilizations are positive.
    """
    pool = sorted(pool, key=lambda t: t.id)
    best = None

    def walk(index, util, wcet, chosen):
        nonlocal best
        if util > capacity:
            return
        if index == len(pool):
            if best is None or wcet > best[0]:
                best = (wcet, tuple(chosen))
            return
        walk(index + 1, util, wcet, chosen)
        task = pool[index]
        walk(index + 1, util + task.utilization, wcet + task.wcet, chosen + [task.id])

    walk(0, Fraction(0), Fraction(0), [])
    return best


def fraction_max_packed_wcet(items, capacity):
    """The knapsack value on rationals: the reference for the integer search.

    Branch and bound over (wcet, utilization) pairs in non-increasing density
    order, pruned with the unrounded fractional-relaxation bound.
    """
    order = sorted(items, key=lambda cu: (-(cu[0] / cu[1]), -cu[0]))
    best = Fraction(0)

    def explore(index, room, value):
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


def fraction_worst_case_selection(system, processor, pool):
    """The selection of a ``transition_bound_detail`` row on rationals, for any
    pool, by n + 1 knapsack solves: a task is left out whenever the optimum
    stays reachable from the tasks after it."""
    pool = sorted(pool, key=lambda t: t.id)
    capacity = 1 - system.mi_utilization(processor)
    target = fraction_max_packed_wcet([(t.wcet, t.utilization) for t in pool], capacity)
    selected = []
    room = capacity
    need = target
    for i, task in enumerate(pool):
        rest = [(t.wcet, t.utilization) for t in pool[i + 1:]]
        if fraction_max_packed_wcet(rest, room) >= need:
            continue
        selected.append(task.id)
        room -= task.utilization
        need -= task.wcet
    return ms.KnapsackResult(
        processor=processor, selected=tuple(selected), packed_wcet=target, capacity=capacity
    )


def busy_period_candidates(z, mi_tasks, upper):
    """All points z + sum(k_j * C_j) with k_j in 0..ceil(upper/T_j)+1, sorted."""
    ranges = [range(0, math.ceil(upper / t.period) + 2) for t in mi_tasks]
    points = set()
    for ks in itertools.product(*ranges):
        points.add(z + sum((k * t.wcet for k, t in zip(ks, mi_tasks)), Fraction(0)))
    return sorted(points)


def busy_period_oracle(z, mi_tasks, upper):
    """Least fixed point by scanning candidate points, fully independent of the iteration."""
    for point in busy_period_candidates(z, mi_tasks, upper):
        if point < z:
            continue
        if point == z + sum((math.ceil(point / t.period) * t.wcet for t in mi_tasks), Fraction(0)):
            return point
    return None


def fraction_busy_period(z, mi_tasks):
    """``busy_period`` iterated on rationals: the reference for its integer core.

    0 for z = 0, None when the MI utilization is at least 1, otherwise the
    fixed point reached from L = z.
    """
    if z == 0:
        return Fraction(0)
    if sum((t.utilization for t in mi_tasks), Fraction(0)) >= 1:
        return None
    current = z
    while True:
        nxt = z + sum((math.ceil(current / t.period) * t.wcet for t in mi_tasks), Fraction(0))
        if nxt == current:
            return current
        current = nxt


def rational_trace(engine):
    """The trace of an executed simulator engine, materialized on rationals.

    One ``Fraction`` and one ``SimEvent`` per event row, and the text
    formatted from those events: the reference for ``SimTrace``, which keeps
    the integer rows.  Returns the events, the text, the job deadline misses
    and the deadline miss count.
    """
    frac = lambda value: Fraction(value, engine.scale)  # noqa: E731
    events = tuple(
        ms.SimEvent(time=frac(t), processor=proc, kind=kind, task=task, job=job)
        for t, proc, kind, task, job in engine.events
    )
    latencies = tuple((frac(at), frac(latency)) for at, latency in engine.latencies)
    checks = tuple(
        ms.sim.TransitionCheck(
            task_id=record["task_id"],
            mcr_time=frac(record["mcr"]),
            absolute_deadline=frac(record["absolute"]),
            first_completion=None if record["completion"] is None else frac(record["completion"]),
            ok=engine.check_outcome(record, engine.horizon, 0),
        )
        for record in engine.checks
    )
    job_misses = sum(1 for e in events if e.kind == "deadline-miss")
    miss_count = job_misses + sum(1 for c in checks if c.ok is False)
    lines = []
    for e in events:
        lines.append(
            "\t".join(
                (
                    str(e.time),
                    "-" if e.processor is None else str(e.processor),
                    e.kind,
                    "-" if e.task is None else e.task,
                    "-" if e.job is None else str(e.job),
                )
            )
        )
    for mcr_time, latency in latencies:
        lines.append(f"# latency\t{mcr_time}\t{latency}")
    for check in checks:
        outcome = "-" if check.ok is None else ("ok" if check.ok else "MISS")
        completion = "-" if check.first_completion is None else str(check.first_completion)
        lines.append(
            f"# transition-deadline\t{check.task_id}\t{check.mcr_time}"
            f"\t{check.absolute_deadline}\t{completion}\t{outcome}"
        )
    lines.append(f"# deadline-misses\t{miss_count}")
    return events, "\n".join(lines) + "\n", job_misses, miss_count


def execution_intervals(trace, processor=None, task=None, job=None):
    """(begin, end) execution intervals reconstructed from start/resume/preempt/complete events."""
    intervals = []
    open_since = {}
    for event in trace.events:
        if processor is not None and event.processor != processor:
            continue
        if task is not None and event.task != task:
            continue
        if job is not None and event.job != job:
            continue
        key = (event.processor, event.task, event.job)
        if event.kind in ("start", "resume"):
            open_since[key] = event.time
        elif event.kind in ("preempt", "complete") and key in open_since:
            intervals.append((open_since.pop(key), event.time))
    return sorted(intervals)


def drain_instant(trace):
    """First instant at which every job released strictly earlier has completed.

    Completions are emitted before same-instant releases, so walking the event
    list in order finds the end of the initial busy period even when the next
    one starts back-to-back.
    """
    pending = 0
    for event in trace.events:
        if event.kind == "release":
            pending += 1
        elif event.kind == "complete":
            pending -= 1
            if pending == 0:
                return event.time
    return Fraction(0)


_SENSE_SPLIT = re.compile(r"\s(<=|>=|=)\s")


def parse_lp_document(text):
    """Parse an LP file into rows, binaries, generals, and integer bounds."""
    rows = []
    binaries = []
    generals = []
    upper_bounds = {}
    section = None
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("\\"):
            continue
        if stripped in ("Minimize", "Maximize", "Subject To", "Bounds", "Binary", "General", "End"):
            section = stripped
            continue
        if section == "Binary":
            binaries.append(stripped)
        elif section == "General":
            generals.append(stripped)
        elif section == "Bounds":
            low, var, high = re.fullmatch(r"(\S+) <= (\S+) <= (\S+)", stripped).groups()
            assert Fraction(low) == 0
            upper_bounds[var] = Fraction(high)
        elif section == "Subject To":
            name, rest = stripped.split(":", 1)
            lhs, sense, rhs = _SENSE_SPLIT.split(rest.strip(), maxsplit=1)
            terms = {}
            sign = 1
            coefficient = None
            for token in lhs.split():
                if token == "+":
                    sign = 1
                elif token == "-":
                    sign = -1
                else:
                    try:
                        coefficient = Fraction(token)
                    except ValueError:
                        terms[token] = terms.get(token, Fraction(0)) + sign * (
                            coefficient if coefficient is not None else Fraction(1)
                        )
                        sign = 1
                        coefficient = None
            rows.append((name.strip(), terms, sense, Fraction(rhs)))
    return {"rows": rows, "binaries": binaries, "generals": generals, "upper_bounds": upper_bounds}


def parse_lp_rows(text):
    """Parse the Subject To section of an LP file into (name, {var: coef}, sense, rhs)."""
    return parse_lp_document(text)["rows"]


def solve_lp_text(text):
    """Feed a parsed LP document to an external mixed-integer solver (HiGHS).

    Independent of the in-repo search: everything is reconstructed from the
    exported text alone.  Returns the solver's optimal objective value.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    doc = parse_lp_document(text)
    variables = sorted(
        {var for _, terms, _, _ in doc["rows"] for var in terms}
        | set(doc["binaries"]) | set(doc["generals"]) | {"L"}
    )
    index = {var: i for i, var in enumerate(variables)}
    objective = np.zeros(len(variables))
    objective[index["L"]] = 1.0
    integrality = np.zeros(len(variables))
    lower = np.zeros(len(variables))
    upper = np.full(len(variables), np.inf)
    for var in doc["binaries"]:
        integrality[index[var]] = 1
        upper[index[var]] = 1.0
    for var in doc["generals"]:
        integrality[index[var]] = 1
    for var, bound in doc["upper_bounds"].items():
        upper[index[var]] = float(bound)
    matrix = np.zeros((len(doc["rows"]), len(variables)))
    low = np.zeros(len(doc["rows"]))
    high = np.zeros(len(doc["rows"]))
    for r, (_, terms, sense, rhs) in enumerate(doc["rows"]):
        for var, coefficient in terms.items():
            matrix[r, index[var]] = float(coefficient)
        high[r] = float(rhs)
        low[r] = float(rhs) if sense == "=" else -np.inf
    result = milp(
        c=objective,
        constraints=LinearConstraint(matrix, low, high),
        integrality=integrality,
        bounds=Bounds(lower, upper),
    )
    assert result.success, result.message
    return result.fun


def incumbent_values(system, mode_id, allocation):
    """Variable assignment realizing a given allocation inside the exported program.

    Placement binaries come from the allocation, each MI task's job count from
    the fixed point of its processor's busy period, each selector binary from
    whichever latency bound is smaller there, and the objective from the
    platform bound.
    """
    from modesched.offline import _lp_names

    report = ms.analyze_allocation(system, mode_id, allocation)
    names = _lp_names([t.id for t in system.md_tasks_of(mode_id)] + [t.id for t in system.mi_tasks])
    values = {"L": report.platform_bound}
    for task in system.md_tasks_of(mode_id):
        for p in system.processors:
            values[f"y_{p}_{names[task.id]}"] = Fraction(1 if allocation.assignment[task.id] == p else 0)
    for row in report.per_processor:
        busy = row.busy_bound or Fraction(0)  # absent together with the period bound
        values[f"p_{row.processor}"] = Fraction(row.period_bound is None or busy < row.period_bound)
        for mi_task in system.mi_on(row.processor):
            values[f"x_{names[mi_task.id]}"] = Fraction(math.ceil(busy / mi_task.period))
    return values


def row_holds(terms, sense, rhs, values):
    """Whether a linear row holds at ``values`` in exact arithmetic: ``terms``
    holds (variable, coefficient) pairs, and a variable with no value is 0."""
    total = sum((coef * values.get(var, Fraction(0)) for var, coef in terms), Fraction(0))
    return total == rhs if sense == "=" else total <= rhs


def violated_rows(document, values):
    """Names of the constraint rows of a ``MilpDocument`` that ``values`` violates."""
    return tuple(
        row.name for row in document.constraints if not row_holds(row.terms, row.sense, row.rhs, values)
    )


# ---------------------------------------------------------------------------
# randomized system generation (seeded by the caller)
# ---------------------------------------------------------------------------

PERIOD_POOL = (2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30)


def random_system(rng, m_max=3, max_tasks=8, md_heavy=False, ff_mi=False):
    """A small random two-mode system with integer parameters <= 30.

    Per-processor MI utilization is kept at most 1 by construction; MD demand
    may or may not be allocatable (callers wanting feasible systems filter).
    With ``ff_mi`` the MI tasks are themselves placed first-fit, which keeps
    the combined placement reachable by a first-fit ordering -- the premise of
    the utilization feasibility guarantee.
    """
    processors = rng.randint(1, m_max)
    total = rng.randint(2, max_tasks)
    mi_count = rng.randint(0, min(3, total - 1))
    tasks = []
    spare = {p: Fraction(1) for p in range(1, processors + 1)}
    for i in range(mi_count):
        period = rng.choice(PERIOD_POOL)
        wcet = rng.randint(1, period)
        utilization = Fraction(wcet, period)
        if ff_mi:
            p = next((q for q in spare if utilization <= spare[q]), None)
        else:
            p = rng.randint(1, processors)
            ceiling = min(period, int(spare[p] * period))
            if ceiling < 1:
                continue
            wcet = rng.randint(1, ceiling)
            utilization = Fraction(wcet, period)
        if p is None:
            continue
        spare[p] -= utilization
        tasks.append({"id": f"mi{i + 1}", "kind": "MI", "wcet": wcet, "period": period, "processor": p})
    md_ids = []
    for i in range(total - mi_count):
        period = rng.choice(PERIOD_POOL)
        top = period if md_heavy else max(1, period // 2)
        wcet = rng.randint(1, top)
        task_id = f"md{i + 1}"
        tasks.append({"id": task_id, "kind": "MD", "wcet": wcet, "period": period})
        md_ids.append(task_id)
    first = sorted(tid for tid in md_ids if rng.random() < 0.5)
    second = sorted(tid for tid in md_ids if tid not in first)
    raw = {
        "processors": processors,
        "tasks": tasks,
        "modes": [
            {"id": "alpha", "md_tasks": first},
            {"id": "beta", "md_tasks": second},
        ],
        "transitions": [["alpha", "beta"], ["beta", "alpha"]],
    }
    return ms.build_system(raw)
