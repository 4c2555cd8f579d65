import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modesched as ms
from conftest import busy_period_oracle, fraction_busy_period


def mi(tid, wcet, period, processor=1):
    return ms.Task(id=tid, kind="MI", wcet=Fraction(wcet), period=Fraction(period), home_processor=processor)


def md(tid, wcet, period):
    return ms.Task(id=tid, kind="MD", wcet=Fraction(wcet), period=Fraction(period))


I1 = (mi("tau1", 10, 30), mi("tau2", 20, 60))
I2 = (mi("tau3", 15, 90, 2), mi("tau4", 20, 100, 2))


@pytest.mark.parametrize(
    "demand, interference, expected",
    [
        (50, I2, 85),
        (10, I1, 50),
        (14, I2, 49),
        (8, I1, 48),
        (6, I2, 41),
        (0, (), 0),
        (0, I1, 0),
    ],
)
def test_busy_period_reference_points(demand, interference, expected):
    assert ms.busy_period(Fraction(demand), interference) == expected


def test_busy_period_divergence():
    saturated = (mi("a", 1, 2), mi("b", 1, 2))  # utilization exactly 1
    assert ms.busy_period(Fraction(1), saturated) is None
    assert ms.busy_period(Fraction(0), saturated) == 0
    over = (mi("a", 3, 4), mi("b", 1, 2))
    assert ms.busy_period(Fraction(5), over) is None


def test_busy_period_preconditions():
    with pytest.raises(ms.SystemValidationError):
        ms.busy_period(Fraction(-1), I1)
    with pytest.raises(ValueError):
        ms.busy_period(Fraction(1), (md("x", 1, 2),))


def test_busy_period_is_least_fixed_point():
    rng = random.Random(20240611)
    for _ in range(40):
        tasks = []
        for i in range(rng.randint(0, 3)):
            period = rng.randint(2, 20)
            tasks.append(mi(f"i{i}", rng.randint(1, max(1, period // 2)), period))
        demand = Fraction(rng.randint(1, 12))
        if sum((t.utilization for t in tasks), Fraction(0)) >= 1:
            continue
        value = ms.busy_period(demand, tasks)
        # the returned value satisfies the recurrence and the candidate scan
        # finds no smaller solution
        import math

        assert value == demand + sum(
            (math.ceil(value / t.period) * t.wcet for t in tasks), Fraction(0)
        )
        assert busy_period_oracle(demand, tasks, value) == value


def test_busy_period_matches_rational_recurrence():
    # times are multiples of 1/3, 7/2, 1/10 and 2/7, so the integer time base
    # of one call mixes denominators
    units = (Fraction(1, 3), Fraction(7, 2), Fraction("0.1"), Fraction(2, 7))
    rng = random.Random(20261018)
    outcomes = {"zero": 0, "diverges": 0, "converges": 0}
    for _ in range(300):
        tasks = []
        for i in range(rng.randint(0, 3)):
            period = rng.choice(units) * rng.randint(2, 30)
            tasks.append(mi(f"i{i}", min(period, rng.choice(units) * rng.randint(1, 12)), period))
        demand = rng.choice(units) * rng.randint(0, 20)
        expected = fraction_busy_period(demand, tasks)
        value = ms.busy_period(demand, tasks)
        if expected is None:
            assert value is None
            outcomes["diverges"] += 1
        else:
            assert value == expected
            outcomes["zero" if demand == 0 else "converges"] += 1
    assert min(outcomes.values()) >= 10
    # MI utilization exactly 1 over denominators 3 and 7: 1/3 + 2/3
    saturated = (mi("a", Fraction(1, 3), 1), mi("b", Fraction(4, 7), Fraction(6, 7)))
    assert ms.busy_period(Fraction(2, 7), saturated) is None
    assert ms.busy_period(Fraction(0), saturated) == 0
    # one part in 126 below 1 converges to the rational fixed point
    below = (mi("a", Fraction(1, 3), 1), mi("b", Fraction(83, 147), Fraction(6, 7)))
    assert ms.busy_period(Fraction(2, 7), below) == fraction_busy_period(Fraction(2, 7), below)


@settings(max_examples=40, deadline=None)
@given(
    z1=st.integers(min_value=0, max_value=20),
    bump=st.integers(min_value=0, max_value=10),
    wcet=st.integers(min_value=1, max_value=4),
    period=st.integers(min_value=9, max_value=20),
)
def test_busy_period_monotone(z1, bump, wcet, period):
    base = (mi("a", wcet, period),)
    low = ms.busy_period(Fraction(z1), base)
    high = ms.busy_period(Fraction(z1 + bump), base)
    assert low is not None and high is not None and low <= high
    # adding an MI task never decreases the fixed point
    extended = base + (mi("b", 1, 10),)
    if z1 > 0:
        assert ms.busy_period(Fraction(z1), extended) >= low


def test_analyze_allocation_stated_mode1_placement(case_study):
    allocation = ms.Allocation("mode1", {"tau5": 1, "tau6": 1, "tau7": 2, "tau8": 2, "tau9": 2})
    report = ms.analyze_allocation(case_study, "mode1", allocation)
    first, second = report.per_processor
    assert (first.period_bound, first.busy_bound, first.effective) == (40, 48, 40)
    assert (second.period_bound, second.busy_bound, second.effective) == (30, 41, 30)
    assert report.platform_bound == 40


def test_analyze_allocation_mode2(case_study):
    report = ms.analyze_allocation(case_study, "mode2", ms.Allocation("mode2", {"tau10": 2}))
    first, second = report.per_processor
    assert first.period_bound is None and first.busy_bound is None and first.effective == 0
    assert (second.period_bound, second.busy_bound, second.effective) == (100, 85, 85)
    assert report.platform_bound == 85


def test_analyze_allocation_empty_mode():
    system = ms.build_system(
        {
            "processors": 2,
            "tasks": [{"id": "a", "kind": "MI", "wcet": 1, "period": 2, "processor": 1}],
            "modes": [{"id": "m", "md_tasks": []}],
            "transitions": [],
        }
    )
    report = ms.analyze_allocation(system, "m", ms.Allocation("m", {}))
    assert report.platform_bound == 0
    assert all(row.effective == 0 for row in report.per_processor)
    assert len(report.per_processor) == 2


def test_analyze_allocation_rejects_invalid(case_study):
    with pytest.raises(ms.AllocationError):
        ms.analyze_allocation(case_study, "mode2", ms.Allocation("mode2", {"tau10": 1}))
    with pytest.raises(ValueError):
        ms.analyze_allocation(case_study, "mode1", ms.Allocation("mode2", {"tau10": 2}))


def test_incomparability_witness(case_study):
    """Both orderings of the two bounds occur on the reference system."""
    mode1 = ms.analyze_allocation(
        case_study, "mode1", ms.Allocation("mode1", {"tau5": 1, "tau6": 1, "tau7": 2, "tau8": 2, "tau9": 2})
    )
    assert mode1.per_processor[0].period_bound < mode1.per_processor[0].busy_bound
    mode2 = ms.analyze_allocation(case_study, "mode2", ms.Allocation("mode2", {"tau10": 2}))
    assert mode2.per_processor[1].period_bound > mode2.per_processor[1].busy_bound
