"""Analysis toolkit for multimode partitioned-EDF real-time systems.

Validates mode-transition timing on identical multiprocessors: exact
transition-latency upper bounds, latency-optimal static allocation of
mode-dependent tasks (with MILP export for external cross-checking),
certification of online First-Fit-Decreasing allocation, and a discrete-event
EDF simulator of the synchronous mode-change protocol to replay scenarios and
corroborate every analytical bound.
"""

from .model import (
    Allocation,
    AllocationError,
    DeadlineVerdict,
    Mode,
    ModeGraph,
    ModeSystem,
    ModeVerdict,
    SchemeVerdict,
    SystemValidationError,
    Task,
    UtilizationSummary,
    as_time,
    build_system,
    certify_modes,
    check_transition_deadline,
    load_system,
    parse_system,
    utilization_summary,
    validate_allocation,
    worst_predecessor_latency,
)
from .latency import (
    LatencyReport,
    ProcessorLatency,
    analyze_allocation,
    busy_period,
    max_period_bound,
)
from .offline import (
    BigMError,
    InfeasibleModeError,
    MilpDocument,
    OptimizationResult,
    default_big_m,
    export_milp,
    incumbent_values,
    solve_optimal,
    validate_offline_scheme,
)
from .online import (
    FeasibilityVerdict,
    KnapsackResult,
    OnlineEvidence,
    PlacementError,
    ProcessorBound,
    first_fit_decreasing,
    latency_upper_bound,
    lopez_test,
    transition_bound_detail,
    validate_online_scheme,
    worst_case_selection,
)
from .sim import (
    Scenario,
    ScenarioError,
    SimEvent,
    SimTrace,
    SimulationError,
    SweepResult,
    SweepSpec,
    hyperperiod,
    load_scenario,
    make_scenario,
    parse_scenario,
    run,
    run_sweep,
    sweep_mcr,
)

__version__ = "0.1.0"
