"""Analysis toolkit for multimode partitioned-EDF real-time systems.

Validates mode-transition timing on identical multiprocessors: exact
transition-latency upper bounds, latency-optimal static allocation of
mode-dependent tasks (with MILP export for external cross-checking),
certification of online First-Fit-Decreasing allocation, and a discrete-event
EDF simulator of the synchronous mode-change protocol to replay scenarios and
corroborate every analytical bound.

Importing the package loads no layer: each public name is resolved from its
layer module on first access, so a command pays only for the layers it runs.
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "model": (
        "Allocation", "AllocationError", "BigMError", "DeadlineVerdict",
        "InfeasibleModeError", "Mode", "ModeGraph", "ModeSystem", "ModeVerdict",
        "ScenarioError", "SchemeVerdict", "SimulationError", "SystemValidationError",
        "Task", "UtilizationSummary", "as_time", "build_system", "certify_modes",
        "check_transition_deadline", "load_system", "parse_system", "utilization_summary",
        "validate_allocation", "worst_predecessor_latency",
    ),
    "latency": (
        "LatencyReport", "ProcessorLatency", "analyze_allocation", "busy_period",
    ),
    "offline": (
        "MilpDocument", "OptimizationResult", "default_big_m", "export_milp",
        "solve_optimal", "validate_offline_scheme",
    ),
    "online": (
        "FeasibilityVerdict", "KnapsackResult", "OnlineEvidence", "PlacementError",
        "ProcessorBound", "first_fit_decreasing", "latency_upper_bound", "lopez_test",
        "transition_bound_detail", "validate_online_scheme",
    ),
    "sim": (
        "Scenario", "SimEvent", "SimTrace", "SweepResult", "SweepSpec", "hyperperiod",
        "load_scenario", "make_scenario", "parse_scenario", "run", "run_sweep", "sweep_mcr",
    ),
}
_LAYER_OF = {name: layer for layer, names in _NAMES.items() for name in names}
__all__ = list(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
