"""Span recording around modesched's public functions, and per-layer metrics.

``Recorder.install`` wraps every public module-level function of the layers
in ``LAYERS`` plus the methods in ``METHODS``.  A wrapper replaces the
original in *every* modesched namespace that holds it (``offline.busy_period``,
``sim.solve_optimal``, ``cli.transition_bound_detail``, ...), so nested calls
are recorded too.  Spans stay in memory as ``[name, start, end, parent,
count]`` lists; ``parent`` is the index of the enclosing span (-1 for none)
and ``count`` a work count read from the return value (see ``COUNTS``).
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter
from types import FunctionType

LAYERS = ("model", "latency", "offline", "online", "sim", "cli")
METHODS = (("sim", "SimTrace", "to_text"), ("offline", "MilpDocument", "to_lp"))

COUNTS = {
    "offline.solve_optimal": lambda result: result.explored_nodes,
    "sim.run": lambda result: len(result.events),
    "sim.sweep_mcr": lambda result: result.points,
    "sim.SimTrace.to_text": lambda result: len(result.encode("utf-8")),
}

# (metric, unit, better); every one is reported on every workload, zero included.
PER_LAYER = (
    ("offline.solve_optimal.calls", "count", "lower"),
    ("offline.solve_optimal.self_s", "s", "lower"),
    ("offline.explored_nodes", "count", "lower"),
    ("offline.nodes_per_s", "1/s", "higher"),
    ("latency.busy_period.calls", "count", "lower"),
    ("latency.busy_period.self_s", "s", "lower"),
    ("online.worst_case_selection.calls", "count", "lower"),
    ("online.worst_case_selection.self_s", "s", "lower"),
    ("online.transition_bound_detail.self_s", "s", "lower"),
    ("online.lopez_test.self_s", "s", "lower"),
    ("cli.build_online_report.self_s", "s", "lower"),
    ("sim.make_scenario.calls", "count", "lower"),
    ("sim.make_scenario.self_s", "s", "lower"),
    ("sim.run.calls", "count", "lower"),
    ("sim.run.self_s", "s", "lower"),
    ("sim.run.events", "count", "lower"),
    ("sim.run.events_per_point", "events/point", "lower"),
    ("sim.sweep_mcr.points", "count", "higher"),
    ("online.first_fit_decreasing.calls", "count", "lower"),
    ("sim.run.events_per_s", "1/s", "higher"),
    ("sim.SimTrace.to_text.self_s", "s", "lower"),
    ("sim.SimTrace.to_text.bytes", "bytes", "lower"),
    ("model.load_system.self_s", "s", "lower"),
    ("model.validate_allocation.calls", "count", "lower"),
    ("model.validate_allocation.self_s", "s", "lower"),
    ("latency.analyze_allocation.calls", "count", "lower"),
    ("latency.analyze_allocation.self_s", "s", "lower"),
    ("offline.export_milp.self_s", "s", "lower"),
    ("offline.MilpDocument.to_lp.self_s", "s", "lower"),
    ("cli.render_report.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class Recorder:
    """In-memory span store for one op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return wrapper

    def install(self) -> None:
        package = importlib.import_module("modesched")
        modules = [importlib.import_module(f"modesched.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, value in vars(module).items():
                if (
                    isinstance(value, FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"modesched.{layer}"), cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def aggregate(ops: list[list]) -> dict[str, float]:
    """Per-layer metrics of one round, given the span lists of its ops."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    sweep_events = 0
    for spans in ops:
        for span, own in zip(spans, self_times(spans)):
            name, start, end, parent, count = span
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + (end - start)
            if count is not None:
                counts[name] = counts.get(name, 0) + count
                if name == "sim.run" and _inside(spans, parent, "sim.sweep_mcr"):
                    sweep_events += count
    metrics: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            metrics[metric] = calls.get(name, 0)
        elif kind == "self_s":
            metrics[metric] = self_s.get(name, 0.0)
    nodes = counts.get("offline.solve_optimal", 0)
    events = counts.get("sim.run", 0)
    points = counts.get("sim.sweep_mcr", 0)
    metrics["offline.explored_nodes"] = nodes
    metrics["offline.nodes_per_s"] = _rate(nodes, total_s.get("offline.solve_optimal", 0.0))
    metrics["sim.run.events"] = events
    metrics["sim.run.events_per_point"] = sweep_events / points if points else 0
    metrics["sim.sweep_mcr.points"] = points
    metrics["sim.run.events_per_s"] = _rate(events, total_s.get("sim.run", 0.0))
    metrics["sim.SimTrace.to_text.bytes"] = counts.get("sim.SimTrace.to_text", 0)
    return metrics


def per_layer(rounds: list[dict[str, float]], overhead_s: float) -> dict[str, float]:
    """Median over traced rounds of each per-layer metric, plus tracing overhead."""
    merged = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    merged["trace.overhead_s"] = overhead_s
    return merged


def _inside(spans: list, index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0
