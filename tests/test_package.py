"""The package surface: lazy public names and per-command imports."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modesched as ms
from conftest import SAMPLES

SRC = Path(__file__).resolve().parents[1] / "src"
LAYERS = ("model", "latency", "offline", "online", "sim")

# every public name of the package, by the layer that has always exported it
PUBLIC = {
    "model": (
        "Allocation", "AllocationError", "DeadlineVerdict", "Mode", "ModeGraph", "ModeSystem",
        "ModeVerdict", "SchemeVerdict", "SystemValidationError", "Task", "UtilizationSummary",
        "as_time", "build_system", "certify_modes", "check_transition_deadline", "load_system",
        "parse_system", "utilization_summary", "validate_allocation", "worst_predecessor_latency",
    ),
    "latency": (
        "LatencyReport", "ProcessorLatency", "analyze_allocation", "busy_period",
    ),
    "offline": (
        "BigMError", "InfeasibleModeError", "MilpDocument", "OptimizationResult", "default_big_m",
        "export_milp", "solve_optimal", "validate_offline_scheme",
    ),
    "online": (
        "FeasibilityVerdict", "KnapsackResult", "OnlineEvidence", "PlacementError",
        "ProcessorBound", "first_fit_decreasing", "latency_upper_bound", "lopez_test",
        "transition_bound_detail", "validate_online_scheme",
    ),
    "sim": (
        "Scenario", "ScenarioError", "SimEvent", "SimTrace", "SimulationError", "SweepResult",
        "SweepSpec", "hyperperiod", "load_scenario", "make_scenario", "parse_scenario", "run",
        "run_sweep", "sweep_mcr",
    ),
}

STARTUP_PROBE = """
import json, sys

def layers():
    return sorted(name for name in sys.modules if name.startswith("modesched."))

import modesched
seen = {"import": layers()}
import modesched.cli
codes = [modesched.cli.main(["analyze-online", sys.argv[1]])]
seen["analyze-online"] = layers() + ["dataclasses"] * ("dataclasses" in sys.modules)
codes.append(modesched.cli.main(["analyze-offline", sys.argv[1]]))
seen["analyze-offline"] = layers()
parsers = [name for name in ("argparse", "gettext") if name in sys.modules]
print(json.dumps({"codes": codes, "seen": seen, "parsers": parsers}))
"""


def test_commands_import_only_the_layers_they_run():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, str(SAMPLES / "case_study.json")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0]
    seen = result["seen"]
    assert seen["import"] == []
    assert seen["analyze-online"] == ["modesched.cli", "modesched.latency", "modesched.model", "modesched.online"]
    assert "modesched.sim" not in seen["analyze-offline"] and "modesched.offline" in seen["analyze-offline"]
    assert result["parsers"] == []  # the CLI parses its commands without argparse, so without gettext


OFFLINE_PROBE = """
import json, sys
import modesched.cli
codes = [modesched.cli.main(["analyze-offline", sys.argv[1]])]
seen = sorted(name for name in sys.modules if name.startswith("modesched."))
codes.append(modesched.cli.main(["export-milp", sys.argv[1], "--mode", "mode1", "-o", sys.argv[2]]))
parsers = [name for name in ("argparse", "gettext") if name in sys.modules]
print(json.dumps({"codes": codes, "seen": seen, "parsers": parsers}))
"""


def test_analyze_offline_alone_loads_neither_online_nor_sim(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", OFFLINE_PROBE, str(SAMPLES / "case_study.json"), str(tmp_path / "m.lp")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    # export-milp reads the First-Fit bound, so it loads the online layer itself
    assert result["codes"] == [0, 0]
    assert result["seen"] == ["modesched.cli", "modesched.latency", "modesched.model", "modesched.offline"]
    assert result["parsers"] == []


def test_public_names_resolve_to_their_layer_objects():
    names = [name for layer_names in PUBLIC.values() for name in layer_names]
    assert len(names) == 56 and set(ms.__all__) == set(names)
    assert set(names) <= set(dir(ms))
    starred: dict = {}
    exec("from modesched import *", starred)
    for layer, layer_names in PUBLIC.items():
        module = importlib.import_module(f"modesched.{layer}")
        for name in layer_names:
            assert getattr(ms, name) is getattr(module, name) is starred[name], name
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(ms, "no_such_name")


def test_errors_shared_by_cli_live_in_the_model():
    for layer, name in (
        ("offline", "BigMError"), ("offline", "InfeasibleModeError"),
        ("sim", "ScenarioError"), ("sim", "SimulationError"),
    ):
        error = getattr(importlib.import_module("modesched.model"), name)
        assert getattr(importlib.import_module(f"modesched.{layer}"), name) is error
        assert getattr(ms, name) is error


def test_python_dash_m_runs_the_cli():
    """``python -m modesched`` is the CLI: the pinned stdout and exit code."""
    golden = Path(__file__).resolve().parent / "golden"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "modesched", "analyze-online", str(SAMPLES / "case_study.json")],
        capture_output=True, env=env, timeout=120,
    )
    codes = json.loads((golden / "exit_codes.json").read_text(encoding="utf-8"))
    assert done.returncode == codes["case_study.analyze-online"] == 0, done.stderr
    assert done.stdout == (golden / "case_study.analyze-online.stdout").read_bytes()
