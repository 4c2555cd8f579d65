"""``tools/oracles.py``: the ``sweep-vs-bound`` check finds the committed
carry-in reproducer, and ``sweep-vs-points`` and ``sweep-vs-drain`` pass a
tiny corpus and report a mismatch with a reproducer.

The full corpora take seconds to minutes each and stay a tool; this runs
``sweep-vs-bound`` on ``samples/carry_in.json`` alone, whose c -> b sweep
observes a latency of 13 against the bound 11 of both analyses (ROADMAP
direction 9), and the other two checks on a dozen draws.
"""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

import modesched as ms
from modesched import sim

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "oracles.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("oracles", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_vs_bound_finds_the_carry_in_reproducer(capsys):
    tool = load_tool()
    system = ROOT / "samples" / "carry_in.json"
    assert tool.main(["sweep-vs-bound", "--system", str(system), "--pair", "c", "b"]) == 1
    *found, summary = capsys.readouterr().out.splitlines()
    assert summary.startswith("sweep-vs-bound\t2 swept\t0 skipped\t2 found\t")
    reproducers = []
    for line in found:
        tag, check, verdict, reproducer = line.split("\t")
        assert (tag, check, verdict) == ("FOUND", "sweep-vs-bound", "13 > 11")
        reproducers.append(json.loads(reproducer))
    assert [r["scenario"]["allocation"] for r in reproducers] == ["offline-table", "online-ffd"]
    for reproducer in reproducers:
        assert (reproducer["max_latency"], reproducer["at"], reproducer["bound"]) == ("13", "6", "11")
        assert reproducer["system"] == json.loads(system.read_text(encoding="utf-8"))
        assert reproducer["scenario"]["sweep"] == {"from_mode": "c", "to_mode": "b", "step": "1/2"}


def test_sweep_vs_points_passes_a_tiny_corpus(capsys):
    tool = load_tool()
    assert tool.main(["sweep-vs-points", "--seeds", "1", "--systems", "12"]) == 0
    (summary,) = capsys.readouterr().out.splitlines()
    assert summary.startswith("sweep-vs-points\t12 swept\t0 found\t")
    with pytest.raises(SystemExit):  # one system file is a sweep-vs-bound case
        tool.main(["sweep-vs-points", "--system", "samples/carry_in.json", "--pair", "c", "b"])


def test_sweep_vs_points_reports_a_mismatch_with_its_reproducer(capsys, monkeypatch):
    """A sweep that counts one job miss too many is found at every draw it
    completes, and each reproducer rebuilds the draw."""
    tool = load_tool()
    sweep_mcr = ms.sweep_mcr

    def off_by_one(*args):
        result = sweep_mcr(*args)
        return result._replace(job_misses=result.job_misses + 1)

    monkeypatch.setattr(tool.ms, "sweep_mcr", off_by_one)
    assert tool.main(["sweep-vs-points", "--seeds", "1", "--systems", "3"]) == 1
    *found, summary = capsys.readouterr().out.splitlines()
    assert found and summary.startswith(f"sweep-vs-points\t3 swept\t{len(found)} found\t")
    for line in found:
        tag, check, verdict, reproducer = line.split("\t")
        assert (tag, check) == ("FOUND", "sweep-vs-points")
        reproducer = json.loads(reproducer)
        system = ms.build_system(reproducer["system"])
        grid = [Fraction(t) for t in reproducer["grid"]]
        args = (system, reproducer["allocation"], tuple(reproducer["pair"]), grid)
        assert verdict == f"{tool.shown(off_by_one(*args))} != {tool.shown(tool.per_point_sweep(*args))}"


def test_sweep_vs_drain_passes_a_tiny_corpus(capsys):
    tool = load_tool()
    assert tool.main(["sweep-vs-drain", "--seeds", "1", "--systems", "12"]) == 0
    (summary,) = capsys.readouterr().out.splitlines()
    check, swept, requests, found, _ = summary.split("\t")
    assert (check, swept, found) == ("sweep-vs-drain", "12 swept", "0 found") and requests != "0 requests"


def test_sweep_vs_drain_reports_a_mismatch_with_its_reproducer(capsys, monkeypatch):
    """A closed form one unit late is found at every request, and each
    reproducer rebuilds the draw and names a grid point."""
    tool = load_tool()
    drain = sim._SourceRun.drain

    def late(self, time):
        end, queues = drain(self, time)
        return end + 1, queues

    monkeypatch.setattr(sim._SourceRun, "drain", late)
    assert tool.main(["sweep-vs-drain", "--seeds", "1", "--systems", "3"]) == 1
    *found, summary = capsys.readouterr().out.splitlines()
    assert found and summary.startswith(f"sweep-vs-drain\t3 swept\t{len(found)} requests\t{len(found)} found\t")
    for line in found:
        tag, check, verdict, reproducer = line.split("\t")
        assert (tag, check) == ("FOUND", "sweep-vs-drain")
        reproducer = json.loads(reproducer)
        ms.build_system(reproducer["system"])
        assert reproducer["request"] in reproducer["grid"]
        closed_form, fork_end = verdict.split(" != ")
        assert Fraction(closed_form) > Fraction(fork_end)  # one unit of the source run's time base
