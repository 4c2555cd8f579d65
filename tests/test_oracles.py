"""``tools/oracles.py``: the ``sweep-vs-bound`` check finds the committed
carry-in reproducer.

The full corpus takes about 20 s and stays a tool; this runs the check on
``samples/carry_in.json`` alone, whose c -> b sweep observes a latency of 13
against the bound 11 of both analyses (ROADMAP direction 9).
"""

import importlib.util
import json
from pathlib import Path

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
