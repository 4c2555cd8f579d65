"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import execute  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_generator_is_byte_identical_for_a_seed():
    first = gen.dumps(gen.generate_system(7, 4, 11))
    assert first == gen.dumps(gen.generate_system(7, 4, 11))
    assert first != gen.dumps(gen.generate_system(8, 4, 11))


def test_generator_follows_the_spec_with_exact_decimals():
    system = gen.generate_system(3, 4, 12)
    mi = [t for t in system["tasks"] if t["kind"] == "MI"]
    md = [t for t in system["tasks"] if t["kind"] == "MD"]
    assert len(mi) == 2 * 4 and len(md) == 2 * 12
    for task in mi:
        assert task["period"] in gen.MI_PERIODS
        assert Fraction(5, 100) <= Fraction(task["wcet"]) / task["period"] <= Fraction(20, 100)
    for task in md:
        assert 10 <= task["period"] <= 200
        assert Fraction(1, 100) <= Fraction(task["wcet"]) / task["period"] <= Fraction(12, 100)
    assert all(isinstance(t["wcet"], str) for t in system["tasks"])


def test_self_time_subtracts_the_covered_part_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["a.x", 2.0, 3.0, 1, None],
        ["b", 3.5, 6.0, 0, None],  # overlaps a: the union [1, 6] is covered
        ["c", 9.0, 12.0, 0, None],  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 2.5, 3])


def test_aggregate_counts_calls_work_and_sweep_events():
    op = [
        ["sim.sweep_mcr", 0.0, 4.0, -1, 2],
        ["sim.run", 0.0, 1.0, 0, 10],
        ["sim.run", 1.0, 3.0, 0, 30],
        ["sim.run", 5.0, 6.0, -1, 7],  # outside any sweep
    ]
    metrics = tracing.aggregate([op])
    assert metrics["sim.run.calls"] == 3
    assert metrics["sim.run.events"] == 47
    assert metrics["sim.sweep_mcr.points"] == 2
    assert metrics["sim.run.events_per_point"] == 20
    assert metrics["sim.run.events_per_s"] == pytest.approx(47 / 4)
    assert metrics["offline.explored_nodes"] == 0
    assert {name for name, _, _ in tracing.PER_LAYER} - metrics.keys() == {"trace.overhead_s"}


def test_tail_needs_ten_ops_beyond_it():
    assert run._tail([1.0] * 10) is None
    assert run._tail([float(i) for i in range(11)]) == (9, 0.0)
    assert run._tail([float(i) for i in range(100)]) == (90, 89.0)


def _fake_report_op(workdir: Path, report: dict) -> workloads.Op:
    (workdir / "r.json").write_text(json.dumps(report), encoding="utf-8")
    return workloads.Op(key="fake/analyze", argv=(), reports=("r.json",))


def test_perturbed_report_is_a_failure_but_explored_nodes_is_free(tmp_path):
    report = {"modes": [{"mode": "A", "explored_nodes": 5, "platform_bound": {"exact": "40"}}]}
    op = _fake_report_op(tmp_path, report)
    (tmp_path / "out").write_bytes(b"stdout\n")
    pins = {op.key: execute.signature(op, 0, b"stdout\n", tmp_path)}
    assert execute._verify(op, 0, tmp_path / "out", tmp_path, pins) is None

    report["modes"][0]["explored_nodes"] = 6
    _fake_report_op(tmp_path, report)
    assert execute._verify(op, 0, tmp_path / "out", tmp_path, pins) is None

    report["modes"][0]["platform_bound"]["exact"] = "41"
    _fake_report_op(tmp_path, report)
    assert execute._verify(op, 0, tmp_path / "out", tmp_path, pins) == "files digest differs from the pinned one"
    assert execute._verify(op, 1, tmp_path / "out", tmp_path, pins) == "exit code 1, pinned 0"


def test_traced_ops_match_the_pinned_signatures(tmp_path):
    pins = execute.load_pins()
    builds = (workloads.build_offline, workloads.build_online)
    ops = {op.key: op for build in builds for op in build(run.ROOT, tmp_path).ops}
    for key in ("case-study/analyze-offline", "case-study/analyze-online", "case-study/export-milp-mode1"):
        untraced = execute.run_op(ops[key], tmp_path, pins, 60)
        traced = execute.run_op(ops[key], tmp_path, pins, 60, tmp_path / "spans.json")
        assert untraced.ok and traced.ok, (untraced.error, traced.error)
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    assert spans[0][0] == "cli.main"


def test_wrappers_reach_calls_made_through_imported_names(tmp_path):
    corpus = workloads.build_offline(run.ROOT, tmp_path)
    op = next(op for op in corpus.ops if op.key == "case-study/analyze-offline")
    execute.run_op(op, tmp_path, execute.load_pins(), 60, tmp_path / "spans.json")
    spans = json.loads((tmp_path / "spans.json").read_text(encoding="utf-8"))
    names = {span[0] for span in spans}
    # cli imported solve_optimal, offline imported busy_period: both are recorded
    assert {"offline.solve_optimal", "latency.busy_period", "cli.build_offline_report"} <= names
    busy = next(span for span in spans if span[0] == "latency.busy_period" and span[3] >= 0)
    assert spans[busy[3]][0] in {"offline.solve_optimal", "latency.analyze_allocation"}


def test_benchmark_json_lists_the_metrics_the_runner_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
