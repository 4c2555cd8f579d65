import json
import os
import stat
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

import modesched as ms
from modesched import cli
from modesched.cli import main
from conftest import SAMPLES, case_study_raw, infeasible_mode_raw


def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
    return str(path)


@pytest.fixture()
def case_study_file(tmp_path):
    return write_json(tmp_path / "system.json", case_study_raw())


def test_analyze_offline_pass(case_study_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["analyze-offline", case_study_file, "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "platform latency bound L = 40" in out
    assert "platform latency bound L = 85" in out
    assert "GLOBAL: PASS" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    mode1, mode2 = report["modes"]
    assert mode1["platform_bound"]["exact"] == "40"
    assert mode2["platform_bound"]["exact"] == "85"
    assert mode2["allocation"] == {"tau10": 2}
    assert mode2["per_processor"][1]["max_period_bound"]["exact"] == "100"
    assert mode2["per_processor"][1]["busy_period_bound"]["exact"] == "85"
    assert mode1["u_sum"] == {"exact": "309/200", "approx": 1.545}


def test_analyze_offline_boundary_fail(tmp_path, capsys):
    system_file = write_json(tmp_path / "s.json", case_study_raw(deadline_tau10=139))
    code = main(["analyze-offline", system_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "GLOBAL: FAIL" in out
    assert "tau10: 40 + 100 <= 139  FAIL (slack -1)" in out


def test_analyze_online_pass(case_study_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["analyze-online", case_study_file, "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text())
    mode1, mode2 = report["modes"]
    assert mode1["lopez"] == {
        "beta": 3,
        "bound": {"exact": "7/4", "approx": 1.75},
        "u_sum": {"exact": "309/200", "approx": 1.545},
        "feasible": True,
        "margin": {"exact": "41/200", "approx": 0.205},
    }
    assert mode2["lopez"]["beta"] == 2
    assert mode2["lopez"]["bound"]["exact"] == "5/3"
    assert mode1["platform_bound"]["exact"] == "50"
    assert mode2["platform_bound"]["exact"] == "85"
    assert mode1["per_processor"][0]["selected"] == ["tau5", "tau9"]
    tau10 = mode2["deadline_checks"][0]
    assert tau10["slack"]["exact"] == "0" and tau10["passed"] is True


def test_analyze_online_infeasible_mode_fails(tmp_path, capsys):
    raw = case_study_raw()
    # inflate tau10 so mode2's utilization exceeds the guarantee bound
    for task in raw["tasks"]:
        if task["id"] == "tau10":
            task["wcet"] = 90
    system_file = write_json(tmp_path / "s.json", raw)
    code = main(["analyze-online", system_file])
    out = capsys.readouterr().out
    assert code == 1
    assert "-> FAIL" in out


def test_report_determinism_and_round_trip(case_study_file, tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["analyze-offline", case_study_file, "--report", str(first)]) == 0
    assert main(["analyze-offline", case_study_file, "--report", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    report = json.loads(first.read_text())
    system = ms.load_system(case_study_file)
    for section in report["modes"]:
        allocation = ms.Allocation(section["mode"], dict(section["allocation"]))
        replay = ms.analyze_allocation(system, section["mode"], allocation)
        assert str(replay.platform_bound) == section["platform_bound"]["exact"]


GOLDEN_REPORTS = sorted((Path(__file__).resolve().parent / "golden").glob("*.analyze-o*.json"))


@pytest.mark.parametrize("path", GOLDEN_REPORTS, ids=[path.stem for path in GOLDEN_REPORTS])
def test_report_writer_matches_json_dumps_on_every_golden_report(path):
    text = path.read_text(encoding="utf-8")
    report = json.loads(text)
    assert cli._json_text(report) == json.dumps(report, indent=2) == text[:-1]


@pytest.mark.parametrize(
    "value",
    [
        {}, [], {"a": {}, "b": [], "c": [{}, []]}, [[[]], {"x": {"y": {}}}],
        'quote " backslash \\ tab \t bell \x07 non-ASCII é ∞ 😀',
        {'key "with" \\ \t\x01 é': "v"},
        [True, 1, False, 0, None], {"t": True, "one": 1}, 2**64 + 1, -(2**70),
        [0.1, 1e-07, 1e16, -0.0, 1.5, -2.25e300],
        {"modes": [{"exact": "1/3", "approx": 1 / 3, "passed": False, "slack": None}]},
    ],
)
def test_report_writer_matches_json_dumps_on_a_table_of_values(value):
    assert cli._json_text(value) == json.dumps(value, indent=2)


def test_report_writer_refuses_other_types_and_the_cli_exits_3(case_study_file, tmp_path, monkeypatch, capsys):
    for value in ({1, 2}, [frozenset()], {"a": (1, 2)}, {1: "int key"}, Fraction(1, 3)):
        with pytest.raises(TypeError):
            cli._json_text(value)
    built = cli.build_online_report

    def with_a_set(system):
        return {**built(system), "extra": {"a set"}}

    monkeypatch.setattr(cli, "build_online_report", with_a_set)
    report = tmp_path / "r.json"
    assert main(["analyze-online", case_study_file, "--report", str(report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "TypeError" in captured.err and not report.exists()


@pytest.mark.parametrize("command", ["analyze-offline", "analyze-online"])
@pytest.mark.parametrize("target", ["missing/r.json", "."], ids=["missing-directory", "directory"])
def test_report_that_cannot_be_written_prints_nothing(command, target, case_study_file, tmp_path, capsys):
    earlier = tmp_path / "r.json"
    earlier.write_bytes(b"an earlier report\n")
    code = main([command, case_study_file, "--report", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error: [Errno ")
    assert earlier.read_bytes() == b"an earlier report\n"
    assert sorted(os.listdir(tmp_path)) == ["r.json", "system.json"]  # no partial file is left


def test_simulate_replay(tmp_path, capsys):
    trace_path = tmp_path / "trace.tsv"
    code = main(
        [
            "simulate",
            str(SAMPLES / "two_proc_handover.json"),
            str(SAMPLES / "handover_mcr7.json"),
            "--trace",
            str(trace_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "# latency\t7\t4" in out
    text = trace_path.read_text()
    assert "# latency\t7\t4" in text
    assert text.endswith("# deadline-misses\t0\n")


def test_simulate_transition_deadline_miss_exit_code(tmp_path, capsys):
    raw = json.loads((SAMPLES / "two_proc_handover.json").read_text())
    for task in raw["tasks"]:
        if task["id"] == "tau5":
            task["transition_deadline"] = 7  # absolute 14 < completion 15
    system_file = write_json(tmp_path / "s.json", raw)
    code = main(["simulate", system_file, str(SAMPLES / "handover_mcr7.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "# transition-deadline\ttau5\t7\t14\t15\tMISS" in out
    assert "# deadline-misses\t1" in out


def test_simulate_zero_horizon(tmp_path, capsys):
    scenario_file = write_json(
        tmp_path / "sc.json",
        {"initial_mode": "old", "allocation": "offline-table", "horizon": 0, "mcrs": []},
    )
    code = main(["simulate", str(SAMPLES / "two_proc_handover.json"), scenario_file])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "# deadline-misses\t0\n"


def test_simulate_sweep_summary(case_study_file, tmp_path, capsys):
    scenario_file = write_json(
        tmp_path / "sweep.json",
        {"allocation": "online-ffd", "sweep": {"from_mode": "mode2", "to_mode": "mode1", "step": 25}},
    )
    code = main(["simulate", case_study_file, scenario_file])
    out = capsys.readouterr().out
    assert code == 0
    assert "# sweep\tmode2\tmode1" in out
    max_line = [l for l in out.splitlines() if l.startswith("# max-latency")][0]
    assert Fraction(max_line.split("\t")[1]) <= 85


def test_simulate_scenario_error_exit(case_study_file, tmp_path, capsys):
    scenario_file = write_json(
        tmp_path / "bad.json",
        {"initial_mode": "mode1", "allocation": "offline-table", "horizon": 10,
         "mcrs": [{"time": 20, "to": "mode2"}]},
    )
    code = main(["simulate", case_study_file, scenario_file])
    err = capsys.readouterr().err
    assert code == 2
    assert "outside the horizon" in err


def storm_files(tmp_path, allocation):
    """``calm`` -> ``storm``, whose one MD task ``md1`` (utilization 1) fits
    beside neither MI task: a First-Fit placement fails and no allocation of
    ``storm`` is feasible."""
    system = {
        "processors": 2,
        "tasks": [
            {"id": "mi1", "kind": "MI", "wcet": 3, "period": 10, "processor": 1},
            {"id": "mi2", "kind": "MI", "wcet": 2, "period": 12, "processor": 2},
            {"id": "md1", "kind": "MD", "wcet": 10, "period": 10},
        ],
        "modes": [{"id": "calm", "md_tasks": []}, {"id": "storm", "md_tasks": ["md1"]}],
        "transitions": [["calm", "storm"]],
    }
    scenario = {"allocation": allocation, "sweep": {"from_mode": "calm", "to_mode": "storm", "step": 5}}
    return write_json(tmp_path / "s.json", system), write_json(tmp_path / "sc.json", scenario)


@pytest.mark.parametrize(
    "allocation, message",
    [
        ("online-ffd", "error: online placement failed at time 0: mode storm: task md1 fits on no processor\n"),
        ("offline-table", "error: mode storm: no feasible allocation; search stuck placing task md1\n"),
    ],
    ids=["online-ffd", "offline-table"],
)
def test_failed_sweep_exits_2_and_leaves_an_existing_trace_file_as_it_was(allocation, message, tmp_path, capsys):
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"an earlier trace\n")
    code = main(["simulate", *storm_files(tmp_path, allocation), "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err == message
    assert trace.read_bytes() == b"an earlier trace\n"
    assert sorted(os.listdir(tmp_path)) == ["s.json", "sc.json", "t.tsv"]  # no partial file is left


def test_export_milp_cli(case_study_file, tmp_path, capsys):
    out_path = tmp_path / "mode1.lp"
    code = main(["export-milp", case_study_file, "--mode", "mode1", "-o", str(out_path)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "23 constraints, 12 binaries, 4 integers" in stdout
    text = out_path.read_text()
    assert text.startswith("\\ transition-latency allocation program, mode mode1")
    assert "Minimize" in text and text.rstrip().endswith("End")


def test_export_milp_custom_hv(case_study_file, tmp_path):
    out_path = tmp_path / "m.lp"
    assert main(["export-milp", case_study_file, "--mode", "mode2", "--hv", "500", "-o", str(out_path)]) == 0
    assert "HV = 500" in out_path.read_text()


def test_export_milp_replaces_the_file_and_other_hard_links_keep_the_old_program(case_study_file, tmp_path, capsys):
    lp = tmp_path / "m1.lp"
    assert main(["export-milp", case_study_file, "--mode", "mode1", "-o", str(lp)]) == 0
    mode1 = lp.read_text(encoding="utf-8")
    os.link(lp, tmp_path / "other.lp")
    assert main(["export-milp", case_study_file, "--mode", "mode2", "-o", str(lp)]) == 0
    assert "mode mode2" in lp.read_text(encoding="utf-8")
    assert (tmp_path / "other.lp").read_text(encoding="utf-8") == mode1
    assert sorted(os.listdir(tmp_path)) == ["m1.lp", "other.lp", "system.json"]


def test_output_file_in_a_missing_directory_is_reported_under_the_path_given(
    case_study_file, tmp_path, capsys, monkeypatch
):
    """The LP of ``-o``, ``--report`` and ``--trace`` each exit 2 naming the
    path on the command line, not the new file written beside it, and
    nothing is written."""
    monkeypatch.chdir(tmp_path)
    commands = {
        "nodir/m1.lp": ["export-milp", case_study_file, "--mode", "mode1", "-o"],
        "nodir/report.json": ["analyze-offline", case_study_file, "--report"],
        "nodir/t.tsv": ["simulate", str(SAMPLES / "two_proc_handover.json"), str(SAMPLES / "handover_mcr7.json"),
                        "--trace"],
    }
    for path, argv in commands.items():
        assert main([*argv, path]) == 2, path
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert os.listdir(tmp_path) == ["system.json"]


def test_export_milp_unknown_mode(case_study_file, tmp_path, capsys):
    code = main(["export-milp", case_study_file, "--mode", "nope", "-o", str(tmp_path / "x.lp")])
    assert code == 2
    assert "unknown mode" in capsys.readouterr().err


def test_input_errors_exit_2(tmp_path, capsys):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    assert main(["analyze-offline", str(bad_json)]) == 2
    assert "invalid JSON" in capsys.readouterr().err

    overload = {
        "processors": 1,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 21, "period": 40, "processor": 1},
            {"id": "b", "kind": "MI", "wcet": 21, "period": 40, "processor": 1},
        ],
        "modes": [{"id": "m", "md_tasks": []}],
        "transitions": [],
    }
    system_file = write_json(tmp_path / "overload.json", overload)
    assert main(["analyze-offline", system_file]) == 2
    assert "exceeds 1" in capsys.readouterr().err

    assert main(["analyze-offline", str(tmp_path / "missing.json")]) == 2


def test_offline_report_marks_infeasible_mode(tmp_path, capsys):
    system_file = write_json(tmp_path / "s.json", infeasible_mode_raw())
    report_path = tmp_path / "r.json"
    code = main(["analyze-offline", system_file, "--report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "INFEASIBLE: task big" in out
    report = json.loads(report_path.read_text())
    m1, m2 = report["modes"]
    assert m1["feasible"] is False and m1["unplaceable_task"] == "big"
    # m2 depends on the infeasible predecessor: no entry latency available
    assert m2["entry_latency"] is None and m2["passed"] is False


def test_export_milp_small_big_m_exit_2(case_study_file, tmp_path, capsys):
    lp = tmp_path / "x.lp"
    lp.write_bytes(b"an earlier program\n")
    code = main(["export-milp", case_study_file, "--mode", "mode1", "--hv", "50", "-o", str(lp)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "does not strictly dominate" in captured.err
    assert lp.read_bytes() == b"an earlier program\n"  # a failed export leaves an existing file as it was
    assert sorted(os.listdir(tmp_path)) == ["system.json", "x.lp"]


def test_internal_error_is_not_an_input_error(monkeypatch, tmp_path, capsys):
    def broken_sweep(system, spec):
        raise ValueError("internal inconsistency")

    monkeypatch.setattr("modesched.sim.run_sweep", broken_sweep)
    code = main(["simulate", str(SAMPLES / "case_study.json"), str(SAMPLES / "case_study_sweep.json")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "internal inconsistency" in err


def _with(raw, key, value):
    raw[key] = value
    return raw


def _with_md_tasks(value):
    raw = case_study_raw()
    raw["modes"][0]["md_tasks"] = value
    return raw


@pytest.mark.parametrize(
    "raw, message",
    [
        (_with(case_study_raw(), "tasks", 5), "tasks: expected an array"),
        (_with(case_study_raw(), "modes", {"id": "mode1"}), "modes: expected an array"),
        (_with(case_study_raw(), "transitions", 3), "transitions: expected an array"),
        (_with(case_study_raw(), "transitions", [["mode1", ["mode2"]]]), "pair of mode ids"),
        (_with_md_tasks([["tau5"]]), "md_tasks must hold task ids"),
        (_with_md_tasks(None), "md_tasks: expected an array"),
        # a string is not read as the list of its characters
        (
            {
                "processors": 1,
                "tasks": [{"id": "a", "kind": "MD", "wcet": 1, "period": 4}],
                "modes": [{"id": "m", "md_tasks": "a"}],
                "transitions": [],
            },
            "md_tasks: expected an array",
        ),
    ],
)
def test_malformed_system_containers_exit_2(raw, message, tmp_path, capsys):
    code = main(["analyze-offline", write_json(tmp_path / "s.json", raw)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"mcrs": 5}, "mcrs: expected an array"),
        ({"release_offsets": {"tau1": 5}}, "release offsets of tau1: expected an array"),
        ({"release_offsets": {"tau5": "12"}}, "release offsets of tau5: expected an array"),
        ({"release_offsets": [1]}, "release_offsets: expected an object"),
    ],
)
def test_malformed_scenario_containers_exit_2(patch, message, case_study_file, tmp_path, capsys):
    scenario = {"initial_mode": "mode1", "horizon": 100, "mcrs": [{"time": 7, "to": "mode2"}], **patch}
    code = main(["simulate", case_study_file, write_json(tmp_path / "sc.json", scenario)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err


LONG_INT = "9" * 5001  # one digit past the interpreter's default int-to-text limit


def _system_text(key, literal):
    """The case study as JSON text with ``literal`` written verbatim as the
    processor count or as a field of its first task (tau1)."""
    raw = case_study_raw()
    if key == "processors":
        raw["processors"] = "@"
    else:
        raw["tasks"][0][key] = "@"
    return json.dumps(raw).replace('"@"', literal)


@pytest.mark.parametrize("command", ["analyze-offline", "analyze-online"])
@pytest.mark.parametrize(
    "key, literal, field",
    [
        ("period", "1e5000", "task tau1 period"),
        ("wcet", '"1e-5000"', "task tau1 wcet"),
        ("period", LONG_INT, "task tau1 period"),
        ("processors", LONG_INT, "processors"),
        ("period", '"1e1000000000"', "task tau1 period"),
    ],
    ids=["period-1e5000", "wcet-1e-5000", "period-5001-digits", "processors-5001-digits", "period-1e1000000000"],
)
def test_numbers_too_long_to_print_exit_2(command, key, literal, field, tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(_system_text(key, literal), encoding="utf-8")
    started = time.perf_counter()
    code = main([command, str(path)])
    elapsed = time.perf_counter() - started
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {field}:") and "Traceback" not in err
    assert elapsed < 1  # a huge exponent is refused before it is expanded


def test_scenario_horizon_too_long_to_print_exits_2(case_study_file, tmp_path, capsys):
    scenario = tmp_path / "sc.json"
    scenario.write_text(f'{{"initial_mode": "mode1", "horizon": {LONG_INT}}}', encoding="utf-8")
    code = main(["simulate", case_study_file, str(scenario)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: horizon:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze-offline", "analyze-online"])
def test_derived_numbers_too_long_to_print_exit_2(command, tmp_path, capsys):
    """Two MI periods of 2,501 digits each are within the limit, but their
    utilization sum has a denominator of about 5,000 digits."""
    raw = case_study_raw()
    raw["tasks"][0].update(wcet=1, period=str(10 ** 2500 + 1))
    raw["tasks"][1].update(wcet=1, period=str(10 ** 2500 + 3))
    code = main([command, write_json(tmp_path / "s.json", raw)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: derived value: a number with more than {limit} digits is too long to print\n"


@pytest.mark.parametrize("command", ["analyze-offline", "analyze-online"])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("period", "1" + "0" * 5000, "task tau1 period: a number with more than 4300 digits is too long to print"),
        ("period", "1/" + "x" * 5000, "task tau1 period: cannot parse '1/xxxxxxxxx"),
        ("processors", "x" * 5000, "processors: expected a positive integer, got 'xxxxxxxxx"),
        ("processors", LONG_INT, "processors: expected a positive integer, got '999999999"),
    ],
    ids=["period-5001-digit-string", "period-malformed", "processors-text", "processors-5001-digits"],
)
def test_errors_quote_at_most_the_start_of_a_long_value(command, key, value, message, tmp_path, capsys):
    path = tmp_path / "s.json"
    literal = value if value == LONG_INT else json.dumps(value)
    path.write_text(_system_text(key, literal), encoding="utf-8")
    assert main([command, str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {message}") and len(line) <= 200
    if "too long" not in message:
        assert f"... ({len(value)} characters)" in line


def float_range_raw():
    """The case study with tau5's period and transition deadline above the
    float range."""
    raw = case_study_raw()
    next(t for t in raw["tasks"] if t["id"] == "tau5").update(period="1e400", transition_deadline="3e400")
    return raw


def long_digits_raw():
    """An MI task on processor 1 and an MD task, each of wcet = period = 4,300
    nines, and an MD task of utilization 1/2 in the same mode: latency bounds
    above the float range and a default big-M of 4,301 digits."""
    big = "9" * 4300
    return {
        "processors": 2,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": big, "period": big, "processor": 1},
            {"id": "b", "kind": "MD", "wcet": big, "period": big},
            {"id": "c", "kind": "MD", "wcet": 1, "period": 2},
        ],
        "modes": [{"id": "m", "md_tasks": ["b", "c"]}],
        "transitions": [],
    }


def mi_overload_raw():
    """Two MI tasks on one processor, of periods 10**2500 + 1 and 10**2500 + 3
    and wcets of about three fifths of them: a load above 1 whose denominator
    has about 5,000 digits."""
    wcet = str(6 * 10 ** 2499)
    return {
        "processors": 1,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": wcet, "period": str(10 ** 2500 + 1), "processor": 1},
            {"id": "b", "kind": "MI", "wcet": wcet, "period": str(10 ** 2500 + 3), "processor": 1},
        ],
        "modes": [{"id": "m", "md_tasks": []}],
        "transitions": [],
    }


@pytest.mark.parametrize(
    "raw, command",
    [
        (float_range_raw, "analyze-offline"),
        (float_range_raw, "analyze-online"),
        (long_digits_raw, "analyze-online"),
    ],
    ids=["float-range-offline", "float-range-online", "4300-digits-online"],
)
def test_values_beyond_the_float_range_exit_2(raw, command, tmp_path, capsys):
    code = main([command, write_json(tmp_path / "s.json", raw())])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: derived value: a number of magnitude above 1.8e+308 has no float approximation\n"


@pytest.mark.parametrize("command", ["analyze-offline", "analyze-online"])
def test_overload_too_long_to_print_keeps_its_primary_error(command, tmp_path, capsys):
    code = main([command, write_json(tmp_path / "s.json", mi_overload_raw())])
    assert code == 2
    assert capsys.readouterr().err == "error: processor 1: mode-independent utilization exceeds 1\n"


def test_export_milp_refuses_a_number_too_long_to_print(tmp_path, capsys):
    """The default big-M sums two wcets of 4,300 digits."""
    lp = tmp_path / "m.lp"
    code = main(["export-milp", write_json(tmp_path / "s.json", long_digits_raw()), "--mode", "m", "-o", str(lp)])
    assert code == 2 and not lp.exists()
    limit = sys.get_int_max_str_digits()
    assert capsys.readouterr().err == f"error: LP number: a number with more than {limit} digits is too long to print\n"


OVERSIZED = {  # reproducer: (system, a mode of it)
    "float-range": (float_range_raw, "mode1"),
    "4300-digits": (long_digits_raw, "m"),
    "mi-overload": (mi_overload_raw, "m"),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
@pytest.mark.parametrize(
    "command", ["analyze-offline", "analyze-online", "export-milp", "export-milp --hv 1", "simulate"]
)
def test_oversized_numbers_never_exit_3(name, command, tmp_path, capsys):
    raw, mode = OVERSIZED[name]
    command, *options = command.split()
    argv = [command, write_json(tmp_path / "s.json", raw())]
    if command == "export-milp":
        argv += ["--mode", mode, *options, "-o", str(tmp_path / "m.lp")]
    elif command == "simulate":
        scenario = {"initial_mode": mode, "allocation": "online-ffd", "horizon": 200}
        argv += [write_json(tmp_path / "sc.json", scenario), "--trace", str(tmp_path / "t.tsv")]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert "Traceback" not in err and all(len(line) <= 300 for line in err.splitlines())


def test_big_m_error_quotes_at_most_the_start_of_a_long_value(tmp_path, capsys):
    system = write_json(tmp_path / "s.json", long_digits_raw())
    code = main(["export-milp", system, "--mode", "m", "--hv", "1", "-o", str(tmp_path / "m.lp")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: big_m 1 does not strictly dominate attainable latency {'9' * 60}... (4300 characters)\n"
    )


def trace_digits_files(tmp_path, mcrs=()):
    """One processor: MI ``a`` of wcet 1 and MD ``b`` of wcet 1/(10**4000 + 1),
    both of period 10**4299, and an MD ``c`` of utilization 1 in mode ``n``.
    Both jobs released at 10**4299 run in it, so ``b`` completes at an instant
    whose numerator has about 8,300 digits."""
    big = 10 ** 4299
    system = {
        "processors": 1,
        "tasks": [
            {"id": "a", "kind": "MI", "wcet": 1, "period": big, "processor": 1},
            {"id": "b", "kind": "MD", "wcet": f"1/{10 ** 4000 + 1}", "period": big},
            {"id": "c", "kind": "MD", "wcet": 1, "period": 1},
        ],
        "modes": [{"id": "m", "md_tasks": ["b"]}, {"id": "n", "md_tasks": ["c"]}],
        "transitions": [["m", "n"]],
    }
    scenario = {"initial_mode": "m", "allocation": "online-ffd", "horizon": big + 10, "mcrs": list(mcrs)}
    return write_json(tmp_path / "s.json", system), write_json(tmp_path / "sc.json", scenario)


def footer_digits_files(tmp_path):
    """Mode ``n`` entered at 1/(10**2500 + 1) holds a task of transition
    deadline 1/(10**2500 + 3): every row prints, but the absolute transition
    deadline in the footer has a denominator of about 5,000 digits."""
    system = {
        "processors": 1,
        "tasks": [{"id": "x", "kind": "MD", "wcet": 1, "period": 10, "transition_deadline": f"1/{10 ** 2500 + 3}"}],
        "modes": [{"id": "m", "md_tasks": []}, {"id": "n", "md_tasks": ["x"]}],
        "transitions": [["m", "n"]],
    }
    scenario = {"initial_mode": "m", "horizon": 20, "mcrs": [{"time": f"1/{10 ** 2500 + 1}", "to": "n"}]}
    return write_json(tmp_path / "s.json", system), write_json(tmp_path / "sc.json", scenario)


@pytest.mark.parametrize("files", [trace_digits_files, footer_digits_files], ids=["row", "footer"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "trace-file"])
def test_trace_time_too_long_to_print_exits_2(files, to_file, tmp_path, capsys):
    trace = tmp_path / "t.tsv"
    code = main(["simulate", *files(tmp_path)] + (["--trace", str(trace)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not trace.exists()
    limit = sys.get_int_max_str_digits()
    assert captured.err == f"error: trace time: a number with more than {limit} digits is too long to print\n"


def sweep_digits_files(tmp_path, allocation):
    """Mode ``A`` holds ``x1`` and ``x2`` of wcets 1/(10**2500 + 1) and
    1/(10**2500 + 3): the sweep's max latency, their summed wcets, has a
    denominator of about 5,000 digits."""
    system = {
        "processors": 1,
        "tasks": [
            {"id": "x1", "kind": "MD", "wcet": f"1/{10 ** 2500 + 1}", "period": 10},
            {"id": "x2", "kind": "MD", "wcet": f"1/{10 ** 2500 + 3}", "period": 10},
            {"id": "y", "kind": "MD", "wcet": 1, "period": 10},
        ],
        "modes": [{"id": "A", "md_tasks": ["x1", "x2"]}, {"id": "B", "md_tasks": ["y"]}],
        "transitions": [["A", "B"]],
    }
    scenario = {"allocation": allocation, "sweep": {"from_mode": "A", "to_mode": "B", "step": 1}}
    return write_json(tmp_path / "s.json", system), write_json(tmp_path / "sc.json", scenario)


@pytest.mark.parametrize("allocation", ["offline-table", "online-ffd"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "trace-file"])
def test_sweep_summary_too_long_to_print_exits_2(allocation, to_file, tmp_path, capsys):
    trace = tmp_path / "t.tsv"
    code = main(["simulate", *sweep_digits_files(tmp_path, allocation)] + (["--trace", str(trace)] if to_file else []))
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and not trace.exists()
    limit = sys.get_int_max_str_digits()  # the whole of stderr: no traceback
    assert captured.err == f"error: max latency: a number with more than {limit} digits is too long to print\n"


def test_simulation_error_leaves_out_a_time_too_long_to_print(tmp_path, capsys):
    """The request at 10**4299 waits for ``b``, so mode ``n``, where ``c``
    fits nowhere, is placed at ``b``'s completion."""
    code = main(["simulate", *trace_digits_files(tmp_path, [{"time": 10 ** 4299, "to": "n"}])])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: online placement failed at time (a number too long to print):"
        " mode n: task c fits on no processor\n"
    )


@pytest.mark.parametrize(
    "files, mcrs",
    [(trace_digits_files, [{"time": 10 ** 4299, "to": "n"}]), (trace_digits_files, []), (footer_digits_files, None)],
    ids=["simulation-error", "row-refusal", "footer-refusal"],
)
def test_failed_simulation_leaves_an_existing_trace_file_as_it_was(files, mcrs, tmp_path, capsys):
    inputs = files(tmp_path) if mcrs is None else files(tmp_path, mcrs)
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"an earlier trace\n")
    code = main(["simulate", *inputs, "--trace", str(trace)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and captured.err.startswith("error: ")
    assert trace.read_bytes() == b"an earlier trace\n"
    assert sorted(os.listdir(tmp_path)) == ["s.json", "sc.json", "t.tsv"]  # no partial file is left


def test_new_trace_file_gets_the_mode_bits_of_a_plain_open(tmp_path, capsys):
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w", encoding="utf-8"):
            pass
        trace = tmp_path / "t.tsv"
        argv = [str(SAMPLES / "two_proc_handover.json"), str(SAMPLES / "handover_mcr7.json")]
        assert main(["simulate", *argv, "--trace", str(trace)]) == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(trace.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o644
    assert sorted(os.listdir(tmp_path)) == ["plain", "t.tsv"]


def test_trace_path_through_a_link_or_to_a_pipe_is_written_through(tmp_path, capsys):
    argv = ["simulate", str(SAMPLES / "two_proc_handover.json"), str(SAMPLES / "handover_mcr7.json")]
    assert main(argv) == 0
    text = capsys.readouterr().out
    (tmp_path / "link").symlink_to(tmp_path / "target.tsv")
    assert main(argv + ["--trace", str(tmp_path / "link")]) == 0
    assert (tmp_path / "link").is_symlink() and (tmp_path / "target.tsv").read_text(encoding="utf-8") == text
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    received = []
    reader = threading.Thread(target=lambda: received.append(pipe.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    code = main(argv + ["--trace", str(pipe)])
    reader.join(10)
    assert code == 0 and received == [text]
    assert sorted(os.listdir(tmp_path)) == ["link", "pipe", "target.tsv"]


def test_trace_path_to_an_anonymous_pipe_is_written_through(capsys):
    """``--trace >(gzip > t.gz)`` hands over ``/dev/fd/N`` of a pipe, whose
    link does not resolve to a path."""
    argv = ["simulate", str(SAMPLES / "two_proc_handover.json"), str(SAMPLES / "handover_mcr7.json")]
    assert main(argv) == 0
    text = capsys.readouterr().out
    read_end, write_end = os.pipe()
    received = []
    with open(read_end, encoding="utf-8") as source:
        reader = threading.Thread(target=lambda: received.append(source.read()), daemon=True)
        reader.start()
        try:
            code = main(argv + ["--trace", f"/dev/fd/{write_end}"])
        finally:
            os.close(write_end)
        reader.join(10)
    assert code == 0 and received == [text]
    assert capsys.readouterr().err == ""


def test_replaced_trace_file_keeps_its_mode_bits(tmp_path, capsys):
    trace = tmp_path / "t.tsv"
    trace.write_bytes(b"an earlier trace\n")
    trace.chmod(0o600)
    argv = [str(SAMPLES / "two_proc_handover.json"), str(SAMPLES / "handover_mcr7.json")]
    assert main(["simulate", *argv, "--trace", str(trace)]) == 0
    assert stat.S_IMODE(trace.stat().st_mode) == 0o600
    assert trace.read_bytes() != b"an earlier trace\n"
    assert os.listdir(tmp_path) == ["t.tsv"]


def test_trace_file_name_of_the_longest_length_is_written(tmp_path, capsys):
    trace = tmp_path / ("t" * 251 + ".tsv")
    argv = [str(SAMPLES / "two_proc_handover.json"), str(SAMPLES / "handover_mcr7.json")]
    assert main(["simulate", *argv, "--trace", str(trace)]) == 0
    assert trace.read_text(encoding="utf-8").endswith("# deadline-misses\t0\n")
    assert os.listdir(tmp_path) == [trace.name]


def _patched(mutate, raw=None):
    raw = case_study_raw() if raw is None else raw
    mutate(raw)
    return raw


def _scenario(**fields):
    return {"initial_mode": "mode1", "horizon": 100, **fields}


def _sweep(**fields):
    return {"sweep": {"from_mode": "mode1", "to_mode": "mode2", "step": 1, **fields}}


REFUSALS = {  # name: (system, scenario or None for analyze-offline, message)
    "system-not-object": ([1], None, "system description must be an object"),
    "unknown-top-level-key": (_patched(lambda r: r.update(colour=1)), None, "unknown top-level keys ['colour']"),
    "missing-top-level-key": (_patched(lambda r: r.pop("modes")), None, "missing top-level key 'modes'"),
    "task-not-object": (_patched(lambda r: r["tasks"].__setitem__(0, 5)), None, "tasks[0]: expected an object"),
    "task-unknown-key": (_patched(lambda r: r["tasks"][0].update(colour=1)), None, "tasks[0]: unknown keys ['colour']"),
    "task-missing-key": (
        _patched(lambda r: r["tasks"][0].pop("wcet")), None, "tasks[0]: missing required key 'wcet'"
    ),
    "task-id-not-string": (_patched(lambda r: r["tasks"][0].update(id=7)), None, "tasks[0]: id must be a string"),
    "task-id-empty": (
        _patched(lambda r: r["tasks"][0].update(id="")), None, "task id must be a non-empty string, got ''"
    ),
    "number-boolean": (
        _patched(lambda r: r["tasks"][0].update(wcet=True)), None, "task tau1 wcet: expected a number, got a boolean"
    ),
    "number-array": (
        _patched(lambda r: r["tasks"][0].update(wcet=[1])), None, "task tau1 wcet: unsupported number type list"
    ),
    "processor-text": (
        _patched(lambda r: r["tasks"][0].update(processor="1")), None, "task tau1: processor must be an integer index"
    ),
    "processor-boolean": (
        _patched(lambda r: r["tasks"][0].update(processor=True)), None, "task tau1: processor must be an integer index"
    ),
    "mode-not-object": (
        _patched(lambda r: r["modes"].__setitem__(0, 5)), None, "modes[0]: expected an object with keys id, md_tasks"
    ),
    "mode-unknown-key": (
        _patched(lambda r: r["modes"][0].update(colour=1)), None, "modes[0]: expected an object with keys id, md_tasks"
    ),
    "mode-id-empty": (_patched(lambda r: r["modes"][0].update(id="")), None, "modes[0]: id must be a non-empty string"),
    "mode-id-duplicate": (_patched(lambda r: r["modes"][1].update(id="mode1")), None, "duplicate mode id 'mode1'"),
    "mode-task-unknown": (
        _patched(lambda r: r["modes"][0]["md_tasks"].append("zz")), None, "mode mode1: unknown task 'zz'"
    ),
    "mode-task-repeated": (
        _patched(lambda r: r["modes"][0]["md_tasks"].append("tau5")), None, "mode mode1: repeated task tau5 in md_tasks"
    ),
    "scenario-not-object": (case_study_raw(), [1], "scenario description must be an object"),
    "scenario-unknown-key": (case_study_raw(), _scenario(colour=1), "unknown scenario keys ['colour']"),
    "sweep-not-object": (
        case_study_raw(), {"sweep": 5}, "sweep: expected an object with keys from_mode, to_mode, step"
    ),
    "sweep-unknown-key": (
        case_study_raw(), _sweep(colour=1), "sweep: expected an object with keys from_mode, to_mode, step"
    ),
    "sweep-missing-key": (
        case_study_raw(), {"sweep": {"from_mode": "mode1", "to_mode": "mode2"}}, "sweep: missing key 'step'"
    ),
    "sweep-step-zero": (case_study_raw(), _sweep(step=0), "sweep.step must be positive"),
    "sweep-no-edge": (case_study_raw(), _sweep(to_mode="mode1"), "no transition from mode 'mode1' to 'mode1'"),
    "offsets-unknown-task": (case_study_raw(), _scenario(release_offsets={"zz": [0]}), "unknown task 'zz'"),
    "offline-table-infeasible-mode": (
        infeasible_mode_raw(),
        {"initial_mode": "m1", "horizon": 10},
        "mode m1: no feasible allocation; search stuck placing task big",
    ),
    "mcr-malformed": (
        case_study_raw(), _scenario(mcrs=[{"time": 5}]), "mcrs[0]: expected an object with keys time, to"
    ),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_input_refusals_exit_2_with_their_message(name, tmp_path, capsys):
    system, scenario, message = REFUSALS[name]
    argv = ["analyze-offline", write_json(tmp_path / "s.json", system)]
    if scenario is not None:
        argv = ["simulate", argv[1], write_json(tmp_path / "sc.json", scenario)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


LONG_ID = "q" * 5000


def _long_id_argv(name, tmp_path):
    raw = case_study_raw()
    if name == "export-milp-mode":
        return ["export-milp", write_json(tmp_path / "s.json", raw), "--mode", LONG_ID, "-o", str(tmp_path / "m.lp")]
    if name == "system-mode-task":
        raw["modes"][0]["md_tasks"].append(LONG_ID)
    if name == "system-transition":
        raw["transitions"].append(["mode1", LONG_ID])
    if name.startswith("system-"):
        return ["analyze-offline", write_json(tmp_path / "s.json", raw)]
    scenario = {
        "initial_mode": _scenario(initial_mode=LONG_ID),
        "mcrs-to": _scenario(mcrs=[{"time": 5, "to": LONG_ID}]),
        "sweep-to-mode": _sweep(to_mode=LONG_ID),
        "allocation": _scenario(allocation=LONG_ID),
    }[name]
    return ["simulate", write_json(tmp_path / "s.json", raw), write_json(tmp_path / "sc.json", scenario)]


@pytest.mark.parametrize(
    "name",
    ["initial_mode", "mcrs-to", "sweep-to-mode", "allocation", "export-milp-mode", "system-mode-task",
     "system-transition"],
)
def test_long_ids_are_quoted_in_part(name, tmp_path, capsys):
    assert main(_long_id_argv(name, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "characters)" in captured.err
    assert all(len(line) <= 300 for line in captured.err.splitlines())


BIG = "9" * 4000


def _renamed(raw, old, new):
    """``raw`` with the task or mode ``old`` renamed ``new`` everywhere."""
    for entry in raw["tasks"] + raw["modes"]:
        entry["id"] = new if entry["id"] == old else entry["id"]
    for mode in raw["modes"]:
        mode["md_tasks"] = [new if tid == old else tid for tid in mode["md_tasks"]]
    raw["transitions"] = [[new if end == old else end for end in edge] for edge in raw["transitions"]]
    return raw


def _long_value_raw(name):
    raw = case_study_raw()
    tau1, tau5 = raw["tasks"][0], raw["tasks"][4]
    if name == "duplicate-task-id":
        tau1["id"] = raw["tasks"][1]["id"] = LONG_ID
    elif name == "duplicate-mode-id":
        raw["modes"][0]["id"] = raw["modes"][1]["id"] = LONG_ID
    elif name == "duplicate-edge":
        _renamed(raw, "mode1", LONG_ID)["transitions"].append([LONG_ID, "mode2"])
    elif name == "self-loop":
        _renamed(raw, "mode1", LONG_ID)["transitions"].append([LONG_ID, LONG_ID])
    elif name == "wcet-above-period":
        _renamed(raw, "tau1", LONG_ID)
        tau1["wcet"] = 31
    elif name == "unparsable-wcet":
        _renamed(raw, "tau1", LONG_ID)
        tau1["wcet"] = "ten"
    elif name == "mi-task-in-mode":
        _renamed(raw, "tau1", LONG_ID)["modes"][0]["md_tasks"].append(LONG_ID)
    elif name == "repeated-md-task":
        _renamed(raw, "tau5", LONG_ID)["modes"][0]["md_tasks"].append(LONG_ID)
    elif name == "mi-processor-out-of-range":
        _renamed(raw, "tau1", LONG_ID)
        tau1["processor"] = 3
    elif name == "md-task-in-no-mode":
        _renamed(raw, "tau10", LONG_ID)["modes"][1]["md_tasks"] = []
    elif name == "big-wcet-above-period":
        tau1["wcet"], tau1["period"] = BIG, "8" * 4000
    elif name == "big-negative-wcet":
        tau1["wcet"] = "-" + BIG
    elif name == "md-task-long-offset-gap":
        _renamed(raw, "tau5", LONG_ID)
    elif name == "long-overload":  # tau1 and tau2 on processor 1, each of utilization just below 1
        for task, period in ((tau1, 10 ** 100 + 1), (raw["tasks"][1], 10 ** 100 + 3)):
            task["wcet"], task["period"] = str(period - 1), str(period)
    elif name == "many-md-tasks-in-no-mode":
        raw["tasks"] += [{"id": f"orphan{i:04}", "kind": "MD", "wcet": 1, "period": 1000} for i in range(400)]
    return raw


LONG_VALUE_SCENARIOS = {  # the scenario of each shape a system file alone does not refuse
    "big-mcr-outside-horizon": _scenario(horizon=BIG, mcrs=[{"time": BIG, "to": "mode2"}]),
    "big-offset-gap": _scenario(release_offsets={"tau5": [0, f"1/{BIG}"]}),
    "md-task-long-offset-gap": _scenario(release_offsets={LONG_ID: [0, 1]}),
}


@pytest.mark.parametrize(
    "name",
    ["duplicate-task-id", "duplicate-mode-id", "duplicate-edge", "self-loop", "wcet-above-period",
     "unparsable-wcet", "mi-task-in-mode", "repeated-md-task", "mi-processor-out-of-range",
     "md-task-in-no-mode", "many-md-tasks-in-no-mode", "big-wcet-above-period", "big-negative-wcet",
     "long-overload", *LONG_VALUE_SCENARIOS],
)
def test_long_values_in_input_refusals_are_cut(name, tmp_path, capsys):
    """A 5,000-character id or a 4,000-digit number shows in an error
    message as its first 60 characters and its length, a list of 400 ids
    as its first five and the count."""
    argv = ["analyze-offline", write_json(tmp_path / "s.json", _long_value_raw(name))]
    if name in LONG_VALUE_SCENARIOS:
        argv = ["simulate", argv[1], write_json(tmp_path / "sc.json", LONG_VALUE_SCENARIOS[name])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "... (" in captured.err
    assert all(len(line) <= 300 for line in captured.err.splitlines())


HELP = "help"


def _parsed(command, **fields):
    defaults = {
        "analyze-offline": {"report": None}, "analyze-online": {"report": None}, "simulate": {"trace": None},
        "export-milp": {"hv": None},
    }[command]
    return {"command": command, **defaults, **fields}


# argv -> the namespace it parses to, HELP, or the usage error it exits 2 with
ARGUMENT_LISTS = [
    (["analyze-offline", "s.json"], _parsed("analyze-offline", system="s.json")),
    (["analyze-offline", "--report", "r.json", "s.json"],
     _parsed("analyze-offline", system="s.json", report="r.json")),
    (["analyze-online", "s.json", "--report=r=1.json"], _parsed("analyze-online", system="s.json", report="r=1.json")),
    (["analyze-online", "-", "--report="], _parsed("analyze-online", system="-", report="")),
    (["analyze-online", "s.json", "--report", "a", "--report=b"],
     _parsed("analyze-online", system="s.json", report="b")),
    (["simulate", "s.json", "c.json"], _parsed("simulate", system="s.json", scenario="c.json")),
    (["simulate", "--trace=t.tsv", "s.json", "c.json"],
     _parsed("simulate", system="s.json", scenario="c.json", trace="t.tsv")),
    (["simulate", "s.json", "--trace", "t.tsv", "c.json"],
     _parsed("simulate", system="s.json", scenario="c.json", trace="t.tsv")),
    (["export-milp", "s.json", "--mode", "m", "-o", "x.lp"],
     _parsed("export-milp", system="s.json", mode="m", output="x.lp")),
    (["export-milp", "--output=x.lp", "--hv", "-5", "--mode=m", "s.json"],
     _parsed("export-milp", system="s.json", mode="m", output="x.lp", hv="-5")),
    (["export-milp", "s.json", "--mode", "a", "-o", "x.lp", "--output", "y.lp", "--mode=b"],
     _parsed("export-milp", system="s.json", mode="b", output="y.lp")),
    (["-h"], HELP),
    (["--help"], HELP),
    (["analyze-online", "s.json", "--help"], HELP),
    (["bogus", "-h"], HELP),
    (["export-milp", "--mode", "-h"], HELP),
    ([], "no command given"),
    (["bogus"], "unknown command 'bogus'"),
    (["x" * 100], "unknown command '" + "x" * 59 + "... (100 characters)"),
    (["--report", "r.json", "analyze-online", "s.json"], "unknown command '--report'"),
    (["analyze-online"], "analyze-online: missing argument <system>"),
    (["simulate", "s.json", "--trace", "t.tsv"], "simulate: missing argument <scenario>"),
    (["simulate", "s.json", "c.json", "extra"], "simulate: unexpected argument 'extra'"),
    (["analyze-offline", "s.json", "--trace", "t.tsv"], "analyze-offline: unknown option '--trace'"),
    (["analyze-online", "s.json", "--rep", "r.json"], "analyze-online: unknown option '--rep'"),
    (["analyze-online", "s.json", "--bogus=1"], "analyze-online: unknown option '--bogus'"),
    (["analyze-online", "s.json", "-r"], "analyze-online: unknown option '-r'"),
    (["export-milp", "s.json", "--mode", "m", "-o=x.lp"], "export-milp: unknown option '-o=x.lp'"),
    (["analyze-online", "s.json", "--report"], "analyze-online: option --report needs a value"),
    (["export-milp", "s.json", "-o", "x.lp"], "export-milp: missing option --mode"),
    (["export-milp", "s.json", "--mode", "m"], "export-milp: missing option --output"),
]


@pytest.mark.parametrize("argv, outcome", ARGUMENT_LISTS, ids=[" ".join(argv)[:40] for argv, _ in ARGUMENT_LISTS])
def test_argument_lists_parse_or_exit_with_the_usage(argv, outcome, capsys):
    """Options go anywhere after the command, as ``--name value`` or
    ``--name=value``, and the last of a repeated option counts; ``-h`` or
    ``--help`` anywhere prints the usage to stdout and exits 0; any other
    argument list prints the usage and its error to stderr and exits 2."""
    if isinstance(outcome, dict):
        assert cli._parse(argv) == SimpleNamespace(**outcome)
        return
    code = main(argv)
    captured = capsys.readouterr()
    if outcome == HELP:
        assert (code, captured.out, captured.err) == (0, cli._USAGE, "")
        assert all(f"    modesched {command} " in captured.out for command in cli._COMMANDS)
    else:
        assert (code, captured.out, captured.err) == (2, "", f"{cli._USAGE}error: {outcome}\n")
