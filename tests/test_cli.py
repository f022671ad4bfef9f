"""Command-line front end: exit codes, stream discipline, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from vcsys.cli import main

from .helpers import WIRING_PROBES, deep_sdl

FIXTURES = Path(__file__).parent / "fixtures"
DEMO = str(FIXTURES / "demo.vcs")
NESTED = str(FIXTURES / "nested.vcs")
BROKEN = str(FIXTURES / "broken.vcs")


def test_validate_clean_fixture(capsys):
    code = main(["validate", DEMO])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err.strip() == "OK"
    payload = json.loads(captured.out)
    assert payload["ok"] is True
    assert payload["diagnostics"] == []


def test_validate_broken_fixture_strict(capsys):
    assert main(["validate", BROKEN]) == 0  # findings are data by default
    capsys.readouterr()
    assert main(["validate", BROKEN, "--strict"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert "INVALID" in captured.err


def test_validate_reproduces_golden_findings(capsys):
    assert main(["validate", BROKEN]) == 0
    captured = capsys.readouterr()
    golden = (FIXTURES / "broken.validate.json").read_bytes()
    assert captured.out.encode("utf-8") == golden
    assert captured.err == (
        f"INVALID: 1 finding(s)\n{BROKEN}:4:1: error: expected }}, found 'end of input'\n"
    )


def test_inspect_summary(capsys):
    assert main(["inspect", NESTED]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["id"] == "estate"
    assert payload["depth"] == 1
    assert payload["flat"]["nodes"] == 5


def test_inspect_reproduces_golden_summary(capsys):
    assert main(["inspect", NESTED]) == 0
    golden = (FIXTURES / "nested.inspect.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_flatten_json(capsys):
    assert main(["flatten", DEMO, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [n["id"] for n in payload["nodes"]] == ["P#1", "T#1"]
    assert len(payload["edges"]) == 3


def test_flatten_text(capsys):
    assert main(["flatten", DEMO]) == 0
    out = capsys.readouterr().out
    assert "node P#1 role=producer tier=0" in out
    assert "edge e_pt#1 P#1 -> T#1 grain cap=3" in out


def test_flatten_text_prints_quantities_exactly(tmp_path, capsys):
    model = tmp_path / "qty.vcs"
    model.write_text(
        'system "qty" {\n'
        "  component P atomic role=producer tier=0\n"
        "  source S1 rate=1234567 substance=grain\n"
        "  source S2 rate=0.1234567 substance=grain\n"
        "  edge e1 S1 -> P { substance=grain capacity=0.1234567 }\n"
        "  edge e2 S2 -> P { substance=grain capacity=1234567 }\n"
        "}\n"
    )
    assert main(["flatten", str(model)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "env S1 source rate=1234567 substance=grain" in out
    assert "env S2 source rate=0.1234567 substance=grain" in out
    assert "edge e1#1 S1 -> P#1 grain cap=0.1234567" in out
    assert "edge e2#1 S2 -> P#1 grain cap=1234567" in out


@pytest.mark.parametrize("probe", sorted(WIRING_PROBES))
def test_validate_strict_locates_port_wiring_violation(probe, tmp_path, capsys):
    text, (line, column) = WIRING_PROBES[probe]
    model = tmp_path / f"{probe}.vcs"
    model.write_text(text)
    assert main(["validate", "--strict", str(model)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["ok"] is False
    assert f"{model}:{line}:{column}: error:" in captured.err


def test_simulate_three_ticks_with_log(tmp_path, capsys):
    log_path = tmp_path / "out.jsonl"
    assert main(["simulate", DEMO, "--steps", "3", "--log", str(log_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tick"] == 3
    assert payload["sink_received"]["M"]["grain"] == 3.0
    lines = log_path.read_text().splitlines()
    header = json.loads(lines[0])
    assert list(header) == ["model_hash", "steps"] and header["steps"] == 3
    assert len(lines) == 1 + 6


def test_simulate_rejects_negative_steps(capsys):
    assert main(["simulate", DEMO, "--steps", "-1"]) == 2


def test_simulate_unparseable_input(capsys):
    assert main(["simulate", BROKEN, "--steps", "1"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_file_is_io_error(capsys):
    assert main(["validate", "no_such_file.vcs"]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", DEMO])  # --metric is required
    assert exc.value.code == 2


def test_export_dot(capsys):
    assert main(["export", DEMO, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph demo {")
    assert out.count("->") == 3


def test_export_json(capsys):
    assert main(["export", DEMO, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["history_policy"] == "record"
    assert len(payload["knowledge"]) == 3


@pytest.mark.parametrize("model", ["demo", "nested"])
def test_export_json_reproduces_golden_export(model, capsys):
    assert main(["export", str(FIXTURES / f"{model}.vcs"), "--format", "json"]) == 0
    golden = (FIXTURES / f"{model}.export.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_analyze_metrics(capsys):
    assert main(["analyze", DEMO, "--metric", "linkages"]) == 0
    linkages = json.loads(capsys.readouterr().out)
    assert linkages["e_pt#1"] == "vertical"

    assert main(["analyze", DEMO, "--metric", "governance"]) == 0
    governance = json.loads(capsys.readouterr().out)
    assert {entry["node"]: entry["score"] for entry in governance} == {
        "P#1": 1.0,
        "T#1": 1.0,
    }

    assert main(["analyze", DEMO, "--metric", "reachability"]) == 0
    reach = json.loads(capsys.readouterr().out)
    assert reach["P#1"] == ["M"]

    assert main(["analyze", DEMO, "--metric", "value_added"]) == 0
    added = json.loads(capsys.readouterr().out)
    assert added["P#1"] == -1.0


def test_analyze_weak_strict_exit(capsys):
    assert main(["analyze", DEMO, "--metric", "weak", "--threshold", "10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["weak"] == [{"edge": "e_pt#1", "capacity": 3.0}]
    assert (
        main(["analyze", DEMO, "--metric", "weak", "--threshold", "10", "--strict"])
        == 1
    )


@pytest.mark.parametrize("threshold", ["-1", "nan", "inf"])
def test_analyze_weak_refuses_a_bad_threshold_with_one_line(threshold, capsys):
    code = main(["analyze", DEMO, "--metric", "weak", "--threshold", threshold])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "threshold must be a finite non-negative number" in captured.err


@pytest.mark.parametrize("metric", ["linkages", "governance", "reachability", "value_added"])
def test_analyze_refuses_a_threshold_outside_weak(metric, capsys):
    code = main(["analyze", DEMO, "--metric", metric, "--threshold", "nan"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "--threshold applies only to --metric weak\n"


def test_analyze_weak_threshold_defaults_to_zero(capsys):
    assert main(["analyze", DEMO, "--metric", "weak"]) == 0
    assert json.loads(capsys.readouterr().out)["threshold"] == 0.0


def test_simulate_overflow_ends_in_one_error_line(tmp_path, capsys):
    log_path = tmp_path / "out.jsonl"
    code = main(["simulate", str(FIXTURES / "overflow.vcs"), "--steps", "3", "--log", str(log_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: tick 1: stock ('P#1', 'grain') overflowed to inf\n"
    assert not log_path.exists()


def test_flatten_json_reproduces_golden_flat_graph(capsys):
    assert main(["flatten", NESTED, "--json"]) == 0
    golden = (FIXTURES / "nested.flat.json").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_flatten_text_reproduces_golden_flat_graph(capsys):
    assert main(["flatten", NESTED]) == 0
    golden = (FIXTURES / "nested.flat.txt").read_bytes()
    assert capsys.readouterr().out.encode("utf-8") == golden


def test_stdin_dash(capsys, monkeypatch):
    text = Path(DEMO).read_text()
    monkeypatch.setattr("sys.stdin", __import__("io").StringIO(text))
    assert main(["validate", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


def test_output_file(tmp_path, capsys):
    target = tmp_path / "flat.json"
    assert main(["flatten", DEMO, "--json", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["id"] == "demo"


def test_max_depth_env_override(monkeypatch, capsys):
    monkeypatch.setenv("VCSYS_MAX_DEPTH", "0")
    assert main(["validate", NESTED, "--strict"]) == 1
    captured = capsys.readouterr()
    assert "max_depth" in captured.out or "max_depth" in captured.err


def test_max_depth_env_invalid(monkeypatch, capsys):
    monkeypatch.setenv("VCSYS_MAX_DEPTH", "banana")
    assert main(["validate", DEMO]) == 2


DEEP_COMMANDS = [
    ["validate"],
    ["inspect"],
    ["flatten"],
    ["simulate", "--steps", "2"],
    ["analyze", "--metric", "governance"],
    ["export", "--format", "dot"],
    ["export", "--format", "json"],
]


@pytest.mark.parametrize("levels", [450, 900])
def test_deep_models_end_in_a_result_or_one_error_line(levels, tmp_path, monkeypatch, capsys):
    """Past what the recursion limit allows, a command says so in one line."""
    model = tmp_path / "deep.vcs"
    model.write_text(deep_sdl(levels))
    monkeypatch.setenv("VCSYS_MAX_DEPTH", "100000")
    codes = []
    for command in DEEP_COMMANDS:
        codes.append(main([command[0], str(model), *command[1:]]))
        err = capsys.readouterr().err
        assert codes[-1] in (0, 1), command
        if codes[-1] == 1:
            assert len(err.splitlines()) == 1 and "error: " in err, (command, err)
    if levels == 450:
        assert codes == [0, 0, 0, 0, 0, 0, 1]  # only the JSON encoder runs out of stack


def test_cli_runs_as_module(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "vcsys", "inspect", DEMO],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["id"] == "demo"
