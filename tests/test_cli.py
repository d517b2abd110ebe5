"""CLI behavior: subcommands, exit codes, file outputs."""

import csv
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsngen
from wsngen.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECTED, _load_input, build_parser, main
from wsngen.deployment import deployment_from_json, points_from_csv
from wsngen.generator import read_document
from wsngen.traffic import TrafficMatrix, matrix_from_csv, traffic_from_json, traffic_to_csv, traffic_uniform
from wsngen.validation import reports_to_json, run_suite, suite_satisfied


def test_deploy_writes_default_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["deploy", "--seed", "43", "--mode", "grid"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "deploy: seed=43" in out
    assert "mode=grid" in out
    lines = (tmp_path / "deployment.csv").read_text().splitlines()
    assert lines[0] == "node_id,x,y"
    assert len(lines) == 101
    assert lines[1].startswith("1,46.37725900000001,")


def test_deploy_repeated_runs_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        assert main(["deploy", "--seed", "7", "--out", str(out)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_deploy_json_format(tmp_path):
    out = tmp_path / "dep.json"
    assert main(["deploy", "--seed", "0", "--format", "json",
                 "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["meta"]["kind"] == "deployment"
    assert len(doc["points"]) == 100


def test_deploy_zero_nodes_errors(tmp_path, capsys):
    out = tmp_path / "dep.csv"
    assert main(["deploy", "--nodes", "0", "--out", str(out)]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err
    assert not out.exists()


def test_traffic_default_output(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["traffic"]) == EXIT_OK
    lines = (tmp_path / "traffic.csv").read_text().splitlines()
    assert lines[0] == "node_id,t1,t2,t3,t4,t5"
    assert len(lines) == 81
    assert lines[1].startswith("1,7.345565623696594,")


def test_traffic_inverted_bounds_error(tmp_path):
    out = tmp_path / "t.csv"
    assert main(["traffic", "--pmin", "10", "--pmax", "2",
                 "--out", str(out)]) == EXIT_ERROR


def test_validate_generated_seed_0_satisfied(capsys):
    assert main(["validate", "--seed", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "KS-Test" in out
    assert "Rejected" not in out


def test_validate_generated_seed_3_rejected(capsys):
    assert main(["validate", "--seed", "3"]) == EXIT_REJECTED
    assert "Rejected" in capsys.readouterr().out


def test_validate_json_format(capsys):
    assert main(["validate", "--seed", "0", "--format", "json"]) == EXIT_OK
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list)
    assert {d["test_name"] for d in docs} == {"ks", "chi2", "autocorrelation", "circular"}


def test_validate_writes_report_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["validate", "--seed", "0", "--out", str(out)])
    assert code == EXIT_OK
    assert "KS-Test" in out.read_text()
    capsys.readouterr()


def test_validate_deployment_csv_round_trip(tmp_path, capsys):
    dep_file = tmp_path / "dep.csv"
    assert main(["deploy", "--seed", "0", "--out", str(dep_file)]) == EXIT_OK
    code = main(["validate", "--in", str(dep_file)])
    assert code == EXIT_OK
    capsys.readouterr()


def test_validate_traffic_json_input(tmp_path, capsys):
    t_file = tmp_path / "traffic.json"
    assert main(["traffic", "--format", "json", "--out", str(t_file)]) == EXIT_OK
    code = main(["validate", "--in", str(t_file)])
    assert code in (EXIT_OK, EXIT_REJECTED)
    assert "Chi2Test" in capsys.readouterr().out


def test_validate_truncated_csv_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("node_id,x,y\n1,5.0\n")
    assert main(["validate", "--in", str(bad)]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_validate_unknown_json_kind_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"meta": {"kind": "mystery"}}')
    assert main(["validate", "--in", str(bad)]) == EXIT_ERROR
    assert "unrecognized" in capsys.readouterr().err


def _write_in_file(path) -> None:
    """Write the --in file a name stands for: a deployment, traffic or graph
    export in the format of its suffix, a JSON array or an empty file."""
    command = {"deployment": "deploy", "traffic": "traffic", "graph": "analyze"}.get(path.stem)
    if command:
        assert main([command, "--format", path.suffix[1:], "--out", str(path)]) == EXIT_OK
    else:
        path.write_text({"array.json": "[1,2]", "empty.csv": ""}[path.name])


@pytest.mark.parametrize("command, name, message", [
    ("validate", "graph.csv", "unrecognized CSV header in {}: 'u,v,distance'"),
    ("validate", "graph.json", "{}: unrecognized kind 'radius-graph'; validate reads deployment or traffic files"),
    ("validate", "array.json", "{}: expected a JSON object whose 'meta' is an object"),
    ("validate", "empty.csv", "unrecognized CSV header in {}: ''"),
    ("analyze", "traffic.csv", "{}: unrecognized kind 'traffic'; analyze reads deployment files"),
])
def test_in_file_of_the_wrong_kind_is_refused(command, name, message, tmp_path, capsys):
    # a JSON array used to be read as a CSV header
    path = tmp_path / name
    _write_in_file(path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--in", str(path), "--out", str(out)]) == EXIT_ERROR
    assert _single_error_line(capsys.readouterr().err) == f"wsngen: error: {message.format(path)}\n"
    assert sorted(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("command, fields", [
    ("deploy", ("mode", "params", "y_increment")),
    ("traffic", ("distribution", "params")),
])
def test_csv_input_carries_no_provenance(command, fields, tmp_path, capsys):
    # a CSV holds the data alone; its record used to claim seed 0 with
    # a = c = 1, and the --mode flag or the uniform distribution
    records = []
    for path in (tmp_path / "data.csv", tmp_path / "data.json"):
        assert main([command, "--format", path.suffix[1:], "--out", str(path)]) == EXIT_OK
        args = build_parser().parse_args(["validate", "--in", str(path)])
        records.append(_load_input(args, ("deployment", "traffic")))
    from_csv, from_json = records
    assert [getattr(from_csv, f) for f in fields] == [None] * len(fields)
    assert None not in [getattr(from_json, f) for f in fields]
    assert from_csv == from_json._replace(**dict.fromkeys(fields))


@pytest.mark.parametrize("nodes, classes", [(3, 10), (10, 10), (19, 10), (20, 10), (49, 10),
                                            (149, 30), (19, 2)])
def test_validate_refuses_a_stream_shorter_than_the_battery_needs(nodes, classes, capsys):
    # each KS quarter needs 5 values and chi2 5 per class; the refusal used
    # to come from whichever test broke first, about a quarter or a class
    assert main(["validate", "--nodes", str(nodes), "--classes", str(classes)]) == EXIT_ERROR
    need = max(20, 5 * classes)
    assert _single_error_line(capsys.readouterr().err) == (
        f"wsngen: error: the battery needs at least {need} values per stream "
        f"at {classes} chi-square classes, got {nodes}\n")


@pytest.mark.parametrize("nodes, classes", [(50, 10), (150, 30), (20, 2)])
def test_validate_runs_at_the_battery_minimum(nodes, classes, capsys):
    assert main(["validate", "--nodes", str(nodes), "--classes", str(classes)]) in (EXIT_OK, EXIT_REJECTED)
    assert capsys.readouterr().err == ""


def test_analyze_summary_frozen(capsys):
    assert main(["analyze", "--seed", "0", "--tr", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "edges=163" in out
    assert "isolated=6" in out


def test_analyze_edge_list_output(tmp_path, capsys):
    out = tmp_path / "edges.csv"
    assert main(["analyze", "--seed", "0", "--tr", "10",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,distance"
    assert len(lines) == 164
    capsys.readouterr()


def test_analyze_from_file_matches_generated(tmp_path, capsys):
    dep_file = tmp_path / "dep.csv"
    assert main(["deploy", "--seed", "5", "--out", str(dep_file)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", "--in", str(dep_file), "--tr", "15"]) == EXIT_OK
    from_file = capsys.readouterr().out
    assert main(["analyze", "--seed", "5", "--tr", "15"]) == EXIT_OK
    generated = capsys.readouterr().out
    assert from_file == generated


def test_report_single_seed(capsys):
    assert main(["report", "--seeds", "5", "--tr", "10"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "X[0]" in lines[1]
    data = [ln for ln in lines[3:] if ln.strip()]
    assert len(data) == 1
    assert data[0].split()[0] == "5"
    assert "2.584982" in data[0]


def test_report_deterministic(capsys):
    assert main(["report", "--seeds", "0,3", "--tr", "10,15"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["report", "--seeds", "0,3", "--tr", "10,15"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_report_agreement_json(capsys):
    assert main(["report", "--kind", "agreement", "--format", "json"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["totals"]["constants"]["matched"] == 20
    assert doc["totals"]["autocorrelation_verdicts"]["matched"] == 40


def test_report_packet_diff_text(capsys):
    assert main(["report", "--kind", "packet-diff"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "generator" in out
    assert "reconstructed/uniform" in out


def test_report_to_file(tmp_path, capsys):
    out = tmp_path / "batch.txt"
    assert main(["report", "--seeds", "0", "--tr", "10",
                 "--out", str(out)]) == EXIT_OK
    assert "report: kind=batch" in capsys.readouterr().out
    assert "X[0]" in out.read_text()


def test_constants_file_override(tmp_path, capsys):
    table = tmp_path / "constants.json"
    table.write_text("[1.5, 2.5]")
    out = tmp_path / "dep.csv"
    assert main(["deploy", "--seed", "0", "--constants-file", str(table),
                 "--out", str(out)]) == EXIT_OK
    summary = capsys.readouterr().out
    assert "a=1.500000" in summary
    assert "c=2.500000" in summary


@pytest.mark.parametrize("text", ["[null, 2]", "[[1], 2]", "[true, 2]", '["1.5", 2]'])
def test_constants_file_non_number_errors(text, tmp_path, capsys):
    # null and [1] used to die with a TypeError; true and "1.5" were read as numbers
    table = tmp_path / "constants.json"
    table.write_text(text)
    out = tmp_path / "dep.csv"
    assert main(["deploy", "--constants-file", str(table), "--out", str(out)]) == EXIT_ERROR
    assert "JSON array of finite numbers" in _single_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_constants_file_invalid(tmp_path, capsys):
    table = tmp_path / "constants.json"
    table.write_text('{"not": "a list"}')
    out = tmp_path / "dep.csv"
    assert main(["deploy", "--constants-file", str(table),
                 "--out", str(out)]) == EXIT_ERROR
    capsys.readouterr()


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == EXIT_OK
    assert "wsngen" in capsys.readouterr().out
    assert main(["--help"]) == EXIT_OK
    assert "deploy" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == EXIT_ERROR
    assert main([]) == EXIT_ERROR
    capsys.readouterr()


def test_bad_flag_value_exits_one(capsys):
    assert main(["deploy", "--mode", "hex"]) == EXIT_ERROR
    # the packet recurrences take no seed, so traffic has no --seed flag
    assert main(["traffic", "--seed", "3"]) == EXIT_ERROR
    capsys.readouterr()


def _single_error_line(err: str) -> str:
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("wsngen: error: ")
    return err


def test_validate_classes_beyond_table_errors(capsys):
    # 600 nodes satisfy the N >= 5 * classes rule, so only the table range refuses
    assert main(["validate", "--nodes", "600", "--classes", "102"]) == EXIT_ERROR
    err = _single_error_line(capsys.readouterr().err)
    assert "2..101" in err


def test_cli_import_and_validate_load_no_scipy(fresh_python):
    # scipy costs most of a cold start; only the tests may import it
    script = (
        "import sys, wsngen, wsngen.cli\n"
        "wsngen.cli.main(['validate', '--seed', '1', '--format', 'json'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)\n"
    )
    assert fresh_python(script) == "[]"


@pytest.mark.parametrize("argvs, loaded", [
    (None, False),
    ([["deploy"]], False),
    ([["deploy", "--format", "json"]], False),
    ([["traffic"]], False),
    ([["traffic", "--format", "json", "--dist", "exp-transform"]], False),
    ([["analyze"]], False),
    ([["validate", "--format", "json"]], False),
    ([["deploy"], ["validate", "--in", "deployment.csv"]], False),
    ([["deploy", "--format", "json"], ["validate", "--in", "deployment.json"]], False),
    ([["traffic"], ["validate", "--in", "traffic.csv"]], False),
    ([["report", "--kind", "batch"]], False),
    ([["analyze", "--nodes", "600"]], True),
], ids=["import", "deploy-csv", "deploy-json", "traffic-csv", "traffic-json", "analyze",
        "validate-json", "validate-in-csv", "validate-in-json", "validate-in-traffic-csv",
        "report-batch", "analyze-600-nodes"])
def test_import_deploy_and_traffic_leave_numpy_unloaded(argvs, loaded, fresh_python, tmp_path):
    # importing numpy was about half of a cold deploy or traffic, which never
    # use it, and of analyze, validate and report below 512 points per stream.
    # dataclasses, which loads inspect, cost about as much as generating 100
    # points; numpy loads inspect itself
    run = "import wsngen\n" if argvs is None else "import wsngen.cli\n" + "".join(
        f"assert wsngen.cli.main({argv!r}) == 0\n" for argv in argvs)
    script = "import sys\n" + run + (
        "print([m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules], file=sys.stderr)\n")
    assert fresh_python(script, cwd=tmp_path) == str(["numpy", "inspect"] if loaded else [])
    written = sum(argv[0] in ("deploy", "traffic") for argv in argvs or ())
    assert len(list(tmp_path.iterdir())) == written


@pytest.mark.parametrize("argvs, unused", [
    ([["deploy"]], ("wsngen.traffic",)),
    ([["deploy", "--format", "json"]], ("wsngen.traffic",)),
    ([["analyze"]], ("wsngen.traffic",)),
    ([["validate", "--format", "json"]], ("wsngen.traffic",)),
    ([["deploy"], ["validate", "--in", "deployment.csv"]], ("wsngen.traffic",)),
    ([["deploy", "--format", "json"], ["validate", "--in", "deployment.json"]], ("wsngen.traffic",)),
    ([["report", "--kind", "batch", "--seeds", "1,2"]], ("wsngen._reference", "wsngen.traffic")),
    (None, ("wsngen.deployment", "wsngen.traffic")),
], ids=["deploy-csv", "deploy-json", "analyze", "validate-json", "validate-in-csv",
        "validate-in-json", "report-batch-seeds", "import-validation"])
def test_command_leaves_the_modules_it_does_not_run_unloaded(argvs, unused, fresh_python, tmp_path):
    # a cold process compiles every module it imports from source when it
    # may not write bytecode, so a module a command never runs costs it time.
    # The battery reads a dataset by its fields, so it imports no record module
    run = "import wsngen.validation\n" if argvs is None else "import wsngen.cli\n" + "".join(
        f"assert wsngen.cli.main({argv!r}) == 0\n" for argv in argvs)
    script = "import sys\n" + run + f"print([m for m in {unused!r} if m in sys.modules], file=sys.stderr)\n"
    assert fresh_python(script, cwd=tmp_path) == "[]"


@pytest.mark.parametrize("name, argv", [
    ("batch.txt", ["report", "--kind", "batch"]),
    ("agreement.txt", ["report", "--kind", "agreement"]),
    ("agreement.json", ["report", "--kind", "agreement", "--format", "json"]),
    ("packet_diff.txt", ["report", "--kind", "packet-diff"]),
    ("packet_diff.json", ["report", "--kind", "packet-diff", "--format", "json"]),
])
def test_committed_reports_regenerate_byte_for_byte(name, argv, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    committed = Path(__file__).resolve().parents[1] / "reports" / name
    assert out.read_bytes() == committed.read_bytes()


def _poison_row(path, row: int, value: str) -> None:
    """Overwrite the first coordinate or slot of 1-based data row `row`."""
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        cells = lines[row].split(",")
        cells[1] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    else:
        doc = json.loads(path.read_text())
        key = "points" if "points" in doc else "values"
        doc[key][row - 1][0] = float(value)
        path.write_text(json.dumps(doc))


@pytest.mark.parametrize("command, fmt, value", [
    ("deploy", "csv", "nan"),
    ("deploy", "json", "inf"),
    ("traffic", "csv", "-inf"),
    ("traffic", "json", "nan"),
])
def test_validate_non_finite_input_errors(command, fmt, value, tmp_path, capsys):
    data = tmp_path / f"data.{fmt}"
    assert main([command, "--format", fmt, "--out", str(data)]) == EXIT_OK
    _poison_row(data, 37, value)
    capsys.readouterr()
    assert main(["validate", "--in", str(data)]) == EXIT_ERROR
    err = _single_error_line(capsys.readouterr().err)
    assert f"{data}: row 37: non-finite" in err


def test_analyze_non_finite_csv_errors(tmp_path, capsys):
    data = tmp_path / "dep.csv"
    assert main(["deploy", "--out", str(data)]) == EXIT_OK
    _poison_row(data, 50, "nan")
    capsys.readouterr()
    assert main(["analyze", "--in", str(data)]) == EXIT_ERROR
    assert "row 50" in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [["analyze", "--tr", "nan"],
                                  ["report", "--seeds", "1", "--tr", "10,nan"]])
def test_nan_range_errors(argv, capsys):
    # a nan range used to pass the tr > 0 check and count every node isolated
    assert main(argv) == EXIT_ERROR
    assert "tr must be positive" in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("command", ["deploy", "traffic"])
def test_validate_json_meta_missing_field_errors(command, tmp_path, capsys):
    data = tmp_path / "data.json"
    assert main([command, "--format", "json", "--out", str(data)]) == EXIT_OK
    doc = json.loads(data.read_text())
    del doc["meta"]["seed"]
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--in", str(data)]) == EXIT_ERROR
    assert "meta lacks field 'seed'" in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("entry", [5, None, [1.0, None], [1.0, 2.0, 3.0], "12", [True, 2.0]])
def test_validate_malformed_json_point_errors(entry, tmp_path, capsys):
    data = tmp_path / "dep.json"
    assert main(["deploy", "--format", "json", "--out", str(data)]) == EXIT_OK
    doc = json.loads(data.read_text())
    doc["points"][9] = entry
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--in", str(data)]) == EXIT_ERROR
    _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv", [
    ["deploy", "--area", "nan"],
    ["deploy", "--area", "inf"],
    ["deploy", "--mode", "grid", "--area", "inf"],
    ["traffic", "--pmin", "nan"],
    ["traffic", "--pmax", "inf"],
    ["traffic", "--dist", "exp-transform", "--lambda", "nan"],
    ["traffic", "--dist", "exp-transform", "--lambda", "inf"],
])
def test_non_finite_generation_arguments_error(argv, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    assert "finite" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["deploy", "--area", "1e308", "--nodes", "2000"],
    ["deploy", "--mode", "grid", "--area", "1e308", "--nodes", "2000"],
    ["traffic", "--pmax", "1e308"],
    ["traffic", "--dist", "exp-transform", "--pmax", "1e308"],
    ["traffic", "--dist", "exp-recurrence", "--pmax", "1e308", "--nodes", "1000"],
    ["traffic", "--dist", "exp-transform", "--lambda", "1e-320"],
    ["deploy", "--seed", "1" + "0" * 400],
])
def test_overflowing_generation_errors(argv, tmp_path, capsys):
    # each of these used to write nan rows, or die with an OverflowError traceback
    out = tmp_path / "out.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    assert "float range" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["deploy", "--seed", str(2**53)],
    ["analyze", "--seed", str(2**60)],
    ["validate", "--seed", str(2**60 + 14)],
    ["report", "--seeds", f"0,{2**53}"],
])
def test_seeds_from_2_53_error(argv, tmp_path, capsys):
    # past 2**53 neighbouring seeds start the chain from one float
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == EXIT_ERROR
    assert "seed must be below 2**53" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bounds", [["--pmin", "nan"], ["--pmax", "inf"], ["--pmin", "-1"]])
def test_validate_traffic_csv_bad_bounds_error(bounds, tmp_path, capsys):
    data = tmp_path / "traffic.csv"
    assert main(["traffic", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    report = tmp_path / "report.txt"
    assert main(["validate", "--in", str(data), *bounds, "--out", str(report)]) == EXIT_ERROR
    assert "must be finite" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("text",['{"meta": 5, "points": []}',
                                  '{"meta": ["kind"], "values": []}',
                                  '{"points": []}'])
def test_validate_json_meta_not_an_object_errors(text, tmp_path, capsys):
    data = tmp_path / "data.json"
    data.write_text(text)
    assert main(["validate", "--in", str(data)]) == EXIT_ERROR
    assert "'meta' is an object" in _single_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("area", ["nan", "inf", "0", "-5"])
def test_validate_deployment_csv_bad_area_error(area, tmp_path, capsys):
    # nan was an IndexError traceback, inf normalized every point to 0
    data = tmp_path / "dep.csv"
    assert main(["deploy", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    report = tmp_path / "report.txt"
    assert main(["validate", "--in", str(data), "--area", area, "--out", str(report)]) == EXIT_ERROR
    assert "area must be positive and finite" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [data]


@pytest.mark.parametrize("command, key, index, value, message", [
    ("deploy", "meta", "area", "x", "meta field 'area' must be a finite number"),
    ("traffic", "meta", "p_min", "2", "meta field 'p_min' must be a finite number"),
    ("deploy", "meta", "seed", True, "meta field 'seed' must be a finite number"),
    ("traffic", "meta", "a", None, "meta field 'a' must be a finite number"),
    ("deploy", "meta", "mode", "bogus", "meta field 'mode' must be 'grid' or 'non-grid'"),
    ("traffic", "values", 3, [2.5], "'values' must be a non-empty list of equal-width rows"),
    ("traffic", "meta", "rate", True, "meta field 'rate' must be null or a finite number"),
    ("traffic", "meta", "rate", "x", "meta field 'rate' must be null or a finite number"),
    ("deploy", "meta", "y_increment", "z", "meta field 'y_increment' must be 'a' or 'c'"),
    ("deploy", "meta", "node_count", 99, "meta field 'node_count' is 99, but 'points' gives 100"),
    ("traffic", "meta", "node_count", 81, "meta field 'node_count' is 81, but 'values' gives 80"),
    ("traffic", "meta", "slot_count", 4, "meta field 'slot_count' is 4, but 'values' gives 5"),
    ("deploy", "meta", "area", -5, "area must be positive and finite, got -5"),
    ("deploy", "meta", "area", 0, "area must be positive and finite, got 0"),
    ("traffic", "meta", "p_max", 2.0, "p_max must be finite and exceed p_min, got 2.0"),
    ("traffic", "meta", "p_min", -3.0, "p_min must be finite and >= 0, got -3.0"),
], ids=["area-string", "p_min-string", "seed-bool", "a-null", "mode-bogus", "ragged-values",
        "rate-bool", "rate-string", "y_increment-bogus", "node_count-points", "node_count-values",
        "slot_count-values", "area-negative", "area-zero", "p_max-not-above-p_min", "p_min-negative"])
def test_validate_malformed_json_document_errors(command, key, index, value, message,
                                                 tmp_path, capsys):
    data = tmp_path / "data.json"
    assert main([command, "--format", "json", "--out", str(data)]) == EXIT_OK
    doc = json.loads(data.read_text())
    doc[key][index] = value
    data.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", "--in", str(data)]) == EXIT_ERROR
    err = _single_error_line(capsys.readouterr().err)
    assert f"{data}: " in err and message in err


@pytest.mark.parametrize("dist, pmin, pmax", [
    ("uniform", "10000000000000.9", "10000000000000.902"),
    ("exp-transform", "60000000000000.73", "60000000000000.734"),
    ("exp-recurrence", "10000000000000.9", "10000000000000.902"),
])
def test_traffic_rounding_onto_pmax_validates(dist, pmin, pmax, tmp_path, capsys):
    # p_min + r with r < span rounds onto p_max for some cells of each of these;
    # the files used to hold p_max and fail validate's range check with exit 1
    data = tmp_path / "t.json"
    assert main(["traffic", "--dist", dist, "--pmin", pmin, "--pmax", pmax,
                 "--format", "json", "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    assert main(["validate", "--in", str(data)]) in (EXIT_OK, EXIT_REJECTED)


@pytest.mark.parametrize("command, fmt", [("deploy", "json"), ("traffic", "csv"), ("traffic", "json")])
def test_analyze_reads_deployment_files_only(command, fmt, tmp_path, capsys):
    data = tmp_path / f"data.{fmt}"
    assert main([command, "--format", fmt, "--out", str(data)]) == EXIT_OK
    capsys.readouterr()
    if command == "deploy":
        assert main(["analyze", "--in", str(data)]) == EXIT_OK
        from_file = capsys.readouterr().out
        assert main(["analyze"]) == EXIT_OK
        assert from_file == capsys.readouterr().out
    else:
        assert main(["analyze", "--in", str(data)]) == EXIT_ERROR
        assert "analyze reads deployment files" in _single_error_line(capsys.readouterr().err)


_DEEP = 200_000


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_deeply_nested_json_input_errors(command, tmp_path, capsys):
    # json.load's RecursionError used to escape as a traceback
    data = tmp_path / "dep.json"
    data.write_text('{"meta": {"kind": "deployment"}, "points": ' + "[" * _DEEP + "]" * _DEEP + "}")
    out = tmp_path / "out.csv"
    assert main([command, "--in", str(data), "--out", str(out)]) == EXIT_ERROR
    assert "nested too deeply" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [data]


def test_deeply_nested_constants_file_errors(tmp_path, capsys):
    table = tmp_path / "constants.json"
    table.write_text("[" * _DEEP + "]" * _DEEP)
    out = tmp_path / "dep.csv"
    assert main(["deploy", "--constants-file", str(table), "--out", str(out)]) == EXIT_ERROR
    assert "nested too deeply" in _single_error_line(capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [table]


def test_output_files_get_the_mode_open_gives(tmp_path, capsys):
    # the temp file used to come from mkstemp, whose 0600 mode the rename kept
    with open(tmp_path / "plain", "w"):
        pass
    plain = os.stat(tmp_path / "plain").st_mode
    runs = [("dep.csv", ["deploy"]), ("dep.json", ["deploy", "--format", "json"]),
            ("edges.csv", ["analyze"]), ("report.txt", ["validate"]),
            ("batch.txt", ["report", "--seeds", "0", "--tr", "10"])]
    for name, argv in runs:
        assert main(argv + ["--out", str(tmp_path / name)]) in (EXIT_OK, EXIT_REJECTED)
    capsys.readouterr()
    wsngen.traffic_to_csv(wsngen.traffic_uniform(4, 2, 2.0, 10.0), tmp_path / "lib.csv")
    for name in [name for name, _ in runs] + ["lib.csv"]:
        assert os.stat(tmp_path / name).st_mode == plain, name


@pytest.mark.parametrize("command", [["deploy"], ["traffic", "--format", "json"], ["validate"],
                                     ["report", "--seeds", "0", "--tr", "10"]])
def test_output_onto_a_directory_errors(command, tmp_path, capsys):
    target = tmp_path / "taken"
    target.mkdir()
    assert main(command + ["--out", str(target)]) == EXIT_ERROR
    # the message names the output, not the temp file beside it
    assert _single_error_line(capsys.readouterr().err).endswith(f"Is a directory: {str(target)!r}\n")
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize("command", [["deploy"], ["traffic", "--format", "json"], ["validate"]])
def test_output_into_a_missing_directory_errors(command, tmp_path, capsys):
    target = tmp_path / "nodir" / "out"
    assert main(command + ["--out", str(target)]) == EXIT_ERROR
    assert _single_error_line(capsys.readouterr().err).endswith(
        f"No such file or directory: {str(target)!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--seeds", ""], ["--seeds", " , "], ["--tr", ""]])
def test_report_empty_list_errors(argv, capsys):
    # --seeds "" used to report the 20 recorded seeds
    assert main(["report"] + argv) == EXIT_ERROR
    assert "expected a comma-separated list" in _single_error_line(capsys.readouterr().err)


def test_report_json_refuses_an_infinite_range(tmp_path, capsys):
    # the batch document held a bare Infinity, which is not JSON; the text
    # report heads the column TR=inf and still counts
    out = tmp_path / "report.json"
    argv = ["report", "--seeds", "0", "--tr", "10,inf", "--out", str(out)]
    assert main(argv + ["--format", "json"]) == EXIT_ERROR
    assert "not JSON compliant" in _single_error_line(capsys.readouterr().err)
    assert not out.exists()
    assert main(argv) == EXIT_OK
    assert "TR=inf" in out.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the CLI contract over drawn arguments

_EXTREMES = (0.0, -1.0, -1e300, math.nan, math.inf, -math.inf, 1e-300, 1e300)
_VALUES = st.one_of(st.floats(0.01, 500.0), st.sampled_from(_EXTREMES))
_SEEDS = st.one_of(st.integers(0, 10**6), st.sampled_from([-1, -10**6, 2**53, 10**300, 10**400]))


def _nodes(most: int):
    return st.one_of(st.integers(1, most), st.sampled_from([0, -1, -2000]))


def _comma_list(elements, text, min_size=0):
    return st.lists(elements, min_size=min_size, max_size=3).map(lambda v: ",".join(map(text, v)))


# each flag is an (ordinary, wild) pair and one flag in four is drawn wild, so
# most runs get past the argument checks to the output checks. The wild draws
# hold the extremes: counts of 0 or below, seeds that are negative or >= 2**53,
# values of 0, nan or +-inf; a flag with no extremes draws from one set.
_FLOAT = (st.floats(0.01, 500.0), _VALUES)
_MODES = (st.sampled_from(["non-grid", "grid"]),) * 2


def _deployment_flags(most: int, fewest: int = 1) -> dict:
    return {"nodes": (st.integers(fewest, most), _nodes(most)), "area": _FLOAT,
            "seed": (st.integers(0, 10**6), _SEEDS), "mode": _MODES}


# report runs the graph and the battery once per seed and mode, so its seed
# lists may also be empty, and its graph, as for analyze, has 300 nodes at most
_REPORT_FLAGS = {
    "seeds": (_comma_list(st.integers(0, 10**6), str, 1), _comma_list(_SEEDS, str)),
    "tr": (_comma_list(st.floats(0.01, 500.0), repr, 1), _comma_list(_VALUES, repr)),
    "nodes": (st.integers(50, 300), _nodes(300)),
    "area": (st.floats(0.01, 500.0), _VALUES),
    "epsilon": (st.floats(0.0, 500.0), _VALUES),
}


def _read_deploy(out, fmt, flags):
    points = deployment_from_json(out).points if fmt == "json" else points_from_csv(out)
    assert len(points) == flags["nodes"]
    assert all(0.0 <= v < flags["area"] for p in points for v in p)


def _read_traffic(out, fmt, flags):
    values = traffic_from_json(out).values if fmt == "json" else matrix_from_csv(out)
    assert [len(row) for row in values] == [5] * flags["nodes"]  # the default --slots
    assert all(flags["pmin"] <= v < flags["pmax"] for row in values for v in row)


def _read_analyze(out, fmt, flags):
    if fmt == "json":
        doc = read_document(out)
        edges = doc["edges"]
        assert doc["meta"]["edge_count"] == len(edges)
    else:
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["u", "v", "distance"]
        edges = [(int(u), int(v), float(d)) for u, v, d in rows[1:]]
    for u, v, d in edges:
        assert 1 <= u < v <= flags["nodes"]
        assert 0.0 <= d <= flags["tr"] + flags["epsilon"]


def _refuse_constant(name):
    raise ValueError(f"non-finite number in the report: {name}")


def _read_report(out, fmt, flags):
    seeds = sorted({int(s) for s in flags["seeds"].split(",")})
    ranges = len(flags["tr"].split(","))
    if fmt == "json":
        doc = json.loads(Path(out).read_text(encoding="utf-8"), parse_constant=_refuse_constant)
        rows = [[r["seed"]] + [v for m in r["modes"].values() for v in (*m["isolated"], m["ks"],
                m["chi2"], m["autocorrelation"])] for r in doc["rows"]]
    else:  # a banner, the column heads and a rule, then one row per seed
        rows = [line.split() for line in Path(out).read_text(encoding="utf-8").splitlines()[3:]]
        rows = [[int(r[0])] + r[3:] for r in rows]
    assert [r[0] for r in rows] == seeds
    for r in rows:
        assert len(r) == 1 + 2 * (ranges + 3)
        for mode in (r[1:ranges + 4], r[ranges + 4:]):
            assert all(0 <= int(n) <= flags["nodes"] for n in mode[:ranges])
            assert set(mode[ranges:]) <= {"Satisfied", "Rejected"}


def _read_validate(out, fmt, code, stdout):
    text = Path(out).read_text(encoding="utf-8")
    if fmt == "text":
        assert stdout == text
        return
    reports = json.loads(text)
    assert all(math.isfinite(r["statistic"]) and math.isfinite(r["critical_value"]) for r in reports)
    assert code == (EXIT_OK if all(r["verdict"] == "Satisfied" for r in reports) else EXIT_REJECTED)


@st.composite
def _invocations(draw, command):
    """(argv, format, flags) for one run of command."""
    fmt = draw(st.sampled_from(["text", "json"] if command in ("validate", "report") else ["csv", "json"]))
    if command == "traffic":
        # ordinary bounds never cross
        pairs = {"nodes": (st.integers(1, 2000), _nodes(2000)), "pmin": (st.floats(0.0, 250.0), _VALUES),
                 "pmax": (st.floats(250.5, 500.0), _VALUES), "lambda": _FLOAT,
                 "dist": (st.sampled_from(["uniform", "exp-transform", "exp-recurrence"]),) * 2}
    elif command == "analyze":
        # all pairs of 2000 nodes would be 2 million edges, most of a gigabyte
        pairs = {**_deployment_flags(300), "tr": _FLOAT, "epsilon": (st.floats(0.0, 500.0), _VALUES)}
    elif command == "report":
        pairs = _REPORT_FLAGS
    else:  # the battery's chi-square needs 50 values a stream at its 10 classes
        pairs = _deployment_flags(2000, 50 if command == "validate" else 1)
    flags = {name: draw(wild if draw(st.integers(0, 3)) == 0 else ordinary)
             for name, (ordinary, wild) in pairs.items()}
    argv = [command, "--format", fmt] + [
        f"--{name}={value}" if isinstance(value, str) else f"--{name}={value!r}"
        for name, value in flags.items()]
    if command in ("analyze", "validate"):
        # half the runs read an --in file of some kind instead of generating
        source = draw(st.one_of(st.none(), st.sampled_from(_IN_FILES)))
        if source:
            flags.update(source=source, nodes=_IN_NODES)
    return argv, fmt, flags


_READERS = {"deploy": _read_deploy, "traffic": _read_traffic, "analyze": _read_analyze,
            "report": _read_report}

# the --in files drawn for analyze and validate: every kind and format this
# package writes, and two files no command reads. The deployments hold the
# default 100 nodes
_IN_FILES = ("deployment.csv", "deployment.json", "traffic.csv", "traffic.json",
             "graph.csv", "graph.json", "array.json", "empty.csv")
_IN_NODES = 100


@pytest.fixture(scope="module")
def in_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("in")
    for name in _IN_FILES:
        _write_in_file(directory / name)
    return directory


@pytest.mark.parametrize("command", ["deploy", "traffic", "analyze", "validate", "report"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_contract_over_drawn_arguments(command, tmp_path_factory, in_files, data):
    # every run exits 0 (or 2 for validate) with a finite, in-range output that
    # reads back, or exits 1 with one error line, no output and no temp file
    argv, fmt, flags = data.draw(_invocations(command))
    if "source" in flags:
        argv += ["--in", str(in_files / flags["source"])]
    directory = tmp_path_factory.mktemp("contract")
    out = str(directory / f"out.{fmt}")
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv + ["--out", out])
    assert not [f for f in os.listdir(directory) if f.startswith(".wsngen-")]
    if code == EXIT_ERROR:
        _single_error_line(stderr.getvalue())
        assert not os.path.exists(out)
        return
    assert stderr.getvalue() == ""
    if command == "validate":
        _read_validate(out, fmt, code, stdout.getvalue())
    else:
        assert code == EXIT_OK
        _READERS[command](out, fmt, flags)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_validate_traffic_csv_contract_over_drawn_bounds(tmp_path_factory, data):
    # a traffic CSV holds no bounds, so --pmin and --pmax supply them: drawn
    # here, half the time as the bounds the file was generated with
    directory = tmp_path_factory.mktemp("contract")
    source = directory / "traffic.csv"
    low = data.draw(st.floats(0.0, 500.0))
    high = low + data.draw(st.floats(0.01, 500.0))
    traffic_to_csv(traffic_uniform(data.draw(st.integers(1, 200)), 5, low, high), source)
    pmin = data.draw(st.one_of(st.just(low), _VALUES))
    pmax = data.draw(st.one_of(st.just(high), _VALUES))
    out = directory / "report.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["validate", "--in", str(source), f"--pmin={pmin!r}", f"--pmax={pmax!r}",
                     "--format", "json", "--out", str(out)])
    assert not [f for f in os.listdir(directory) if f.startswith(".wsngen-")]
    if code == EXIT_ERROR:
        _single_error_line(stderr.getvalue())
        assert not out.exists()
        return
    assert stderr.getvalue() == ""
    matrix = TrafficMatrix(values=matrix_from_csv(source), p_min=pmin, p_max=pmax,
                           distribution=None, params=None)
    reports = run_suite(matrix)
    assert out.read_text(encoding="utf-8") == reports_to_json(reports) + "\n"
    assert code == (EXIT_OK if suite_satisfied(reports) else EXIT_REJECTED)
