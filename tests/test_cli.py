"""CLI behavior: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wsngen
from wsngen.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECTED, main


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


def test_cli_import_and_validate_load_no_scipy():
    # scipy costs most of a cold start; only the tests may import it
    script = (
        "import sys, wsngen, wsngen.cli\n"
        "wsngen.cli.main(['validate', '--seed', '1', '--format', 'json'])\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')), file=sys.stderr)\n"
    )
    src = str(Path(wsngen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "[]"


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
