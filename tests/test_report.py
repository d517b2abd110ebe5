"""Batch, agreement, and packet-diff reporting."""

import json

import pytest

from wsngen import _reference as ref
from wsngen.deployment import deploy_grid, deploy_nongrid
from wsngen.generator import derive_constants
from wsngen.report import (
    batch_report,
    batch_row,
    packet_diff_report,
    reconstruct_reference_chain,
    reference_agreement_report,
    render_agreement_text,
    render_packet_diff_text,
    render_report_json,
    render_report_text,
)
from wsngen.topology import build_graph, isolated_count


def test_batch_row_fields():
    row = batch_row(5)
    assert row["seed"] == 5
    assert (row["a"], row["c"]) == derive_constants(5)
    for mode in ("non-grid", "grid"):
        m = row["modes"][mode]
        assert len(m["isolated"]) == 3
        for key in ("ks", "chi2", "autocorrelation", "circular"):
            assert m[key] in ("Satisfied", "Rejected")


def test_batch_row_isolated_per_listed_range():
    # one count per listed range, repeats and epsilon included, each equal
    # to the count of that range's own graph
    ranges = (15.0, 10.0, 15.0, 7.5)
    row = batch_row(4, ranges=ranges, epsilon=1.25)
    for mode, deploy in (("non-grid", deploy_nongrid), ("grid", deploy_grid)):
        dep = deploy(100, 100.0, 4)
        expect = tuple(isolated_count(build_graph(dep, tr, 1.25)) for tr in ranges)
        assert row["modes"][mode]["isolated"] == expect


def test_batch_report_sorts_and_dedups():
    rows = batch_report([7, 3, 7, 0])
    assert [r["seed"] for r in rows] == [0, 3, 7]
    with pytest.raises(ValueError):
        batch_report([])


def test_batch_report_determinism():
    assert batch_report([12]) == batch_report([12])


def test_render_report_text_layout():
    rows = batch_report([0, 3])
    text = render_report_text(rows)
    lines = text.splitlines()
    assert "non-grid" in lines[0] and "grid" in lines[0]
    assert lines[1].startswith("X[0]")
    assert "KS-Test" in lines[1]
    assert "Autocorrelation Test" in lines[1]
    assert len(lines) == 3 + len(rows)
    assert lines[3].split()[0] == "0"


def test_render_report_json_parses():
    rows = batch_report([0])
    doc = json.loads(render_report_json(rows))
    assert doc["kind"] == "batch-report"
    assert doc["ranges"] == [10.0, 15.0, 20.0]
    assert doc["rows"][0]["seed"] == 0
    assert doc["rows"][0]["modes"]["grid"]["isolated"] == list(
        rows[0]["modes"]["grid"]["isolated"]
    )


def test_agreement_report_totals():
    result = reference_agreement_report()
    totals = result["totals"]
    assert totals["constants"] == {"matched": 20, "of": 20}
    assert totals["isolated_cells"]["of"] == 120
    assert totals["ks_verdicts"]["of"] == 40
    assert totals["chi2_verdicts"]["of"] == 40
    # the recorded autocorrelation column is fully reproduced
    assert totals["autocorrelation_verdicts"] == {"matched": 40, "of": 40}
    assert len(result["rows"]) == 20
    for detail in result["rows"]:
        assert detail["constants_match"]
        for mode in ("non-grid", "grid"):
            m = detail["modes"][mode]
            assert len(m["isolated_match"]) == 3
            assert set(m["verdicts_match"]) == {"ks", "chi2", "autocorrelation"}


def test_agreement_regression_frozen_totals():
    # frozen agreement profile of this implementation against the recorded
    # results; a change here means generation or verdict logic moved
    totals = reference_agreement_report()["totals"]
    assert totals["isolated_cells"]["matched"] == 52
    assert totals["ks_verdicts"]["matched"] == 19
    assert totals["chi2_verdicts"]["matched"] == 28


def test_agreement_text_rendering():
    result = reference_agreement_report()
    text = render_agreement_text(result)
    assert "constants matched" in text
    assert "isolated cells matched" in text
    assert "ks verdicts matched" in text
    for seed in ref.GOLDEN_SEEDS:
        assert ("seed %-5d" % seed).rstrip() in text


def test_reconstructed_chain_prefix():
    uniform, exponential = reconstruct_reference_chain()
    assert len(uniform) == 400
    assert len(exponential) == 400
    assert round(uniform[0], 2) == 6.06
    assert round(exponential[0], 2) == 3.63
    for v in uniform + exponential:
        assert 2.0 <= v < 10.0


def test_packet_diff_report_regression():
    result = packet_diff_report()
    by_name = {e["name"]: e for e in result["entries"]}
    assert set(by_name) == {
        "uniform",
        "exponential-transform",
        "exponential-recurrence",
        "reconstructed/uniform",
        "reconstructed/exponential",
    }
    for entry in by_name.values():
        assert entry["cells"] == 400
        assert entry["in_range"]
    # frozen reproduction profile: the reconstructed chain agrees on a
    # 15-cell prefix (18 total cells for the exponential block), the
    # packaged generators on none
    assert by_name["reconstructed/uniform"]["cells_matched"] == 15
    assert by_name["reconstructed/uniform"]["prefix_matched"] == 15
    assert by_name["reconstructed/exponential"]["cells_matched"] == 18
    assert by_name["reconstructed/exponential"]["prefix_matched"] == 15
    assert by_name["uniform"]["cells_matched"] == 0
    fm = by_name["reconstructed/uniform"]["first_mismatch"]
    assert (fm["node"], fm["slot"]) == (4, 1)
    assert fm["expected"] == 2.54


def test_packet_diff_text_rendering():
    text = render_packet_diff_text(packet_diff_report())
    assert "in-range" in text
    assert "first mismatch" in text
    assert "reconstructed/uniform" in text


def test_reference_tables_shape():
    assert len(ref.REFERENCE_UNIFORM) == 80
    assert len(ref.REFERENCE_EXPONENTIAL) == 80
    assert all(len(row) == 5 for row in ref.REFERENCE_UNIFORM)
    assert all(len(row) == 5 for row in ref.REFERENCE_EXPONENTIAL)
    assert len(ref.GOLDEN_SEEDS) == 20
    assert set(ref.GOLDEN_CONSTANTS) == set(ref.GOLDEN_SEEDS)
    assert set(ref.GOLDEN_ISOLATED) == set(ref.GOLDEN_SEEDS)
    assert set(ref.GOLDEN_VERDICTS) == set(ref.GOLDEN_SEEDS)
