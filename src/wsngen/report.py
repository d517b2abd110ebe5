"""Batch summary reports and agreement checks against the bundled goldens.

Three report families; only the last two load the recorded results, and
only the packet diff loads the traffic generators:

* ``batch_report`` regenerates deployments for a seed list and tabulates
  derived constants, isolated-node counts per transmission range, and the
  statistical verdicts for both deployment modes.
* ``reference_agreement_report`` reruns the golden configuration and counts,
  cell by cell, where this implementation lands on the recorded results.
* ``packet_diff_report`` compares every traffic generator (plus the
  reconstructed chain below) against the recorded packet matrices.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .deployment import DEPLOYERS
from .generator import DEFAULT_TABLE, EXTENDED_TABLE, derive_constants, stream
from .topology import isolated_by_range
from .validation import SuiteConfig, aggregate_verdicts, run_suite

MODES = tuple(DEPLOYERS)
VERDICT_TESTS = ("ks", "chi2", "autocorrelation")
# a packet cell agrees when it rounds to the recorded two-decimal value
PACKET_TOLERANCE = 0.005


def batch_row(
    seed: int,
    node_count: int = 100,
    area: float = 100.0,
    ranges: Sequence[float] = (10.0, 15.0, 20.0),
    *,
    config: Optional[SuiteConfig] = None,
    table: Sequence[float] = DEFAULT_TABLE,
    epsilon: float = 0.0,
) -> dict:
    """One row: seed, derived constants, per-mode counts and verdicts. The
    constants are the ones every deployment of the row records in its params."""
    modes = {}
    for mode in MODES:
        dep = DEPLOYERS[mode](node_count, area, seed, table=table)
        counts = isolated_by_range(dep, ranges, epsilon)
        modes[mode] = {
            "isolated": tuple([counts[float(tr)] for tr in ranges]),
            **aggregate_verdicts(run_suite(dep, config)),
        }
    return {"seed": seed, "a": dep.params.a, "c": dep.params.c, "modes": modes}


def batch_report(
    seeds: Sequence[int],
    node_count: int = 100,
    area: float = 100.0,
    ranges: Sequence[float] = (10.0, 15.0, 20.0),
    *,
    config: Optional[SuiteConfig] = None,
    table: Sequence[float] = DEFAULT_TABLE,
    epsilon: float = 0.0,
) -> list[dict]:
    """Rows for each distinct seed, ascending, so output is deterministic."""
    if not seeds:
        raise ValueError("seed list must be non-empty")
    return [
        batch_row(s, node_count, area, ranges, config=config, table=table, epsilon=epsilon)
        for s in sorted(set(seeds))
    ]


def render_report_json(rows: Sequence[dict], ranges: Sequence[float] = (10.0, 15.0, 20.0)) -> str:
    return json.dumps({"kind": "batch-report", "ranges": list(ranges), "rows": rows},
                      indent=2, allow_nan=False)


def render_report_text(rows: Sequence[dict], ranges: Sequence[float] = (10.0, 15.0, 20.0)) -> str:
    """Fixed-width table: constants, then per-mode counts and verdicts."""
    tr_heads = ["TR=%g" % tr for tr in ranges]
    mode_heads = tr_heads + ["KS-Test", "Chi2Test", "Autocorrelation Test"]
    header = ["X[0]", "a value", "c value"] + mode_heads * len(MODES)

    body = []
    for r in rows:
        cells = [str(r["seed"]), "%.6f" % r["a"], "%.6f" % r["c"]]
        for mode in MODES:
            m = r["modes"][mode]
            cells.extend(str(n) for n in m["isolated"])
            cells.extend([m["ks"], m["chi2"], m["autocorrelation"]])
        body.append(cells)

    widths = [len(h) for h in header]
    for cells in body:
        for i, cell in enumerate(cells):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells):
        return "  ".join(cell.ljust(w) for cell, w in zip(cells, widths)).rstrip()

    # group banner centred over each mode's column block
    per_mode = len(mode_heads)
    banner_cells = ["", "", ""]
    group_spans = []
    for mi, mode in enumerate(MODES):
        cols = widths[3 + mi * per_mode: 3 + (mi + 1) * per_mode]
        group_spans.append((mode, sum(cols) + 2 * (len(cols) - 1)))
    banner = "  ".join(c.ljust(w) for c, w in zip(banner_cells, widths[:3]))
    for mode, span in group_spans:
        banner += "  " + mode.center(span)
    lines = [banner.rstrip(), fmt(header), "-" * len(fmt(header))]
    lines.extend(fmt(cells) for cells in body)
    return "\n".join(lines) + "\n"


def reference_agreement_report(*, config: Optional[SuiteConfig] = None) -> dict:
    """Rerun the golden configuration and tally agreement cell by cell.

    The recorded results omit the deployment size they were produced with, so
    this report treats them as targets: every isolated-node cell and verdict
    is compared and counted, never asserted.
    """
    from . import _reference as ref

    rows = batch_report(
        ref.GOLDEN_SEEDS,
        ref.REFERENCE_NODE_COUNT,
        ref.REFERENCE_AREA,
        ref.REFERENCE_RANGES,
        config=config,
    )
    per_seed = []
    for row in rows:
        seed = row["seed"]
        exp_iso = ref.GOLDEN_ISOLATED[seed]
        exp_verd = ref.GOLDEN_VERDICTS[seed]
        exp_a, exp_c = ref.GOLDEN_CONSTANTS[seed]
        modes = {}
        for mi, mode in enumerate(MODES):
            got = row["modes"][mode]
            modes[mode] = {
                "isolated_expected": exp_iso[mi],
                "isolated_actual": got["isolated"],
                "isolated_match": tuple(int(g == e) for g, e in zip(got["isolated"], exp_iso[mi])),
                "verdicts_expected": exp_verd[mi],
                "verdicts_actual": tuple(got[t] for t in VERDICT_TESTS),
                "verdicts_match": {t: got[t] == e for t, e in zip(VERDICT_TESTS, exp_verd[mi])},
            }
        per_seed.append({
            "seed": seed,
            "constants_match": round(row["a"], 6) == exp_a and round(row["c"], 6) == exp_c,
            "modes": modes,
        })
    per_mode = [m for detail in per_seed for m in detail["modes"].values()]
    return {
        "node_count": ref.REFERENCE_NODE_COUNT,
        "area": ref.REFERENCE_AREA,
        "ranges": ref.REFERENCE_RANGES,
        "rows": per_seed,
        "totals": {
            "constants": _tally([detail["constants_match"] for detail in per_seed]),
            "isolated_cells": _tally([hit for m in per_mode for hit in m["isolated_match"]]),
            **{f"{test}_verdicts": _tally([m["verdicts_match"][test] for m in per_mode])
               for test in VERDICT_TESTS},
        },
    }


def _tally(hits: Sequence) -> dict:
    return {"matched": sum(hits), "of": len(hits)}


def render_agreement_text(result: dict) -> str:
    lines = [
        "Reference agreement (n=%d, area=%g, ranges=%s)"
        % (result["node_count"], result["area"], ",".join("%g" % t for t in result["ranges"])),
        "",
    ]
    for detail in result["rows"]:
        lines.append("seed %-5d constants %s" % (detail["seed"], "ok" if detail["constants_match"] else "DIFF"))
        for mode in MODES:
            m = detail["modes"][mode]
            lines.append(
                "  %-8s isolated %s vs %s  verdicts %s vs %s"
                % (
                    mode,
                    "/".join(str(v) for v in m["isolated_actual"]),
                    "/".join(str(v) for v in m["isolated_expected"]),
                    "/".join(v[:3] for v in m["verdicts_actual"]),
                    "/".join(v[:3] for v in m["verdicts_expected"]),
                )
            )
    t = result["totals"]
    lines.append("")
    lines.append("constants matched        %d/%d" % (t["constants"]["matched"], t["constants"]["of"]))
    lines.append("isolated cells matched   %d/%d" % (t["isolated_cells"]["matched"], t["isolated_cells"]["of"]))
    for test in VERDICT_TESTS:
        k = "%s_verdicts" % test
        lines.append("%-24s %d/%d" % (test + " verdicts matched", t[k]["matched"], t[k]["of"]))
    return "\n".join(lines) + "\n"


def reconstruct_reference_chain() -> tuple[list[float], list[float]]:
    """Best reconstruction found for the recorded packet matrices.

    Neither packaged generator reproduces them cell for cell.  A search over
    recurrence variants landed on this one: a single-application chain with
    both constants indexed from floor(p_min) and the start value from
    floor(p_max),

        x[k] = (a * x[k-1] + c) mod span + p_min

    where the uniform block reads x offset by two steps and the exponential
    block is the inverse-CDF transform of x offset by one step.  With the
    full-precision constant table it matches the recorded matrices on a
    15-cell (uniform) / 18-cell (exponential) prefix at printed precision,
    then drifts: the map amplifies float error by ~a per step, so agreement
    beyond a short prefix would need the bit-exact constants of the original
    run.  Returns (uniform_cells, exponential_cells) for the 80 x 5 recorded
    cells, flattened row-major.
    """
    from . import _reference as ref
    from .traffic import exp_entry_from_uniform

    p_min, p_max = ref.REFERENCE_P_MIN, ref.REFERENCE_P_MAX
    count = ref.REFERENCE_TRAFFIC_NODES * ref.REFERENCE_TRAFFIC_SLOTS
    span = p_max - p_min
    a, c = derive_constants(int(p_min), EXTENDED_TABLE)
    x0 = derive_constants(int(p_max), EXTENDED_TABLE)[0]
    chain = stream(x0, a, c, span, count + 1, offset=p_min)
    uniform = chain[1:count + 1]
    exponential = [exp_entry_from_uniform(y, p_min, p_max, 1.0) for y in chain[:count]]
    return uniform, exponential


def _diff_entry(name: str, flat: Sequence[float], reference, p_min: float, p_max: float) -> dict:
    ref_flat = [x for row in reference for x in row]
    slots = len(reference[0])
    diffs = [abs(got - expected) for got, expected in zip(flat, ref_flat)]
    # a nan difference is a miss, and max() skips it
    misses = [i for i, diff in enumerate(diffs) if not diff <= PACKET_TOLERANCE + 1e-12]
    first_mismatch = None
    if misses:
        i = misses[0]
        first_mismatch = {
            "index": i,
            "node": i // slots + 1,
            "slot": i % slots + 1,
            "expected": ref_flat[i],
            "actual": flat[i],
        }
    return {
        "name": name,
        "cells": len(ref_flat),
        "in_range": all(p_min <= v < p_max for v in flat),
        "cells_matched": len(diffs) - len(misses),
        "prefix_matched": misses[0] if misses else len(diffs),
        "max_abs_diff": max([0.0, *diffs]),
        "first_mismatch": first_mismatch,
    }


def packet_diff_report() -> dict:
    """Diff every generator against the recorded 80 x 5 packet matrices."""
    from . import _reference as ref
    from .traffic import traffic_exponential_recurrence, traffic_exponential_transform, traffic_uniform

    n = ref.REFERENCE_TRAFFIC_NODES
    t = ref.REFERENCE_TRAFFIC_SLOTS
    p1, p2 = ref.REFERENCE_P_MIN, ref.REFERENCE_P_MAX
    uniform = traffic_uniform(n, t, p1, p2)
    exp_transform = traffic_exponential_transform(n, t, p1, p2)
    exp_recurrence = traffic_exponential_recurrence(n, t, p1, p2)
    recon_uniform, recon_exp = reconstruct_reference_chain()
    entries = [
        _diff_entry("uniform", uniform.flatten(), ref.REFERENCE_UNIFORM, p1, p2),
        _diff_entry("exponential-transform", exp_transform.flatten(), ref.REFERENCE_EXPONENTIAL, p1, p2),
        _diff_entry("exponential-recurrence", exp_recurrence.flatten(), ref.REFERENCE_EXPONENTIAL, p1, p2),
        _diff_entry("reconstructed/uniform", recon_uniform, ref.REFERENCE_UNIFORM, p1, p2),
        _diff_entry("reconstructed/exponential", recon_exp, ref.REFERENCE_EXPONENTIAL, p1, p2),
    ]
    return {
        "p_min": p1,
        "p_max": p2,
        "nodes": n,
        "slots": t,
        "tolerance": PACKET_TOLERANCE,
        "entries": entries,
        "note": (
            "Recorded matrices match none of the documented recurrences cell-for-cell; "
            "the reconstructed chain gives the longest prefix agreement. "
            "Range containment, not cell equality, is the contract here."
        ),
    }


def render_packet_diff_text(result: dict) -> str:
    lines = [
        "Packet matrix diff: %d nodes x %d slots on [%g, %g), tolerance %g"
        % (result["nodes"], result["slots"], result["p_min"], result["p_max"], result["tolerance"]),
        "",
        "%-28s %8s %9s %7s %12s" % ("generator", "in-range", "matched", "prefix", "max |diff|"),
    ]
    for e in result["entries"]:
        lines.append(
            "%-28s %8s %5d/%d %7d %12.6f"
            % (
                e["name"],
                "yes" if e["in_range"] else "NO",
                e["cells_matched"],
                e["cells"],
                e["prefix_matched"],
                e["max_abs_diff"],
            )
        )
        if e["first_mismatch"] is not None:
            fm = e["first_mismatch"]
            lines.append(
                "    first mismatch at node %d slot %d: %.6f vs recorded %.2f"
                % (fm["node"], fm["slot"], fm["actual"], fm["expected"])
            )
    lines.append("")
    lines.append(result["note"])
    return "\n".join(lines) + "\n"
