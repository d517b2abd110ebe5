"""The number rule over every public float argument.

Each float parameter of each public call gets each wild value below, one at a
time, with its other arguments valid. The call either returns a result that
meets the call's own containment property, or raises a one-line ValueError or
TypeError. It never raises OverflowError, and it leaves no file in the working
directory. The seven values are all tried for every parameter, so the property
is checked exhaustively rather than drawn.

Counts and seeds are not among these parameters: their rules are ">= 1" and
"< 2**53", and a huge count would allocate.
"""

import math
import sys
from decimal import Decimal

import numpy as np
import pytest

from wsngen import (
    batch_row,
    build_graph,
    deploy_grid,
    deploy_nongrid,
    derive_constants,
    isolated_by_range,
    read,
    run_suite,
    stream,
    traffic_exponential_recurrence,
    traffic_exponential_transform,
    traffic_uniform,
    validate_table,
    write,
)

WILD = {
    "int-beyond-float": 10**400,
    "negative-int-beyond-float": -10**400,
    "int-beyond-str-digits": 10**5000,
    "bool": True,
    "numpy-nan": np.float64("nan"),
    "decimal-beyond-float": Decimal("1e999"),
    "str": "1",
}

N = 60  # nodes and traffic cells: enough for the battery at 10 classes
DEP = deploy_nongrid(N, 10.0, 1)
MATRIX = traffic_uniform(10, 6, 2.0, 10.0)
TRAFFIC = {
    "uniform": traffic_uniform,
    "exponential-transform": traffic_exponential_transform,
    "exponential-recurrence": traffic_exponential_recurrence,
}
STREAM = {"x0": 0.5, "a": 2.0, "c": 1.0, "modulus": 5.0, "scale": 1.0, "offset": 0.0}


def _points_in(dep, n):
    return len(dep.points) == n and all(0 <= x < dep.area and 0 <= y < dep.area for x, y in dep.points)


def _cells_in(matrix):
    return all(matrix.p_min <= v < matrix.p_max for v in matrix.flatten())


def _graph_in(graph):
    reach = graph.transmission_range + graph.epsilon
    return graph.node_count == N and all(d <= reach for d in graph.distances)


def _counts_in(counts):
    return all(type(c) is int and 0 <= c <= N for c in counts.values())


def _stream_in(values, args):
    low, modulus = float(args["offset"]), float(args["modulus"])
    return len(values) == 4 and all(low <= v <= low + modulus for v in values)


def _table_in(table):
    return len(set(table)) == len(table) >= 2 and all(0 < v < math.inf for v in table)


def _verdicts_in(reports):
    return reports and all(r.verdict in ("Satisfied", "Rejected") and math.isfinite(r.statistic)
                           for r in reports)


def _row_in(row):
    return all(0 <= c <= N for mode in row["modes"].values() for c in mode["isolated"])


def _stream_call(name):
    """stream with the wild value as its argument name, and the containment of
    its values, which holds only where every argument converts to a float."""
    def call(bad):
        args = {**STREAM, name: bad}
        values = stream(args["x0"], args["a"], args["c"], args["modulus"], 4,
                        scale=args["scale"], offset=args["offset"])
        return values, args

    return call, lambda result: _stream_in(*result)


def _traffic_calls():
    calls = {}
    for distribution, generate in TRAFFIC.items():
        calls[f"{distribution}-p_min"] = (lambda bad, g=generate: g(6, 4, bad, 10.0), _cells_in)
        calls[f"{distribution}-p_max"] = (lambda bad, g=generate: g(6, 4, 2.0, bad), _cells_in)
        calls[f"{distribution}-table"] = (lambda bad, g=generate: g(6, 4, 2.0, 10.0, table=[bad, 2.0, 3.0]),
                                          _cells_in)
    calls["exponential-transform-rate"] = (lambda bad: traffic_exponential_transform(6, 4, 2.0, 10.0, bad),
                                           _cells_in)
    return calls


# name -> (call taking the wild value, containment property of a result)
CALLS = {
    "deploy_nongrid-area": (lambda bad: deploy_nongrid(20, bad, 3), lambda dep: _points_in(dep, 20)),
    "deploy_grid-area": (lambda bad: deploy_grid(20, bad, 3), lambda dep: _points_in(dep, 20)),
    "deploy_nongrid-table": (lambda bad: deploy_nongrid(20, 10.0, 3, table=[bad, 2.0, 3.0]),
                             lambda dep: _points_in(dep, 20)),
    **_traffic_calls(),
    "build_graph-tr": (lambda bad: build_graph(DEP, bad), _graph_in),
    "build_graph-epsilon": (lambda bad: build_graph(DEP, 2.0, bad), _graph_in),
    "isolated_by_range-range": (lambda bad: isolated_by_range(DEP, [2.0, bad]), _counts_in),
    "isolated_by_range-epsilon": (lambda bad: isolated_by_range(DEP, [2.0], bad), _counts_in),
    **{f"stream-{name}": _stream_call(name) for name in STREAM},
    "validate_table-entry": (lambda bad: validate_table([1.5, bad]), _table_in),
    "derive_constants-table": (lambda bad: derive_constants(3, [1.5, 2.5, bad]),
                               lambda pair: set(pair) <= {1.5, 2.5, 1.0}),
    "run_suite-area": (lambda bad: run_suite(DEP._replace(area=bad)), _verdicts_in),
    "run_suite-p_min": (lambda bad: run_suite(MATRIX._replace(p_min=bad)), _verdicts_in),
    "run_suite-p_max": (lambda bad: run_suite(MATRIX._replace(p_max=bad)), _verdicts_in),
    "batch_row-area": (lambda bad: batch_row(0, N, bad), _row_in),
    "batch_row-range": (lambda bad: batch_row(0, N, 100.0, [10.0, bad]), _row_in),
    "batch_row-epsilon": (lambda bad: batch_row(0, N, 100.0, epsilon=bad), _row_in),
}


def _refused_in_one_line(call, bad):
    """The result of call(bad), or None where it raised a one-line ValueError or TypeError."""
    try:
        return call(bad)
    except (ValueError, TypeError) as exc:
        assert "\n" not in str(exc), str(exc)
        return None


def _check(call, contained, tmp_path, monkeypatch):
    work = tmp_path / "cwd"
    work.mkdir()
    monkeypatch.chdir(work)
    for label, bad in WILD.items():
        result = _refused_in_one_line(call, bad)
        assert result is None or contained(result), (label, result)
        assert list(work.iterdir()) == [], label


@pytest.mark.parametrize("name", CALLS)
def test_every_float_argument_is_contained_or_refused_in_one_line(name, tmp_path, monkeypatch):
    _check(*CALLS[name], tmp_path, monkeypatch)


@pytest.mark.parametrize("kind, keyword", [("deployment", "area"), ("traffic", "p_min"), ("traffic", "p_max")])
def test_every_read_keyword_is_checked_or_refused_in_one_line(kind, keyword, tmp_path, monkeypatch):
    record = DEP if kind == "deployment" else MATRIX
    path = tmp_path / f"{kind}.csv"
    write(record, path, "csv")
    valid = {"area": 10.0} if kind == "deployment" else {"p_min": 2.0, "p_max": 10.0}

    def call(bad):
        return read(path, **{**valid, keyword: bad})

    def contained(back):
        if kind == "deployment":
            return back.points == DEP.points and 0 < back.area < math.inf
        return back.values == MATRIX.values and 0 <= back.p_min < back.p_max < math.inf

    _check(call, contained, tmp_path, monkeypatch)


# each of these raised a bare OverflowError before the number rule had one home
@pytest.mark.parametrize("call, rule", [
    (lambda: build_graph(DEP, 10**400), "tr must be within the float range"),
    (lambda: build_graph(DEP, 10.0, 10**400), "epsilon must be within the float range"),
    (lambda: isolated_by_range(DEP, [10**400]), "tr must be within the float range"),
    (lambda: stream(0.5, 2.0, 1.0, 10**400, 3), "modulus must be within the float range"),
    (lambda: stream(10**400, 2.0, 1.0, 5.0, 3), "x0 must be within the float range"),
    (lambda: traffic_exponential_transform(10, 5, 2.0, 10.0, 10**400), "rate must be positive and finite"),
    (lambda: validate_table([10**400, 1.0]), "constant table entries must be within the float range"),
    (lambda: run_suite(MATRIX._replace(p_min=0, p_max=10**400)), "p_max must be within the float range"),
], ids=["build_graph-tr", "build_graph-epsilon", "isolated_by_range", "stream-modulus", "stream-x0",
        "exponential-transform-rate", "validate_table", "run_suite-p_max"])
def test_an_int_beyond_the_float_range_is_refused_naming_the_argument(call, rule):
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == f"{rule}, got {10**400}"


def _shown(value):
    """How a refusal quotes an int: its digits, unless str() refuses it past the limit."""
    try:
        return str(value)
    except ValueError:
        return f"an int of more than {sys.get_int_max_str_digits()} digits"


# each of these raised Python's own digit-limit line, which names no argument
@pytest.mark.parametrize("call, rule", [
    (lambda: deploy_nongrid(10, 10**5000, 1), "area must be positive and finite"),
    (lambda: build_graph(DEP, 10**5000), "tr must be within the float range"),
    (lambda: validate_table([1.0, 10**5000]), "constant table entries must be within the float range"),
], ids=["deploy_nongrid-area", "build_graph-tr", "validate_table"])
def test_an_int_past_the_digit_limit_is_refused_naming_the_argument(call, rule):
    with pytest.raises(ValueError) as refusal:
        call()
    assert str(refusal.value) == f"{rule}, got {_shown(10**5000)}"


# a zero modulus has no remainder, and a negative one gives values in (modulus, 0]
@pytest.mark.parametrize("modulus", [0.0, 0, -5.0, math.nan, math.inf, -math.inf])
def test_stream_refuses_a_modulus_that_is_not_positive_and_finite(modulus):
    with pytest.raises(ValueError) as refusal:
        stream(0.5, 2.0, 1.0, modulus, 3)
    assert str(refusal.value) == f"modulus must be positive and finite, got {modulus}"


@pytest.mark.parametrize("bad", [Decimal("1e999"), "1", np.array(2.0)], ids=["decimal", "str", "array"])
def test_a_value_that_is_not_a_real_number_gets_the_type_error_line(bad):
    with pytest.raises(TypeError, match=r"^area must be a real number, got (Decimal|str|ndarray)$"):
        deploy_nongrid(10, bad, 1)


def test_numpy_scalars_give_the_floats_of_python_numbers():
    for bad in (np.float64(2.0), np.int64(2), np.float32(2.0)):
        assert stream(0.5, bad, 1.0, 5.0, 4) == stream(0.5, 2.0, 1.0, 5.0, 4)
        assert all(type(v) is float for v in stream(0.5, bad, 1.0, 5.0, 4, offset=bad))
        assert traffic_uniform(6, 4, bad, 10.0) == traffic_uniform(6, 4, 2.0, 10.0)


def test_an_infinite_range_stays_valid():
    graph = build_graph(DEP, math.inf)
    assert len(graph.edges) == N * (N - 1) // 2
    assert isolated_by_range(DEP, [math.inf]) == {math.inf: 0}
