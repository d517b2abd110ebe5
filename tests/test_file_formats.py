"""The file writers against the standard library's encoders.

wsngen writes CSV and JSON by direct string formatting. tests/oracles.py keeps
the csv.writer and json.dumps(indent=2) writers they replace; the properties
below check that both give the same bytes for drawn data.
"""

import array
import json
import math
import os
import sys
import tempfile
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from strategies import GENERATORS, check_rows, deployments, matrices
from wsngen import __version__, generator
from wsngen.deployment import DEPLOYERS, Deployment, deploy_nongrid
from wsngen.generator import _BLOCK, GeneratorParams, Rows, _as_rows, _json_text, _table, read, write, write_text
from wsngen.topology import RadiusGraph, build_graph, graph_to_csv, graph_to_json, isolated_by_range
from wsngen.traffic import TrafficMatrix, traffic_uniform
from wsngen.validation import run_suite

PARAMS = GeneratorParams(seed=1, a=3.359886, c=1.902161)
EXTREMES = [5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, -0.0, 0.0,
            2.2250738585072014e-308, 0.1, 1e16, 1e-7, 123456789.0]

floats = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))
numbers = st.one_of(floats, st.integers(-2 ** 63, 2 ** 63))
widths = st.integers(1, 6)


@st.composite
def arrays(draw):
    """A flat list of numbers, or rows of one width, as a list or a tuple."""
    count = draw(st.integers(0, 8))
    width = draw(st.one_of(st.none(), widths))
    if width is None:
        rows = draw(st.lists(numbers, min_size=count, max_size=count))
    else:
        row = st.lists(numbers, min_size=width, max_size=width).map(draw(st.sampled_from([list, tuple])))
        rows = draw(st.lists(row, min_size=count, max_size=count))
    return draw(st.sampled_from([list, tuple]))(rows)


metas = st.dictionaries(st.sampled_from(["kind", "seed", "a", "area", "mode", "rate", "tool_version"]),
                        st.one_of(st.none(), numbers, st.text(max_size=5)), max_size=5)
documents = st.dictionaries(st.sampled_from(["points", "values", "degrees", "edges"]), arrays(),
                            min_size=1, max_size=3)


def write_document(meta: dict, data: dict, path) -> None:
    """The layout write and graph_to_json give a JSON document: meta, then each array,
    an array of rows as the table of Rows, an array of numbers as that of Rows of width 1."""
    arrays = {}
    for key, rows in data.items():
        nested = bool(rows) and not isinstance(rows[0], (int, float))
        arrays[key] = nested, _table(_as_rows(rows, key) if nested else Rows(list(rows), 1), key)
    write_text(path, _json_text(meta, arrays))


_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@_SETTINGS
@given(meta=metas, data=documents)
def test_write_document_matches_json_dumps(tmp_path, meta, data):
    assert write_document(meta, data, tmp_path / "new.json") is None
    oracles.write_document(meta, data, tmp_path / "old.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()


def _same_bytes(tmp_path, write_new, write_old):
    write_new(tmp_path / "new")
    write_old(tmp_path / "old")
    assert (tmp_path / "new").read_bytes() == (tmp_path / "old").read_bytes()


@_SETTINGS
@given(rows=st.integers(1, 8).flatmap(
    lambda n: widths.flatmap(lambda w: st.lists(st.tuples(*[numbers] * w), min_size=n, max_size=n))))
def test_traffic_csv_matches_csv_writer(tmp_path, rows):
    matrix = TrafficMatrix(values=tuple(rows), p_min=2.0, p_max=10.0, distribution="uniform",
                           params=PARAMS)
    header = ["node_id"] + [f"t{j}" for j in range(1, len(rows[0]) + 1)]
    _same_bytes(tmp_path, lambda p: write(matrix, p, "csv"),
                lambda p: oracles.write_csv(p, header, ([i, *map(repr, row)]
                                                        for i, row in enumerate(rows, start=1))))


@_SETTINGS
@given(points=st.lists(st.tuples(floats, floats), min_size=1, max_size=8))
def test_deployment_csv_matches_csv_writer(tmp_path, points):
    dep = Deployment(points=tuple(points), area=10.0, mode="non-grid", params=PARAMS)
    _same_bytes(tmp_path, lambda p: write(dep, p, "csv"),
                lambda p: oracles.write_csv(p, ("node_id", "x", "y"),
                                            ([i, repr(x), repr(y)]
                                             for i, (x, y) in enumerate(points, start=1))))


@_SETTINGS
@given(points=st.lists(st.tuples(st.floats(0, 50), st.floats(0, 50)), min_size=1, max_size=30),
       tr=st.floats(0.01, 30))
def test_graph_csv_matches_csv_writer(tmp_path, points, tr):
    graph = build_graph(points, tr)
    edges = [(u + 1, v + 1, d) for (u, v), d in zip(graph.edges, graph.distances)]
    _same_bytes(tmp_path, lambda p: graph_to_csv(graph, points, p),
                lambda p: oracles.write_csv(p, ("u", "v", "distance"),
                                            ([u, v, repr(d)] for u, v, d in edges)))


def test_edge_cases_are_laid_out_as_json_dumps_does(tmp_path):
    data = {"degrees": [], "edges": [], "points": [[5e-324, -0.0]], "values": (1, -1e308)}
    _same_bytes(tmp_path, lambda p: write_document({}, data, p),
                lambda p: oracles.write_document({}, data, p))
    assert (tmp_path / "new").read_bytes().endswith(b'\n  "values": [\n    1,\n    -1e+308\n  ]\n}\n')


@pytest.mark.parametrize("count", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
def test_arrays_longer_than_a_block_are_laid_out_as_json_dumps_does(tmp_path, count):
    data = {"points": [[i / 7, -i] for i in range(count)], "degrees": list(range(count)),
            "values": Rows(array.array("d", [i / 3 for i in range(3 * count)]), 3)}
    _same_bytes(tmp_path, lambda p: write_document({"kind": "x"}, data, p),
                lambda p: oracles.write_document({"kind": "x"}, {**data, "values": tuple(data["values"])}, p))
    # a numbered record CSV, and both exports of a graph of count edges
    matrix = TrafficMatrix(values=data["values"], p_min=2.0, p_max=10.0, distribution="uniform", params=PARAMS)
    _same_bytes(tmp_path, lambda p: write(matrix, p, "csv"),
                lambda p: oracles.write_csv(p, ("node_id", "t1", "t2", "t3"),
                                            ([i, *map(repr, row)] for i, row in enumerate(matrix.values, start=1))))
    star = array.array("q", [0]) * (2 * count)
    star[1::2] = array.array("q", range(1, count + 1))
    graph = RadiusGraph(node_count=count + 1, transmission_range=1.5, epsilon=0.0, edges=Rows(star, 2),
                        distances=tuple(i / 7 for i in range(count)), degrees=(count,) + (1,) * count)
    rows = [[1, v + 1, d] for (_, v), d in zip(graph.edges, graph.distances)]
    meta = {"kind": "radius-graph", "node_count": count + 1, "transmission_range": 1.5, "epsilon": 0.0,
            "edge_count": count, "isolated": 0}
    _same_bytes(tmp_path, lambda p: graph_to_csv(graph, None, p),
                lambda p: oracles.write_csv(p, ("u", "v", "distance"), ([u, v, repr(d)] for u, v, d in rows)))
    _same_bytes(tmp_path, lambda p: graph_to_json(graph, None, p),
                lambda p: oracles.write_document(meta, {"degrees": graph.degrees, "edges": rows}, p))


# an int beyond the float range used to raise a bare OverflowError
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-beyond-float")])
def test_writers_refuse_non_finite_points(bad, tmp_path):
    dep = Deployment(points=((1.0, 2.0), (3.0, bad)), area=10.0, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match=r"row 2: non-finite value") as csv_error:
        write(dep, tmp_path / "dep.csv", "csv")
    with pytest.raises(ValueError, match=r"cannot write JSON: row 2: non-finite value") as json_error:
        write(dep, tmp_path / "dep.json", "json")
    assert "\n" not in str(csv_error.value) + str(json_error.value)
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_non_finite_meta_and_traffic(tmp_path):
    dep = Deployment(points=((1.0, 2.0),), area=math.nan, mode="non-grid", params=PARAMS)
    # json.dumps used to refuse the meta first, in its own words: "... not JSON compliant: nan"
    with pytest.raises(ValueError, match=r"^cannot write JSON: meta field 'area' must be a finite number, got nan$"):
        write(dep, tmp_path / "dep.json", "json")
    # json.dumps raised a bare TypeError: "Object of type Decimal is not JSON serializable"
    with pytest.raises(ValueError, match=r"^cannot write JSON: meta field 'area' must be a finite number, "
                                         r"got Decimal\('10'\)$"):
        write(dep._replace(area=Decimal(10)), tmp_path / "dep.json", "json")
    # an int beyond the float range used to raise a bare OverflowError
    with pytest.raises(ValueError, match=r"^cannot write CSV: area must be positive and finite, got 10{400}$"):
        write(dep._replace(area=10**400), tmp_path / "dep.csv", "csv")
    matrix = TrafficMatrix(values=((2.0, 3.0), (np.inf, 4.0)), p_min=2.0, p_max=10.0,
                           distribution="uniform", params=PARAMS)
    with pytest.raises(ValueError, match="row 2: non-finite"):
        write(matrix, tmp_path / "traffic.csv", "csv")
    with pytest.raises(ValueError, match="cannot write JSON: row 2: non-finite"):
        write(matrix, tmp_path / "traffic.json", "json")
    graph = RadiusGraph(node_count=3, transmission_range=1.0, epsilon=0.0, edges=(), distances=(),
                        degrees=(0, 1, math.nan))
    with pytest.raises(ValueError, match="'degrees': row 3: non-finite"):
        graph_to_json(graph, None, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


# each record writes a file that read refuses: rows of unequal width, points
# that are not pairs (its CSV write failed with a bare unpacking error), no
# point, a packet range with p_min above p_max, and an area that is not positive
_UNREADABLE = {
    "ragged-values": (TrafficMatrix(values=((1.0, 2.0, 3.0), (4.0,)), p_min=0.0, p_max=10.0,
                                    distribution="uniform", params=PARAMS),
                      "'values' must be a non-empty list of equal-width rows of numbers"),
    "3-d-points": (Deployment(points=((1.0, 2.0, 3.0),) * 3, area=10.0, mode="non-grid", params=PARAMS),
                   "'points' must be a list of [x, y] number pairs"),
    "no-points": (Deployment(points=(), area=10.0, mode="non-grid", params=PARAMS),
                  "'points' must be a non-empty list of equal-width rows of numbers"),
    "p_min-above-p_max": (TrafficMatrix(values=((3.0,),), p_min=5.0, p_max=1.0,
                                        distribution="uniform", params=PARAMS),
                          "p_max must be finite and exceed p_min, got 1.0"),
    "zero-area": (Deployment(points=((1.0, 2.0),), area=0.0, mode="non-grid", params=PARAMS),
                  "area must be positive and finite, got 0.0"),
}


@pytest.mark.parametrize("case", _UNREADABLE)
def test_writers_refuse_records_that_read_refuses(case, tmp_path):
    record, reason = _UNREADABLE[case]
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError) as info:
            write(record, tmp_path / f"data.{fmt}", fmt)
        assert str(info.value) == f"cannot write {fmt.upper()}: {reason}"
    assert list(tmp_path.iterdir()) == []
    # csv.writer writes the rows, and read refuses them with the same description
    schema = record.SCHEMA
    rows = getattr(record, schema.data)
    oracles.write_csv(tmp_path / "old.csv", schema.columns(len(rows[0]) + 1 if rows else 1),
                      ([i, *map(repr, row)] for i, row in enumerate(rows, start=1)))
    with pytest.raises(ValueError):
        read(tmp_path / "old.csv", **{k: getattr(record, k) for k in schema.described})


@pytest.mark.parametrize("value", [np.float64(1.5), True, "1.5", None])
def test_writers_refuse_values_that_are_not_ints_or_floats(value, tmp_path):
    # repr(np.float64(1.5)) is "np.float64(1.5)", and repr(True) is not JSON
    dep = Deployment(points=((1.0, 2.0), (value, 4.0)), area=10.0, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match=f"cannot write CSV: expected ints and floats, got {type(value).__name__}"):
        write(dep, tmp_path / "dep.csv", "csv")
    with pytest.raises(ValueError, match="cannot write JSON: expected ints and floats"):
        write(dep, tmp_path / "dep.json", "json")
    assert list(tmp_path.iterdir()) == []


def _written_meta(record) -> dict:
    """The meta write gives a record's JSON file, built without any check."""
    params = record.params or GeneratorParams(None, None, None)
    fields = {k: getattr(params if k in GeneratorParams._fields else record, k) for k in record.SCHEMA.meta}
    return {"kind": record.SCHEMA.kind, **fields, "tool_version": __version__}


_DEPLOYMENT, _MATRIX = deploy_nongrid(20, 10.0, 1), traffic_uniform(5, 3, 2.0, 10.0)


# each JSON write used to succeed, and read refused the file
@pytest.mark.parametrize("record, message", [
    (_DEPLOYMENT._replace(mode="foo"), "meta field 'mode' must be 'grid' or 'non-grid' or null, got 'foo'"),
    (_DEPLOYMENT._replace(y_increment="z"), "meta field 'y_increment' must be 'a' or 'c' or null, got 'z'"),
    (_MATRIX._replace(distribution=5), "meta field 'distribution' must be a string or null, got 5"),
    (_MATRIX._replace(rate=True), "meta field 'rate' must be null or a finite number, got True"),
    # json.dumps refused this one first: "Out of range float values are not JSON compliant: inf"
    (_MATRIX._replace(rate=math.inf), "meta field 'rate' must be null or a finite number, got inf"),
], ids=["mode", "y_increment", "distribution", "rate", "rate-inf"])
def test_json_writes_refuse_the_meta_read_refuses(tmp_path, record, message):
    schema = record.SCHEMA
    rows = getattr(record, schema.data)
    (tmp_path / "out").mkdir()
    with pytest.raises(ValueError) as refusal:
        write(record, tmp_path / "out" / "data.json", "json")
    assert str(refusal.value) == f"cannot write JSON: {message}"
    assert list((tmp_path / "out").iterdir()) == []
    oracles.write_document(_written_meta(record), {schema.data: tuple(rows)}, tmp_path / "old.json")
    with pytest.raises(ValueError) as read_refusal:
        read(tmp_path / "old.json")
    assert str(read_refusal.value) == f"{tmp_path / 'old.json'}: {message}"
    # a CSV carries no meta
    write(record, tmp_path / "out" / "data.csv", "csv")
    described = {k: getattr(record, k) for k in schema.described}
    assert getattr(read(tmp_path / "out" / "data.csv", **described), schema.data) == rows


@pytest.mark.parametrize("points", [(1.0, 2.0), "iterator"], ids=["numbers", "iterator"])
def test_writers_refuse_points_that_are_not_rows(tmp_path, points):
    # each write used to raise a bare TypeError, "object of type 'float' has no len()"
    for fmt in ("csv", "json"):
        rows = iter(((1.0, 2.0), (3.0, 4.0))) if points == "iterator" else points
        dep = Deployment(points=rows, area=10.0, mode=None, params=None)
        with pytest.raises(ValueError) as refusal:
            write(dep, tmp_path / f"dep.{fmt}", fmt)
        assert str(refusal.value) == (f"cannot write {fmt.upper()}: "
                                      "'points' must be a non-empty list of equal-width rows of numbers")
    assert list(tmp_path.iterdir()) == []


_HUGE = 10**5000  # past sys.get_int_max_str_digits(), so str() and repr() refuse it


# each write raised Python's "Exceeds the limit (4300 digits) for integer string
# conversion", with no lead, while quoting the value
@pytest.mark.parametrize("record, fmt, message", [
    (Deployment(points=((_HUGE, 1.0),), area=10.0, mode=None, params=None), "csv",
     "cannot write CSV: row 1: non-finite value in [an int of more than 4300 digits, 1.0]"),
    (Deployment(points=((_HUGE, 1.0),), area=10.0, mode=None, params=None), "json",
     "cannot write JSON: row 1: non-finite value in [an int of more than 4300 digits, 1.0]"),
    (_DEPLOYMENT._replace(area=_HUGE), "json",
     "cannot write JSON: meta field 'area' must be a finite number, got an int of more than 4300 digits"),
], ids=["cell-csv", "cell-json", "meta-json"])
def test_writers_quote_an_int_past_the_digit_limit(tmp_path, record, fmt, message):
    with pytest.raises(ValueError) as refusal:
        write(record, tmp_path / f"data.{fmt}", fmt)
    assert str(refusal.value) == message
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("row", [range(1, 3), array.array("d", [1.5, 2.5])], ids=["range", "array"])
def test_rows_of_any_number_sequence_write_and_read_back(tmp_path, row):
    # the CSV write wrote these rows, and the JSON write refused them ("got range")
    dep = Deployment(points=(row, row), area=10.0, mode=None, params=None)
    for fmt in ("csv", "json"):
        write(dep, tmp_path / f"dep.{fmt}", fmt)
        assert read(tmp_path / f"dep.{fmt}", area=10.0).points == (tuple(row),) * 2


_BAD_CELLS = [math.nan, math.inf, None, "1.5", True, np.float64(1.5)]


@st.composite
def faulty_records(draw):
    """A drawn deployment or traffic matrix with at most one field swapped for a bad value."""
    record = draw(st.one_of(deployments(), matrices()))
    schema = record.SCHEMA
    rows = getattr(record, schema.data)
    fault = draw(st.sampled_from([None, "ragged", "1-d", "3-d", "empty", "cell", "meta", "range", "params"]))
    if fault == "ragged":
        last = rows[-1]
        return record._replace(**{schema.data: rows[:-1] + (last[:-1] if len(last) > 1 else last * 2,)})
    if fault in ("1-d", "3-d", "empty"):
        bad = {"1-d": tuple(r[0] for r in rows), "3-d": tuple(tuple((v,) for v in r) for r in rows), "empty": ()}
        return record._replace(**{schema.data: bad[fault]})
    if fault == "cell":
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
        row = rows[i][:j] + (draw(st.sampled_from(_BAD_CELLS)),) + rows[i][j + 1:]
        return record._replace(**{schema.data: rows[:i] + (row,) + rows[i + 1:]})
    if fault == "meta":
        field, values = draw(st.sampled_from(
            [("mode", ["foo", 5, True]), ("y_increment", ["z", 1.5]), ("area", [math.nan, math.inf, Decimal(10)])]
            if schema.kind == "deployment" else
            [("distribution", [5, True, 1.5]), ("rate", [True, "x", math.nan, math.inf]), ("p_min", [math.nan])]))
        return record._replace(**{field: draw(st.sampled_from(values))})
    if fault == "range":
        if schema.kind == "deployment":
            return record._replace(area=draw(st.sampled_from([0.0, -1.0, -record.area])))
        return record._replace(p_min=record.p_max, p_max=record.p_min)
    if fault == "params":
        nulls = draw(st.sets(st.integers(0, 2), min_size=1, max_size=2))
        return record._replace(params=GeneratorParams(*[None if i in nulls else v
                                                        for i, v in enumerate(record.params)]))
    return record


def _read_refuses_the_oracle_file(record, fmt: str, path) -> bool:
    """Whether read refuses the file the unchecked oracle writers write for record.
    write lays each cell out as its repr, JSON number text only for an int or a
    float: the JSON oracle gets any other cell as that text in a string."""
    schema = record.SCHEMA
    rows = getattr(record, schema.data)
    try:
        if fmt == "csv":
            oracles.write_csv(path, schema.columns(len(rows[0]) + 1 if rows else 1),
                              ([i, *map(repr, row)] for i, row in enumerate(rows, start=1)))
        else:
            cells = [[v if type(v) in (int, float) else repr(v) for v in row] for row in rows]
            oracles.write_document(_written_meta(record), {schema.data: cells}, path)
    except TypeError:  # rows that are not rows of cells: the oracle writes no file
        return True
    try:
        read(path, **({k: getattr(record, k) for k in schema.described} if fmt == "csv" else {}))
    except (TypeError, ValueError):  # a TypeError for a described value that is not a real number
        return True
    return False


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(record=faulty_records())
def test_write_refuses_exactly_what_read_refuses(tmp_path, record):
    schema = record.SCHEMA
    described = {k: getattr(record, k) for k in schema.described}
    for fmt in ("csv", "json"):
        with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
            out = os.path.join(scratch, "out")
            os.mkdir(out)
            refused = _read_refuses_the_oracle_file(record, fmt, os.path.join(scratch, "oracle"))
            try:
                write(record, os.path.join(out, "data"), fmt)
            except (TypeError, ValueError) as exc:
                assert refused and "\n" not in str(exc) and os.listdir(out) == [], exc
                # a CSV's Decimal area is not a real number, a TypeError in write and read alike;
                # a JSON meta is checked first, so every JSON refusal is led by where
                led = "cannot write CSV: area must be a real number, got Decimal"
                assert isinstance(exc, ValueError) or str(exc) == led, exc
                assert fmt == "csv" or str(exc).startswith("cannot write JSON: "), exc
            else:
                assert not refused
                back = read(os.path.join(out, "data"), **(described if fmt == "csv" else {}))
                assert getattr(back, schema.data) == getattr(record, schema.data)


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    target = tmp_path / "data.csv"
    target.write_bytes(b"old bytes\n")

    def lines():
        yield "node_id,t1\r\n1,2.0\r\n"
        raise RuntimeError("disk gone")

    with pytest.raises(RuntimeError, match="disk gone"):
        write_text(target, lines())
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_json_export_streams_its_rows(tmp_path):
    # the document's text used to be joined whole: a 0.82 MB peak for a 313 KB file
    dep = deploy_nongrid(5000, 100.0, 0)
    path = tmp_path / "dep.json"
    write(dep, path, "json")
    tracemalloc.start()
    try:
        write(dep, path, "json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("export", [graph_to_csv, graph_to_json])
def test_graph_exports_stream_their_rows(tmp_path, export):
    # with a [u, v, distance] list built per edge first, the peak was 4.4 MB
    # for 44,850 edges, 3.6 times the CSV's size and 1.7 times the JSON's
    dep = deploy_nongrid(300, 1.0, 0)
    graph = build_graph(dep, 2.0)
    assert len(graph.edges) == 300 * 299 // 2
    path = tmp_path / "graph"
    export(graph, dep, path)
    tracemalloc.start()
    try:
        export(graph, dep, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 2


@pytest.mark.parametrize("record, described", [
    (deploy_nongrid(60, 100.0, 3), {"area": 100.0}),
    (traffic_uniform(30, 4, 2.0, 10.0), {"p_min": 2.0, "p_max": 10.0}),
], ids=["deployment", "traffic"])
def test_a_record_read_from_csv_writes_null_provenance_to_json(tmp_path, record, described):
    # its JSON export used to raise AttributeError on params.seed
    write(record, tmp_path / "data.csv", "csv")
    from_csv = read(tmp_path / "data.csv", **described)
    provenance = [k for k in record._fields if k not in (record.SCHEMA.data, *described)]
    assert from_csv == record._replace(**dict.fromkeys(provenance))
    write(from_csv, tmp_path / "data.json", "json")
    meta = json.loads((tmp_path / "data.json").read_text())["meta"]
    assert [k for k, v in meta.items() if v is None] == [k for k in record.SCHEMA.meta
                                                        if k in (*provenance, "seed", "a", "c")]
    assert read(tmp_path / "data.json") == from_csv


def _deployment_document(path, points, **meta):
    meta = {"kind": "deployment", "seed": 1, "a": 2.0, "c": 3.0, "mode": "grid", "area": 10.0, **meta}
    path.write_text(json.dumps({"meta": meta, "points": points}))


@pytest.mark.parametrize("points, meta", [
    ([[1, 2]], {}),
    ([[1, 2.5], [3.25, 4]], {}),
    ([[1.0, 2.0]], {"area": sys.float_info.max}),
], ids=["int-cells", "mixed-row", "largest-float-in-meta"])
def test_read_gives_float_cells_that_write_back_as_floats(tmp_path, points, meta):
    _deployment_document(tmp_path / "in.json", points, **meta)
    dep = read(tmp_path / "in.json")
    assert dep.points == tuple(map(tuple, points))
    write(dep, tmp_path / "out.json", "json")
    back = json.loads((tmp_path / "out.json").read_text())["points"]
    assert back == points and {type(v) for p in back for v in p} == {float}


@pytest.mark.parametrize("name, text, described, message", [
    ("ragged.csv", "node_id,x,y\n1,2.0,3.0\n2,4.0,5.0\n3,6.0\n", {"area": 10.0},
     "{}: row 3: expected 3 cells, as in the header"),
    ("big-int.json", {"area": 10 ** 309}, {}, "{}: meta field 'area' must be a finite number, got 1" + "0" * 309),
    ("big-area.csv", "node_id,x,y\n1,2.0,3.0\n", {"area": 10 ** 400},
     "{}: area must be positive and finite, got 1" + "0" * 400),
    ("partial-null.json", {"a": None, "c": None}, {},
     "{}: meta field 'a' must be a finite number, got None"),
    ("no-area.csv", "node_id,x,y\n1,2.0,3.0\n", {}, "{}: a deployment CSV records no area; pass it to read"),
    ("no-range.csv", "node_id,t1\n1,2.0\n", {"area": 10.0},
     "{}: a traffic CSV records no p_min or p_max; pass it to read"),
    # json's own line used to come with no path
    ("trunc.json", '{"meta": ', {}, "{}: Expecting value: line 1 column 10 (char 9)"),
    # the head that picks the format used to give the codec's line with no path
    ("bad-head.json", b'\xff\xfe{"meta": {}}', {},
     "{}: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ("bad-cell.csv", b"node_id,x,y\n\xff,2.0,3.0\n", {"area": 10.0},
     "{}: 'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    ("huge-int.json", '{"meta": {"area": ' + "1" * 5000 + "}}", {},
     "{}: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits; "
     "use sys.set_int_max_str_digits() to increase the limit"),
], ids=["ragged-csv-row-3", "int-beyond-float-meta", "int-beyond-float-area", "partial-null-provenance",
        "csv-without-area", "csv-without-range", "truncated-json", "json-head-not-utf-8", "csv-first-cell-not-utf-8",
        "json-int-past-the-digit-limit"])
def test_read_refuses_with_one_line(tmp_path, name, text, described, message):
    path = tmp_path / name
    if isinstance(text, dict):
        _deployment_document(path, [[1.0, 2.0]], **text)
    elif isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ValueError) as refusal:
        read(path, **described)
    assert str(refusal.value) == message.format(path)


@pytest.mark.parametrize("producer", [*DEPLOYERS, *GENERATORS, "deployment.csv", "deployment.json",
                                      "traffic.csv", "traffic.json"])
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_dataset_producer_gives_rows_equal_to_their_tuple(tmp_path, producer, data):
    # the cells are one array('d'), written as the tuple of their rows is
    kind, _, fmt = producer.partition(".")
    if producer in DEPLOYERS:
        n = data.draw(st.integers(1, 600))  # JSON lays out 256 rows a block
        record = DEPLOYERS[producer](n, 10.0 * math.sqrt(n), data.draw(st.integers(0, 10**6)))
    elif producer in GENERATORS:
        record = GENERATORS[producer](data.draw(st.integers(1, 300)), data.draw(st.integers(1, 12)), 2.0, 10.0)
    else:
        record = data.draw(deployments() if kind == "deployment" else matrices())
        write(record, tmp_path / producer, fmt)
        record = read(tmp_path / producer, **{k: getattr(record, k) for k in record.SCHEMA.described})
    rows = getattr(record, record.SCHEMA.data)
    check_rows(rows, data)
    assert rows.flat.typecode == "d"
    plain = record._replace(**{record.SCHEMA.data: tuple(rows)})
    assert record == plain and hash(record) == hash(plain)
    for out in ("csv", "json"):
        _same_bytes(tmp_path, lambda p: write(record, p, out), lambda p: write(plain, p, out))


def test_write_refuses_an_unknown_format(tmp_path):
    with pytest.raises(ValueError, match=r"^cannot write format 'xml': expected 'csv' or 'json'$"):
        write(deploy_nongrid(5, 10.0, 1), tmp_path / "d.xml", "xml")
    assert list(tmp_path.iterdir()) == []


def test_the_former_codec_names_call_read_and_write(tmp_path):
    # perfbench still calls these eight names
    from wsngen import deployment as dm
    from wsngen import traffic as tm

    dep, matrix = deploy_nongrid(60, 100.0, 3), traffic_uniform(30, 4, 2.0, 10.0)
    dm.deployment_to_csv(dep, tmp_path / "d.csv")
    dm.deployment_to_json(dep, tmp_path / "d.json")
    tm.traffic_to_csv(matrix, tmp_path / "t.csv")
    tm.traffic_to_json(matrix, tmp_path / "t.json")
    for record, stem in ((dep, "d"), (matrix, "t")):
        for fmt in ("csv", "json"):
            write(record, tmp_path / "new", fmt)
            assert (tmp_path / "new").read_bytes() == (tmp_path / f"{stem}.{fmt}").read_bytes()
    assert dm.points_from_csv(tmp_path / "d.csv") == dep.points
    assert dm.deployment_from_json(tmp_path / "d.json") == dep
    assert tm.matrix_from_csv(tmp_path / "t.csv") == matrix.values
    assert tm.traffic_from_json(tmp_path / "t.json") == matrix


def _forms(cells: list, width: int) -> dict:
    """The table of cells, width a row, built by hand as tuple, list and array('d') rows."""
    rows = [cells[i:i + width] for i in range(0, len(cells), width)]
    return {"tuple": tuple(map(tuple, rows)), "list": rows,
            "array": [array.array("d", r) for r in rows]}


def _points(n: int) -> list:
    """2n deployment cells in [0, 100): every third a float, the rest ints."""
    return [(i * 0.618034) % 100 if i % 3 == 0 else i * 7 % 97 for i in range(2 * n)]


@pytest.mark.parametrize("numpy_from", [0, 10**6], ids=["numpy", "lists"])
@pytest.mark.parametrize("n", [60, 600])
def test_hand_built_tables_act_as_their_rows_twins(tmp_path, monkeypatch, numpy_from, n):
    # a hand-built table becomes Rows over a list of its cells, each kept as given:
    # an int cell still writes 3, and every consumer sees what the twin gives
    monkeypatch.setattr(generator, "_NUMPY_FROM", numpy_from)
    forms = _forms(_points(n), 2)
    forms["range"] = tuple(range(k, k + 2) for k in range(0, 2 * n, 2))
    for name, points in forms.items():
        dep = Deployment(points=points, area=2.0 * n + 100.0, mode=None, params=None)
        twin = dep._replace(points=Rows([c for row in points for c in row], 2))
        for fmt in ("csv", "json"):
            _same_bytes(tmp_path, lambda p: write(dep, p, fmt), lambda p: write(twin, p, fmt))
        assert build_graph(dep, 15.0) == build_graph(twin, 15.0), name
        assert isolated_by_range(dep, (5.0, 15.0)) == isolated_by_range(twin, (5.0, 15.0)), name
        assert run_suite(dep) == run_suite(twin), name
    values = [c + 2 for c in _points(n)[:5 * (2 * n // 5)]]
    for name, rows in {**_forms(values, 5), "range": [range(k, k + 5) for k in range(2, 97, 5)]}.items():
        matrix = TrafficMatrix(values=rows, p_min=2.0, p_max=102.0, distribution=None, params=None)
        twin = matrix._replace(values=Rows([c for row in rows for c in row], 5))
        for fmt in ("csv", "json"):
            _same_bytes(tmp_path, lambda p: write(matrix, p, fmt), lambda p: write(twin, p, fmt))
        assert list(matrix.flatten()) == list(twin.flatten()), name
        assert run_suite(matrix) == run_suite(twin), name


def test_an_int_cell_writes_as_an_int(tmp_path):
    dep = Deployment(points=((3, 1.5), [2, 0.25]), area=10.0, mode=None, params=None)
    write(dep, tmp_path / "d.csv", "csv")
    assert (tmp_path / "d.csv").read_bytes() == b"node_id,x,y\r\n1,3,1.5\r\n2,2,0.25\r\n"
    write(dep, tmp_path / "d.json", "json")
    assert json.loads((tmp_path / "d.json").read_text())["points"] == [[3, 1.5], [2, 0.25]]
