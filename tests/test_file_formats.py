"""The file writers against the standard library's encoders.

wsngen writes CSV and JSON by direct string formatting. tests/oracles.py keeps
the csv.writer and json.dumps(indent=2) writers they replace; the properties
below check that both give the same bytes for drawn data.
"""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wsngen.deployment import Deployment, deploy_nongrid
from wsngen.generator import _BLOCK, GeneratorParams, read, write, write_document, write_text
from wsngen.topology import build_graph, graph_to_csv, graph_to_json
from wsngen.traffic import TrafficMatrix, traffic_uniform

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
@given(points=st.lists(st.tuples(floats, floats), max_size=8))
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
    data = {"points": [[i / 7, -i] for i in range(count)], "degrees": list(range(count))}
    _same_bytes(tmp_path, lambda p: write_document({"kind": "x"}, data, p),
                lambda p: oracles.write_document({"kind": "x"}, data, p))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite_points(bad, tmp_path):
    dep = Deployment(points=((1.0, 2.0), (3.0, bad)), area=10.0, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match=r"row 2: non-finite value") as csv_error:
        write(dep, tmp_path / "dep.csv", "csv")
    with pytest.raises(ValueError, match=r"'points': row 2: non-finite value") as json_error:
        write(dep, tmp_path / "dep.json", "json")
    assert "\n" not in str(csv_error.value) + str(json_error.value)
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_non_finite_meta_and_traffic(tmp_path):
    dep = Deployment(points=((1.0, 2.0),), area=math.nan, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match="not JSON compliant"):
        write(dep, tmp_path / "dep.json", "json")
    matrix = TrafficMatrix(values=((2.0, 3.0), (np.inf, 4.0)), p_min=2.0, p_max=10.0,
                           distribution="uniform", params=PARAMS)
    with pytest.raises(ValueError, match="row 2: non-finite"):
        write(matrix, tmp_path / "traffic.csv", "csv")
    with pytest.raises(ValueError, match="'values': row 2: non-finite"):
        write(matrix, tmp_path / "traffic.json", "json")
    with pytest.raises(ValueError, match="'degrees': row 3: non-finite"):
        write_document({}, {"degrees": [0, 1, math.nan]}, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.float64(1.5), True, "1.5", None])
def test_writers_refuse_values_that_are_not_ints_or_floats(value, tmp_path):
    # repr(np.float64(1.5)) is "np.float64(1.5)", and repr(True) is not JSON
    dep = Deployment(points=((1.0, 2.0), (value, 4.0)), area=10.0, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match=f"cannot write CSV: expected ints and floats, got {type(value).__name__}"):
        write(dep, tmp_path / "dep.csv", "csv")
    with pytest.raises(ValueError, match="cannot write 'points': expected ints and floats"):
        write(dep, tmp_path / "dep.json", "json")
    assert list(tmp_path.iterdir()) == []


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
    ("partial-null.json", {"a": None, "c": None}, {},
     "{}: meta field 'a' must be a finite number, got None"),
    ("no-area.csv", "node_id,x,y\n1,2.0,3.0\n", {}, "{}: a deployment CSV records no area; pass it to read"),
    ("no-range.csv", "node_id,t1\n1,2.0\n", {"area": 10.0},
     "{}: a traffic CSV records no p_min or p_max; pass it to read"),
], ids=["ragged-csv-row-3", "int-beyond-float-meta", "partial-null-provenance", "csv-without-area",
        "csv-without-range"])
def test_read_refuses_with_one_line(tmp_path, name, text, described, message):
    path = tmp_path / name
    if isinstance(text, dict):
        _deployment_document(path, [[1.0, 2.0]], **text)
    else:
        path.write_text(text)
    with pytest.raises(ValueError) as refusal:
        read(path, **described)
    assert str(refusal.value) == message.format(path)


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
