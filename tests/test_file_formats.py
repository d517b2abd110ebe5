"""The file writers against the standard library's encoders.

wsngen writes CSV and JSON by direct string formatting. tests/oracles.py keeps
the csv.writer and json.dumps(indent=2) writers they replace; the properties
below check that both give the same bytes for drawn data.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wsngen.deployment import Deployment, deployment_to_csv, deployment_to_json
from wsngen.generator import GeneratorParams, write_document
from wsngen.topology import build_graph, graph_to_csv
from wsngen.traffic import TrafficMatrix, traffic_to_csv, traffic_to_json

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
    text = write_document(meta, data, tmp_path / "new.json")
    assert text == oracles.write_document(meta, data, tmp_path / "old.json")
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
    _same_bytes(tmp_path, lambda p: traffic_to_csv(matrix, p),
                lambda p: oracles.write_csv(p, header, ([i, *map(repr, row)]
                                                        for i, row in enumerate(rows, start=1))))


@_SETTINGS
@given(points=st.lists(st.tuples(floats, floats), max_size=8))
def test_deployment_csv_matches_csv_writer(tmp_path, points):
    dep = Deployment(points=tuple(points), area=10.0, mode="non-grid", params=PARAMS)
    _same_bytes(tmp_path, lambda p: deployment_to_csv(dep, p),
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


def test_edge_cases_are_laid_out_as_json_dumps_does():
    data = {"degrees": [], "edges": [], "points": [[5e-324, -0.0]], "values": (1, -1e308)}
    assert write_document({}, data) == oracles.write_document({}, data)
    assert write_document({}, data).endswith('\n  "values": [\n    1,\n    -1e+308\n  ]\n}')


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_writers_refuse_non_finite_points(bad, tmp_path):
    dep = Deployment(points=((1.0, 2.0), (3.0, bad)), area=10.0, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match=r"row 2: non-finite value") as csv_error:
        deployment_to_csv(dep, tmp_path / "dep.csv")
    with pytest.raises(ValueError, match=r"'points': row 2: non-finite value") as json_error:
        deployment_to_json(dep, tmp_path / "dep.json")
    with pytest.raises(ValueError, match=r"non-finite"):
        deployment_to_json(dep)
    assert "\n" not in str(csv_error.value) + str(json_error.value)
    assert list(tmp_path.iterdir()) == []


def test_writers_refuse_non_finite_meta_and_traffic(tmp_path):
    dep = Deployment(points=((1.0, 2.0),), area=math.nan, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match="not JSON compliant"):
        deployment_to_json(dep, tmp_path / "dep.json")
    matrix = TrafficMatrix(values=((2.0, 3.0), (np.inf, 4.0)), p_min=2.0, p_max=10.0,
                           distribution="uniform", params=PARAMS)
    with pytest.raises(ValueError, match="row 2: non-finite"):
        traffic_to_csv(matrix, tmp_path / "traffic.csv")
    with pytest.raises(ValueError, match="'values': row 2: non-finite"):
        traffic_to_json(matrix, tmp_path / "traffic.json")
    with pytest.raises(ValueError, match="'degrees': row 3: non-finite"):
        write_document({}, {"degrees": [0, 1, math.nan]}, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [np.float64(1.5), True, "1.5", None])
def test_writers_refuse_values_that_are_not_ints_or_floats(value, tmp_path):
    # repr(np.float64(1.5)) is "np.float64(1.5)", and repr(True) is not JSON
    dep = Deployment(points=((1.0, 2.0), (value, 4.0)), area=10.0, mode="non-grid", params=PARAMS)
    with pytest.raises(ValueError, match=f"cannot write CSV: expected ints and floats, got {type(value).__name__}"):
        deployment_to_csv(dep, tmp_path / "dep.csv")
    with pytest.raises(ValueError, match="cannot write 'points': expected ints and floats"):
        deployment_to_json(dep, tmp_path / "dep.json")
    assert list(tmp_path.iterdir()) == []
