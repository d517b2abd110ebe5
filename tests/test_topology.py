"""Radius-graph construction and analysis."""

import csv
import json
import math
import random
import re
import sys
from array import array
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from strategies import check_rows
from wsngen import generator
from wsngen.deployment import DEPLOYERS, deploy_grid, deploy_nongrid
from wsngen.topology import (
    RadiusGraph,
    build_graph,
    graph_to_csv,
    graph_to_json,
    isolated_by_range,
    isolated_count,
)

TRIANGLE = ((0.0, 0.0), (3.0, 0.0), (0.0, 4.0))


def test_triangle_edges_and_isolation():
    # distances: 3 (01), 4 (02), 5 (12)
    g = build_graph(TRIANGLE, 3.0)
    assert g.edges == ((0, 1),)
    assert g.degrees == (1, 1, 0)
    assert isolated_count(g) == 1
    g = build_graph(TRIANGLE, 4.0)
    assert g.edges == ((0, 1), (0, 2))
    assert isolated_count(g) == 0
    g = build_graph(TRIANGLE, 5.0)
    assert len(g.edges) == 3


def test_boundary_is_inclusive():
    pts = ((0.0, 0.0), (10.0, 0.0))
    assert build_graph(pts, 10.0).edges == ((0, 1),)
    assert build_graph(pts, 9.999999).edges == ()


def test_epsilon_extends_reach():
    pts = ((0.0, 0.0), (12.0, 0.0))
    assert build_graph(pts, 10.0).edges == ()
    assert build_graph(pts, 10.0, epsilon=2.0).edges == ((0, 1),)
    # tr + epsilon is interchangeable with a larger tr
    dep = deploy_nongrid(100, 100.0, 0)
    assert build_graph(dep, 10.0, epsilon=2.5).edges == build_graph(dep, 12.5).edges


def test_randomized_brute_force_edge_sets():
    rng = random.Random(20260817)
    for _ in range(50):
        n = rng.randint(2, 30)
        pts = tuple((rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(n))
        tr = rng.uniform(1.0, 40.0)
        g = build_graph(pts, tr)
        brute = set()
        for u in range(n):
            for v in range(u + 1, n):
                if math.dist(pts[u], pts[v]) <= tr:
                    brute.add((u, v))
        assert g.edges == tuple(sorted(brute))
        for (u, v), d in zip(g.edges, g.distances):
            assert abs(d - math.dist(pts[u], pts[v])) <= 1e-12
        assert isolated_count(g) == sum(
            1 for u in range(n)
            if not any(u in e for e in brute)
        )


def test_argument_validation():
    with pytest.raises(ValueError):
        build_graph(TRIANGLE, 0.0)
    with pytest.raises(ValueError):
        build_graph(TRIANGLE, -1.0)
    with pytest.raises(ValueError):
        build_graph(TRIANGLE, 5.0, epsilon=-0.1)
    with pytest.raises(ValueError, match="tr must be positive"):
        build_graph(TRIANGLE, math.nan)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        isolated_by_range(TRIANGLE, (5.0,), epsilon=math.nan)
    with pytest.raises(ValueError):
        build_graph((), 5.0)
    with pytest.raises(ValueError):
        build_graph(((1.0, 2.0, 3.0),), 5.0)


def test_isolated_by_range_sweep():
    dep = deploy_grid(100, 100.0, 43)
    sweep = isolated_by_range(dep, (10.0, 15.0, 20.0))
    assert set(sweep) == {10.0, 15.0, 20.0}
    counts = [sweep[tr] for tr in (10.0, 15.0, 20.0)]
    assert counts == sorted(counts, reverse=True)
    for tr, count in sweep.items():
        assert count == isolated_count(build_graph(dep, tr))


def test_csv_export_one_based(tmp_path):
    g = build_graph(TRIANGLE, 5.0)
    path = tmp_path / "edges.csv"
    graph_to_csv(g, TRIANGLE, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "v", "distance"]
    assert [r[:2] for r in rows[1:]] == [["1", "2"], ["1", "3"], ["2", "3"]]
    assert [float(r[2]) for r in rows[1:]] == [3.0, 4.0, 5.0]


def test_json_export(tmp_path):
    g = build_graph(TRIANGLE, 3.0)
    path = tmp_path / "graph.json"
    assert graph_to_json(g, TRIANGLE, path) is None
    doc = json.loads(path.read_text())
    assert doc["meta"]["kind"] == "radius-graph"
    assert doc["meta"]["edge_count"] == 1
    assert doc["meta"]["isolated"] == 1
    assert doc["edges"] == [[1, 2, 3.0]]
    assert path.read_bytes().endswith(b"\n  ]\n}\n")


def test_frozen_seed_0_analysis():
    dep = deploy_nongrid(100, 100.0, 0)
    g = build_graph(dep, 10.0)
    assert len(g.edges) == 163
    assert isolated_count(g) == 6


def _brute_force_edges(points, reach):
    """{(u, v): distance} for u < v, one row at a time with the float
    expression the graph uses, so boundary ties resolve identically."""
    pts = np.asarray(points, dtype=float)
    edges = {}
    for u in range(len(pts) - 1):
        dist = np.sqrt(((pts[u] - pts[u + 1:]) ** 2).sum(axis=-1))
        for k in np.nonzero(dist <= reach)[0]:
            edges[(u, u + 1 + int(k))] = float(dist[k])
    return edges


@st.composite
def _adversarial_points(draw):
    """(points, tr, epsilon): lattice multiples of the reach with +-1e-15
    jitter, copies shifted by exactly the reach, duplicates and negative
    coordinates, down to a single point; tr may dwarf the extent."""
    spacing = draw(st.sampled_from([1e-3, 0.5, 1.0, 3.7, 10.0, 12.5]))
    n = draw(st.integers(1, 30))
    cells = draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                          min_size=n, max_size=n))
    jitter = draw(st.lists(st.sampled_from([-1e-15, 0.0, 1e-15]), min_size=2 * n, max_size=2 * n))
    pts = np.array(cells, dtype=float) * spacing
    pts = pts + np.reshape(jitter, (n, 2)) * np.maximum(1.0, np.abs(pts))
    if draw(st.booleans()):
        pts = np.concatenate([pts, pts + [spacing, 0.0], pts + [0.0, -spacing]])
    if draw(st.booleans()):
        pts = np.concatenate([pts, pts[: draw(st.integers(1, len(pts)))]])
    epsilon = draw(st.sampled_from([0.0, 0.0, spacing / 4]))
    tr = draw(st.sampled_from([spacing - epsilon, spacing * 2 ** 0.5, spacing * 1000]))
    return tuple(map(tuple, pts.tolist())), tr, epsilon


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_adversarial_points())
def test_cell_list_matches_row_wise_brute_force(tmp_path, case):
    pts, tr, epsilon = case
    brute = _brute_force_edges(pts, tr + epsilon)
    g = build_graph(pts, tr, epsilon)
    # one stored form: edges strictly increasing, distances aligned with them,
    # degrees the per-node edge counts
    assert all(e < f for e, f in zip(g.edges, g.edges[1:]))
    assert set(g.edges) == set(brute)
    assert g.distances == tuple(brute[e] for e in g.edges)
    degrees = [0] * len(pts)
    for u, v in brute:
        degrees[u] += 1
        degrees[v] += 1
    assert g.degrees == tuple(degrees)
    _assert_exports_match_oracles(g, [[u + 1, v + 1, brute[(u, v)]] for u, v in sorted(brute)], tmp_path)


def _assert_exports_match_oracles(g, rows, directory):
    """Both exports of g give the bytes csv.writer and json.dumps give for its
    edge rows [u, v, distance] (1-based)."""
    meta = {"kind": "radius-graph", "node_count": g.node_count, "transmission_range": g.transmission_range,
            "epsilon": g.epsilon, "edge_count": len(rows), "isolated": g.degrees.count(0)}
    oracles.write_csv(directory / "oracle.csv", ("u", "v", "distance"), ([u, v, repr(d)] for u, v, d in rows))
    oracles.write_document(meta, {"degrees": g.degrees, "edges": rows}, directory / "oracle.json")
    graph_to_csv(g, None, directory / "graph.csv")
    graph_to_json(g, None, directory / "graph.json")
    for suffix in ("csv", "json"):
        assert (directory / f"graph.{suffix}").read_bytes() == (directory / f"oracle.{suffix}").read_bytes()


@settings(max_examples=200, deadline=None)
@given(_adversarial_points(), st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0]), min_size=1, max_size=4))
def test_isolated_by_range_matches_per_range_graphs(case, factors):
    pts, tr, epsilon = case
    trs = [tr * f for f in factors]
    expect = {float(t): isolated_count(build_graph(pts, t, epsilon)) for t in trs}
    assert isolated_by_range(pts, trs, epsilon) == expect


@pytest.mark.parametrize("pts, reach", [
    # plain floor(x / reach) cells put this exact-reach pair two cells apart
    (((-0.8999999999999999, 0.0), (-0.3, 0.0), (0.0, 0.0)), 0.3),
    # a 2**52-cell extent: x - min(x) rounds the pair one ulp further apart
    (((-2.0 ** -13, 0.0), (2.0 ** 40, 0.0), (2.0 ** 40 + 2.0 ** -12, 0.0)), 2.0 ** -12),
])
def test_exact_reach_pair_survives_cell_rounding(pts, reach):
    assert build_graph(pts, reach).edges == tuple(_brute_force_edges(pts, reach)) == ((1, 2),)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_points_rejected(bad):
    pts = ((0.0, 0.0), (1.0, 1.0), (bad, 2.0), (3.0, bad))
    with pytest.raises(ValueError, match="row 3: non-finite"):
        build_graph(pts, 5.0)
    with pytest.raises(ValueError, match="row 3: non-finite"):
        isolated_by_range(pts, (5.0,))


@pytest.mark.filterwarnings("error")
def test_tiny_reach_over_huge_extent():
    # without the cap on cells per axis, a cell index of 1e300 / 1e-300
    # would overflow int64
    pts = ((0.0, 0.0), (1e300, 1.0), (1.0, 0.0))
    assert build_graph(pts, 1e-300).edges == ()
    assert isolated_by_range(pts, (1e-300,)) == {1e-300: 3}
    assert build_graph(((0.0, 0.0), (1e300, 0.0), (1e300, 1e-300)), 1e-300).edges == ((1, 2),)


def test_infinite_reach_joins_every_pair():
    # the extent overflows to inf: every pair is a candidate
    pts = ((-1e308, 0.0), (1e308, 1.0), (1.0, 0.0))
    with np.errstate(over="ignore"):
        assert build_graph(pts, math.inf).edges == ((0, 1), (0, 2), (1, 2))


@pytest.mark.filterwarnings("error")
def test_distance_beyond_square_range():
    # the squared difference of 1e200 overflows; the distance does not
    g = build_graph(((0.0, 0.0), (1e200, 0.0)), 2e200)
    assert g.edges == ((0, 1),)
    assert g.distances == (1e200,)


@pytest.mark.filterwarnings("error")
def test_isolated_by_range_over_a_huge_area():
    dep = deploy_nongrid(500, 1e200, 0)
    trs = [1e198, 3e198, 1e199, 3e199]
    assert isolated_by_range(dep, trs) == {tr: isolated_count(build_graph(dep, tr)) for tr in trs}
    scaled = np.array(dep.points) / 2.0 ** 600
    assert build_graph(dep, 1e199).edges == tuple(sorted(_brute_force_edges(scaled, 1e199 / 2.0 ** 600)))


# Points about a unit apart, a pair 1e-301 apart (its square underflows to 0) and
# two equal points: the reaches mix a square that underflows or overflows with
# normal ones, unsorted and repeated, with and without epsilon
_BASE = (*deploy_nongrid(40, 8.0, 3).points, (0.0, 0.0), (1e-301, 0.0), (4.0, 4.0), (4.0, 4.0))
_MIXED_REACHES = [
    (_BASE, (1e-300, 2.0), 0.0),
    (_BASE + ((1e180, 0.0), (-1e180, 5.0)), (1.0, 1e200), 0.0),
    (_BASE + ((1e300, 0.0),), (1e200, 1e301), 0.0),
    (_BASE + ((1e300, 0.0),), [2.0, math.inf], 0.0),
    (_BASE, [3.0, 1.0, 3.0, 0.5, 1.0], 0.0),
    (_BASE, (2.0, 1e-300, 1.0), 1e-300),
    (_BASE, [1.5, 0.5, 0.5], 0.25),
    # a node with no neighbour at all is isolated at every range, tr = inf too
    (((0.0, 0.0),), [1.0, math.inf], 0.0),
]


def _numpy_graph_counts(pts, trs, epsilon):
    """isolated_count of build_graph at each tr on the numpy path: a count that
    does not come from the list path's scan, which isolated_by_range shares."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "_NUMPY_FROM", 0)
        return {float(tr): isolated_count(build_graph(pts, tr, epsilon)) for tr in trs}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pts, trs, epsilon", _MIXED_REACHES)
def test_isolated_by_range_over_mixed_reaches(pts, trs, epsilon):
    # a node's scan stops at its first neighbour within the smallest reach, by
    # its square only where that reach's square is normal
    expect = {float(tr): isolated_count(build_graph(pts, tr, epsilon)) for tr in trs}
    assert isolated_by_range(pts, trs, epsilon) == expect
    assert expect == _numpy_graph_counts(pts, trs, epsilon)


@pytest.mark.parametrize("mode", DEPLOYERS)
def test_isolated_by_range_on_the_benchmark_inputs(mode):
    # seed_sweep's deployments: n = 100 over area 100 at ranges 10, 15 and 20
    trs = (10.0, 15.0, 20.0)
    for seed in range(300):
        dep = DEPLOYERS[mode](100, 100.0, seed)
        expect = {tr: isolated_count(build_graph(dep, tr)) for tr in trs}
        assert isolated_by_range(dep, trs) == expect, seed
        # the nodes of the row-wise edges: these squares are all normal, so the distances agree
        brute = _brute_force_edges(dep.points, max(trs))
        assert expect == {tr: 100 - len({w for e, d in brute.items() if d <= tr for w in e}) for tr in trs}, seed


def _assert_distance(p, q, got):
    """got keeps the row-wise expression's bits where each coordinate
    difference is zero or has a normal square and the squares sum to a
    finite value. Everywhere it lies within 2**-51 relative, plus half the
    smallest subnormal, of the exact distance, and it is inf only past the
    float range."""
    diffs = (p[0] - q[0], p[1] - q[1])
    if all(d == 0 or sys.float_info.min <= d * d for d in diffs) and math.isfinite(sum(d * d for d in diffs)):
        assert got == oracles.plain_distance(p, q)
    exact = oracles.exact_distance(p, q)
    if got == math.inf:
        assert exact > Decimal(sys.float_info.max) * (1 - Decimal(2) ** -51)
    else:
        assert abs(Decimal(got) - exact) <= exact * Decimal(2) ** -51 + Decimal(2) ** -1075


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pts", [
    ((0.0, 0.0), (1e-100, 0.0), (1e300, 0.0)),
    ((0.0, 0.0), (1e-140, 0.0), (1e200, 0.0), (1e200, 1e-140), (-1e200, 3.0)),
    ((-1e308, 0.0), (1e-170, 1e-170), (0.0, 0.0), (5e307, -5e307)),
    # a tiny difference on one axis next to a huge shared coordinate on the other
    ((1e300, 0.0), (1e300, 1e-300), (1.0, 5e-324), (1.0, 0.0)),
])
def test_mixed_scales_keep_the_unscaled_distances(pts):
    # only the pairs whose squares leave the normal range are rescaled, each
    # by its own power of two; every other distance keeps its bits
    g = build_graph(pts, math.inf)
    assert len(g.edges) == len(pts) * (len(pts) - 1) // 2
    for (u, v), got in zip(g.edges, g.distances):
        _assert_distance(pts[u], pts[v], got)
    assert build_graph(pts, 1e-120).edges == tuple(e for e, d in zip(g.edges, g.distances) if d <= 1e-120)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _point_pairs(draw):
    """Two points anywhere in the float range, subnormals included. Half the
    time the second shares the first's x, or lies a few ulps from it on both
    axes, so that huge coordinates meet tiny differences."""
    p = draw(st.tuples(_FLOATS, _FLOATS))
    kind = draw(st.sampled_from(["free", "free", "shared x", "ulps"]))
    if kind == "free":
        q = draw(st.tuples(_FLOATS, _FLOATS))
    elif kind == "shared x":
        q = (p[0], draw(_FLOATS))
    else:
        q = tuple(c + draw(st.integers(-3, 3)) * math.ulp(c) for c in p)
        assume(all(map(math.isfinite, q)))
    return p, q


@pytest.mark.filterwarnings("error")
@settings(max_examples=1000, deadline=None)
@given(_point_pairs())
def test_distance_over_the_full_exponent_range(pair):
    (got,) = build_graph(pair, math.inf).distances
    _assert_distance(*pair, got)


@settings(max_examples=200, deadline=None)
@given(_adversarial_points())
def test_huge_extent_scales_exactly(case):
    # a distance whose square overflows comes from coordinates scaled by a
    # power of two, which changes no bit of it
    pts, tr, epsilon = case
    g = build_graph(pts, tr, epsilon)
    big = build_graph(np.array(pts) * 2.0 ** 600, tr * 2.0 ** 600, epsilon * 2.0 ** 600)
    assert big.edges == g.edges
    assert big.distances == tuple(d * 2.0 ** 600 for d in g.distances)


def test_exports_refuse_an_overflowed_distance(tmp_path):
    # the pair is kept (inf <= inf) with a distance beyond the float range, so
    # the writers' own finiteness check is what keeps "inf" out of the files
    pts = ((-1e308, 0.0), (1e308, 0.0))
    g = build_graph(pts, math.inf)
    assert g.edges == ((0, 1),)
    assert g.distances == (math.inf,)
    with pytest.raises(ValueError, match=r"^cannot write CSV: row 1: non-finite value in \[1, 2, inf\]$"):
        graph_to_csv(g, pts, tmp_path / "edges.csv")
    # the infinite range in the meta is refused first
    line = "cannot write JSON: meta field 'transmission_range' must be a finite number, got inf"
    with pytest.raises(ValueError, match=f"^{re.escape(line)}$"):
        graph_to_json(g, pts, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


def _hand_built(edges, distances):
    return RadiusGraph(node_count=3, transmission_range=1.0, epsilon=0.0, edges=edges,
                       distances=distances, degrees=(2, 1, 1))


@pytest.mark.parametrize("edges, distances, message", [
    (((0, 1), (0, 2)), (0.5, np.float64(1.5)), "expected ints and floats, got float64"),
    (((0, 1), (0, np.int64(2))), (0.5, 1.5), "expected ints and floats, got int64"),
    (((0, 1), (0, 2)), (0.5, math.nan), "row 2: non-finite value in [1, 3, nan]"),
    (((0, 1), (0, 2)), (math.inf, 1.5), "row 1: non-finite value in [1, 2, inf]"),
    (((0, 1), (0, 2)), (0.5, -math.inf), "row 2: non-finite value in [1, 3, -inf]"),
    # columns that disagree wrote one CSV row, and a JSON edge_count of 2 over one row
    (((0, 1), (0, 2)), (0.5,), "1 distances for 2 edges"),
    (((0, 1),), (0.5, 1.5), "2 distances for 1 edges"),
])
def test_exports_refuse_what_json_and_csv_cannot_hold(tmp_path, edges, distances, message):
    # repr(np.float64(1.5)) is "np.float64(1.5)"
    g = _hand_built(edges, distances)
    with pytest.raises(ValueError, match=f"^cannot write CSV: {re.escape(message)}$"):
        graph_to_csv(g, None, tmp_path / "edges.csv")
    with pytest.raises(ValueError, match=f"^cannot write 'edges': {re.escape(message)}$"):
        graph_to_json(g, None, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("degrees", [(2, 1, 1, 0), (2, 1)])
def test_exports_refuse_a_degree_count_other_than_the_node_count(tmp_path, degrees):
    # a degrees tuple longer than node_count was written as it is
    g = _hand_built(((0, 1), (0, 2)), (0.5, 1.5))._replace(degrees=degrees)
    message = f"{len(degrees)} degrees for 3 nodes"
    with pytest.raises(ValueError, match=f"^cannot write CSV: {message}$"):
        graph_to_csv(g, None, tmp_path / "edges.csv")
    with pytest.raises(ValueError, match=f"^cannot write 'edges': {message}$"):
        graph_to_json(g, None, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edges", [
    ((0, 5),),  # an id past node_count wrote the row 1,6,0.5
    ((-1, 1),),  # and a negative one 0,2,0.5
    ((0, math.nan),),
    (("a", 1),),  # an id that is not a number raised a bare TypeError from u + 1
    ((0, None),),
    ((1, 0),),  # u > v wrote the row 2,1,0.5
    ((1, 1),),
    ((0, 1, 2),),  # not a pair
    generator.Rows(array("q", [0, 3]), 2),  # build_graph's form of the edges
    generator.Rows(array("q", [2, 1]), 2),
])
def test_exports_refuse_edges_that_are_not_ordered_node_id_pairs(tmp_path, edges):
    g = _hand_built(edges, (0.5,))
    message = "'edges' must be a list of (u, v) pairs of node ids 0 <= u < v < 3"
    with pytest.raises(ValueError, match=f"^cannot write CSV: {re.escape(message)}$"):
        graph_to_csv(g, None, tmp_path / "edges.csv")
    with pytest.raises(ValueError, match=f"^cannot write 'edges': {re.escape(message)}$"):
        graph_to_json(g, None, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("edges, distances", [
    (((0.0, 1), (0, 2)), (0.5, 1.5)),  # a float id is written as one: 1.0
    (((True, 1), (0, 2)), (0.5, 1.5)),  # True + 1 is the int 2
    (((0, 1), (0, 2)), (1, 1.5)),  # an int distance
])
def test_exports_write_other_ints_and_floats_as_their_rows(tmp_path, edges, distances):
    rows = [[u + 1, v + 1, d] for (u, v), d in zip(edges, distances)]
    _assert_exports_match_oracles(_hand_built(edges, distances), rows, tmp_path)


@st.composite
def _graphs(draw):
    """A radius graph of a drawn deployment with fewer points than
    generator._NUMPY_FROM (the list path) or at least that many (numpy)."""
    low = draw(st.booleans())
    n = draw(st.integers(1, generator._NUMPY_FROM - 1) if low else
             st.integers(generator._NUMPY_FROM, generator._NUMPY_FROM + 200))
    deploy = DEPLOYERS[draw(st.sampled_from(sorted(DEPLOYERS)))]
    dep = deploy(n, 10.0 * math.sqrt(n), draw(st.integers(0, 10**6)))
    return build_graph(dep, draw(st.sampled_from([1.0, 10.0, 20.0])))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_graphs(), st.data())
def test_edges_are_a_sequence_of_pairs_equal_to_their_tuple(tmp_path, g, data):
    check_rows(g.edges, data)  # one int array, not a tuple per edge
    assert g.edges.flat.typecode == "q" and g.edges.width == 2
    pairs = tuple(g.edges)
    assert all(type(u) is int and type(v) is int for u, v in pairs)
    plain = g._replace(edges=pairs)
    assert g == plain and hash(g) == hash(plain)
    for export, suffix in ((graph_to_csv, "csv"), (graph_to_json, "json")):
        export(g, None, tmp_path / f"columns.{suffix}")
        export(plain, None, tmp_path / f"plain.{suffix}")
        assert (tmp_path / f"columns.{suffix}").read_bytes() == (tmp_path / f"plain.{suffix}").read_bytes()


def test_hundred_thousand_nodes():
    # untimed; an all-pairs build would need an n x n x 2 temporary of 160 GB
    pts = np.random.default_rng(4).uniform(0.0, 3162.0, size=(100_000, 2))
    g = build_graph(pts, 15.0)
    assert g.node_count == 100_000
    assert sum(g.degrees) == 2 * len(g.edges) > 0


# Below 512 points the graph is built over lists, so the cases above take
# that path; the properties and edge cases run again with numpy from 0 points.
_ON_NUMPY = {
    "cell_list": lambda tmp_path: test_cell_list_matches_row_wise_brute_force(tmp_path),
    "isolated_by_range": lambda tmp_path: test_isolated_by_range_matches_per_range_graphs(),
    "distance": lambda tmp_path: test_distance_over_the_full_exponent_range(),
    "huge_extent": lambda tmp_path: test_huge_extent_scales_exactly(),
    "tiny_reach": lambda tmp_path: test_tiny_reach_over_huge_extent(),
    "infinite_reach": lambda tmp_path: test_infinite_reach_joins_every_pair(),
    "beyond_square_range": lambda tmp_path: test_distance_beyond_square_range(),
    "mixed_reaches": lambda tmp_path: [test_isolated_by_range_over_mixed_reaches(*case) for case in _MIXED_REACHES],
}


@pytest.mark.parametrize("name", _ON_NUMPY)
def test_properties_hold_on_the_numpy_path(name, tmp_path, monkeypatch):
    monkeypatch.setattr(generator, "_NUMPY_FROM", 0)
    _ON_NUMPY[name](tmp_path)


@pytest.mark.parametrize("mode", DEPLOYERS)
def test_list_path_matches_numpy_at_the_benchmark_size(mode, monkeypatch):
    # the benchmark's density at seed_sweep's n = 100, at 300 and 511 below the switch to
    # numpy and at large_topology's n = 1000: each graph, built on both paths, matches
    # whole, degrees and edge order included
    trs = (10.0, 15.0, 20.0)
    for n in (100, 300, 511, 1000):
        dep = DEPLOYERS[mode](n, 10.0 * math.sqrt(n), 11)
        for epsilon in (0.0, 0.5):
            monkeypatch.setattr(generator, "_NUMPY_FROM", 0)
            on_numpy = [build_graph(dep, tr, epsilon) for tr in trs], isolated_by_range(dep, trs, epsilon)
            monkeypatch.setattr(generator, "_NUMPY_FROM", 10**6)
            on_lists = [build_graph(dep, tr, epsilon) for tr in trs], isolated_by_range(dep, trs, epsilon)
            assert on_lists == on_numpy, (n, epsilon)
