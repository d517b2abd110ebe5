"""Radius-graph construction and analysis."""

import csv
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsngen.deployment import deploy_grid, deploy_nongrid
from wsngen.topology import (
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
    assert g.edges == frozenset({(0, 1)})
    assert g.degrees == (1, 1, 0)
    assert isolated_count(g) == 1
    g = build_graph(TRIANGLE, 4.0)
    assert g.edges == frozenset({(0, 1), (0, 2)})
    assert isolated_count(g) == 0
    g = build_graph(TRIANGLE, 5.0)
    assert len(g.edges) == 3


def test_boundary_is_inclusive():
    pts = ((0.0, 0.0), (10.0, 0.0))
    assert build_graph(pts, 10.0).edges == frozenset({(0, 1)})
    assert build_graph(pts, 9.999999).edges == frozenset()


def test_epsilon_extends_reach():
    pts = ((0.0, 0.0), (12.0, 0.0))
    assert build_graph(pts, 10.0).edges == frozenset()
    assert build_graph(pts, 10.0, epsilon=2.0).edges == frozenset({(0, 1)})
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
        assert g.edges == frozenset(brute)
        for (u, v), d in zip(g.edge_array.tolist(), g.distances.tolist()):
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
    text = graph_to_json(g, TRIANGLE, path)
    doc = json.loads(text)
    assert doc["meta"]["kind"] == "radius-graph"
    assert doc["meta"]["edge_count"] == 1
    assert doc["meta"]["isolated"] == 1
    assert doc["edges"] == [[1, 2, 3.0]]
    assert json.loads(path.read_text()) == doc


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


@settings(max_examples=300, deadline=None)
@given(_adversarial_points())
def test_cell_list_matches_row_wise_brute_force(case):
    pts, tr, epsilon = case
    brute = _brute_force_edges(pts, tr + epsilon)
    g = build_graph(pts, tr, epsilon)
    assert g.edges == frozenset(brute)
    degrees = [0] * len(pts)
    for u, v in brute:
        degrees[u] += 1
        degrees[v] += 1
    assert g.degrees == tuple(degrees)
    assert g.distances.tolist() == [brute[e] for e in sorted(brute)]
    doc = json.loads(graph_to_json(g, pts))
    assert doc["edges"] == [[u + 1, v + 1, brute[(u, v)]] for u, v in sorted(brute)]


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
    assert build_graph(pts, reach).edges == frozenset(_brute_force_edges(pts, reach)) == {(1, 2)}


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
    assert build_graph(pts, 1e-300).edges == frozenset()
    assert isolated_by_range(pts, (1e-300,)) == {1e-300: 3}
    assert build_graph(((0.0, 0.0), (1e300, 0.0), (1e300, 1e-300)), 1e-300).edges == frozenset({(1, 2)})


def test_infinite_reach_joins_every_pair():
    # the extent overflows to inf: every pair is a candidate
    pts = ((-1e308, 0.0), (1e308, 1.0), (1.0, 0.0))
    with np.errstate(over="ignore"):
        assert build_graph(pts, math.inf).edges == frozenset({(0, 1), (0, 2), (1, 2)})


def test_exports_refuse_an_overflowed_distance(tmp_path):
    # the pair is kept (inf <= inf) with a distance that overflowed to inf, so
    # the writers' own finiteness check is what keeps "inf" out of the files
    pts = ((0.0, 0.0), (1e200, 0.0))
    with np.errstate(over="ignore"):
        g = build_graph(pts, math.inf)
    assert g.edges == frozenset({(0, 1)})
    assert g.distances.tolist() == [math.inf]
    with pytest.raises(ValueError, match=r"^cannot write CSV: row 1: non-finite value in \[1, 2, inf\]$"):
        graph_to_csv(g, pts, tmp_path / "edges.csv")
    # the infinite range in the meta is refused first
    with pytest.raises(ValueError, match="not JSON compliant"):
        graph_to_json(g, pts, tmp_path / "graph.json")
    assert list(tmp_path.iterdir()) == []


def test_hundred_thousand_nodes():
    # untimed; an all-pairs build would need an n x n x 2 temporary of 160 GB
    pts = np.random.default_rng(4).uniform(0.0, 3162.0, size=(100_000, 2))
    g = build_graph(pts, 15.0)
    assert g.node_count == 100_000
    assert sum(g.degrees) == 2 * len(g.edges) > 0
