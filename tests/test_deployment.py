"""Deployment generation and serialization."""

import math
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from strategies import deployments
from wsngen.deployment import DEPLOYERS, deploy_grid, deploy_nongrid
from wsngen.generator import derive_constants, read, write


def test_grid_seed_43_frozen_first_point():
    dep = deploy_grid(100, 100.0, 43)
    assert dep.points[0] == (46.37725900000001, 47.83498399999999)
    assert dep.node_count == 100
    assert dep.mode == "grid"


def test_nongrid_points_stay_in_area():
    dep = deploy_nongrid(250, 100.0, 7)
    assert dep.node_count == 250
    for x, y in dep.points:
        assert 0.0 <= x < 100.0
        assert 0.0 <= y < 100.0


def test_grid_truncation_on_non_multiple_of_four():
    # ceil(10/4) = 3 base points, concatenation truncated to 10
    dep = deploy_grid(10, 100.0, 0)
    assert dep.node_count == 10
    base = dep.points[:3]
    second = dep.points[3:6]
    for (x0, y0), (x1, y1) in zip(base, second):
        assert (x1, y1) == (x0 + 50.0, y0 + 50.0)


def test_grid_quadrants_live_in_their_halves():
    n = 100
    dep = deploy_grid(n, 100.0, 12)
    q = n // 4
    for x, y in dep.points[:q]:
        assert x < 50.0 and y < 50.0
    for x, y in dep.points[q:2 * q]:
        assert x >= 50.0 and y >= 50.0
    for x, y in dep.points[2 * q:3 * q]:
        assert x >= 50.0 and y < 50.0
    for x, y in dep.points[3 * q:]:
        assert x < 50.0 and y >= 50.0


def test_y_increment_variants_differ():
    a = deploy_nongrid(50, 100.0, 5, y_increment="a")
    c = deploy_nongrid(50, 100.0, 5, y_increment="c")
    (ax, ay), (cx, cy) = zip(*a.points), zip(*c.points)
    assert ax == cx
    assert ay != cy
    # with increment c the Y recurrence equals the X recurrence
    assert cx == cy


def test_determinism_across_calls():
    assert deploy_nongrid(100, 100.0, 43).points == deploy_nongrid(100, 100.0, 43).points
    assert deploy_grid(100, 100.0, 43).points == deploy_grid(100, 100.0, 43).points


@pytest.mark.parametrize("bad_kwargs", [
    {"node_count": 0, "area": 100.0, "seed": 0},
    {"node_count": -3, "area": 100.0, "seed": 0},
    {"node_count": 10, "area": 0.0, "seed": 0},
    {"node_count": 10, "area": -1.0, "seed": 0},
    {"node_count": 10, "area": math.nan, "seed": 0},
    {"node_count": 10, "area": math.inf, "seed": 0},
])
def test_argument_validation(bad_kwargs):
    with pytest.raises(ValueError):
        deploy_nongrid(**bad_kwargs)
    with pytest.raises(ValueError):
        deploy_grid(**bad_kwargs)


@pytest.mark.parametrize("deploy", [deploy_nongrid, deploy_grid])
def test_seeds_from_2_53_refused(deploy):
    # float(seed) starts the chain, and from 2**53 on neighbouring seeds share
    # that float: 2**60 and 2**60 + 14 gave one deployment from (40.0, 40.0)
    for seed in (2**53, 2**60, 2**60 + 14, 10**400):
        with pytest.raises(ValueError, match=r"^seed must be below 2\*\*53: [^\n]*$"):
            deploy(100, 100.0, seed)
    assert deploy(100, 100.0, 2**53 - 1).params.seed == 2**53 - 1


# A documented limitation (README, "Known limitation: seed aliasing"), pinned
# until the cure, which changes output, is decided: seeds s and s + 14k share
# a and c, and their first points differ by 14k*a, a whole number of areas
# when k is the denominator of 14*a/area for the 6-decimal a. Only the error
# of float(a) then tells them apart, and rounding a*s loses it.
@pytest.mark.parametrize("deploy, n, area, seed, alias", [
    (deploy_nongrid, 100, 100.0, 47_802_275, 117_802_275),
    (deploy_nongrid, 200, 1.0, 186_763, 886_763),
    (deploy_nongrid, 100, 1.0, 11_361_059, 12_061_059),
    (deploy_grid, 100, 1.0, 11_361_059, 12_061_059),
])
def test_known_seed_aliases_give_one_deployment(deploy, n, area, seed, alias):
    assert alias - seed == oracles.alias_period(derive_constants(seed)[0], area)
    assert deploy(n, area, seed).points == deploy(n, area, alias).points


def test_bad_y_increment_rejected():
    with pytest.raises(ValueError):
        deploy_nongrid(10, 100.0, 0, y_increment="b")


def test_csv_round_trip_exact(tmp_path):
    dep = deploy_nongrid(60, 100.0, 24)
    path = tmp_path / "dep.csv"
    write(dep, path, "csv")
    assert read(path, area=100.0).points == dep.points


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_id,x,y\n1,2.5\n")
    with pytest.raises(ValueError):
        read(path, area=100.0)
    path.write_text("foo,bar,baz\n1,2.0,3.0\n")
    with pytest.raises(ValueError):
        read(path, area=100.0)
    path.write_text("node_id,x,y\n")
    with pytest.raises(ValueError):
        read(path, area=100.0)
    # extra columns, and a cell beyond the csv module's field limit
    path.write_text("node_id,x,y,z\n1,2.0,3.0,4.0\n")
    with pytest.raises(ValueError, match="expected header node_id,x,y"):
        read(path, area=100.0)
    path.write_text("node_id,x,y\n1," + "1" * 200_000 + ",3.0\n")
    with pytest.raises(ValueError, match="field limit"):
        read(path, area=100.0)


def test_json_round_trip(tmp_path):
    dep = deploy_grid(100, 100.0, 43)
    path = tmp_path / "dep.json"
    write(dep, path, "json")
    back = read(path)
    assert back.points == dep.points
    assert back.mode == "grid"
    assert back.area == 100.0
    assert '"kind": "deployment"' in path.read_text()


def test_base_quadrant_matches_nongrid_at_half_area():
    # the grid base block is exactly a non-grid run with modulus area/2
    seed, area, n = 14, 100.0, 100
    grid = deploy_grid(n, area, seed)
    half = deploy_nongrid(n // 4, area / 2.0, seed)
    assert grid.points[:n // 4] == half.points


def test_node_count_one():
    dep = deploy_grid(1, 100.0, 0)
    assert dep.node_count == 1
    x, y = dep.points[0]
    assert 0.0 <= x < 50.0 and 0.0 <= y < 50.0


@pytest.mark.parametrize("area", [100.0, 3.0, 1e-300, 7.3e12])
def test_grid_base_value_below_m1_stays_inside_area(area):
    # x1 = c = nextafter(m1, 0) is a legal base value, but x1 + m1 rounds
    # onto area; the emitted base value is clamped so all four quadrants fit.
    # Seed 0 of a two-entry table takes a = table[0] and c = table[1].
    m1 = area / 2.0
    dep = deploy_grid(8, area, 0, table=(1.0, math.nextafter(m1, 0.0)))
    for x, y in dep.points:
        assert 0.0 <= x < area and 0.0 <= y < area
    base = dep.points[:2]
    assert dep.points[2:4] == tuple((x + m1, y + m1) for x, y in base)
    assert dep.points[4:6] == tuple((x + m1, y) for x, y in base)
    assert dep.points[6:8] == tuple((x, y + m1) for x, y in base)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 60),
       st.floats(min_value=1e-300, max_value=1e300), st.sampled_from(["a", "c"]))
def test_deployments_contained_and_grid_congruent(seed, n, area, y_increment):
    grid = deploy_grid(n, area, seed, y_increment=y_increment)
    nongrid = deploy_nongrid(n, area, seed, y_increment=y_increment)
    for x, y in (*grid.points, *nongrid.points):
        assert 0.0 <= x < area and 0.0 <= y < area
    q, m1 = math.ceil(n / 4), area / 2.0
    base = grid.points[:q]
    for block, (dx, dy) in enumerate(((m1, m1), (m1, 0.0), (0.0, m1)), start=1):
        for k, (x, y) in enumerate(base):
            if block * q + k < n:
                assert grid.points[block * q + k] == (x + dx, y + dy)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(deployments())
def test_files_round_trip_drawn_deployments(tmp_path, dep):
    write(dep, tmp_path / "dep.csv", "csv")
    write(dep, tmp_path / "dep.json", "json")
    assert read(tmp_path / "dep.csv", area=dep.area).points == dep.points
    # the record compares points, area, mode, y_increment and (seed, a, c)
    assert read(tmp_path / "dep.json") == dep


@pytest.mark.parametrize("mode", DEPLOYERS)
def test_a_deployment_keeps_its_points_in_one_float_array(mode):
    # 16 bytes a point, where a tuple of two floats took 104
    points = DEPLOYERS[mode](10**5, 3162.0, 1).points
    assert type(points.flat) is array and points.flat.typecode == "d" and len(points.flat) == 2 * 10**5
    assert points.width == 2 and len(points) == 10**5
