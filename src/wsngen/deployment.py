"""2-D sensor-node deployment synthesis.

Two modes. Non-grid runs the X and Y recurrences over the whole square area.
Grid generates one quadrant with modulus m1 = area/2 and translates it into
the other three, giving four congruent clusters.

The Y recurrence uses increment `a` by default (y_increment="a"), not `c`.
That asymmetry is deliberate and part of the reproducibility contract; the
symmetric variant is available via y_increment="c".
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

from .generator import (
    DEFAULT_TABLE,
    NUMBER,
    POSITIVE,
    GeneratorParams,
    Rows,
    Schema,
    _constants_of,
    _float_arg,
    _pairs,
    read,
    stream,
    write,
)

_COLUMNS = ("node_id", "x", "y")


def _check_args(node_count: int, area: float, y_increment: str) -> None:
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    _float_arg(area, "area", POSITIVE)
    if y_increment not in ("a", "c"):
        raise ValueError("y_increment must be 'a' or 'c'")


def _check_points(points, area: float) -> None:
    if len(points[0]) != 2:
        raise ValueError("'points' must be a list of [x, y] number pairs")
    _check_args(len(points), area, "a")


class Deployment(NamedTuple):
    """Ordered node coordinates plus the provenance needed to regenerate."""

    points: Sequence[tuple[float, float]]  # Rows over an array('d') from the deployers and read
    area: float
    # provenance: None for points read from CSV, which records none
    mode: Optional[str]  # "grid" or "non-grid"
    params: Optional[GeneratorParams]
    y_increment: Optional[str] = "a"

    @property
    def node_count(self) -> int:
        return len(self.points)

    # the file format: node_id,x,y rows, or a JSON document of points
    SCHEMA = Schema(
        kind="deployment", data="points", columns=lambda width: _COLUMNS,
        meta={"seed": NUMBER, "a": NUMBER, "c": NUMBER,
              "mode": (lambda v: v in ("grid", "non-grid", None), "'grid' or 'non-grid' or null"),
              "area": NUMBER, "node_count": NUMBER,
              "y_increment": (lambda v: v in ("a", "c", None), "'a' or 'c' or null")},
        described=("area",), check=_check_points)


def _resolve_params(seed: int, table: Sequence[float]) -> GeneratorParams:
    # the chain starts at float(seed), which from 2**53 on is the same float
    # for neighbouring seeds: 2**60 and 2**60 + 14 gave one dataset
    if not seed < 2 ** 53:
        raise ValueError("seed must be below 2**53: past it the float range does not "
                         "hold every integer, so two seeds would name one dataset")
    return _constants_of(table)(seed)


def _coordinate_streams(params: GeneratorParams, modulus: float, count: int, y_increment: str):
    # Both streams start from the seed value. X uses increment c, Y uses a
    # or c depending on the variant flag.
    a, c = params.a, params.c
    xs = stream(params.seed, a, c, modulus, count)
    ys = stream(params.seed, a, a if y_increment == "a" else c, modulus, count)
    return xs, ys


def deploy_nongrid(
    node_count: int,
    area: float,
    seed: int,
    *,
    y_increment: str = "a",
    table: Sequence[float] = DEFAULT_TABLE,
) -> Deployment:
    """Generate node_count points over a square [0, area) x [0, area)."""
    _check_args(node_count, area, y_increment)
    params = _resolve_params(seed, table)
    xs, ys = _coordinate_streams(params, float(area), node_count, y_increment)
    return Deployment(points=_pairs("d", xs, ys), area=float(area), mode="non-grid",
                      params=params, y_increment=y_increment)


def deploy_grid(
    node_count: int,
    area: float,
    seed: int,
    *,
    y_increment: str = "a",
    table: Sequence[float] = DEFAULT_TABLE,
) -> Deployment:
    """Four-quadrant grid deployment.

    Quadrant 1 points come from the recurrences with modulus m1 = area/2;
    quadrants 2..4 are exact translations by (m1,m1), (m1,0), (0,m1). When
    node_count is not a multiple of 4, ceil(node_count/4) base points are
    generated and the concatenated output is truncated.
    """
    _check_args(node_count, area, y_increment)
    m1 = float(area) / 2.0
    n1 = math.ceil(node_count / 4)
    params = _resolve_params(seed, table)
    xs, ys = _coordinate_streams(params, m1, n1, y_increment)
    # A base value just below m1 can round onto area when shifted by m1.
    # Clamp the emitted value (the chain runs on unclamped) to the largest
    # float whose shift stays below area; every other value is unchanged.
    top = m1
    while top + m1 >= area:
        top = math.nextafter(top, 0.0)
    xs, ys = [min(x, top) for x in xs], [min(y, top) for y in ys]
    # the quadrants in order: base, shifted by (m1, m1), by (m1, 0) and by (0, m1)
    shifted_xs, shifted_ys = [x + m1 for x in xs], [y + m1 for y in ys]
    points = _pairs("d", (xs + shifted_xs + shifted_xs + xs)[:node_count],
                    (ys + shifted_ys + ys + shifted_ys)[:node_count])
    return Deployment(points=points, area=float(area), mode="grid",
                      params=params, y_increment=y_increment)


# the deployment modes, in report and --mode order
DEPLOYERS = {"non-grid": deploy_nongrid, "grid": deploy_grid}


# ---------------------------------------------------------------------------
# the file codec's former names, which perfbench still calls


def deployment_to_csv(dep: Deployment, path) -> None:
    write(dep, path, "csv")


def deployment_to_json(dep: Deployment, path) -> None:
    write(dep, path, "json")


def deployment_from_json(path) -> Deployment:
    return read(path, ("deployment",))


def points_from_csv(path) -> Rows:
    # any valid area will do: only the points are returned
    return read(path, ("deployment",), area=1.0).points
