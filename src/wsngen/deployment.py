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
from dataclasses import dataclass
from typing import Sequence

from .generator import (
    DEFAULT_TABLE,
    GeneratorParams,
    derive_constants,
    document_parts,
    read_csv,
    read_document,
    stream,
    write_csv,
    write_document,
)


@dataclass(frozen=True)
class Deployment:
    """Ordered node coordinates plus the provenance needed to regenerate."""

    points: tuple[tuple[float, float], ...]
    area: float
    mode: str  # "grid" or "non-grid"
    params: GeneratorParams
    y_increment: str = "a"

    @property
    def node_count(self) -> int:
        return len(self.points)


def _check_args(node_count: int, area: float, y_increment: str) -> None:
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if not area > 0 or not math.isfinite(area):
        raise ValueError(f"area must be positive and finite, got {area}")
    if y_increment not in ("a", "c"):
        raise ValueError("y_increment must be 'a' or 'c'")


def _resolve_params(seed: int, table: Sequence[float]) -> GeneratorParams:
    try:
        float(seed)
    except OverflowError:
        raise ValueError("seed exceeds the float range, so it cannot start the recurrence") from None
    return GeneratorParams(seed, *derive_constants(seed, table))


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
    points = tuple(zip(xs, ys))
    return Deployment(points=points, area=float(area), mode="non-grid",
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
    base = [(min(x, top), min(y, top)) for x, y in zip(xs, ys)]
    blocks = [
        base,
        [(x + m1, y + m1) for x, y in base],
        [(x + m1, y) for x, y in base],
        [(x, y + m1) for x, y in base],
    ]
    points = tuple(p for block in blocks for p in block)[:node_count]
    return Deployment(points=points, area=float(area), mode="grid",
                      params=params, y_increment=y_increment)


# ---------------------------------------------------------------------------
# serialization

_COLUMNS = ("node_id", "x", "y")


def deployment_to_csv(dep: Deployment, path) -> None:
    """CSV with header node_id,x,y; coordinates as shortest round-trip reprs."""
    write_csv(path, _COLUMNS, dep.points,
              (f"{i},{x!r},{y!r}\r\n" for i, (x, y) in enumerate(dep.points, start=1)))


def deployment_to_json(dep: Deployment, path=None) -> str:
    from . import __version__

    meta = {
        "kind": "deployment",
        "seed": dep.params.seed,
        "a": dep.params.a,
        "c": dep.params.c,
        "mode": dep.mode,
        "area": dep.area,
        "node_count": dep.node_count,
        "y_increment": dep.y_increment,
        "tool_version": __version__,
    }
    return write_document(meta, {"points": dep.points}, path)


def deployment_from_json(path) -> Deployment:
    return deployment_from_document(read_document(path), path)


def deployment_from_document(doc: dict, path) -> Deployment:
    """Build a Deployment from a document parsed by read_document from path."""
    meta, points = document_parts(doc, path, "points", ("seed", "a", "c", "area", "mode"))
    if len(points[0]) != 2:
        raise ValueError(f"{path}: 'points' must be a list of [x, y] number pairs")
    y_increment = meta.get("y_increment", "a")
    try:
        _check_args(len(points), meta["area"], y_increment)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    params = GeneratorParams(seed=meta["seed"], a=meta["a"], c=meta["c"])
    return Deployment(points=points, area=float(meta["area"]), mode=meta["mode"],
                      params=params, y_increment=y_increment)


def points_from_csv(path) -> tuple[tuple[float, float], ...]:
    """Read back the node_id,x,y format. Returns the coordinate tuple only."""
    return read_csv(path, "deployment", lambda width: _COLUMNS)
