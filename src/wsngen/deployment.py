"""2-D sensor-node deployment synthesis.

Two modes. Non-grid runs the X and Y recurrences over the whole square area.
Grid generates one quadrant with modulus m1 = area/2 and translates it into
the other three, giving four congruent clusters.

The Y recurrence uses increment `a` by default (y_increment="a"), not `c`.
That asymmetry is deliberate and part of the reproducibility contract; the
symmetric variant is available via y_increment="c".
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .generator import (
    DEFAULT_TABLE,
    GeneratorParams,
    derive_constants,
    load_document,
    require_finite,
)

__version_marker__ = None  # populated lazily to avoid a circular import


def _tool_version() -> str:
    from . import __version__

    return __version__


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

    @property
    def xs(self) -> tuple[float, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def ys(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


def _check_args(node_count: int, area: float) -> None:
    if node_count < 1:
        raise ValueError("node_count must be >= 1")
    if area <= 0:
        raise ValueError("area must be positive")


def _resolve_params(
    seed: int,
    modulus: float,
    table: Sequence[float],
    constants: Optional[tuple[float, float]],
) -> GeneratorParams:
    if constants is not None:
        a, c = constants
        return GeneratorParams(seed=seed, a=a, c=c, modulus=modulus, degenerate_ok=True)
    a, c = derive_constants(seed, table)
    return GeneratorParams(seed=seed, a=a, c=c, modulus=modulus)


def _coordinate_streams(params: GeneratorParams, count: int, y_increment: str):
    # Both streams start from the seed value. X uses increment c, Y uses a
    # or c depending on the variant flag.
    a, c, m = params.a, params.c, params.modulus
    y_inc = a if y_increment == "a" else c
    xs = []
    ys = []
    x = y = float(params.seed)
    for _ in range(count):
        x = (a * x + c) % m
        y = (a * y + y_inc) % m
        xs.append(x)
        ys.append(y)
    return xs, ys


def deploy_nongrid(
    node_count: int,
    area: float,
    seed: int,
    *,
    y_increment: str = "a",
    table: Sequence[float] = DEFAULT_TABLE,
    constants: Optional[tuple[float, float]] = None,
) -> Deployment:
    """Generate node_count points over a square [0, area) x [0, area)."""
    _check_args(node_count, area)
    if y_increment not in ("a", "c"):
        raise ValueError("y_increment must be 'a' or 'c'")
    params = _resolve_params(seed, float(area), table, constants)
    xs, ys = _coordinate_streams(params, node_count, y_increment)
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
    constants: Optional[tuple[float, float]] = None,
) -> Deployment:
    """Four-quadrant grid deployment.

    Quadrant 1 points come from the recurrences with modulus m1 = area/2;
    quadrants 2..4 are exact translations by (m1,m1), (m1,0), (0,m1). When
    node_count is not a multiple of 4, ceil(node_count/4) base points are
    generated and the concatenated output is truncated.
    """
    _check_args(node_count, area)
    if y_increment not in ("a", "c"):
        raise ValueError("y_increment must be 'a' or 'c'")
    m1 = float(area) / 2.0
    n1 = math.ceil(node_count / 4)
    params = _resolve_params(seed, m1, table, constants)
    xs, ys = _coordinate_streams(params, n1, y_increment)
    base = list(zip(xs, ys))
    blocks = [
        [(x, y) for x, y in base],
        [(x + m1, y + m1) for x, y in base],
        [(x + m1, y) for x, y in base],
        [(x, y + m1) for x, y in base],
    ]
    points = tuple(p for block in blocks for p in block)[:node_count]
    return Deployment(points=points, area=float(area), mode="grid",
                      params=params, y_increment=y_increment)


def deploy_rectangular(
    node_count: int,
    width: float,
    height: float,
    seed: int,
    *,
    mode: str = "non-grid",
    **kwargs,
) -> Deployment:
    """Thin wrapper for width x height areas: generate square, scale Y.

    The core recurrences use a single modulus, so rectangular support is a
    post-hoc affine scale of the Y axis by height/width.
    """
    if height <= 0:
        raise ValueError("height must be positive")
    fn = deploy_grid if mode == "grid" else deploy_nongrid
    dep = fn(node_count, width, seed, **kwargs)
    scale = float(height) / float(width)
    points = tuple((x, y * scale) for x, y in dep.points)
    return Deployment(points=points, area=dep.area, mode=dep.mode,
                      params=dep.params, y_increment=dep.y_increment)


# ---------------------------------------------------------------------------
# serialization

def deployment_to_csv(dep: Deployment, path) -> None:
    """CSV with header node_id,x,y; coordinates as shortest round-trip reprs."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "x", "y"])
        for i, (x, y) in enumerate(dep.points, start=1):
            writer.writerow([i, repr(x), repr(y)])


def deployment_to_json(dep: Deployment, path=None) -> str:
    doc = {
        "meta": {
            "kind": "deployment",
            "seed": dep.params.seed,
            "a": dep.params.a,
            "c": dep.params.c,
            "mode": dep.mode,
            "area": dep.area,
            "node_count": dep.node_count,
            "y_increment": dep.y_increment,
            "tool_version": _tool_version(),
        },
        "points": [[x, y] for x, y in dep.points],
    }
    text = json.dumps(doc, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


def deployment_from_json(path) -> Deployment:
    meta, rows = load_document(path, "points", ("seed", "a", "c", "area", "mode"))
    params = GeneratorParams(
        seed=meta["seed"], a=meta["a"], c=meta["c"],
        modulus=meta["area"] if meta["mode"] == "non-grid" else meta["area"] / 2.0,
        degenerate_ok=True,
    )
    try:
        points = tuple((float(x), float(y)) for x, y in rows)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: 'points' must be a list of [x, y] number pairs") from None
    require_finite(points, path)
    return Deployment(points=points, area=float(meta["area"]), mode=meta["mode"],
                      params=params, y_increment=meta.get("y_increment", "a"))


def points_from_csv(path) -> tuple[tuple[float, float], ...]:
    """Read back the node_id,x,y format. Returns the coordinate tuple only."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["node_id", "x", "y"]:
            raise ValueError("not a deployment CSV (expected header node_id,x,y)")
        pts = []
        for row in reader:
            if len(row) < 3:
                raise ValueError(f"malformed deployment row: {row!r}")
            pts.append((float(row[1]), float(row[2])))
    if not pts:
        raise ValueError("deployment CSV holds no points")
    require_finite(pts, path)
    return tuple(pts)


def deployment_to_svg(dep: Deployment, path, size: int = 480) -> None:
    """Flat SVG scatter of the deployment, one circle per node."""
    scale = size / dep.area
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white" stroke="black"/>',
    ]
    for x, y in dep.points:
        # SVG y axis points down; flip so the plot reads like a map
        cx = x * scale
        cy = size - y * scale
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="steelblue"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
