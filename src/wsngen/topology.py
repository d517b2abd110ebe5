"""Radius-graph topology analysis over deployments.

Two nodes share an edge when their Euclidean distance is at most the
transmission range plus the epsilon relaxation (inclusive boundary, so the
range acts as a closed sensing radius). Distances always come from the
full-precision coordinates, never from rounded serialized values.

Neighbours are found with a cell list (Bentley, Stanat & Williams 1977,
"The complexity of finding fixed-radius near neighbors"): points are
bucketed into square cells slightly wider than the reach, so every pair
within reach lies in the same or an adjacent cell. Time and memory are
O(n + edges) for a deployment of roughly even density.

The neighbour pass keeps to a few numpy kernels (elementwise arithmetic,
searchsorted, repeat) and sorts and takes extents in Python. Each further
numpy kernel faults 64-128 KB of its code into the resident set of the
process that first calls it, while at the n = 100 of a seed sweep Python
does these steps about as fast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .generator import require_finite, write_csv, write_document

# Cells are wider than the reach by this factor, so a pair at exactly the
# reach cannot round into cells two apart.
_CELL_PAD = 1 + 2.0 ** -20
# Cells per axis stay below this: cell keys fit in int64, and the rounding
# of a cell index stays below the padding. A wider extent widens the cells,
# which only adds candidate pairs.
_MAX_CELLS = 2 ** 30
# Half of the eight neighbouring cell offsets: each adjacent pair of cells
# is visited once.
_FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))


@dataclass(frozen=True)
class RadiusGraph:
    node_count: int
    transmission_range: float
    epsilon: float
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, 0-based ids, sorted
    distances: tuple[float, ...]  # aligned with edges
    degrees: tuple[int, ...]


def _as_points(deployment) -> np.ndarray:
    # accepts a Deployment or a raw coordinate sequence
    pts = getattr(deployment, "points", deployment)
    arr = np.asarray(pts, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("deployment must supply a non-empty (n, 2) point set")
    require_finite(arr.tolist(), "points")
    return arr


def _reach(tr: float, epsilon: float) -> float:
    if not tr > 0:
        raise ValueError("tr must be positive")
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    return tr + epsilon


def _argsort(values: np.ndarray) -> np.ndarray:
    """Stable argsort by Python's sorted() (see the module docstring)."""
    keys = values.tolist()
    return np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)


def _candidates(pts: np.ndarray, reach: float):
    """Candidate pairs (u, v) with their distances d, each pair once and in
    no set order. Every pair within reach is among them; d is a row-wise scan's
    expression wherever its squares stay normal, so boundary ties agree."""
    xs, ys = pts.T.tolist()
    lo = [min(xs), min(ys)]
    span = [max(xs) - lo[0], max(ys) - lo[1]]
    side = max(reach * _CELL_PAD, max(span) / _MAX_CELLS)
    if side == math.inf:  # one cell: every pair is a candidate
        cell, rows = np.zeros_like(pts, dtype=np.int64), 3
    else:
        cell = np.floor((pts - lo) / side).astype(np.int64)
        rows = int(span[1] / side) + 3
    # a margin row on each side keeps neighbour offsets inside one column
    key = (cell[:, 0] + 1) * rows + cell[:, 1] + 1
    order = _argsort(key)
    key = key[order]
    # point k (in cell order) pairs with the later points of its own cell
    # and with every point of the forward neighbour cells; each such run is
    # the slice first .. first + size of the cell order
    later = np.arange(1, len(key) + 1)
    first = [later]
    size = [np.searchsorted(key, key, side="right") - later]
    for dx, dy in _FORWARD:
        target = key + dx * rows + dy
        start = np.searchsorted(key, target, side="left")
        first.append(start)
        size.append(np.searchsorted(key, target, side="right") - start)
    size = np.concatenate(size)
    i = np.repeat(np.tile(later - 1, len(first)), size)
    j = np.repeat(np.concatenate(first) - np.cumsum(size) + size, size) + np.arange(len(i))
    u, v = order[i], order[j]
    with np.errstate(over="ignore"):  # past the float range is inf: see below
        diff = pts[u] - pts[v]
        d = np.sqrt((diff ** 2).sum(axis=-1))
    # a square outside the normal range loses the distance: redo such a pair on its
    # differences scaled by a power of two to below 2**509, keeping a normal result's bits
    redo = np.flatnonzero((d < 2.0 ** -510) | (d == math.inf))
    if len(redo):
        top = np.abs(diff[redo]).max(axis=-1)
        keep = (top > 0) & (top < math.inf)  # equal points keep 0, an overflowed difference inf
        redo, k = redo[keep], 509 - np.frexp(top[keep])[1]
        with np.errstate(over="ignore"):
            d[redo] = np.ldexp(np.sqrt((np.ldexp(diff[redo], k[:, None]) ** 2).sum(axis=-1)), -k)
    return u, v, d


def build_graph(deployment, tr: float, epsilon: float = 0.0) -> RadiusGraph:
    """Radius graph: edge (u, v) iff distance(u, v) <= tr + epsilon, u != v."""
    reach = _reach(tr, epsilon)
    pts = _as_points(deployment)
    n = len(pts)
    a, b, d = _candidates(pts, reach)
    near = d <= reach
    a, b, d = a[near], b[near], d[near]
    u, v = np.minimum(a, b), np.maximum(a, b)
    by_pair = _argsort(u * n + v)
    return RadiusGraph(node_count=n, transmission_range=float(tr),
                       epsilon=float(epsilon),
                       edges=tuple(zip(u[by_pair].tolist(), v[by_pair].tolist())),
                       distances=tuple(d[by_pair].tolist()),
                       degrees=tuple(np.bincount(np.concatenate([u, v]), minlength=n).tolist()))


def isolated_count(graph: RadiusGraph) -> int:
    """Number of degree-zero nodes."""
    return graph.degrees.count(0)


def _weighted_edges(graph: RadiusGraph):
    """[u, v, distance] per edge in (u, v) order, 1-based Python ints and floats."""
    return [[u + 1, v + 1, d] for (u, v), d in zip(graph.edges, graph.distances)]


def graph_to_csv(graph: RadiusGraph, deployment, path) -> None:
    """Edge list as u,v,distance (1-based node ids).

    The distances are the ones stored in the graph; ``deployment`` is not read.
    """
    edges = _weighted_edges(graph)
    write_csv(path, ("u", "v", "distance"), edges,
              (f"{u},{v},{d!r}\r\n" for u, v, d in edges))


def graph_to_json(graph: RadiusGraph, deployment, path=None) -> str:
    """Graph document: meta, degree list and [u, v, distance] triples (1-based ids).

    The distances are the ones stored in the graph; ``deployment`` is not read.
    """
    meta = {
        "kind": "radius-graph",
        "node_count": graph.node_count,
        "transmission_range": graph.transmission_range,
        "epsilon": graph.epsilon,
        "edge_count": len(graph.edges),
        "isolated": isolated_count(graph),
    }
    return write_document(meta, {"degrees": graph.degrees, "edges": _weighted_edges(graph)}, path)


def isolated_by_range(deployment, trs: Sequence[float], epsilon: float = 0.0) -> dict[float, int]:
    """Isolated-node counts for several transmission ranges at once.

    One neighbour pass at the largest reach gives each node's nearest
    neighbour distance; a node is isolated at tr iff that distance exceeds
    tr + epsilon, the same test build_graph applies to each pair.
    """
    reaches = {float(tr): _reach(tr, epsilon) for tr in trs}
    if not reaches:
        return {}
    pts = _as_points(deployment)
    u, v, d = _candidates(pts, max(reaches.values()))
    nearest = np.full(len(pts), np.inf)
    np.minimum.at(nearest, u, d)
    np.minimum.at(nearest, v, d)
    nearest = nearest.tolist()
    return {tr: sum(x > reach for x in nearest) for tr, reach in reaches.items()}
