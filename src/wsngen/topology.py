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

Below generator._NUMPY_FROM points the neighbour pass runs over Python
lists: at those sizes importing numpy (about 150 ms) costs more than the
pass, so a process that only meets small deployments never imports it.
From there on the pass is numpy. Both paths share the cells and the
power-of-two rescale of a distance whose square left the normal range,
compute every other distance with the same expression and sort the edges
by (u, v), so they give the same graph.
"""

from __future__ import annotations

import math
from itertools import chain, islice
from typing import NamedTuple, Sequence

from . import generator
from .generator import require_finite, write_text

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


class RadiusGraph(NamedTuple):
    node_count: int
    transmission_range: float
    epsilon: float
    edges: tuple[tuple[int, int], ...]  # (u, v) with u < v, 0-based ids, sorted
    distances: tuple[float, ...]  # aligned with edges
    degrees: tuple[int, ...]


def _as_points(deployment):
    """The checked points of a Deployment or a raw coordinate sequence: a list
    of (x, y) floats below generator._NUMPY_FROM points, else an (n, 2) array."""
    pts = getattr(deployment, "points", deployment)
    try:  # ragged rows, cells that are not numbers and an iterator, which has no len(), raise
        if len(pts) < generator._NUMPY_FROM:
            rows = [(float(x), float(y)) for x, y in pts]
            pairs = bool(rows)
        else:
            import numpy as np

            rows = np.asarray(pts, dtype=float)
            pairs = rows.ndim == 2 and rows.shape[1] == 2 and rows.shape[0] > 0
    except (TypeError, ValueError, OverflowError):
        pairs = False
    if not pairs:
        raise ValueError("deployment must supply a non-empty (n, 2) point set")
    if isinstance(rows, list):
        require_finite(rows, "points")
    elif not np.isfinite(rows).all():
        require_finite(rows.tolist(), "points")
    return rows


def _reach(tr: float, epsilon: float) -> float:
    if not tr > 0:
        raise ValueError("tr must be positive")
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    return tr + epsilon


def _grid(xs, ys, reach: float):
    """(lo, side, rows): the lower-left corner of the cells, their side, which is
    inf when one cell holds every point, and the rows of a cell column."""
    lo = (min(xs), min(ys))
    span = (max(xs) - lo[0], max(ys) - lo[1])
    side = max(reach * _CELL_PAD, max(span) / _MAX_CELLS)
    # a margin row on each side keeps neighbour offsets inside one column
    return lo, side, 3 if side == math.inf else int(span[1] / side) + 3


def _rescaled(dx: float, dy: float, d: float) -> float:
    """The distance of a pair whose plain distance d is inf or below 2**-510,
    where a square left the normal range: the differences are scaled by a power
    of two to below 2**509, keeping a normal result's bits."""
    top = max(abs(dx), abs(dy))
    if not 0 < top < math.inf:  # equal points keep 0, an overflowed difference inf
        return d
    k = 509 - math.frexp(top)[1]
    dx, dy = math.ldexp(dx, k), math.ldexp(dy, k)
    try:
        return math.ldexp(math.sqrt(dx * dx + dy * dy), -k)
    except OverflowError:  # past the float range, as a plain distance gives inf
        return math.inf


def _square_limit(reach: float) -> float:
    """The largest float whose square root is at most reach, or inf where a
    square near reach**2 would leave the normal range. A pair whose squared
    distance lies above it and is finite has a plain distance beyond reach."""
    lim = reach * reach
    if not 2.0 ** -1020 <= lim < math.inf:
        return math.inf
    while math.sqrt(lim) > reach:
        lim = math.nextafter(lim, 0.0)
    while math.sqrt(math.nextafter(lim, math.inf)) <= reach:
        lim = math.nextafter(lim, math.inf)
    return lim


def _near_pairs(rows: list, reach: float) -> list:
    """The list path of the neighbour pass: (u, v, d) with u < v for every
    pair within reach, in no set order, each distance as _candidates has it."""
    xs, ys = zip(*rows)
    (x0, y0), side, per_column = _grid(xs, ys, reach)
    cells: dict = {}
    for i, (x, y) in enumerate(rows):
        key = 0 if side == math.inf else (
            (math.floor((x - x0) / side) + 1) * per_column + math.floor((y - y0) / side) + 1)
        cells.setdefault(key, []).append(i)
    forward = [dx * per_column + dy for dx, dy in _FORWARD]
    lim = _square_limit(reach)
    out = []
    sqrt, inf = math.sqrt, math.inf  # locals: this loop is the list path's cost
    for key, members in cells.items():
        others = [v for f in forward for v in cells.get(key + f, ())]
        for k, u in enumerate(members):
            x, y = rows[u]
            for v in members[k + 1:] + others:
                dx = x - xs[v]
                dy = y - ys[v]
                s = dx * dx + dy * dy
                if lim < s < inf:  # most candidates: no square root needed
                    continue
                d = sqrt(s)
                if not 2.0 ** -510 <= d < inf:
                    d = _rescaled(dx, dy, d)
                if d <= reach:
                    out.append((u, v, d) if u < v else (v, u, d))
    return out


def _candidates(pts, reach: float):
    """Candidate pairs (u, v) with their distances d, each pair once and in
    no set order. Every pair within reach is among them; d is a row-wise scan's
    expression wherever its squares stay normal, so boundary ties agree."""
    import numpy as np

    lo, side, rows = _grid(*pts.T.tolist(), reach)
    if side == math.inf:  # one cell: every pair is a candidate
        cell = np.zeros_like(pts, dtype=np.int64)
    else:
        cell = np.floor((pts - lo) / side).astype(np.int64)
    key = (cell[:, 0] + 1) * rows + cell[:, 1] + 1
    order = np.argsort(key, kind="stable")
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
    with np.errstate(over="ignore"):  # past the float range is inf: _rescaled redoes it
        diff = pts[u] - pts[v]
        d = np.sqrt((diff ** 2).sum(axis=-1))
    # a square outside the normal range lost the distance; equal points keep 0
    redo = np.flatnonzero((d < 2.0 ** -510) | (d == math.inf))
    for k in redo[diff[redo].any(axis=-1)].tolist():
        d[k] = _rescaled(*diff[k].tolist(), float(d[k]))
    return u, v, d


def build_graph(deployment, tr: float, epsilon: float = 0.0) -> RadiusGraph:
    """Radius graph: edge (u, v) iff distance(u, v) <= tr + epsilon, u != v."""
    reach = _reach(tr, epsilon)
    pts = _as_points(deployment)
    n = len(pts)
    if isinstance(pts, list):
        near = sorted(_near_pairs(pts, reach))
        edges = [(u, v) for u, v, _ in near]
        distances = [d for _, _, d in near]
        degrees = [0] * n
        for u, v in edges:
            degrees[u] += 1
            degrees[v] += 1
    else:
        import numpy as np

        a, b, d = _candidates(pts, reach)
        near = d <= reach
        a, b, d = a[near], b[near], d[near]
        u, v = np.minimum(a, b), np.maximum(a, b)
        by_pair = np.argsort(u * n + v, kind="stable")
        edges = zip(u[by_pair].tolist(), v[by_pair].tolist())
        distances = d[by_pair].tolist()
        degrees = np.bincount(np.concatenate([u, v]), minlength=n).tolist()
    return RadiusGraph(node_count=n, transmission_range=float(tr),
                       epsilon=float(epsilon), edges=tuple(edges),
                       distances=tuple(distances), degrees=tuple(degrees))


def isolated_count(graph: RadiusGraph) -> int:
    """Number of degree-zero nodes."""
    return graph.degrees.count(0)


def _edge_text(graph: RadiusGraph, what: str, sep: str, end: str):
    """Blocks of _BLOCK edge rows u + 1, v + 1, distance, joined by sep and ended by
    end, once they pass _require_writable. Int ids and finite float distances, which
    build_graph gives, pass on their types and one sum, which a nan or inf makes non-finite."""
    edges, distances = graph.edges, graph.distances
    if not (set(map(type, chain.from_iterable(edges))) <= {int} and set(map(type, distances)) <= {float}
            and math.isfinite(sum(distances))):
        generator._require_writable([[u + 1, v + 1, d] for (u, v), d in zip(edges, distances)], what)
    rows = zip(edges, distances)  # blocks until one is empty; an int or float formats as its repr
    return iter(lambda: [f"{u + 1}{sep}{v + 1}{sep}{d!r}{end}" for (u, v), d in islice(rows, generator._BLOCK)], [])


def graph_to_csv(graph: RadiusGraph, deployment, path) -> None:
    """Edge list as u,v,distance (1-based node ids).

    The rows are the graph's stored edges and distances, checked once before the
    file is opened and written in blocks; ``deployment`` is not read.
    """
    write_text(path, chain(("u,v,distance\r\n",), map("".join, _edge_text(graph, "CSV", ",", "\r\n"))))


def graph_to_json(graph: RadiusGraph, deployment, path) -> None:
    """Graph document: meta, degree list and [u, v, distance] triples (1-based ids).

    The edge rows are the graph's stored edges and distances, checked once after
    meta and degrees and written in blocks, laid out as write_document lays out
    rows; ``deployment`` is not read.
    """
    meta = {
        "kind": "radius-graph",
        "node_count": graph.node_count,
        "transmission_range": graph.transmission_range,
        "epsilon": graph.epsilon,
        "edge_count": len(graph.edges),
        "isolated": isolated_count(graph),
    }
    head = generator._document_head(meta)
    degrees = generator._array_text("degrees", graph.degrees)
    edges = True, _edge_text(graph, "'edges'", generator._CELL_SEP, "")
    write_text(path, generator._document_pieces(head, {"degrees": degrees, "edges": edges}))


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
    if isinstance(pts, list):
        # pairs beyond the largest reach would leave every count as it is
        nearest = [math.inf] * len(pts)
        for u, v, d in _near_pairs(pts, max(reaches.values())):
            if d < nearest[u]:
                nearest[u] = d
            if d < nearest[v]:
                nearest[v] = d
    else:
        import numpy as np

        u, v, d = _candidates(pts, max(reaches.values()))
        nearest = np.full(len(pts), np.inf)
        np.minimum.at(nearest, u, d)
        np.minimum.at(nearest, v, d)
        nearest = nearest.tolist()
    return {tr: sum(x > reach for x in nearest) for tr, reach in reaches.items()}
