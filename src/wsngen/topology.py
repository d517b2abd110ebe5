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
by (u, v), so they give the same graph. Either keeps the edges as
generator.Rows of (u, v) pairs over one array('q'), not as one tuple per
edge.

The exports hand their rows (1-based ids, then the distance) to the codec's
CSV and JSON writers as Rows over _Cells, which makes each cell as it is read,
so an export keeps no list of its rows.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import add
from typing import NamedTuple

from .generator import Rows, _as_rows, _csv_text, _float_arg, _json_text, _pairs, point_columns, write_text

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
    edges: Sequence[tuple[int, int]]  # (u, v) with u < v, 0-based ids, sorted: Rows from build_graph
    distances: tuple[float, ...]  # aligned with edges
    degrees: tuple[int, ...]


def _reach(tr, epsilon) -> tuple[float, float]:
    """(tr, tr + epsilon) as floats; tr = inf is a valid range."""
    tr, epsilon = _float_arg(tr, "tr"), _float_arg(epsilon, "epsilon")
    if not tr > 0:
        raise ValueError("tr must be positive")
    if not epsilon >= 0:
        raise ValueError("epsilon must be >= 0")
    return tr, tr + epsilon


def _grid(lo, hi, reach: float):
    """(side, rows) of the cells from lo, the points' lowest x and y, to hi, their
    highest: the side, which is inf when one cell holds every point, and the
    rows of a cell column."""
    span = (hi[0] - lo[0], hi[1] - lo[1])
    side = max(reach * _CELL_PAD, max(span) / _MAX_CELLS)
    # a margin row on each side keeps neighbour offsets inside one column
    return side, 3 if side == math.inf else int(span[1] / side) + 3


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


def _near_pairs(xs: list, ys: list, reach: float) -> list:
    """The list path of the neighbour pass: (u, v, d) with u < v for every
    pair within reach, in no set order, each distance as _candidates has it."""
    x0, y0 = min(xs), min(ys)
    side, per_column = _grid((x0, y0), (max(xs), max(ys)), reach)
    cells: dict = {}
    for i, (x, y) in enumerate(zip(xs, ys)):
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
            x, y = xs[u], ys[u]
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


def _candidates(cols, reach: float):
    """Candidate pairs (u, v) of the (2, n) point columns, with distances d, each
    pair once and in no set order. Every pair within reach is among them; d is the
    list path's expression wherever its squares stay normal, so ties agree."""
    import numpy as np

    xs, ys = cols
    lo = cols.min(axis=1).tolist()
    side, rows = _grid(lo, cols.max(axis=1).tolist(), reach)
    if side == math.inf:  # one cell: every pair is a candidate
        key = np.full(len(xs), rows + 1, dtype=np.int64)
    else:
        key = ((np.floor((xs - lo[0]) / side).astype(np.int64) + 1) * rows
               + np.floor((ys - lo[1]) / side).astype(np.int64) + 1)
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
        dx = xs[u] - xs[v]
        dy = ys[u] - ys[v]
        d = np.sqrt(dx * dx + dy * dy)
    # a square outside the normal range lost the distance; equal points keep 0
    redo = np.flatnonzero((d < 2.0 ** -510) | (d == math.inf))
    for k in redo[(dx[redo] != 0) | (dy[redo] != 0)].tolist():
        d[k] = _rescaled(float(dx[k]), float(dy[k]), float(d[k]))
    return u, v, d


def build_graph(deployment, tr: float, epsilon: float = 0.0) -> RadiusGraph:
    """Radius graph: edge (u, v) iff distance(u, v) <= tr + epsilon, u != v."""
    tr, reach = _reach(tr, epsilon)
    cols = point_columns(deployment)
    n = len(cols[0])
    if isinstance(cols, list):
        near = sorted(_near_pairs(*cols, reach))
        us, vs, distances = zip(*near) if near else ((), (), ())
        degrees = [0] * n
        for u in us + vs:
            degrees[u] += 1
        edges = _pairs("q", us, vs)
    else:
        import numpy as np

        a, b, d = _candidates(cols, reach)
        near = d <= reach
        a, b, d = a[near], b[near], d[near]
        u, v = np.minimum(a, b), np.maximum(a, b)
        by_pair = np.argsort(u * n + v, kind="stable")
        edges = Rows(array("q", [0]) * (2 * len(by_pair)), 2)
        pairs = np.frombuffer(edges.flat, dtype=np.int64).reshape(-1, 2)  # a view: filling it fills edges
        pairs[:, 0], pairs[:, 1] = u[by_pair], v[by_pair]
        distances = d[by_pair].tolist()
        degrees = np.bincount(np.concatenate([u, v]), minlength=n).tolist()
    return RadiusGraph(node_count=n, transmission_range=tr,
                       epsilon=float(epsilon), edges=edges,
                       distances=tuple(distances), degrees=tuple(degrees))


def isolated_count(graph: RadiusGraph) -> int:
    """Number of degree-zero nodes."""
    return graph.degrees.count(0)


class _Cells(Sequence):
    """The cells of a graph's export rows, row-major, made as they are read: each
    edge's ids u + 1 and v + 1 (1-based), then its distance. No list of them is kept,
    so an export's memory stays a block of rows whatever the edge count. `finite`
    vouches for the cells of build_graph's edges: int ids by their array's type, and
    float distances with a finite sum, which a nan or inf would make non-finite."""

    __slots__ = ("ids", "distances", "finite")

    def __init__(self, ids, distances):
        self.ids, self.distances = ids, distances
        self.finite = (isinstance(ids, array) and ids.typecode == "q"
                       and set(map(type, distances)) <= {float} and math.isfinite(sum(distances)))

    def __len__(self) -> int:
        return 3 * min(len(self.ids) // 2, len(self.distances))

    def __iter__(self):
        ids = map(add, self.ids, repeat(1))
        return chain.from_iterable(zip(ids, ids, self.distances))

    def __getitem__(self, k: slice) -> list:  # Rows reads a row as a slice of its cells
        return list(islice(self, *k.indices(len(self))))


def _rows(graph: RadiusGraph, where: str) -> Rows:
    """The rows of graph's exports, Rows over _Cells. Edges that are not (u, v) pairs
    are refused, led by where."""
    refusal = f"{where}: 'edges' must be a list of (u, v) pairs"
    edges = _as_rows(graph.edges, refusal) if len(graph.edges) else Rows((), 2)  # a graph may have no edge
    if edges.width != 2:
        raise ValueError(refusal)
    return Rows(_Cells(edges.flat, graph.distances), 3)


def graph_to_csv(graph: RadiusGraph, deployment, path) -> None:
    """Edge list as u,v,distance (1-based node ids).

    The rows are the graph's stored edges and distances, checked as write checks
    a record's before the file is opened; ``deployment`` is not read.
    """
    write_text(path, _csv_text(("u", "v", "distance"), _rows(graph, "cannot write CSV"), "cannot write CSV",
                               numbered=False))


def graph_to_json(graph: RadiusGraph, deployment, path) -> None:
    """Graph document: meta, degree list and [u, v, distance] triples (1-based ids).

    The meta, degrees and edge rows are checked in that order before the file is
    opened and laid out as write lays out a record; ``deployment`` is not read.
    """
    meta = {
        "kind": "radius-graph",
        "node_count": graph.node_count,
        "transmission_range": graph.transmission_range,
        "epsilon": graph.epsilon,
        "edge_count": len(graph.edges),
        "isolated": isolated_count(graph),
    }
    arrays = {"degrees": (False, Rows(graph.degrees, 1), "cannot write 'degrees'"),
              "edges": (True, _rows(graph, "cannot write 'edges'"), "cannot write 'edges'")}
    write_text(path, _json_text(meta, arrays, "cannot write JSON"))


def isolated_by_range(deployment, trs: Sequence[float], epsilon: float = 0.0) -> dict[float, int]:
    """Isolated-node counts for several transmission ranges at once.

    One neighbour pass at the largest reach gives each node's nearest
    neighbour distance; a node is isolated at tr iff that distance exceeds
    tr + epsilon, the same test build_graph applies to each pair.
    """
    reaches = dict(_reach(tr, epsilon) for tr in trs)
    if not reaches:
        return {}
    cols = point_columns(deployment)
    if isinstance(cols, list):
        # pairs beyond the largest reach would leave every count as it is
        nearest = [math.inf] * len(cols[0])
        for u, v, d in _near_pairs(*cols, max(reaches.values())):
            if d < nearest[u]:
                nearest[u] = d
            if d < nearest[v]:
                nearest[v] = d
    else:
        import numpy as np

        u, v, d = _candidates(cols, max(reaches.values()))
        nearest = np.full(len(cols[0]), np.inf)
        np.minimum.at(nearest, u, d)
        np.minimum.at(nearest, v, d)
        nearest = nearest.tolist()
    return {tr: sum(x > reach for x in nearest) for tr, reach in reaches.items()}
