"""Packet-traffic matrix generation.

Three generators, all bounded to [p_min, p_max):

* uniform: a driver chain seeded from the constant table by floor(p_max),
  advanced once per matrix entry, row-major, with the state carried across
  node rows.
* exponential-transform: the same driver chain pushed through the inverse
  exponential CDF, then wrapped back into range.
* exponential-recurrence: two chains of one map, whose constant a derives
  from floor(p_min): row i holds the i-th successor of the seed value in
  one cell and the i-th successor of 0 in the others.

Each value is p_min + r with r in [0, span), which can round up onto p_max;
such a cell holds the float just below p_max instead, and the chain runs on
unclamped.
"""

from __future__ import annotations

import math
from array import array
from typing import NamedTuple, Optional, Sequence

from .generator import (
    DEFAULT_TABLE,
    NUMBER,
    POSITIVE,
    GeneratorParams,
    Rows,
    Schema,
    _as_rows,
    _constants_of,
    _float_arg,
    _is_finite_number,
    read,
    stream,
    write,
)

DISTRIBUTIONS = ("uniform", "exponential-transform", "exponential-recurrence")


def _check_traffic_args(n: int, t: int, p_min: float, p_max: float) -> None:
    if n < 1 or t < 1:
        raise ValueError("n and t must be >= 1")
    # p_min may be inf here: no p_max exceeds it, and the p_max rule words that
    low = _float_arg(p_min, "p_min", (lambda v: v >= 0, "finite and >= 0"))
    _float_arg(p_max, "p_max", (lambda v: low < v < math.inf, "finite and exceed p_min"))


def _columns(width: int) -> list[str]:
    return ["node_id"] + [f"t{j}" for j in range(1, width)]


class TrafficMatrix(NamedTuple):
    values: Sequence[tuple[float, ...]]  # Rows over an array('d') from the generators and read
    p_min: float
    p_max: float
    # provenance: None for a matrix read from CSV, which records none
    distribution: Optional[str]
    params: Optional[GeneratorParams]
    rate: Optional[float] = None

    @property
    def node_count(self) -> int:
        return len(self.values)

    @property
    def slot_count(self) -> int:
        return len(self.values[0]) if self.values else 0

    def flatten(self) -> Sequence[float]:
        """The values row-major: the array that Rows keep, not a copy, else a list of
        the cells of hand-built rows. Values that are not a table are refused as write
        refuses them."""
        return _as_rows(self.values, "'values' must be a non-empty list of equal-width rows of numbers").flat

    # the file format: node_id,t1,...,tT rows, or a JSON document of values
    SCHEMA = Schema(
        kind="traffic", data="values", columns=_columns,
        meta={"distribution": (lambda v: v is None or isinstance(v, str), "a string or null"),
              "p_min": NUMBER, "p_max": NUMBER,
              "rate": (lambda v: v is None or _is_finite_number(v), "null or a finite number"),
              "node_count": NUMBER, "slot_count": NUMBER, "seed": NUMBER, "a": NUMBER, "c": NUMBER},
        described=("p_min", "p_max"),
        check=lambda rows, p_min, p_max: _check_traffic_args(len(rows), len(rows[0]), p_min, p_max))


def _uniform_driver(n: int, t: int, p_min: float, p_max: float, table: Sequence[float]):
    """Provenance and the n*t row-major values of the driver chain.

    The seed is x0 = table[floor(p_max) % L]; the constants then derive from
    the floored seed value itself.
    """
    derive = _constants_of(table)
    x0 = derive(int(math.floor(p_max))).a
    params = derive(int(math.floor(x0)))._replace(seed=x0)
    return params, stream(x0, params.a, params.c, p_max - p_min, n * t, scale=params.a, offset=p_min)


def _rows(flat: list, t: int, p_max: float) -> Rows:
    """The row-major values as Rows of t, each value that rounded onto p_max
    (or above) replaced by the float just below it."""
    if max(flat) >= p_max:
        top = math.nextafter(p_max, -math.inf)
        flat = [min(v, top) for v in flat]
    return Rows(array("d", flat), t)


def traffic_uniform(
    n: int,
    t: int,
    p_min: float,
    p_max: float,
    *,
    table: Sequence[float] = DEFAULT_TABLE,
) -> TrafficMatrix:
    """n x t uniform matrix via x <- (a*(a*x + c)) mod span + p_min.

    One running scalar drives the whole matrix; entry (i, j) is the chain
    value after its (i*t + j + 1)-th advance.
    """
    _check_traffic_args(n, t, p_min, p_max)
    params, chain = _uniform_driver(n, t, p_min, p_max, table)
    return TrafficMatrix(values=_rows(chain, t, p_max), p_min=float(p_min), p_max=float(p_max),
                         distribution="uniform", params=params)


_LOG_ARG_FLOOR = 1e-12


def exp_entry_from_uniform(x: float, p_min: float, p_max: float, rate: float) -> float:
    """Map one driver-chain value in [p_min, p_max) to an exponential entry.

    Computes (-1/rate) * ln(1 - x/p_max), wrapped by mod span back into
    [p_min, p_max). The log argument is clamped below at 1e-12; x < p_max by
    construction but float rounding could graze the boundary.
    """
    span = p_max - p_min
    arg = 1.0 - x / p_max
    if arg < _LOG_ARG_FLOOR:
        arg = _LOG_ARG_FLOOR
    return (-math.log(arg) / rate) % span + p_min


def traffic_exponential_transform(
    n: int,
    t: int,
    p_min: float,
    p_max: float,
    rate: float = 1.0,
    *,
    table: Sequence[float] = DEFAULT_TABLE,
) -> TrafficMatrix:
    """Exponential matrix: the uniform driver chain through the inverse CDF.

    Each entry is exp_entry_from_uniform applied to the freshly advanced
    chain value, so the driver state is identical to traffic_uniform's.
    """
    _check_traffic_args(n, t, p_min, p_max)
    _float_arg(rate, "rate", POSITIVE)
    params, chain = _uniform_driver(n, t, p_min, p_max, table)
    flat = [exp_entry_from_uniform(x, p_min, p_max, rate) for x in chain]
    if not all(map(math.isfinite, flat)):
        raise ValueError(f"rate {rate} is too small: -ln(1 - x/p_max)/rate overflows the float range")
    return TrafficMatrix(values=_rows(flat, t, p_max), p_min=float(p_min), p_max=float(p_max),
                         distribution="exponential-transform", params=params, rate=float(rate))


def traffic_exponential_recurrence(
    n: int,
    t: int,
    p_min: float,
    p_max: float,
    *,
    table: Sequence[float] = DEFAULT_TABLE,
) -> TrafficMatrix:
    """Exponential-regime matrix from two chains of f(x) = (a*x + c) mod span + p_min.

    Seed x00 = table[floor(p_max) % L]; a = table[floor(p_min) % L];
    c = table[(floor(x00) + L//2) % L]. Cell (i, j), 1-based, is f^i(x00)
    when j = i (mod t) and f^i(0) otherwise. This is the diagonal recurrence
    over a t x t table W, zero but for W[0][0] = x00, that for i in 1..n and
    j in 1..t emits v = f(W[(i-1) % t][(j-1) % t]) and stores it in
    W[i % t][j % t]: row i is f of row i-1 rotated by one.
    """
    _check_traffic_args(n, t, p_min, p_max)
    span = p_max - p_min
    derive = _constants_of(table)
    x00 = derive(int(math.floor(p_max))).a
    a = derive(int(math.floor(p_min))).a
    c = derive(int(math.floor(x00))).c
    params = GeneratorParams(seed=x00, a=a, c=c)
    diagonal = stream(x00, a, c, span, n, offset=p_min)
    rest = stream(0.0, a, c, span, n, offset=p_min) if t > 1 else diagonal
    flat = []
    for i, (on, off) in enumerate(zip(diagonal, rest)):
        row = [off] * t
        row[i % t] = on
        flat += row
    return TrafficMatrix(values=_rows(flat, t, p_max), p_min=float(p_min), p_max=float(p_max),
                         distribution="exponential-recurrence", params=params)


# ---------------------------------------------------------------------------
# the file codec's former names, which perfbench still calls


def traffic_to_csv(matrix: TrafficMatrix, path) -> None:
    write(matrix, path, "csv")


def traffic_to_json(matrix: TrafficMatrix, path) -> None:
    write(matrix, path, "json")


def traffic_from_json(path) -> TrafficMatrix:
    return read(path, ("traffic",))


def matrix_from_csv(path) -> Rows:
    # any valid range will do: only the values are returned
    return read(path, ("traffic",), p_min=0.0, p_max=1.0).values
