"""Real-valued congruential generator core.

Every dataset this package produces comes from the recurrence

    x_next = (a * x + c) mod m

where a and c are drawn from a fixed table of mathematical constants and the
modulus m is a real number (the deployment area side, or the packet-size
range). The seed picks the constants: a = table[seed % 14] and
c = table[(seed + 7) % 14]. ``stream`` is the only loop that advances it,
and ``derive_constants`` the only code that indexes the table; deployments
and traffic matrices are their special cases.

Results are reproducible on any IEEE-754 platform evaluating in double
precision. The mod is x - floor(x/m)*m with the result in [0, m), which is
exactly Python's float ``%``.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Sequence

# Canonical constant table, fixed at 6-decimal precision. Order matters: the
# seed indexes into it. Entries are well-known mathematical constants
# (Feigenbaum delta, reciprocal Fibonacci, Levy, Fransen-Robinson, Khinchin,
# Sierpinski, Feigenbaum alpha, universal parabolic, Brun, Niven, plastic,
# golden ratio, pi, e).
DEFAULT_TABLE: tuple[float, ...] = (
    4.669202,
    3.359886,
    3.275823,
    2.807770,
    2.685452,
    2.584982,
    2.502908,
    2.295587,
    1.902161,
    1.705211,
    1.324718,
    1.618034,
    3.141593,
    2.718282,
)

# The same constants at full double precision. The canonical 6-decimal table
# is the contract surface (golden vectors are pinned to it); this variant
# exists for reproduction analysis of reference datasets that were generated
# with higher-precision constants.
EXTENDED_TABLE: tuple[float, ...] = (
    4.669201609102990,
    3.359885666243178,
    3.275822918721811,
    2.807770242028519,
    2.685452001065306,
    2.584981759579253,
    2.502907875095893,
    2.295587149392638,
    1.902160583104,
    1.705211140105367,
    1.324717957244746,
    1.618033988749895,
    3.141592653589793,
    2.718281828459045,
)


def validate_table(table: Sequence[float]) -> tuple[float, ...]:
    """Check a constant table and return it as a tuple.

    A table must hold at least two distinct, strictly positive, finite
    values. The canonical table has 14 entries; custom tables of any length
    >= 2 are accepted (the derivation offset becomes len(table)//2).
    """
    # a list, not a generator: tuple() of a generator resizes a 10-slot
    # tuple, which parks one 14-slot tuple per call on CPython's free list
    # (up to 2000 of them, about 300 KB, in a long in-process sweep)
    values = tuple([float(v) for v in table])
    if len(values) < 2:
        raise ValueError("constant table needs at least 2 entries")
    for v in values:
        if not math.isfinite(v) or v <= 0:
            raise ValueError(f"constant table entries must be positive and finite, got {v}")
    if len(set(values)) != len(values):
        raise ValueError("constant table entries must be distinct")
    return values


def load_table(path) -> tuple[float, ...]:
    """Load a constant table from a JSON file holding an array of numbers."""
    data = _load_json(path)
    if not isinstance(data, list) or not all(map(_is_finite_number, data)):
        raise ValueError("constants file must contain a JSON array of finite numbers")
    return validate_table(data)


def _is_finite_number(value) -> bool:
    """True for a JSON int or float (not a bool) that converts to a finite double."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _load_json(path):
    """The JSON value in the file at path. Nesting too deep to parse is a ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


# ---------------------------------------------------------------------------
# file formats: the CSV and JSON files of deployments, traffic matrices and graphs

def require_finite(rows: Sequence[Sequence[float]], path) -> None:
    """Raise ValueError naming the first (1-based) row that holds nan or inf."""
    if all(map(math.isfinite, chain.from_iterable(rows))):
        return
    row = next(i for i, r in enumerate(rows, start=1) if not all(map(math.isfinite, r)))
    raise ValueError(f"{path}: row {row}: non-finite value in {list(rows[row - 1])!r}")


def _require_writable(rows: Sequence[Sequence[float]], what: str) -> None:
    """Raise ValueError unless rows hold only finite Python ints and floats, whose
    repr is the text csv.writer and json.dumps give (a numpy float's is not)."""
    other = set(map(type, chain.from_iterable(rows))) - {int, float}
    if other:
        raise ValueError(f"cannot write {what}: expected ints and floats, got {min(t.__name__ for t in other)}")
    require_finite(rows, f"cannot write {what}")


def write_csv(path, header: Sequence[str], rows, lines) -> None:
    """Write the header, then `lines`: the lines csv.writer would write for `rows`,
    which are refused before the file is opened (see _require_writable)."""
    _require_writable(rows, "CSV")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(lines)


def read_csv(path, kind: str, columns) -> tuple[tuple[float, ...], ...]:
    """The float cells of each row of a `kind` CSV. The header must be exactly
    columns(width), width >= 2 being its cell count, and at least one row of
    width cells follow: a node id, which is not read, then finite floats."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            expected = list(columns(max(len(header), 2)))
            if header == expected:
                # rows of two floats (every deployment) build faster without the slice
                values = tuple([(float(r[1]), float(r[2])) if len(r) == 3 else () for r in reader]
                               if len(header) == 3 else [tuple(map(float, r[1:])) for r in reader])
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header != expected:
        raise ValueError(f"{path}: not a {kind} CSV (expected header {','.join(expected)})")
    if not values:
        raise ValueError(f"{path}: {kind} CSV holds no rows")
    if set(map(len, values)) != {len(header) - 1}:
        row = next(i for i, r in enumerate(values, start=1) if len(r) != len(header) - 1)
        raise ValueError(f"{path}: row {row}: expected {len(header)} cells, as in the header")
    require_finite(values, path)
    return values


def write_document(meta: dict, data: dict, path=None) -> str:
    """json.dumps({"meta": meta, **data}, indent=2), written with a final newline to path
    if given. Each data value lists ints and floats, or equal-width rows of them,
    checked by _require_writable before anything is written."""
    # meta is small, so json.dumps lays it out, less its closing "\n}". Each array is
    # joined once into one piece, and the pieces are freed before the file write
    # encodes the text: that halves the peak memory of a large document.
    parts = [json.dumps({"meta": meta}, indent=2, allow_nan=False)[:-2]]
    for key, rows in data.items():
        nested = bool(rows) and isinstance(rows[0], (list, tuple))
        _require_writable(rows if nested else tuple(zip(rows)), repr(key))
        parts.append(f",\n  {json.dumps(key)}: ")
        if not rows:
            parts.append("[]")
        elif nested:
            parts += ["[\n    [\n      ",
                      "\n    ],\n    [\n      ".join([",\n      ".join(map(repr, r)) for r in rows]),
                      "\n    ]\n  ]"]
        else:
            parts += ["[\n    ", ",\n    ".join(map(repr, rows)), "\n  ]"]
    parts.append("\n}")
    text = "".join(parts)
    del parts
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines((text, "\n"))
    return text


def read_document(path) -> dict:
    """Parse a wsngen JSON file: an object whose 'meta' is an object."""
    doc = _load_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("meta"), dict):
        raise ValueError(f"{path}: expected a JSON object whose 'meta' is an object")
    return doc


_META_TYPES = {
    "mode": (lambda v: v in ("grid", "non-grid"), "'grid' or 'non-grid'"),
    "distribution": (lambda v: isinstance(v, str), "a string"),
    "y_increment": (lambda v: v in ("a", "c"), "'a' or 'c'"),
    "rate": (lambda v: v is None or _is_finite_number(v), "null or a finite number"),
}


def document_parts(doc: dict, path, data_key: str, meta_fields: Sequence[str]) -> tuple[dict, tuple]:
    """The meta object and the float rows of a document from read_document.

    Every named meta field, any field in _META_TYPES and any other float in
    meta must be typed (_META_TYPES, else a finite number, which a bool is not);
    the named ones must be present. The data must be a non-empty list of
    equal-width rows of finite numbers, node_count rows of slot_count if given.
    """
    meta = doc["meta"]
    if data_key not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'meta' and {data_key!r}")
    missing = [k for k in meta_fields if k not in meta]
    if missing:
        raise ValueError(f"{path}: meta lacks field {', '.join(map(repr, missing))}")
    for key, value in meta.items():
        valid, wanted = _META_TYPES.get(key, (_is_finite_number, "a finite number"))
        if (key in meta_fields or key in _META_TYPES or isinstance(value, float)) and not valid(value):
            raise ValueError(f"{path}: meta field {key!r} must be {wanted}, got {value!r}")
    data = doc[data_key]
    try:
        types = set(map(type, chain.from_iterable(data)))
        numbers = len(set(map(len, data))) == 1 and types and types <= {int, float}
        # json.load gives floats already; only ints need converting
        floats = data if types == {float} else map(map, repeat(float), data)
        rows = tuple(map(tuple, floats)) if numbers else ()
    except (TypeError, OverflowError):  # a row that is not a list, an int beyond the float range
        rows = ()
    if not rows:
        raise ValueError(f"{path}: {data_key!r} must be a non-empty list of equal-width rows of numbers")
    for key, count in (("node_count", len(rows)), ("slot_count", len(rows[0]))):
        if meta.get(key, count) != count:
            raise ValueError(f"{path}: meta field {key!r} is {meta[key]!r}, but {data_key!r} gives {count}")
    require_finite(rows, path)
    return meta, rows


def derive_constants(seed: int, table: Sequence[float] = DEFAULT_TABLE) -> tuple[float, float]:
    """Map a seed to its (a, c) constant pair.

    a = table[seed % L], c = table[(seed + L//2) % L] with L = len(table).
    With the canonical 14-entry table the offset is 7, which is odd, so the
    two indices always differ and a != c holds for every seed.
    """
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    values = validate_table(table)
    size = len(values)
    offset = size // 2
    a = values[seed % size]
    c = values[(seed + offset) % size]
    return a, c


@dataclass(frozen=True)
class GeneratorParams:
    """The seed and constants of a stream; its modulus is the data's range."""

    seed: float
    a: float
    c: float


def stream(x0: float, a: float, c: float, modulus: float, count: int, *,
           scale: float = 1.0, offset: float = 0.0) -> list[float]:
    """The `count` successors of x0 under x <- (scale*(a*x + c)) mod modulus + offset.

    x0 itself is not emitted. The defaults give the plain recurrence, and
    leave its bytes as they are: 1.0*y == y exactly, and float % with a
    positive modulus never returns -0.0, so r + 0.0 == r. A deployment's X
    stream is (seed, a, c, side); the traffic driver is (x0, a, c, span,
    scale=a, offset=p_min), and the two exponential-recurrence chains are
    (x00, a, c, span, offset=p_min) and (0.0, a, c, span, offset=p_min).

    Raises ValueError if a*x + c overflows: inf % modulus is nan, and nan
    stays nan at every later step, so checking the final state catches an
    overflow at any step.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    x = float(x0)
    for _ in range(count):
        x = (scale * (a * x + c)) % modulus + offset
        out.append(x)
    if not math.isfinite(x):
        raise ValueError("the recurrence overflows the float range; use a smaller area or packet range")
    return out
