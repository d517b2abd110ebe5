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
import os
import sys
from itertools import chain, repeat
from typing import Callable, NamedTuple, Sequence

from . import __version__

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


# Below this many points, or values in one stream, the radius graph and the
# uniformity battery run on Python lists and numpy is never imported; from it
# on they run on numpy. Importing numpy takes longer than either computation
# at the reference n = 100, while at n = 1,000 numpy is about twice as fast.
# Both paths give the same floats.
_NUMPY_FROM = 512


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


def write_text(path, chunks) -> None:
    """Write the str chunks to path as UTF-8 with no newline translation: into a
    new temp file beside path, renamed over it once every chunk is written. The
    temp file gets the mode open() would give; on any error it is removed, so
    path keeps its old bytes or does not appear. An OSError on the temp file is
    raised again naming path, the file the caller knows."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".wsngen-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "w", newline="", encoding="utf-8") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def read_csv(path, kind: str, columns) -> tuple[tuple[float, ...], ...]:
    """The float cells of each row of a `kind` CSV. The header must be exactly
    columns(width), width >= 2 being its cell count, and at least one row of
    width cells follow: a node id, which is not read, then floats."""
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
    return values


# rows per joined piece of a JSON array or a graph CSV: one piece per row costs
# more time, one piece per array keeps the whole array's text in memory
_BLOCK = 256
# the opening, separator and closing of a JSON array of numbers, and of rows
_LAYOUTS = (("[\n    ", ",\n    ", "\n  ]"), ("[\n    [\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]"))
_CELL_SEP = ",\n      "  # between the cells of a row


def write_document(meta: dict, data: dict, path) -> None:
    """Write json.dumps({"meta": meta, **data}, indent=2) and a final newline to path.
    Each data value lists ints and floats, or equal-width rows of them, checked by
    _require_writable before the file is opened."""
    head = _document_head(meta)
    write_text(path, _document_pieces(head, {key: _array_text(key, rows) for key, rows in data.items()}))


def _document_head(meta: dict) -> str:
    """json.dumps({"meta": meta}, indent=2) less its closing "\n}"; meta must be finite."""
    return json.dumps({"meta": meta}, indent=2, allow_nan=False)[:-2]


def _array_text(key: str, rows):
    """(nested, blocks) for _document_pieces of rows that _require_writable passes."""
    nested = bool(rows) and isinstance(rows[0], (list, tuple))
    _require_writable(rows if nested else tuple(zip(rows)), repr(key))
    blocks = (rows[i:i + _BLOCK] for i in range(0, len(rows), _BLOCK))
    return nested, ([_CELL_SEP.join(map(repr, r)) for r in b] if nested else map(repr, b) for b in blocks)


def _document_pieces(head: str, arrays: dict):
    """The text of a document: its meta head, then each array from (nested, blocks),
    each block the text of _BLOCK elements (a row's cells joined by _CELL_SEP)."""
    yield head
    for key, (nested, blocks) in arrays.items():
        start, sep, end = _LAYOUTS[nested]
        yield f",\n  {json.dumps(key)}: "
        gap = start
        for block in blocks:
            yield gap + sep.join(block)
            gap = sep
        yield end if gap == sep else "[]"
    yield "\n}\n"


# a meta field's test of its JSON value, and what that value must be
NUMBER = (_is_finite_number, "a finite number")
_COUNTS = ("node_count", "slot_count")  # meta fields checked against the rows


class Schema(NamedTuple):
    """How one kind of record is stored; each record type holds its own as SCHEMA.

    A CSV holds the `data` rows under the header columns(width), a node id
    first in each row; a JSON file holds them under the key `data`, after a
    meta of "kind", the `meta` fields in order (record fields, properties or
    params' seed, a and c) and "tool_version". A CSV has no meta: read takes
    its `described` fields as keywords, and check(rows, *described) raises
    ValueError where generation would refuse them.
    """

    kind: str
    data: str
    columns: Callable[[int], Sequence[str]]
    meta: dict  # field -> (valid, wanted), in file order
    described: tuple[str, ...]
    check: Callable[..., None]


def _document_parts(doc: dict, path, record) -> tuple[tuple, list, dict]:
    """(rows, description, provenance) of a JSON document for a record type.

    Every meta field of its SCHEMA, and any other float in meta, must pass its
    test, and be present unless the record has a default or it is a count;
    seed, a and c may instead all be null. The data must be a non-empty list
    of equal-width rows of numbers, node_count rows of slot_count if given.
    """
    schema = record.SCHEMA
    meta = doc["meta"]
    if schema.data not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'meta' and {schema.data!r}")
    optional = (*record._field_defaults, *_COUNTS)
    missing = [k for k in schema.meta if k not in meta and k not in optional]
    if missing:
        raise ValueError(f"{path}: meta lacks field {', '.join(map(repr, missing))}")
    params = [meta[k] for k in GeneratorParams._fields]
    unset = params == [None] * 3
    for key, value in meta.items():
        valid, wanted = schema.meta.get(key, NUMBER)
        if ((key in schema.meta or isinstance(value, float)) and not valid(value)
                and not (unset and key in GeneratorParams._fields)):
            raise ValueError(f"{path}: meta field {key!r} must be {wanted}, got {value!r}")
    data = doc[schema.data]
    try:
        types = set(map(type, chain.from_iterable(data)))
        numbers = len(set(map(len, data))) == 1 and types and types <= {int, float}
        # json.load gives floats already; only ints need converting
        floats = data if types == {float} else map(map, repeat(float), data)
        rows = tuple(map(tuple, floats)) if numbers else ()
    except (TypeError, OverflowError):  # a row that is not a list, an int beyond the float range
        rows = ()
    if not rows:
        raise ValueError(f"{path}: {schema.data!r} must be a non-empty list of equal-width rows of numbers")
    for key, count in zip(_COUNTS, (len(rows), len(rows[0]))):
        if meta.get(key, count) != count:
            raise ValueError(f"{path}: meta field {key!r} is {meta[key]!r}, but {schema.data!r} gives {count}")
    provenance = {k: meta[k] for k in record._fields if k in meta and k != schema.data}
    provenance["params"] = None if unset else GeneratorParams(*params)
    return rows, [provenance.pop(k) for k in schema.described], provenance


def read(path, kinds: Sequence[str] = ("deployment", "traffic"), reader: str = "read", *,
         area=None, p_min=None, p_max=None):
    """The Deployment or TrafficMatrix in the CSV or JSON file at path.

    A JSON file's meta.kind gives its kind, a CSV file's header does; a kind
    not in kinds, a subset of the two, is refused, naming `reader`. Provenance
    is None for a CSV, and for a JSON file whose seed, a and c are null. A CSV
    records no area or packet range either: area, or p_min and p_max, describe
    it, checked as generation checks them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.read(64)
    doc = None
    if head.lstrip()[:1] in ("{", "["):
        doc = _load_json(path)
        if not isinstance(doc, dict) or not isinstance(doc.get("meta"), dict):
            raise ValueError(f"{path}: expected a JSON object whose 'meta' is an object")
        kind = doc["meta"].get("kind")
    elif head.startswith("node_id,x,y"):
        kind = "deployment"
    elif head.startswith("node_id,t"):
        kind = "traffic"
    else:
        raise ValueError(f"unrecognized CSV header in {path}: {(head.splitlines() or [''])[0]!r}")
    if kind not in kinds:
        raise ValueError(f"{path}: unrecognized kind {kind!r}; {reader} reads {' or '.join(kinds)} files")
    if kind == "deployment":
        from .deployment import Deployment as record
    else:
        from .traffic import TrafficMatrix as record
    schema = record.SCHEMA
    if doc is None:
        rows = read_csv(path, kind, schema.columns)
        description = [{"area": area, "p_min": p_min, "p_max": p_max}[k] for k in schema.described]
        if None in description:
            raise ValueError(f"{path}: a {kind} CSV records no {' or '.join(schema.described)}; "
                             "pass it to read")
        provenance = dict.fromkeys(k for k in record._fields
                                   if k != schema.data and k not in schema.described)
    else:
        rows, description, provenance = _document_parts(doc, path, record)
    require_finite(rows, path)
    try:
        schema.check(rows, *description)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return record(**{schema.data: rows}, **dict(zip(schema.described, map(float, description))),
                  **provenance)


def write(record, path, fmt: str) -> None:
    """Write a Deployment or TrafficMatrix to path as "csv" or "json", laid out by
    its SCHEMA. A record with no provenance (params None) writes it as null. The
    rows are refused before the file is opened unless _require_writable passes them."""
    schema = record.SCHEMA
    rows = getattr(record, schema.data)
    if fmt == "csv":
        header = schema.columns(len(rows[0]) + 1 if rows else 1)
        if len(header) == 3:  # two values a row, as in every deployment, format faster unpacked
            lines = (f"{i},{x!r},{y!r}\r\n" for i, (x, y) in enumerate(rows, start=1))
        else:
            lines = (f"{i},{','.join(map(repr, row))}\r\n" for i, row in enumerate(rows, start=1))
        _require_writable(rows, "CSV")
        write_text(path, chain((",".join(header) + "\r\n",), lines))
    elif fmt == "json":
        params = record.params or GeneratorParams(None, None, None)
        meta = {k: getattr(params if k in GeneratorParams._fields else record, k) for k in schema.meta}
        write_document({"kind": schema.kind, **meta, "tool_version": __version__},
                       {schema.data: rows}, path)
    else:
        raise ValueError(f"cannot write format {fmt!r}: expected 'csv' or 'json'")


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


class GeneratorParams(NamedTuple):
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
