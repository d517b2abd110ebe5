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
precision, with one exception: an exponential-transform traffic cell rests
on the platform's ``math.log``, which C does not require to be correctly
rounded. The mod is x - floor(x/m)*m with the result in [0, m), which is
exactly Python's float ``%``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from contextlib import suppress
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
    values = tuple([_float_arg(v, "constant table entries") for v in table])
    if len(values) < 2:
        raise ValueError("constant table needs at least 2 entries")
    for v in values:  # the message quotes the float
        _float_arg(v, "constant table entries", POSITIVE)
    if len(set(values)) != len(values):
        raise ValueError("constant table entries must be distinct")
    return values


def load_table(path) -> tuple[float, ...]:
    """Load a constant table from a JSON file holding an array of numbers."""
    data = _load_json(path)
    if not isinstance(data, list) or not all(map(_is_finite_number, data)):
        raise ValueError("constants file must contain a JSON array of finite numbers")
    return validate_table(data)


# a float argument's rule, as in Schema.meta: (valid, wanted)
POSITIVE = (lambda v: 0 < v < math.inf, "positive and finite")


def _float_arg(value, name: str, rule=(lambda v: True, "within the float range")) -> float:
    """The argument called name as a float, once rule, a (valid, wanted) pair,
    passes it; the default passes nan and inf on to the caller's range rule. An
    int, a float or another real number, such as a numpy scalar, converts; an int
    beyond the float range passes no rule. A refusal is one line: a TypeError for
    a value that is not a real number, such as a str or a Decimal, else a
    ValueError "{name} must be {wanted}, got {value}", the value as _quoted gives it."""
    if not isinstance(value, (int, float)):
        import numbers  # loaded on the first argument of another type only

        if not isinstance(value, numbers.Real):
            raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        number = float(value)
        if rule[0](number):
            return number
    except OverflowError:  # an int beyond the float range passes no rule
        pass
    raise ValueError(f"{name} must be {rule[1]}, got {_quoted(value, str)}")


def _quoted(value, form=repr) -> str:
    """form(value), as a refusal quotes value, or "an int of more than {limit} digits"
    for an int past sys.get_int_max_str_digits(), whose str() and repr() raise."""
    try:
        return form(value)
    except ValueError:
        return f"an int of more than {sys.get_int_max_str_digits()} digits"


def _is_finite_number(value) -> bool:
    """True for a JSON int or float (not a bool) that converts to a finite double."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _load_json(path):
    """The JSON value in the file at path. Text that does not parse, or nests too
    deep to parse, is a ValueError led by path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply to read") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# Below this many points, or values in one stream, the radius graph and the
# uniformity battery run on Python lists and numpy is never imported; from it
# on they run on numpy. Importing numpy takes longer than either computation
# at the reference n = 100, while at n = 1,000 numpy is about twice as fast.
# Both paths give the same floats.
_NUMPY_FROM = 512


def point_columns(data):
    """The x and y columns of a dataset's points, or of a point sequence: two lists
    of floats below _NUMPY_FROM points, else a (2, n) float64 array, the points'
    transpose. A cell float() refuses, a row that is not a pair, no point or an
    iterator gives one message at every size, a nan or inf require_finite's."""
    points = getattr(data, "points", data)
    try:  # an iterator has no len(); a row that is not a number sequence raises
        if len(points) >= _NUMPY_FROM:
            import numpy as np

            cols = np.asarray(points, dtype=float).T
            if cols.ndim == 2 and len(cols) == 2 and np.isfinite(cols).all():
                return cols
        # numpy reads None as nan: the lists word every fault as below _NUMPY_FROM
        xs, ys = zip(*points)  # stops at the shortest row; the sum counts every cell
        cols = [list(map(float, xs)), list(map(float, ys))] if sum(map(len, points)) == 2 * len(xs) else []
    except (TypeError, ValueError, OverflowError):
        cols = []
    if not cols:
        raise ValueError("deployment must supply a non-empty (n, 2) point set")
    if not all(map(math.isfinite, chain(*cols))):
        require_finite(list(zip(*cols)), "points")
    return cols


# ---------------------------------------------------------------------------
# file formats: the CSV and JSON files of deployments, traffic matrices and graphs

def require_finite(rows: Sequence[Sequence[float]], path) -> None:
    """Raise ValueError naming the first (1-based) row that holds nan, inf or an
    int beyond the float range, among rows of Python ints and floats."""
    with suppress(OverflowError):  # math.isfinite overflows on such an int; the row search is exact
        if all(map(math.isfinite, chain.from_iterable(rows))):
            return
    row = next(i for i, r in enumerate(rows, start=1) if not all(map(_is_finite_number, r)))
    raise ValueError(f"{path}: row {row}: non-finite value in [{', '.join(map(_quoted, rows[row - 1]))}]")


def _require_writable(rows: Sequence[Sequence[float]], where) -> None:
    """Raise ValueError, led by where, unless rows hold only finite Python ints and
    floats, whose repr is the text csv.writer and json.dumps give (a numpy float's is not)."""
    other = set(map(type, chain.from_iterable(rows))) - {int, float}
    if other:
        raise ValueError(f"{where}: expected ints and floats, got {min(t.__name__ for t in other)}")
    require_finite(rows, where)


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


def _document_head(meta: dict) -> str:
    """json.dumps({"meta": meta}, indent=2) less its closing "\n}"; meta must be finite."""
    return json.dumps({"meta": meta}, indent=2, allow_nan=False)[:-2]


def _array_text(rows):
    """(nested, blocks) for _document_pieces of rows. It lays them out and checks
    nothing: its callers check the cells first, with _require_writable."""
    nested = bool(rows) and not isinstance(rows[0], (int, float))
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


def _check_table(rows, schema: Schema, where) -> None:
    """Raise ValueError, led by where, unless rows are a non-empty table of
    equal-width rows. write checks its rows with it, and _document_parts a JSON
    file's; read_csv's rows always are such a table."""
    try:  # an iterator has no len(), nor has a row that is a number
        widths = set(map(len, rows)) if len(rows) else {0}
    except TypeError:
        widths = {0}
    if len(widths) != 1 or 0 in widths:
        raise ValueError(f"{where}: {schema.data!r} must be a non-empty list of equal-width rows of numbers")


def _check_rows(rows, schema: Schema, description, where) -> None:
    """Raise ValueError, led by where, unless schema.check passes the table rows with
    description; read and write check every record's rows with it, once its cells
    are known to be finite ints and floats."""
    try:
        schema.check(rows, *description)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _check_meta(meta: dict, record, where) -> None:
    """Raise ValueError, led by where, unless every meta field of record.SCHEMA, and
    any other float in meta, passes its test, and is present unless the record has a
    default or it is a count; seed, a and c may instead all be null. read checks a
    JSON file's meta with it, and write the meta it is about to write."""
    schema = record.SCHEMA
    missing = [k for k in schema.meta if k not in meta and k not in (*record._field_defaults, *_COUNTS)]
    if missing:
        raise ValueError(f"{where}: meta lacks field {', '.join(map(repr, missing))}")
    unset = [meta[k] for k in GeneratorParams._fields] == [None] * 3
    for key, value in meta.items():
        valid, wanted = schema.meta.get(key, NUMBER)
        if ((key in schema.meta or isinstance(value, float)) and not valid(value)
                and not (unset and key in GeneratorParams._fields)):
            raise ValueError(f"{where}: meta field {key!r} must be {wanted}, got {_quoted(value)}")


def _document_parts(doc: dict, path, record) -> tuple[tuple, list, dict]:
    """(rows, description, provenance) of a JSON document for a record type, once
    _check_meta passes its meta and _check_table its rows, tuples of floats. A cell
    that is not a JSON number, or a row that is not a list, leaves no rows."""
    schema = record.SCHEMA
    meta = doc["meta"]
    if schema.data not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'meta' and {schema.data!r}")
    _check_meta(meta, record, path)
    data = doc[schema.data]
    try:
        types = set(map(type, chain.from_iterable(data)))
        # json.load gives floats already; only ints need converting
        floats = data if types == {float} else map(map, repeat(float), data)
        rows = tuple(map(tuple, floats)) if types <= {int, float} else ()
    except (TypeError, OverflowError):  # a row that is not a list, an int beyond the float range
        rows = ()
    _check_table(rows, schema, path)
    provenance = {k: meta[k] for k in record._fields if k in meta and k != schema.data}
    # _check_meta lets seed be null only where a and c are null too
    provenance["params"] = None if meta["seed"] is None else GeneratorParams(*map(meta.get, GeneratorParams._fields))
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
    doc, meta = None, {}  # a CSV has no meta
    if head.lstrip()[:1] in ("{", "["):
        doc = _load_json(path)
        if not isinstance(doc, dict) or not isinstance(meta := doc.get("meta"), dict):
            raise ValueError(f"{path}: expected a JSON object whose 'meta' is an object")
        kind = meta.get("kind")
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
            raise ValueError(f"{path}: a {kind} CSV records no {' or '.join(schema.described)}; pass it to read")
        provenance = dict.fromkeys(k for k in record._fields if k != schema.data and k not in schema.described)
    else:
        rows, description, provenance = _document_parts(doc, path, record)
    # read_csv and _document_parts give a table of floats: their cells need only be finite
    require_finite(rows, path)
    _check_rows(rows, schema, description, path)
    for key, count in zip(_COUNTS, (len(rows), len(rows[0]))):
        if meta.get(key, count) != count:
            raise ValueError(f"{path}: meta field {key!r} is {meta[key]!r}, but {schema.data!r} gives {count}")
    return record(**{schema.data: rows}, **dict(zip(schema.described, map(float, description))),
                  **provenance)


def write(record, path, fmt: str) -> None:
    """Write a Deployment or TrafficMatrix to path as "csv" or "json", laid out by
    its SCHEMA. A record with no provenance (params None) writes it as null. Before
    the JSON meta is laid out, _check_meta refuses one that read would refuse; then,
    before the file is opened, _check_table, _require_writable and _check_rows refuse
    the rows, area or packet range that read would refuse, with read's words."""
    schema = record.SCHEMA
    rows = getattr(record, schema.data)
    where = f"cannot write {fmt.upper()}"
    if fmt == "json":
        meta = {}
        for k in schema.meta:  # rows that are not a table have no count: _check_table refuses them
            with suppress(TypeError):
                meta[k] = getattr(record.params, k, None) if k in GeneratorParams._fields else getattr(record, k)
        _check_meta(meta, record, where)
        head = _document_head({"kind": schema.kind, **meta, "tool_version": __version__})
    elif fmt != "csv":
        raise ValueError(f"cannot write format {fmt!r}: expected 'csv' or 'json'")
    _check_table(rows, schema, where)
    _require_writable(rows, where)
    _check_rows(rows, schema, [getattr(record, k) for k in schema.described], where)
    if fmt == "json":
        chunks = _document_pieces(head, {schema.data: _array_text(rows)})
    else:
        header = schema.columns(len(rows[0]) + 1)
        if len(header) == 3:  # two values a row, as in every deployment, format faster unpacked
            lines = (f"{i},{x!r},{y!r}\r\n" for i, (x, y) in enumerate(rows, start=1))
        else:
            lines = (f"{i},{','.join(map(repr, row))}\r\n" for i, row in enumerate(rows, start=1))
        chunks = chain((",".join(header) + "\r\n",), lines)
    write_text(path, chunks)


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
    overflow at any step. Each float argument passes _float_arg first, so
    the values are Python floats whatever real numbers the arguments are;
    then modulus must be positive and finite, since a zero modulus has no
    remainder and a negative one gives values in (modulus, 0].
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    x, a, c, _, scale, offset = map(_float_arg, (x0, a, c, modulus, scale, offset),
                                    ("x0", "a", "c", "modulus", "scale", "offset"))
    modulus = _float_arg(modulus, "modulus", POSITIVE)
    out = []
    for _ in range(count):
        x = (scale * (a * x + c)) % modulus + offset
        out.append(x)
    if not math.isfinite(x):
        raise ValueError("the recurrence overflows the float range; use a smaller area or packet range")
    return out
