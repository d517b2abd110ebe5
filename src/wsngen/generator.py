"""Real-valued congruential generator core.

Every dataset this package produces comes from the recurrence

    x_next = (a * x + c) mod m

where a and c are drawn from a fixed table of mathematical constants and the
modulus m is a real number (the deployment area side, or the packet-size
range). The seed picks the constants: a = table[seed % 14] and
c = table[(seed + 7) % 14]. ``stream`` is the only loop that advances it,
and ``derive_constants`` the only code that indexes the table (through
``_constants_of``, which a generator deriving several seeds calls to check its
table once); deployments and traffic matrices are their special cases.

Results are reproducible on any IEEE-754 platform evaluating in double
precision, with one exception: an exponential-transform traffic cell rests
on the platform's ``math.log``, which C does not require to be correctly
rounded. The mod is x - floor(x/m)*m with the result in [0, m), which is
exactly Python's float ``%``.

A dataset keeps its table of cells in one flat row-major ``array``: a
deployment's points and a traffic matrix's values are ``Rows`` over an
``array('d')``, a radius graph's edges ``Rows`` over an ``array('q')``. The
readers fill the array and the writers, the radius graph and the battery read
it, so no stage holds a Python tuple per row. ``_as_rows`` is the one shape
check of a table: a table built by hand, of any equal-width number sequences,
becomes ``Rows`` over a list of its cells there, once, and every later check
and layout reads only ``flat`` and ``width``. ``_csv_text`` and ``_json_text``
are the one CSV and one JSON writer, of records and of the radius graph alike.
Both lay a table out with ``_laid_out``: up to ``_BLOCK`` rows at a time, one
``%`` fills a row format of ``%r`` cells repeated for the block's rows with
the block's cells, which a table hands over as one tuple sliced from its
columns. A record's table is ``_table`` of its Rows; the radius graph slices
its edge and distance columns itself.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import os
import sys
from array import array
from collections.abc import Sequence
from contextlib import suppress
from itertools import chain
from typing import Callable, NamedTuple

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


class Rows(Sequence):
    """A read-only sequence of rows of `width` cells kept in one flat row-major
    array, `flat`, rather than as one tuple per row. An index gives a row as a
    tuple, a slice a tuple of rows, and iteration each row in turn; it compares
    equal to, and hashes as, the tuple of its rows. Its consumers read `flat`
    directly; no code changes it."""

    __slots__ = ("flat", "width")

    def __init__(self, flat: array, width: int):
        self.flat, self.width = flat, width

    def __len__(self) -> int:
        return len(self.flat) // self.width

    def __getitem__(self, k):
        k = range(len(self))[k]  # an index from either end, or the rows of a slice
        if isinstance(k, range):
            return tuple(map(self.__getitem__, k))
        return tuple(self.flat[k * self.width:(k + 1) * self.width])

    def __iter__(self):
        return zip(*[iter(self.flat)] * self.width)

    def __eq__(self, other) -> bool:
        if isinstance(other, Rows):  # two Rows holding no row are equal whatever their widths
            mine, theirs = self.flat, other.flat
            # an array never equals a list: flats of two types are compared cell by cell
            same = mine == theirs if type(mine) is type(theirs) else list(mine) == list(theirs)
            return same and (self.width == other.width or not mine)
        if isinstance(other, tuple):
            return len(other) == len(self) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


def _pairs(typecode: str, xs, ys) -> Rows:
    """The Rows of the pairs (xs[k], ys[k]), kept in an array of typecode."""
    flat = array(typecode, [0]) * (2 * len(xs))
    flat[0::2], flat[1::2] = array(typecode, xs), array(typecode, ys)
    return Rows(flat, 2)


# Below this many points, or values in one stream, the radius graph and the
# uniformity battery run on Python lists and numpy is never imported; from it
# on they run on numpy. Importing numpy takes longer than either computation
# at the reference n = 100, while at n = 1,000 numpy is about twice as fast.
# Both paths give the same floats.
_NUMPY_FROM = 512


def _as_rows(rows, refusal: str) -> Rows:
    """The one shape check of a table: a non-empty Rows as it is, any other non-empty
    sequence of equal-width sequences as Rows over a list of its cells, each cell as
    given. Anything else is refused with the ValueError refusal."""
    if isinstance(rows, Rows) and rows.flat:
        return rows
    with suppress(TypeError, LookupError):  # no len(), no row 0 (as in empty Rows), or a row that is a number
        width = len(rows[0])
        if width and all(len(row) == width for row in rows):
            return Rows(list(chain.from_iterable(rows)), width)
    raise ValueError(refusal)


def point_columns(data):
    """The x and y columns of a dataset's points, or of a point sequence: two lists
    of floats below _NUMPY_FROM points, else a (2, n) float64 array, the points'
    transpose (a view of an array('d') of points). A cell float() refuses, a row
    that is not a pair, no point or an iterator gives one message at every size,
    a nan or inf require_finite's."""
    refusal = "deployment must supply a non-empty (n, 2) point set"
    points = _as_rows(getattr(data, "points", data), refusal)
    flat = points.flat
    try:
        if points.width != 2:
            raise ValueError
        if len(flat) >= 2 * _NUMPY_FROM:
            import numpy as np

            cells = np.asarray(flat, dtype=float)
            if cells.ndim == 1 and np.isfinite(cells).all():  # a cell that is a sequence adds a dimension
                return cells.reshape(-1, 2).T
        # numpy reads None as nan: the lists word every fault as below _NUMPY_FROM
        cols = [list(map(float, flat[0::2])), list(map(float, flat[1::2]))]
    except (TypeError, ValueError, OverflowError):
        raise ValueError(refusal) from None
    if not all(map(math.isfinite, chain(*cols))):
        require_finite(_pairs("d", *cols), "points")
    return cols


# ---------------------------------------------------------------------------
# file formats: the CSV and JSON files of deployments, traffic matrices and graphs

def require_finite(rows: Rows, path) -> None:
    """Raise ValueError naming the first (1-based) row that holds nan, inf or an
    int beyond the float range, among Rows of Python ints and floats."""
    with suppress(OverflowError):  # math.isfinite overflows on such an int; the row search is exact
        if all(map(math.isfinite, rows.flat)):
            return
    row = next(i for i, r in enumerate(rows, start=1) if not all(map(_is_finite_number, r)))
    raise ValueError(f"{path}: row {row}: non-finite value in [{', '.join(map(_quoted, rows[row - 1]))}]")


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


def read_csv(path, kind: str, columns) -> Rows:
    """The float cells of each row of a `kind` CSV. The header must be exactly
    columns(width), width >= 2 being its cell count, and at least one row of
    width cells follow: a node id, which is not read, then floats."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            expected = list(columns(max(len(header), 2)))
            if header == expected:
                flat, size = array("d"), len(header)
                for row, cells in enumerate(reader, start=1):
                    if len(cells) != size:
                        raise ValueError(f"row {row}: expected {size} cells, as in the header")
                    del cells[0]  # the node id
                    flat.extend(map(float, cells))
    except (csv.Error, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    if header != expected:
        raise ValueError(f"{path}: not a {kind} CSV (expected header {','.join(expected)})")
    if not flat:
        raise ValueError(f"{path}: {kind} CSV holds no rows")
    return Rows(flat, size - 1)


# rows per formatted piece of a file: one piece per row costs more time, one
# piece per file keeps the whole file's text in memory
_BLOCK = 256


def _table(rows: Rows, where, numbered: bool = False):
    """(width, count, cells), the layout of rows: cells(start, stop) is a tuple of the
    cells of rows start to stop, row-major, each row led by its 1-based number where
    numbered. First a ValueError, led by where, refuses rows unless they hold only
    finite Python ints and floats, whose repr is the text csv.writer and json.dumps
    give (a numpy float's is not); the cells of an array are ints or floats by its type."""
    flat, width = rows.flat, rows.width
    if not isinstance(flat, array) and (other := set(map(type, flat)) - {int, float}):
        raise ValueError(f"{where}: expected ints and floats, got {min(t.__name__ for t in other)}")
    require_finite(rows, where)
    if numbered:
        return width + 1, len(rows), lambda start, stop: tuple(chain.from_iterable(
            zip(range(start + 1, stop + 1), *[iter(flat[start * width:stop * width])] * width)))
    return width, len(rows), lambda start, stop: tuple(flat[start * width:stop * width])


def _laid_out(row: str, table):
    """The text of a table's rows, _BLOCK rows at a time: row, the %-format of one
    row's cells, repeated for a block's rows and filled by one % with their cells.
    %r of an int or a float is its repr, the text csv.writer and json.dumps give."""
    _, count, cells = table
    for start in range(0, count, _BLOCK):
        stop = min(start + _BLOCK, count)
        yield row * (stop - start) % cells(start, stop)


def _csv_text(header, table):
    """The text of a CSV: header, then a line per row of table."""
    return chain([",".join(header) + "\r\n"], _laid_out(",".join(["%r"] * table[0]) + "\r\n", table))


def _json_text(meta: dict, arrays: dict):
    """The text of the document {"meta": meta, **arrays}, laid out as json.dumps(...,
    indent=2) lays it out, and a newline. arrays maps each key to (nested, table): the
    table's rows laid out as an array of rows where nested, else as an array of numbers
    (a table of width 1). Nothing is checked here: the caller checks meta with
    _check_meta, and _table or the graph's table checks its cells."""
    yield json.dumps({"meta": meta}, indent=2)[:-2]
    for key, (nested, table) in arrays.items():
        row = ",\n    " + ("[\n      " + ",\n      ".join(["%r"] * table[0]) + "\n    ]" if nested else "%r")
        texts = _laid_out(row, table)  # each row led by its separator
        # the first row's comma becomes the opening bracket; no row leaves "[]"
        yield f",\n  {json.dumps(key)}: [" + next(texts, ",")[1:]
        yield from texts
        yield "\n  ]" if table[1] else "]"
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


def _check_rows(rows, schema: Schema, description, where) -> None:
    """Raise ValueError, or TypeError, led by where, unless schema.check passes the table
    rows with description; read and write check every record's rows with it, once its cells
    are known to be finite ints and floats."""
    try:
        schema.check(rows, *description)
    except (TypeError, ValueError) as exc:  # a TypeError for a description that is not a real number
        raise type(exc)(f"{where}: {exc}") from None


def _check_meta(meta: dict, record, where) -> None:
    """Raise ValueError, led by where, unless every meta field of record.SCHEMA, and
    any other float in meta, passes its test, and is present unless the record has a
    default or it is a count; seed, a and c may instead all be null. A record of None
    has no fields: every float must be finite. read checks a JSON file's meta with
    it, and write and graph_to_json the meta they are about to write."""
    fields = record.SCHEMA.meta if record else {}
    missing = [k for k in fields if k not in meta and k not in (*record._field_defaults, *_COUNTS)]
    if missing:
        raise ValueError(f"{where}: meta lacks field {', '.join(map(repr, missing))}")
    unset = [meta.get(k) for k in GeneratorParams._fields] == [None] * 3
    for key, value in meta.items():
        valid, wanted = fields.get(key, NUMBER)
        if ((key in fields or isinstance(value, float)) and not valid(value)
                and not (unset and key in GeneratorParams._fields)):
            raise ValueError(f"{where}: meta field {key!r} must be {wanted}, got {_quoted(value)}")


def _document_parts(doc: dict, path, record) -> tuple[Rows, list, dict]:
    """(rows, description, provenance) of a JSON document for a record type, once
    _check_meta passes its meta and _as_rows its rows, Rows of floats. Rows whose
    cells are not all JSON numbers within the float range are refused as rows that
    are not a table: a row that is not a list has no number cells."""
    schema = record.SCHEMA
    meta = doc["meta"]
    if schema.data not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'meta' and {schema.data!r}")
    _check_meta(meta, record, path)
    refusal = f"{path}: {schema.data!r} must be a non-empty list of equal-width rows of numbers"
    cells = _as_rows(doc[schema.data], refusal)
    try:
        if not set(map(type, cells.flat)) <= {int, float}:  # array("d") would take a bool
            raise TypeError
        rows = Rows(array("d", cells.flat), cells.width)
    except (TypeError, OverflowError):  # a cell that is not a number, an int beyond the float range
        raise ValueError(refusal) from None
    provenance = {k: meta[k] for k in record._fields if k in meta and k != schema.data}
    # _check_meta lets seed be null only where a and c are null too
    provenance["params"] = None if meta["seed"] is None else GeneratorParams(*map(meta.get, GeneratorParams._fields))
    return rows, [provenance.pop(k) for k in schema.described], provenance


def read(path, kinds: Sequence[str] = ("deployment", "traffic"), reader: str = "read", *,
         area=None, p_min=None, p_max=None):
    """The Deployment or TrafficMatrix in the CSV or JSON file at path, its cells
    Rows over an array('d').

    A JSON file's meta.kind gives its kind, a CSV file's header does; a kind
    not in kinds, a subset of the two, is refused, naming `reader`. Provenance
    is None for a CSV, and for a JSON file whose seed, a and c are null. A CSV
    records no area or packet range either: area, or p_min and p_max, describe
    it, checked as generation checks them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            head = fh.read(64)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
    # read_csv and _document_parts give Rows of floats: their cells need only be finite
    require_finite(rows, path)
    _check_rows(rows, schema, description, path)
    for key, size in zip(_COUNTS, (len(rows), len(rows[0]))):
        if meta.get(key, size) != size:
            raise ValueError(f"{path}: meta field {key!r} is {meta[key]!r}, but {schema.data!r} gives {size}")
    return record(**{schema.data: rows}, **dict(zip(schema.described, map(float, description))),
                  **provenance)


def write(record, path, fmt: str) -> None:
    """Write a Deployment or TrafficMatrix to path as "csv" or "json", laid out by
    its SCHEMA. A record with no provenance (params None) writes it as null. Its
    rows become Rows once, by _as_rows; then, before the file is opened, the JSON
    meta, the cells and the area or packet range (by _check_rows) that read would
    refuse are refused, with read's words."""
    schema = record.SCHEMA
    where = f"cannot write {fmt.upper()}"
    if fmt not in ("csv", "json"):
        raise ValueError(f"cannot write format {fmt!r}: expected 'csv' or 'json'")
    rows = _as_rows(getattr(record, schema.data),
                    f"{where}: {schema.data!r} must be a non-empty list of equal-width rows of numbers")
    if fmt == "json":
        meta = {k: getattr(record.params, k, None) if k in GeneratorParams._fields else getattr(record, k)
                for k in schema.meta}
        meta = {"kind": schema.kind, **meta, "tool_version": __version__}
        _check_meta(meta, record, where)
    table = _table(rows, where, numbered=fmt == "csv")
    _check_rows(rows, schema, [getattr(record, k) for k in schema.described], where)
    write_text(path, _csv_text(schema.columns(rows.width + 1), table) if fmt == "csv"
               else _json_text(meta, {schema.data: (True, table)}))


def derive_constants(seed: int, table: Sequence[float] = DEFAULT_TABLE) -> tuple[float, float]:
    """Map a seed to its (a, c) constant pair.

    a = table[seed % L], c = table[(seed + L//2) % L] with L = len(table).
    With the canonical 14-entry table the offset is 7, which is odd, so the
    two indices always differ and a != c holds for every seed.
    """
    return _constants_of(table)(seed)[1:]


def _constants_of(table: Sequence[float]) -> Callable[[int], "GeneratorParams"]:
    """The GeneratorParams of a seed under one table, checked here once: a generator
    that derives the constants of several seeds checks its table once. This is the
    one seed rule: a seed is an int or has __index__ (a numpy int does), and the
    params hold it as a Python int; a float seed is a TypeError."""
    values = validate_table(table)
    size = len(values)

    def derive(seed: int) -> GeneratorParams:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        return GeneratorParams(seed, values[seed % size], values[(seed + size // 2) % size])

    return derive


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
