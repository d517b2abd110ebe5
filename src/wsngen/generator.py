"""Real-valued congruential generator core.

Every dataset this package produces comes from the recurrence

    x_next = (a * x + c) mod m

where a and c are drawn from a fixed table of mathematical constants and the
modulus m is a real number (the deployment area side, or the packet-size
range). The seed picks the constants: a = table[seed % 14] and
c = table[(seed + 7) % 14].

Results are reproducible on any IEEE-754 platform evaluating in double
precision. The mod is x - floor(x/m)*m with the result in [0, m), which is
exactly Python's float ``%``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain
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
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("constants file must contain a JSON array of numbers")
    return validate_table(data)


def require_finite(rows: Sequence[Sequence[float]], path) -> None:
    """Raise ValueError naming the first (1-based) row that holds nan or inf."""
    if all(map(math.isfinite, chain.from_iterable(rows))):
        return
    row = next(i for i, r in enumerate(rows, start=1) if not all(map(math.isfinite, r)))
    raise ValueError(f"{path}: row {row}: non-finite value in {list(rows[row - 1])!r}")


def load_document(path, data_key: str, meta_fields: Sequence[str]) -> tuple[dict, list]:
    """Load a wsngen JSON file and return its meta object and data rows.

    Every named meta field must be present and every float in meta finite;
    the data rows are left for the caller to check with require_finite.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    meta = doc.get("meta") if isinstance(doc, dict) else None
    if not isinstance(meta, dict) or data_key not in doc:
        raise ValueError(f"{path}: expected a JSON object with 'meta' and {data_key!r}")
    missing = [k for k in meta_fields if k not in meta]
    if missing:
        raise ValueError(f"{path}: meta lacks field {', '.join(map(repr, missing))}")
    bad = [k for k, v in meta.items() if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"{path}: meta field {', '.join(map(repr, bad))} is not finite")
    return meta, doc[data_key]


def table_to_json(table: Sequence[float] = DEFAULT_TABLE) -> str:
    return json.dumps(list(table))


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
    """Full state needed to regenerate a stream: seed, constants, modulus.

    a == c is rejected unless degenerate_ok is set; the degenerate pair is
    only useful for demonstrating collapsed (diagonal) deployments.
    """

    seed: float
    a: float
    c: float
    modulus: float
    degenerate_ok: bool = False

    def __post_init__(self):
        if self.modulus <= 0:
            raise ValueError("modulus must be positive")
        if self.a == self.c and not self.degenerate_ok:
            raise ValueError("a == c requires degenerate_ok=True")

    @classmethod
    def from_seed(
        cls,
        seed: int,
        modulus: float,
        table: Sequence[float] = DEFAULT_TABLE,
    ) -> "GeneratorParams":
        a, c = derive_constants(seed, table)
        return cls(seed=seed, a=a, c=c, modulus=modulus)


def lcg_step(x: float, params: GeneratorParams) -> float:
    """One recurrence step: (a*x + c) mod m, result in [0, m)."""
    return (params.a * x + params.c) % params.modulus


def stream(params: GeneratorParams, count: int) -> list[float]:
    """Iterate lcg_step `count` times from the seed.

    The seed itself is not emitted; element k is the k-th successor. Same
    params always give a bit-identical list.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    out = []
    x = float(params.seed)
    for _ in range(count):
        x = lcg_step(x, params)
        out.append(x)
    return out
