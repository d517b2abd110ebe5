"""Core recurrence: constant table, seed derivation, stream generation."""

import json
import math

import pytest

from wsngen.generator import (
    DEFAULT_TABLE,
    EXTENDED_TABLE,
    derive_constants,
    load_table,
    stream,
    validate_table,
)


def test_default_table_shape():
    assert len(DEFAULT_TABLE) == 14
    assert len(set(DEFAULT_TABLE)) == 14
    assert all(v > 0 for v in DEFAULT_TABLE)
    # the extended table is the same constants at full precision
    assert len(EXTENDED_TABLE) == 14
    for short, full in zip(DEFAULT_TABLE, EXTENDED_TABLE):
        assert round(full, 6) == short


def test_validate_table_accepts_minimal():
    assert validate_table([1.0, 2.0]) == (1.0, 2.0)


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [1.0],
        [1.0, 0.0],
        [1.0, -2.0],
        [1.0, math.inf],
        [1.0, math.nan],
        [2.0, 2.0],
    ],
)
def test_validate_table_rejects(bad):
    with pytest.raises(ValueError):
        validate_table(bad)


def test_derive_constants_offset_is_half_length():
    table = [1.5, 2.5, 3.5, 4.5, 5.5, 6.5]
    for seed in range(12):
        a, c = derive_constants(seed, table)
        assert a == table[seed % 6]
        assert c == table[(seed + 3) % 6]


def test_derive_constants_default_table():
    for seed in range(40):
        a, c = derive_constants(seed)
        assert a == DEFAULT_TABLE[seed % 14]
        assert c == DEFAULT_TABLE[(seed + 7) % 14]
        assert a != c


def test_derive_constants_rejects_negative_seed():
    with pytest.raises(ValueError):
        derive_constants(-1)


def test_stream_frozen_values():
    # seed 5 with modulus area/2 = 50: a = 2.584982, c = 3.141593
    a, c = derive_constants(5)
    s = stream(5, a, c, 50.0, 3)
    assert s[0] == 16.066503
    assert abs(s[1] - 44.673214057946005) <= 1e-9
    assert abs(s[2] - 18.62104722193739) <= 1e-9


def test_stream_range_and_determinism():
    a, c = derive_constants(7)
    s1 = stream(7, a, c, 33.0, 500)
    s2 = stream(7, a, c, 33.0, 500)
    assert s1 == s2
    assert all(0.0 <= v < 33.0 for v in s1)


def test_stream_scale_and_offset_follow_the_map():
    x, expected = 0.5, []
    for _ in range(50):
        x = (2.5 * (2.5 * x + 1.25)) % 6.0 + 2.0
        expected.append(x)
    assert stream(0.5, 2.5, 1.25, 6.0, 50, scale=2.5, offset=2.0) == expected


def test_stream_rejects_zero_count():
    with pytest.raises(ValueError):
        stream(0, 2.0, 3.0, 10.0, 0)


def test_load_table_round_trip(tmp_path):
    path = tmp_path / "constants.json"
    path.write_text(json.dumps(list(DEFAULT_TABLE)))
    assert load_table(path) == DEFAULT_TABLE


def test_load_table_rejects_non_array(tmp_path):
    path = tmp_path / "bad.json"
    for text in ('{"a": 1}', "5", '[1.5, "2.5"]', "[1.5, null]"):
        path.write_text(text)
        with pytest.raises(ValueError, match="^constants file must contain a JSON array of finite numbers$"):
            load_table(path)
