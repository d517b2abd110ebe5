"""Traffic matrix generators and their serialization."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
from oracles import exp_inverse_transform, min_exponentials_check
from strategies import matrices
from wsngen.generator import DEFAULT_TABLE, EXTENDED_TABLE, read, stream, write
from wsngen.traffic import (
    TrafficMatrix,
    exp_entry_from_uniform,
    traffic_exponential_recurrence,
    traffic_exponential_transform,
    traffic_uniform,
)


def test_uniform_frozen_first_cell():
    m = traffic_uniform(80, 5, 2.0, 10.0)
    assert m.values[0][0] == 7.345565623696594
    assert m.node_count == 80
    assert m.slot_count == 5


def test_uniform_range_and_determinism():
    m1 = traffic_uniform(40, 8, 2.0, 10.0)
    m2 = traffic_uniform(40, 8, 2.0, 10.0)
    assert m1.values == m2.values
    for v in m1.flatten():
        assert 2.0 <= v < 10.0


def test_uniform_chain_carries_across_rows():
    # the wide matrix is a reshape of the same single chain
    wide = traffic_uniform(1, 20, 2.0, 10.0)
    tall = traffic_uniform(4, 5, 2.0, 10.0)
    assert wide.flatten() == tall.flatten()
    # no row restarts the chain, so every row differs
    assert len(set(traffic_uniform(6, 5, 2.0, 10.0).values)) == 6


def test_exp_inverse_transform_scalar_and_array():
    assert exp_inverse_transform(0.0, 1.0) == 0.0
    v = exp_inverse_transform(0.5, 2.0)
    assert abs(v - math.log(2.0) / 2.0) <= 1e-15
    arr = exp_inverse_transform(np.array([0.0, 0.5, 0.9]), 1.0)
    assert arr.shape == (3,)
    assert arr[0] == 0.0
    assert np.all(np.diff(arr) > 0)


@pytest.mark.parametrize("r", [-0.1, 1.0, 1.5])
def test_exp_inverse_transform_domain(r):
    with pytest.raises(ValueError):
        exp_inverse_transform(r, 1.0)


def test_exp_inverse_transform_rate_positive():
    with pytest.raises(ValueError):
        exp_inverse_transform(0.5, 0.0)
    with pytest.raises(ValueError):
        exp_inverse_transform(0.5, -1.0)


def test_exp_transform_matrix_wraps_into_range():
    m = traffic_exponential_transform(80, 5, 2.0, 10.0)
    assert m.distribution == "exponential-transform"
    assert m.rate == 1.0
    for v in m.flatten():
        assert 2.0 <= v < 10.0
    # same driver chain as the uniform generator: entry (0,0) is the
    # transform of the uniform matrix's entry (0,0)
    u = traffic_uniform(1, 1, 2.0, 10.0)
    assert m.values[0][0] == exp_entry_from_uniform(u.values[0][0], 2.0, 10.0, 1.0)


def test_exp_recurrence_frozen_first_row():
    m = traffic_exponential_recurrence(80, 5, 2.0, 10.0)
    row = m.values[0]
    assert abs(row[0] - 8.241702692914) <= 1e-9
    # off the diagonal, row 1 holds the first successor of 0 in every
    # cell: (c mod span) + p_min
    assert row[1] == row[2] == row[3] == row[4]
    assert abs(row[1] - 3.902161) <= 1e-9


def test_exp_recurrence_range_and_determinism():
    m1 = traffic_exponential_recurrence(50, 7, 2.0, 10.0)
    m2 = traffic_exponential_recurrence(50, 7, 2.0, 10.0)
    assert m1.values == m2.values
    for v in m1.flatten():
        assert 2.0 <= v < 10.0


@st.composite
def _recurrence_args(draw):
    """n, t, p_min, p_max and a table: ranges up to 1e308, spans down to one ulp."""
    n, t = draw(st.integers(1, 60)), draw(st.integers(1, 12))
    p_min = draw(st.one_of(st.floats(min_value=-1.0, max_value=100.0),
                           st.floats(min_value=0.0, max_value=1e308)))
    p_max = draw(st.one_of(st.floats(min_value=0.0, max_value=1e308),
                           st.floats(min_value=0.0, max_value=1e3).map(lambda s: p_min + s),
                           st.integers(1, 64).map(lambda k: p_min + k * math.ulp(p_min))))
    table = draw(st.one_of(st.just(DEFAULT_TABLE), st.just(EXTENDED_TABLE),
                           st.lists(st.floats(min_value=1e-3, max_value=1e3),
                                    min_size=2, max_size=20, unique=True)))
    return n, t, p_min, p_max, table


@settings(max_examples=300, deadline=None)
@given(_recurrence_args())
@example((1, 5, 10000000000000.9, 10000000000000.902, DEFAULT_TABLE))
@example((1000, 5, 2.0, 1e308, DEFAULT_TABLE))
@example((30, 7, 0.0, 1e300, EXTENDED_TABLE))
def test_exp_recurrence_is_the_working_table_recurrence(args):
    # the two chains give the working table's values, less any cell on p_max
    n, t, p_min, p_max, table = args
    try:
        expected = oracles.traffic_exponential_recurrence(n, t, p_min, p_max, table=table)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            traffic_exponential_recurrence(n, t, p_min, p_max, table=table)
        assert str(got.value) == str(exc)
        return
    m = traffic_exponential_recurrence(n, t, p_min, p_max, table=table)
    top = math.nextafter(p_max, -math.inf)
    assert m.values == tuple(tuple(min(v, top) for v in row) for row in expected.values)
    assert m.params == expected.params


_ONTO_P_MAX = (10000000000000.9, 10000000000000.902)


def _clamped(raw, p_max):
    return tuple(min(v, math.nextafter(p_max, -math.inf)) for v in raw)


def test_uniform_value_rounding_onto_p_max_is_clamped():
    p_min, p_max = _ONTO_P_MAX
    m = traffic_uniform(1, 5, p_min, p_max)
    a, c = m.params.a, m.params.c
    raw = stream(m.params.seed, a, c, p_max - p_min, 5, scale=a, offset=p_min)
    assert raw[0] == p_max
    assert m.flatten() == _clamped(raw, p_max)
    assert all(p_min <= v < p_max for v in m.flatten())


def test_exp_transform_value_rounding_onto_p_max_is_clamped():
    p_min, p_max = 60000000000000.73, 60000000000000.734
    m = traffic_exponential_transform(1, 5, p_min, p_max)
    u = traffic_uniform(1, 5, p_min, p_max).params
    chain = stream(u.seed, u.a, u.c, p_max - p_min, 5, scale=u.a, offset=p_min)
    raw = [exp_entry_from_uniform(x, p_min, p_max, 1.0) for x in chain]
    assert raw.count(p_max) == 5
    assert m.flatten() == _clamped(raw, p_max)
    assert all(p_min <= v < p_max for v in m.flatten())


def test_exp_recurrence_value_rounding_onto_p_max_is_clamped():
    p_min, p_max = _ONTO_P_MAX
    m = traffic_exponential_recurrence(1, 5, p_min, p_max)
    raw = oracles.traffic_exponential_recurrence(1, 5, p_min, p_max).flatten()
    assert raw.count(p_max) == 4
    assert m.flatten() == _clamped(raw, p_max)
    assert all(p_min <= v < p_max for v in m.flatten())


@pytest.mark.parametrize("n,t,p_min,p_max", [
    (0, 5, 2.0, 10.0),
    (5, 0, 2.0, 10.0),
    (5, 5, -1.0, 10.0),
    (5, 5, 10.0, 2.0),
    (5, 5, 10.0, 10.0),
    (5, 5, math.nan, 10.0),
    (5, 5, 2.0, math.nan),
    (5, 5, 2.0, math.inf),
    (5, 5, math.inf, math.inf),
])
def test_traffic_argument_validation(n, t, p_min, p_max):
    for fn in (traffic_uniform, traffic_exponential_transform,
               traffic_exponential_recurrence):
        with pytest.raises(ValueError):
            fn(n, t, p_min, p_max)


@pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
def test_exp_transform_rejects_bad_rate(rate):
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        traffic_exponential_transform(5, 5, 2.0, 10.0, rate)
    with pytest.raises(ValueError, match="rate must be positive and finite"):
        exp_inverse_transform(0.5, rate)


def test_min_exponentials_check_validation():
    with pytest.raises(ValueError):
        min_exponentials_check((1.0,), 5000)
    with pytest.raises(ValueError):
        min_exponentials_check((1.0, -2.0), 5000)
    with pytest.raises(ValueError):
        min_exponentials_check((1.0, 2.0), 100)


def test_min_exponentials_check_small_run():
    rate, freqs = min_exponentials_check((2.0, 2.0), 10_000)
    assert abs(rate - 4.0) <= 0.25
    assert abs(freqs[0] - 0.5) <= 0.03
    assert abs(sum(freqs) - 1.0) <= 1e-12


def test_flatten_matches_row_major():
    m = traffic_uniform(3, 4, 2.0, 10.0)
    assert m.flatten() == tuple(v for row in m.values for v in row)


def test_csv_round_trip_exact(tmp_path):
    m = traffic_exponential_transform(12, 6, 2.0, 10.0)
    path = tmp_path / "traffic.csv"
    write(m, path, "csv")
    assert read(path, p_min=2.0, p_max=10.0).values == m.values
    header = path.read_text().splitlines()[0]
    assert header == "node_id,t1,t2,t3,t4,t5,t6"


def test_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("node_id,t1,t2\n1,2.5\n")
    with pytest.raises(ValueError):
        read(path, p_min=2.0, p_max=10.0)
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ValueError):
        read(path, p_min=2.0, p_max=10.0)
    path.write_text("node_id,t1\n")
    with pytest.raises(ValueError):
        read(path, p_min=2.0, p_max=10.0)


def test_json_round_trip(tmp_path):
    m = traffic_uniform(10, 5, 2.0, 10.0)
    path = tmp_path / "traffic.json"
    write(m, path, "json")
    back = read(path)
    assert back.values == m.values
    assert back.p_min == 2.0 and back.p_max == 10.0
    assert back.distribution == "uniform"
    assert '"kind": "traffic"' in path.read_text()


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(matrices())
def test_files_round_trip_drawn_matrices(tmp_path, m):
    write(m, tmp_path / "traffic.csv", "csv")
    write(m, tmp_path / "traffic.json", "json")
    assert read(tmp_path / "traffic.csv", p_min=m.p_min, p_max=m.p_max).values == m.values
    # the record compares values, bounds, distribution, rate and (seed, a, c)
    assert read(tmp_path / "traffic.json") == m
