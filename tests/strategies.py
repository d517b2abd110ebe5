"""Hypothesis strategies for drawn datasets, and the check of their Rows,
shared by the property tests."""

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from wsngen.deployment import deploy_grid, deploy_nongrid
from wsngen.generator import Rows
from wsngen.traffic import (
    traffic_exponential_recurrence,
    traffic_exponential_transform,
    traffic_uniform,
)

GENERATORS = {
    "uniform": traffic_uniform,
    "exponential-transform": traffic_exponential_transform,
    "exponential-recurrence": traffic_exponential_recurrence,
}


@st.composite
def deployments(draw):
    """A grid or non-grid deployment of 1..200 nodes over an area of 1e-300..1e300."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 200))
    area = draw(st.floats(min_value=1e-300, max_value=1e300))
    deploy = deploy_grid if draw(st.sampled_from(["grid", "non-grid"])) == "grid" else deploy_nongrid
    return deploy(n, area, seed, y_increment=draw(st.sampled_from(["a", "c"])))


@st.composite
def matrices(draw):
    """A 1..40 x 1..12 traffic matrix of any distribution over a drawn [p_min, p_max),
    an exponential-transform one at a drawn rate."""
    distribution = draw(st.sampled_from(sorted(GENERATORS)))
    n, t = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    p_min = draw(st.floats(min_value=0.0, max_value=1e6))
    p_max = p_min + draw(st.floats(min_value=1e-3, max_value=1e6))
    assume(p_max > p_min)
    rate = (draw(st.floats(min_value=1e-2, max_value=1e3)),) if distribution == "exponential-transform" else ()
    return GENERATORS[distribution](n, t, p_min, p_max, *rate)


def check_rows(rows, data) -> None:
    """Assert that rows are Rows that behave as the tuple of their rows, with an
    index and a slice drawn from data: equal both ways, the same hash, len and
    repr, the same rows by index from either end and by slice, IndexError past
    either end, and no item assignment. Its twin over a list of the same cells is
    an equal value."""
    plain = tuple(rows)
    assert isinstance(rows, Rows)
    assert all(type(row) is tuple and len(row) == rows.width for row in plain)
    assert rows == plain and plain == rows and not rows != plain and hash(rows) == hash(plain)
    twin = Rows(list(rows.flat), rows.width)  # the same cells over a list, as _as_rows keeps a hand-built table
    assert rows == twin and twin == rows and hash(rows) == hash(twin)
    assert len(rows) == len(plain) and repr(rows) == repr(plain)
    if plain:
        k = data.draw(st.integers(0, len(plain) - 1))
        assert rows[k] == plain[k] and rows[-k - 1] == plain[-k - 1]
    for index in (len(plain), -len(plain) - 1):
        with pytest.raises(IndexError):
            rows[index]
    with pytest.raises(TypeError):
        rows[0] = plain[0] if plain else ()
    cut = slice(*data.draw(st.tuples(st.none() | st.integers(-9, 9), st.none() | st.integers(-9, 9),
                                     st.sampled_from([None, 1, 2, -1, -3]))))
    assert rows[cut] == plain[cut]
