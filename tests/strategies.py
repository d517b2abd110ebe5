"""Hypothesis strategies for drawn datasets, shared by the property tests."""

from hypothesis import assume
from hypothesis import strategies as st

from wsngen.deployment import deploy_grid, deploy_nongrid
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
