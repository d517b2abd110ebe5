"""Statistical suite: KS, chi-square, autocorrelation, circular, harness."""

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import oracles
from oracles import interval_uniformity
from strategies import GENERATORS, deployments, matrices
from wsngen import generator, validation
from wsngen.deployment import DEPLOYERS, Deployment, deploy_nongrid
from wsngen.topology import build_graph, isolated_by_range
from wsngen.traffic import TrafficMatrix, traffic_uniform
from wsngen.validation import (
    CHI2_CRITICAL,
    SUPPORTED_ALPHAS,
    SuiteConfig,
    Z_TWO_SIDED,
    aggregate_verdicts,
    chi2_critical_value,
    ks_critical_value,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_satisfied,
)


# run_suite is the battery's one entry point: these tests run it, mostly on
# raw streams in [0, 1), with 2 chi-square classes where they need only its
# 20-value floor, and read the report of the test at hand

def _report(reports, test_name, part="full"):
    """The one report among reports of test_name on part."""
    (rep,) = [r for r in reports if r.test_name == test_name and r.details["part"] == part]
    return rep


TWO_CLASSES = SuiteConfig(classes=2)


def _unit_square(x, y):
    """A deployment on the unit square, whose columns the battery tests unscaled."""
    return Deployment(tuple(zip(x, y)), 1.0, mode=None, params=None)


# --- KS ---------------------------------------------------------------------

def test_ks_worked_example():
    # hand computation: sorted sample, D+ = max(i/n - r_i), D- = max(r_i - (i-1)/n)
    # r = (.05,.14,.44,.81,.93): D+ = max(.15,.26,.16,-.01,.07) = .26
    #                            D- = max(.05,-.06,.04,.21,.13) = .21
    # r is the first of the four 5-value quarters of a 20-value stream
    stream = [0.05, 0.14, 0.44, 0.81, 0.93] + [(k + 0.5) / 15 for k in range(15)]
    rep = _report(run_suite(stream, TWO_CLASSES._replace(alpha_ks=0.05)), "ks", "quarter-0")
    assert rep.sample_size == 5
    assert rep.statistic == 0.26
    assert rep.details["D_plus"] == 0.26
    assert rep.verdict == "Satisfied"


def test_ks_critical_table_monotone_in_alpha_and_n():
    for n in range(1, 36):
        c001 = ks_critical_value(n, 0.001)
        c01 = ks_critical_value(n, 0.01)
        c05 = ks_critical_value(n, 0.05)
        assert c001 > c01 > c05
    # table values decrease with n, and the asymptotic branch takes over past 35
    for alpha in (0.05, 0.01, 0.001):
        vals = [ks_critical_value(n, alpha) for n in range(1, 36)]
        assert vals == sorted(vals, reverse=True)
    assert ks_critical_value(100, 0.01) == 1.63 / math.sqrt(100)


def test_ks_rejects_too_small_sample():
    # each of the four KS quarters needs 5 values, whatever the class count
    with pytest.raises(ValueError, match=r"^the battery needs at least 20 values per stream "
                                         r"at 2 chi-square classes, got 19$"):
        run_suite([(k + 0.5) / 19 for k in range(19)], TWO_CLASSES)


def test_ks_rejects_out_of_range():
    for bad in (1.0, -0.1):
        with pytest.raises(ValueError, match=r"outside \[0, 1\)$"):
            run_suite([0.1, 0.2, 0.3, 0.4, bad] * 4, TWO_CLASSES)


def test_ks_unsupported_alpha_needs_fn():
    with pytest.raises(ValueError, match="not table-backed"):
        run_suite([(k + 0.5) / 20 for k in range(20)], TWO_CLASSES._replace(alpha_ks=0.2))


def test_ks_detects_clustered_sample():
    stream = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06] + [(k + 0.5) / 18 for k in range(18)]
    rep = _report(run_suite(stream, TWO_CLASSES._replace(alpha_ks=0.05)), "ks", "quarter-0")
    assert rep.sample_size == 6
    assert rep.verdict == "Rejected"


# --- chi-square --------------------------------------------------------------

def test_chi2_statistic_exactly_rational():
    rng = random.Random(11)
    for _ in range(30):
        classes = rng.randint(2, 10)
        n = rng.randint(max(20, 5 * classes), 120)
        sample = [rng.random() for _ in range(n)]
        rep = _report(run_suite(sample, SuiteConfig(classes=classes)), "chi2")
        counts = [0] * classes
        for v in sample:
            counts[min(int(Fraction(v) * classes), classes - 1)] += 1
        ae = Fraction(n, classes)
        assert rep.statistic == float(sum((Fraction(f) - ae) ** 2 / ae for f in counts))
        assert rep.details["counts"] == counts
        assert rep.details["nu"] == classes - 1


def test_chi2_validity_rule():
    # 5 values a class, and a class count the chi-square table covers
    with pytest.raises(ValueError, match=r"needs at least 50 values per stream at 10 chi-square classes, got 49$"):
        run_suite([0.5] * 49)
    with pytest.raises(ValueError, match=r"^no chi2 table for nu=0: "):
        run_suite([0.5] * 100, SuiteConfig(classes=1))


def test_chi2_rejects_skewed_sample():
    rep = _report(run_suite([0.05] * 50), "chi2")
    assert rep.verdict == "Rejected"
    assert rep.statistic == 450.0  # (50-5)^2/5 + 9 * 5


def test_chi2_uniform_counts_score_zero():
    sample = [(k + 0.5) / 50 for k in range(50)]
    rep = _report(run_suite(sample), "chi2")
    assert rep.statistic == 0.0
    assert rep.verdict == "Satisfied"


def test_chi2_critical_values_from_distribution():
    # the frozen table must return scipy's float exactly, entry for entry
    for alpha in SUPPORTED_ALPHAS:
        assert len(CHI2_CRITICAL[alpha]) == 100
        for nu in range(1, 101):
            assert chi2_critical_value(nu, alpha) == scipy_stats.chi2.ppf(1.0 - alpha, nu)


@pytest.mark.parametrize("nu", [0, 101])
def test_chi2_critical_value_outside_table_raises(nu):
    with pytest.raises(ValueError, match=r"1\.\.100 \(--classes 2\.\.101\)$"):
        chi2_critical_value(nu, 0.05)


# one bad setting among valid ones: an alpha off the tables, or a class count
# off the chi-square table. The class count used to be refused in two places,
# in two words ("classes must be >= 2" and "(--classes 2..101)"), and after
# the stream's length ("the battery needs at least 1000 values" at 200)
_BAD_SETTINGS = {"alpha": (0.2, math.nan, True), "classes": (-1, 0, 1, 102, 200, 10**400)}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SuiteConfig._fields), st.integers(20, 600), st.integers(0, 2**32), st.data())
def test_each_bad_suite_setting_gives_its_one_line(field, n, seed, data):
    kind = "classes" if field == "classes" else "alpha"
    bad = data.draw(st.sampled_from(_BAD_SETTINGS[kind]))
    rng = random.Random(seed)
    stream = [rng.random() for _ in range(n)]
    with pytest.raises(ValueError) as info:
        run_suite(stream, TWO_CLASSES._replace(**{field: bad}))
    if kind == "alpha":
        assert str(info.value) == f"alpha {bad} is not table-backed; use one of {SUPPORTED_ALPHAS}"
    else:
        assert str(info.value) == (f"no chi2 table for nu={bad - 1}: degrees of freedom must be in 1..100 "
                                   "(--classes 2..101)")


# --- autocorrelation ----------------------------------------------------------

def test_autocorrelation_small_sample_details():
    sample = [0.3, 0.7, 0.1, 0.9, 0.5, 0.2] * 3 + [0.4, 0.6]
    rep = _report(run_suite(sample, TWO_CLASSES._replace(alpha_auto=0.05)), "autocorrelation")
    assert rep.details["M"] == 18
    assert rep.details["sigma"] == math.sqrt(241 / 228)
    rho = sum(a * b for a, b in zip(sample, sample[1:])) / 19 - 0.25
    assert abs(rep.details["rho"] - rho) <= 1e-15
    assert rep.statistic == abs(rep.details["rho"] / math.sqrt(241 / 228))


UNIT_VALUES = st.one_of(st.sampled_from((0.0, math.nextafter(1.0, 0.0))),
                       st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(UNIT_VALUES, min_size=2, max_size=400), st.data())
def test_autocorrelation_ratio_form_never_rejects(sample, data):
    # rho lies in [-0.25, 0.75) on [0, 1) and the ratio sigma is smallest at
    # the shortest sample: sqrt(20/24) at M = 1 for the autocorrelation and
    # sqrt(33/36) at N = 2 for the circular test, so |Z0| stays below
    # 0.75 / sigma (0.82158 and 0.78335) and below every critical value.
    # Those lengths are below the battery's 20 values, so the lone tests run
    # on the checked lists of floats run_suite would hand them
    other = data.draw(st.lists(UNIT_VALUES, min_size=len(sample), max_size=len(sample)))
    tests = [(validation._circular, (sample, other), 0.7834)]
    if len(sample) >= 3:
        tests.append((validation._autocorrelation, (sample,), 0.822))
    for test, samples, bound in tests:
        for alpha in SUPPORTED_ALPHAS:
            rep = test(*samples, alpha)
            assert rep.statistic <= bound
            assert rep.statistic < min(Z_TWO_SIDED.values())
            assert rep.verdict == "Satisfied"


def test_autocorrelation_too_short():
    # the autocorrelation alone needs 3 values; the battery's floor is 20 on
    # each coordinate stream of a deployment
    column = [k / 19 for k in range(19)]
    with pytest.raises(ValueError, match=r"^the battery needs at least 20 values per stream "
                                         r"at 2 chi-square classes, got 19$"):
        run_suite(_unit_square(column, column), TWO_CLASSES)


# --- circular -----------------------------------------------------------------

def test_circular_constant_half_scores_zero():
    rep = _report(run_suite([0.5] * 20, TWO_CLASSES), "circular")
    assert rep.details["rho"] == 0.0
    assert rep.statistic == 0.0
    assert rep.verdict == "Satisfied"


def test_circular_matches_brute_convolution():
    rng = random.Random(99)
    x = [rng.random() for _ in range(24)]
    y = [rng.random() for _ in range(24)]
    rep = _report(run_suite(_unit_square(x, y), TWO_CLASSES), "circular")
    expect = float(np.dot(np.asarray(x), np.asarray(y)) / 24 - 0.25)
    assert abs(rep.details["rho"] - expect) <= 1e-12
    assert rep.details["sigma"] == math.sqrt((13 * 24 + 7) / (12 * 25))
    assert rep.details["lag"] == 0


def test_circular_argument_validation():
    # the point check gives the pair equal lengths; the circular alpha is
    # refused before the data are read
    with pytest.raises(ValueError, match="not table-backed"):
        run_suite([], TWO_CLASSES._replace(alpha_circular=0.2))


# --- helpers ------------------------------------------------------------------

def _matrix(values, p_min, p_max):
    """A traffic matrix whose one row is values, built without a check."""
    return TrafficMatrix(values=(tuple(values),), p_min=p_min, p_max=p_max, distribution=None, params=None)


def test_normalize_maps_and_validates():
    # the battery maps a traffic matrix's [p_min, p_max) onto [0, 1)
    assert (run_suite(_matrix([2.0, 6.0, 9.9] * 7, 2.0, 10.0), TWO_CLASSES)
            == run_suite([0.0, 0.5, 0.9875] * 7, TWO_CLASSES))
    for values, lower, upper in (([10.0], 2.0, 10.0), ([1.0], 2.0, 10.0), ([0.5], 1.0, 1.0)):
        with pytest.raises(ValueError):
            run_suite(_matrix(values * 20, lower, upper), TWO_CLASSES)


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                          (-math.inf, 0.0), (-1e308, 1e308)])
def test_normalize_rejects_non_finite_bounds(lower, upper):
    # an infinite span used to map every value to 0.0
    with pytest.raises(ValueError, match="bounds must be finite"):
        run_suite(_matrix([0.5] * 20, lower, upper), TWO_CLASSES)


# --- suite --------------------------------------------------------------------

def test_run_suite_on_deployment_shape():
    dep = deploy_nongrid(100, 100.0, 0)
    reports = run_suite(dep)
    names = [r.test_name for r in reports]
    # per coordinate stream: 4 quarter KS + full KS + chi2 + autocorrelation,
    # then one circular test on the pair
    assert names.count("ks") == 10
    assert names.count("chi2") == 2
    assert names.count("autocorrelation") == 2
    assert names.count("circular") == 1
    streams = {r.details["stream"] for r in reports}
    assert streams == {"x", "y", "pair"}


def test_run_suite_on_traffic_and_raw_stream():
    matrix = traffic_uniform(80, 5, 2.0, 10.0)
    reports = run_suite(matrix)
    assert {r.details["stream"] for r in reports} == {"all", "pair"}
    rng = random.Random(1)
    raw = [rng.random() for _ in range(200)]
    reports = run_suite(raw)
    assert len(reports) == 8
    with pytest.raises(ValueError):
        run_suite([])
    with pytest.raises(ValueError):
        run_suite([0.5, 1.5, 0.2, 0.8, 0.1])


# a hand-built deployment whose points are not (x, y) pairs: 3-D, 1-D, ragged,
# empty, an iterator, which has no len(), or a cell float() refuses, on both
# sides of the numpy threshold. Its cells used to be interleaved into an "x"
# and a "y" stream. A nan cell is refused too, with the row that holds it; numpy
# reads None as nan, which gave that message for a None cell from 512 points on
_PAIR = (1.0, 2.0)
_NOT_PAIRS = {
    "3-d": ((1.0, 2.0, 3.0),) * 60,
    "1-d": ((0.5,),) * 60,
    "ragged": ((1, 2), (3, 4, 5)) + ((1, 2),) * 58,
    "empty": (),
    "ragged-600": ((1, 2), (3, 4, 5)) + ((1, 2),) * 598,
    "iterator": iter(((1.0, 2.0),) * 60),
    "iterator-600": iter(((1.0, 2.0),) * 600),
    "none": (_PAIR, (1, None)) + (_PAIR,) * 58,
    "none-600": (_PAIR, (1, None)) + (_PAIR,) * 598,
    "abc": (_PAIR, (1, "abc")) + (_PAIR,) * 58,
    "abc-600": (_PAIR, (1, "abc")) + (_PAIR,) * 598,
    "nan": (_PAIR, (1, math.nan)) + (_PAIR,) * 58,
    "nan-600": (_PAIR, (1, math.nan)) + (_PAIR,) * 598,
}


@pytest.mark.parametrize("case", _NOT_PAIRS)
def test_run_suite_refuses_points_that_are_not_pairs(case):
    dep = Deployment(_NOT_PAIRS[case], 10.0, mode=None, params=None)
    line = ("points: row 2: non-finite value in [1.0, nan]" if case.startswith("nan")
            else "deployment must supply a non-empty (n, 2) point set")
    # the battery and both topology calls share one check, so one line at every size
    for consume in (run_suite, lambda d: build_graph(d, 1.0), lambda d: isolated_by_range(d, (1.0,))):
        with pytest.raises(ValueError) as info:
            consume(dep)
        assert str(info.value) == line


def test_run_suite_reads_a_dataset_by_its_fields():
    # the battery needs no record type: the fields it reads are enough
    dep = deploy_nongrid(100, 100.0, 3)
    assert run_suite(SimpleNamespace(points=dep.points, area=dep.area)) == run_suite(dep)
    matrix = traffic_uniform(80, 5, 2.0, 10.0)
    duck = SimpleNamespace(p_min=matrix.p_min, p_max=matrix.p_max, flatten=matrix.flatten)
    assert run_suite(duck) == run_suite(matrix)


def test_aggregate_verdicts_all_runs_must_pass():
    dep = deploy_nongrid(100, 100.0, 3)
    reports = run_suite(dep)
    verdicts = aggregate_verdicts(reports)
    per_test = {}
    for r in reports:
        per_test.setdefault(r.test_name, []).append(r.satisfied)
    for name, flags in per_test.items():
        assert verdicts[name] == ("Satisfied" if all(flags) else "Rejected")
    assert suite_satisfied(reports) == all(r.satisfied for r in reports)


def test_reports_serialize():
    dep = deploy_nongrid(100, 100.0, 0)
    reports = run_suite(dep)
    docs = json.loads(reports_to_json(reports))
    assert len(docs) == len(reports)
    assert docs[0]["test_name"] == "ks"
    text = reports_to_text(reports)
    assert "KS-Test" in text
    assert "Chi2Test" in text
    assert "Autocorrelation Test" in text
    assert text.count("\n") >= len(reports)
    # printed or written, the report ends its last line and pads none
    assert text.endswith("\n") and not text.endswith("\n\n")
    assert all(line == line.rstrip() for line in text.split("\n"))


def test_reports_to_json_refuses_an_infinite_statistic():
    # JSON has no token for inf
    rep = validation.TestReport(test_name="autocorrelation", statistic=math.inf,
                                critical_value=1.96, alpha=0.05, verdict="Rejected", sample_size=10,
                                details={})
    with pytest.raises(ValueError, match=r"^[^\n]*not JSON compliant[^\n]*$"):
        reports_to_json([rep])


# --- non-finite samples -------------------------------------------------------

NON_FINITE = pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])


def _raises_one_line(fn, *args):
    with pytest.raises(ValueError, match="non-finite") as info:
        fn(*args)
    assert "\n" not in str(info.value)


@NON_FINITE
def test_ks_rejects_non_finite(bad):
    # a nan used to sort into the middle and pass as Satisfied with D = 0.6
    stream = [0.1, 0.2, 0.3, 0.4, 0.5] * 4
    _raises_one_line(run_suite, stream[:2] + [bad] + stream[3:], TWO_CLASSES)
    _raises_one_line(run_suite, [bad] + stream[1:], TWO_CLASSES)


@NON_FINITE
def test_chi2_rejects_non_finite(bad):
    _raises_one_line(run_suite, _matrix([0.5] * 49 + [bad], 0.0, 1.0))


@NON_FINITE
def test_autocorrelation_rejects_non_finite(bad):
    # on both sides of the numpy threshold
    _raises_one_line(run_suite, [bad] * 600, TWO_CLASSES)
    _raises_one_line(run_suite, [0.5] * 19 + [bad], TWO_CLASSES)


@NON_FINITE
def test_circular_rejects_non_finite(bad):
    column = [bad] + [0.5] * 19
    for dep in (_unit_square([0.5] * 20, column), _unit_square(column, [0.5] * 20)):
        _raises_one_line(run_suite, dep, TWO_CLASSES)


# an int beyond the float range used to raise a bare OverflowError
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int-beyond-float")])
def test_run_suite_rejects_non_finite_raw_stream(bad):
    _raises_one_line(run_suite, [k / 100 for k in range(99)] + [bad])


# the ids are the names these cases had when each test of the battery had an
# entry point of its own; every case now goes through run_suite
@pytest.mark.parametrize("data, config", [
    pytest.param([[0.1, 0.2]] * 20, TWO_CLASSES, id="ks_test-args0"),
    pytest.param(np.array([[0.1, 0.2]] * 20), TWO_CLASSES, id="chi2_test-args1"),
    pytest.param(((0.1, 0.2),) * 20, TWO_CLASSES, id="autocorrelation_test-args2"),
    pytest.param(_matrix([[0.1, 0.2]] * 20, 0.0, 1.0), TWO_CLASSES, id="circular_correlation_test-args3"),
    pytest.param([[0.1, 0.2]] * 20, None, id="run_suite-args4"),
])
def test_nested_samples_rejected(data, config):
    # the list loops failed on float(row); an array would broadcast the rows
    with pytest.raises(ValueError, match=r"flat sequence of numbers, got shape \(20, 2\)$"):
        run_suite(data, config)


# --- the array battery against the list oracle --------------------------------

SPECIAL = (0.0, -0.0, math.nextafter(1.0, 0.0), 0)


@st.composite
def unit_samples(draw):
    """20..2000 values in [0, 1), with repeats, signed zeros, the largest float
    below 1 and the int 0 among them."""
    value = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0, exclude_max=True))
    if draw(st.booleans()):
        return draw(st.lists(value, min_size=20, max_size=300))
    # long samples are seeded, with drawn values spliced in
    rng = random.Random(draw(st.integers(0, 2**32)))
    sample = [rng.random() for _ in range(draw(st.integers(20, 2000)))]
    for i in draw(st.lists(st.integers(0, len(sample) - 1), max_size=40)):
        sample[i] = draw(st.one_of(value, st.sampled_from(sample)))
    return sample


def _outcome(battery, *args):
    """The reports and their JSON bytes, or the error raised, of a battery's run_suite."""
    try:
        reports = battery.run_suite(*args)
    except ValueError as exc:
        return "error", str(exc)
    return reports, validation.reports_to_json(reports)


def _same_as_oracle(*args):
    assert _outcome(validation, *args) == _outcome(oracles, *args)


@settings(max_examples=200, deadline=None)
@given(unit_samples(), st.integers(2, 12), st.sampled_from(SUPPORTED_ALPHAS), st.data())
def test_battery_matches_list_oracle_on_drawn_samples(sample, classes, alpha, data):
    config = SuiteConfig(alpha, alpha, alpha, alpha, classes)
    _same_as_oracle(sample, config)
    # a deployment pairs two different streams in the circular test
    _same_as_oracle(_unit_square(sample, data.draw(st.permutations(sample))), config)


@pytest.mark.parametrize("sample", [
    [-0.0, 0.2, 0.4, 0.6, 0.8],
    [-0.0, 0.0, 0.2, 0.4, 0.6],
    [0.0, -0.0, 0.2, 0.4, 0.6],
    [-0.0, 0.0, 0, 0.6, 0.8, 0.8],
])
def test_ks_signed_zeros_match_list_oracle(sample):
    # D- is max(-0.0, 0.0, ...) here: the builtin max keeps the first of equal
    # values, which numpy's max does not promise, and the JSON writes the sign.
    # Four copies make each KS quarter one copy
    _same_as_oracle(sample * 4, SuiteConfig(0.05, 0.05, 0.05, 0.05, 2))


# finite values outside [0, 1); -0.0 is inside it
OUT_OF_RANGE = st.one_of(st.integers(-1000, -1), st.integers(1, 1000),
                         st.floats(max_value=-5e-324, allow_nan=False, allow_infinity=False),
                         st.floats(min_value=1.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=15, max_size=300),
       st.data())
def test_correlation_tests_refuse_out_of_range_values(sample, data):
    # the -0.25 centering assumes [0, 1): one value outside it is refused in one line
    sample.insert(data.draw(st.integers(0, len(sample))), data.draw(OUT_OF_RANGE))
    other = data.draw(st.permutations(sample))
    refusal = r"^sample values span \[[^\n]*\], outside \[0(\.0)?, 1(\.0)?\)$"
    for stream in (sample, _unit_square(sample, other), _unit_square([0.5] * len(sample), sample)):
        with pytest.raises(ValueError, match=refusal):
            run_suite(stream, TWO_CLASSES)


@settings(max_examples=100, deadline=None)
@given(st.one_of(deployments(), matrices()), st.integers(2, 20), st.sampled_from(SUPPORTED_ALPHAS))
def test_run_suite_matches_list_oracle_on_drawn_datasets(data, classes, alpha):
    _same_as_oracle(data, SuiteConfig(alpha, alpha, alpha, alpha, classes))


@settings(max_examples=100, deadline=None)
@given(st.floats(-100.0, 0.0), st.floats(1e-3, 100.0), st.data())
def test_normalize_matches_list_oracle(lower, upper, data):
    inside = st.one_of(st.floats(lower, upper, exclude_max=True),
                       st.integers(math.ceil(lower), math.ceil(upper) - 1))
    sample = data.draw(st.lists(inside, min_size=20, max_size=50))
    _same_as_oracle(_matrix(sample, lower, upper), TWO_CLASSES)
    finite = {"allow_nan": False, "allow_infinity": False}
    sample.append(data.draw(st.one_of(st.floats(max_value=lower, exclude_max=True, **finite),
                                      st.floats(min_value=upper, **finite))))
    for battery in (oracles, validation):
        with pytest.raises(ValueError, match="outside"):
            battery.run_suite(_matrix(sample, lower, upper), TWO_CLASSES)


# Below 512 values per stream the battery runs on lists, so most drawn samples
# take that path; the properties run again with numpy from 0 values.
_ON_NUMPY = {
    "battery": lambda: test_battery_matches_list_oracle_on_drawn_samples(),
    "run_suite": lambda: test_run_suite_matches_list_oracle_on_drawn_datasets(),
    "normalize": lambda: test_normalize_matches_list_oracle(),
    "signed_zeros": lambda: [test_ks_signed_zeros_match_list_oracle(s) for s in (
        [-0.0, 0.2, 0.4, 0.6, 0.8], [-0.0, 0.0, 0.2, 0.4, 0.6],
        [0.0, -0.0, 0.2, 0.4, 0.6], [-0.0, 0.0, 0, 0.6, 0.8, 0.8])],
}


@pytest.mark.parametrize("name", _ON_NUMPY)
def test_properties_hold_on_the_numpy_path(name, monkeypatch):
    monkeypatch.setattr(generator, "_NUMPY_FROM", 0)
    _ON_NUMPY[name]()


@pytest.mark.parametrize("kind", [*DEPLOYERS, *GENERATORS])
def test_list_path_matches_numpy_at_the_benchmark_sizes(kind, monkeypatch):
    # the large_dataset benchmark's datasets, which take the numpy path
    if kind in DEPLOYERS:
        data = DEPLOYERS[kind](5000, 10.0 * math.sqrt(5000), 5)
    else:
        data = GENERATORS[kind](1000, 5, 2.0, 10.0)
    on_numpy = reports_to_json(run_suite(data))
    monkeypatch.setattr(generator, "_NUMPY_FROM", 10**6)
    assert reports_to_json(run_suite(data)) == on_numpy


# The size of KS and chi-square on a true uniform source: the rejections among
# _REPLICATES independent samples are Binomial(_REPLICATES, alpha) when the
# size is alpha. The bounds are that law's 1e-6 and 1 - 1e-6 quantiles, fixed
# before the seeds were first run: 137..270 for KS at 0.01 and 3..45 for
# chi-square at 0.001. The lower bound fails a test that never rejects.
_REPLICATES = 20_000
_CLASSES = {25: 5, 36: 7, 100: 20, 1000: 100}  # n/5 at most: 5 or more expected a class


@pytest.mark.parametrize("n", sorted(_CLASSES))
def test_ks_and_chi2_hold_their_size_on_a_uniform_source(n):
    rng = np.random.Generator(np.random.PCG64(n))
    ks = chi2 = 0
    for _ in range(_REPLICATES):
        # the battery's other tests would add nothing to the counts, so these
        # two run alone, on the sorted sample run_suite hands them: a list
        # below generator._NUMPY_FROM values, else an array
        sample = rng.random(n)
        sample = np.sort(sample, kind="stable") if n >= generator._NUMPY_FROM else sorted(sample.tolist())
        ks += not validation._ks(sample, 0.01).satisfied
        chi2 += not validation._chi2(sample, _CLASSES[n], 0.001).satisfied
    for rejected, alpha in ((ks, 0.01), (chi2, 0.001)):
        law = scipy_stats.binom(_REPLICATES, alpha)
        assert law.ppf(1e-6) <= rejected <= law.isf(1e-6), (rejected, alpha)


def test_normalize_rejects_non_finite_sample():
    # the list loop let a nan through, since nan < lower and nan >= upper are both false
    assert oracles.normalize([0.5, math.nan], 0.0, 1.0)[0] == 0.5
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            run_suite(_matrix([0.5] * 19 + [bad], 0.0, 1.0), TWO_CLASSES)


# bounds under which the largest value of a traffic CSV, below upper, mapped
# onto exactly 1.0: the list path's chi-square counted 99 of 100 values, and
# the numpy path's gave an eleventh bin and a Rejected verdict
_ROUNDS_ONTO_ONE = (13.245794280199016, 4.245794280199017, 13.245794280199018)


@pytest.mark.parametrize("numpy_from", [0, 10**6])
def test_value_just_below_upper_stays_in_the_last_bin(numpy_from, monkeypatch):
    monkeypatch.setattr(generator, "_NUMPY_FROM", numpy_from)
    top, lower, upper = _ROUNDS_ONTO_ONE
    values = traffic_uniform(20, 5, lower, upper).values
    matrix = TrafficMatrix(values=((top,) + values[0][1:],) + values[1:], p_min=lower, p_max=upper,
                           distribution=None, params=None)
    chi2 = [r for r in run_suite(matrix) if r.test_name == "chi2"][0]
    assert len(chi2.details["counts"]) == 10
    assert sum(chi2.details["counts"]) == 100
    assert chi2.details["counts"][-1] >= 1


@settings(max_examples=200, deadline=None)
@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6), st.lists(st.floats(0.0, 1.0), max_size=20))
@example(*_ROUNDS_ONTO_ONE[1:], [])
def test_normalize_stays_below_one(lower, upper, fractions):
    assume(lower < upper)
    # the largest value the bounds admit, then drawn ones between the bounds
    top = math.nextafter(upper, -math.inf)
    sample = [top, lower] + [min(lower + f * (upper - lower), top) for f in fractions]
    sample *= 10  # the battery's 20 values at least
    for numpy_from in (0, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "_NUMPY_FROM", numpy_from)
            chi2 = _report(run_suite(_matrix(sample, lower, upper), TWO_CLASSES), "chi2")
        # a value mapped onto 1.0 would fall past the last bin
        assert sum(chi2.details["counts"]) == len(sample)
    assert all(0.0 <= v < 1.0 for v in oracles.normalize(sample, lower, upper))


# --- interval harness -----------------------------------------------------------

def test_interval_uniformity_true_uniform_passes():
    rng = np.random.default_rng(4000)
    result = interval_uniformity(list(rng.random(4000)), windows=10, alpha=0.05)
    assert result["passed"]
    assert sum(result["counts"]) == 4000
    assert result["expected"] == 400.0


def test_interval_uniformity_flags_imbalance():
    # 0.3 of the mass heaped in one window
    sample = [0.05] * 1200 + [((k % 900) + 0.5) / 1000 for k in range(2800)]
    result = interval_uniformity(sample, windows=10, alpha=0.05)
    assert not result["passed"]
    assert result["max_pairwise"] >= result["bound"]


def test_interval_uniformity_validates_range():
    with pytest.raises(ValueError):
        interval_uniformity([0.5, 1.2])


def test_z_table_values():
    assert abs(Z_TWO_SIDED[0.01] - 2.5758293035) <= 1e-10
    assert abs(Z_TWO_SIDED[0.001] - 3.2905267315) <= 1e-10
