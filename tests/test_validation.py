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
    autocorrelation_test,
    chi2_critical_value,
    chi2_test,
    circular_correlation_test,
    ks_critical_value,
    ks_test,
    normalize,
    reports_to_json,
    reports_to_text,
    run_suite,
    suite_satisfied,
)


# --- KS ---------------------------------------------------------------------

def test_ks_worked_example():
    # hand computation: sorted sample, D+ = max(i/n - r_i), D- = max(r_i - (i-1)/n)
    # r = (.05,.14,.44,.81,.93): D+ = max(.15,.26,.16,-.01,.07) = .26
    #                            D- = max(.05,-.06,.04,.21,.13) = .21
    rep = ks_test([0.05, 0.14, 0.44, 0.81, 0.93], 0.05)
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
    with pytest.raises(ValueError):
        ks_test([0.1, 0.2, 0.3, 0.4], 0.05)


def test_ks_rejects_out_of_range():
    with pytest.raises(ValueError):
        ks_test([0.1, 0.2, 0.3, 0.4, 1.0], 0.05)
    with pytest.raises(ValueError):
        ks_test([-0.1, 0.2, 0.3, 0.4, 0.5], 0.05)


def test_ks_unsupported_alpha_needs_fn():
    sample = [0.1, 0.3, 0.5, 0.7, 0.9]
    with pytest.raises(ValueError, match="not table-backed"):
        ks_test(sample, 0.2)


def test_ks_detects_clustered_sample():
    rep = ks_test([0.01, 0.02, 0.03, 0.04, 0.05, 0.06], 0.05)
    assert rep.verdict == "Rejected"


# --- chi-square --------------------------------------------------------------

def test_chi2_statistic_exactly_rational():
    rng = random.Random(11)
    for _ in range(30):
        classes = rng.randint(2, 10)
        n = rng.randint(5 * classes, 120)
        sample = [rng.random() for _ in range(n)]
        rep = chi2_test(sample, classes, 0.001)
        counts = [0] * classes
        for v in sample:
            counts[min(int(Fraction(v) * classes), classes - 1)] += 1
        ae = Fraction(n, classes)
        assert rep.statistic == float(sum((Fraction(f) - ae) ** 2 / ae for f in counts))
        assert rep.details["counts"] == counts
        assert rep.details["nu"] == classes - 1


def test_chi2_validity_rule():
    with pytest.raises(ValueError):
        chi2_test([0.5] * 49, 10, 0.001)
    with pytest.raises(ValueError):
        chi2_test([0.5] * 100, 1, 0.001)


def test_chi2_rejects_skewed_sample():
    rep = chi2_test([0.05] * 50, 10, 0.001)
    assert rep.verdict == "Rejected"
    assert rep.statistic == 450.0  # (50-5)^2/5 + 9 * 5


def test_chi2_uniform_counts_score_zero():
    sample = [(k + 0.5) / 50 for k in range(50)]
    rep = chi2_test(sample, 10, 0.001)
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


# --- autocorrelation ----------------------------------------------------------

def test_autocorrelation_small_sample_details():
    sample = [0.3, 0.7, 0.1, 0.9, 0.5, 0.2]
    rep = autocorrelation_test(sample, alpha=0.05)
    assert rep.details["M"] == 4
    assert rep.details["sigma"] == math.sqrt(59 / 60)
    prods = [0.3 * 0.7, 0.7 * 0.1, 0.1 * 0.9, 0.9 * 0.5, 0.5 * 0.2]
    rho = sum(prods) / 5 - 0.25
    assert abs(rep.details["rho"] - rho) <= 1e-15
    assert rep.statistic == abs(rho / math.sqrt(59 / 60))


UNIT_VALUES = st.one_of(st.sampled_from((0.0, math.nextafter(1.0, 0.0))),
                       st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(st.lists(UNIT_VALUES, min_size=2, max_size=400), st.data())
def test_autocorrelation_ratio_form_never_rejects(sample, data):
    # rho lies in [-0.25, 0.75) on [0, 1) and the ratio sigma is smallest at
    # the shortest sample: sqrt(20/24) at M = 1 for the autocorrelation and
    # sqrt(33/36) at N = 2 for the circular test, so |Z0| stays below
    # 0.75 / sigma (0.82158 and 0.78335) and below every critical value
    other = data.draw(st.lists(UNIT_VALUES, min_size=len(sample), max_size=len(sample)))
    tests = [(circular_correlation_test, (sample, other), 0.7834)]
    if len(sample) >= 3:
        tests.append((autocorrelation_test, (sample,), 0.822))
    for test, samples, bound in tests:
        for alpha in SUPPORTED_ALPHAS:
            rep = test(*samples, alpha)
            assert rep.statistic <= bound
            assert rep.statistic < min(Z_TWO_SIDED.values())
            assert rep.verdict == "Satisfied"


def test_autocorrelation_too_short():
    with pytest.raises(ValueError, match=r"^autocorrelation needs at least 3 values, got 2$"):
        autocorrelation_test([0.5, 0.5])


# --- circular -----------------------------------------------------------------

def test_circular_constant_half_scores_zero():
    x = [0.5] * 16
    rep = circular_correlation_test(x, x, alpha=0.001)
    assert rep.details["rho"] == 0.0
    assert rep.statistic == 0.0
    assert rep.verdict == "Satisfied"


def test_circular_matches_brute_convolution():
    rng = random.Random(99)
    x = [rng.random() for _ in range(24)]
    y = [rng.random() for _ in range(24)]
    rep = circular_correlation_test(x, y, alpha=0.001)
    expect = float(np.dot(np.asarray(x), np.asarray(y)) / 24 - 0.25)
    assert abs(rep.details["rho"] - expect) <= 1e-12
    assert rep.details["sigma"] == math.sqrt((13 * 24 + 7) / (12 * 25))
    assert rep.details["lag"] == 0


def test_circular_argument_validation():
    with pytest.raises(ValueError):
        circular_correlation_test([0.5] * 4, [0.5] * 5)
    with pytest.raises(ValueError):
        circular_correlation_test([0.5], [0.5])


# --- helpers ------------------------------------------------------------------

def test_normalize_maps_and_validates():
    assert normalize([2.0, 6.0, 9.9], 2.0, 10.0) == [0.0, 0.5, 0.9875]
    with pytest.raises(ValueError):
        normalize([10.0], 2.0, 10.0)
    with pytest.raises(ValueError):
        normalize([1.0], 2.0, 10.0)
    with pytest.raises(ValueError):
        normalize([0.5], 1.0, 1.0)


@pytest.mark.parametrize("lower, upper", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                          (-math.inf, 0.0), (-1e308, 1e308)])
def test_normalize_rejects_non_finite_bounds(lower, upper):
    # an infinite span used to map every value to 0.0
    with pytest.raises(ValueError, match="bounds must be finite"):
        normalize([0.5], lower, upper)


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
    _raises_one_line(ks_test, [0.1, 0.2, bad, 0.3, 0.4])
    _raises_one_line(ks_test, [bad, 0.1, 0.2, 0.3, 0.4])


@NON_FINITE
def test_chi2_rejects_non_finite(bad):
    _raises_one_line(chi2_test, [0.5] * 49 + [bad], 10)


@NON_FINITE
def test_autocorrelation_rejects_non_finite(bad):
    _raises_one_line(autocorrelation_test, [bad] * 10)
    _raises_one_line(autocorrelation_test, [0.5] * 9 + [bad])


@NON_FINITE
def test_circular_rejects_non_finite(bad):
    _raises_one_line(circular_correlation_test, [0.5, bad, 0.5], [0.5] * 3)
    _raises_one_line(circular_correlation_test, [0.5] * 3, [0.5, 0.5, bad])


@NON_FINITE
def test_run_suite_rejects_non_finite_raw_stream(bad):
    _raises_one_line(run_suite, [k / 100 for k in range(99)] + [bad])


@pytest.mark.parametrize("test, args", [
    (ks_test, ()), (chi2_test, (2,)), (autocorrelation_test, ()),
    (circular_correlation_test, ([0.5] * 20,)), (run_suite, ()),
])
def test_nested_samples_rejected(test, args):
    # the list loops failed on float(row); an array would broadcast the rows
    with pytest.raises(ValueError, match=r"flat sequence of numbers, got shape \(20, 2\)$"):
        test([[0.1, 0.2]] * 20, *args)


# --- the array battery against the list oracle --------------------------------

SPECIAL = (0.0, -0.0, math.nextafter(1.0, 0.0), 0)


@st.composite
def unit_samples(draw, min_size=5):
    """min_size..2000 values in [0, 1), with repeats, signed zeros, the largest
    float below 1 and the int 0 among them."""
    value = st.one_of(st.sampled_from(SPECIAL), st.floats(0.0, 1.0, exclude_max=True))
    if draw(st.booleans()):
        return draw(st.lists(value, min_size=min_size, max_size=300))
    # long samples are seeded, with drawn values spliced in
    rng = random.Random(draw(st.integers(0, 2**32)))
    sample = [rng.random() for _ in range(draw(st.integers(min_size, 2000)))]
    for i in draw(st.lists(st.integers(0, len(sample) - 1), max_size=40)):
        sample[i] = draw(st.one_of(value, st.sampled_from(sample)))
    return sample


def _outcome(battery, name, *args, **kwargs):
    """The reports and their JSON bytes, or the error raised, of one test of a battery."""
    try:
        out = getattr(battery, name)(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)
    reports = out if isinstance(out, list) else [out]
    return reports, validation.reports_to_json(reports)


def _same_as_oracle(name, *args, **kwargs):
    assert _outcome(validation, name, *args, **kwargs) == _outcome(oracles, name, *args, **kwargs)


@settings(max_examples=200, deadline=None)
@given(unit_samples(), st.integers(2, 12), st.sampled_from(SUPPORTED_ALPHAS), st.data())
def test_battery_matches_list_oracle_on_drawn_samples(sample, classes, alpha, data):
    other = data.draw(st.permutations(sample))
    _same_as_oracle("ks_test", sample, alpha)
    _same_as_oracle("chi2_test", sample, classes, alpha)
    # the oracle keeps the general start, lag and circular lag; the product
    # runs start 1, lag 1 and circular lag 0
    assert (_outcome(validation, "autocorrelation_test", sample, alpha)
            == _outcome(oracles, "autocorrelation_test", sample, 1, 1, alpha))
    assert (_outcome(validation, "circular_correlation_test", sample, other, alpha)
            == _outcome(oracles, "circular_correlation_test", sample, other, 0, alpha))
    _same_as_oracle("run_suite", sample, SuiteConfig(alpha, alpha, alpha, alpha, classes))


@pytest.mark.parametrize("sample", [
    [-0.0, 0.2, 0.4, 0.6, 0.8],
    [-0.0, 0.0, 0.2, 0.4, 0.6],
    [0.0, -0.0, 0.2, 0.4, 0.6],
    [-0.0, 0.0, 0, 0.6, 0.8, 0.8],
])
def test_ks_signed_zeros_match_list_oracle(sample):
    # D- is max(-0.0, 0.0, ...) here: the builtin max keeps the first of equal
    # values, which numpy's max does not promise, and the JSON writes the sign
    _same_as_oracle("ks_test", sample, 0.05)


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
    refusal = r"^sample values span \[[^\n]*\], outside \[0, 1\)$"
    with pytest.raises(ValueError, match=refusal):
        autocorrelation_test(sample)
    with pytest.raises(ValueError, match=refusal):
        circular_correlation_test(sample, other)
    with pytest.raises(ValueError, match=refusal):
        circular_correlation_test([0.5] * len(sample), sample)


@settings(max_examples=100, deadline=None)
@given(st.one_of(deployments(), matrices()), st.integers(2, 20), st.sampled_from(SUPPORTED_ALPHAS))
def test_run_suite_matches_list_oracle_on_drawn_datasets(data, classes, alpha):
    _same_as_oracle("run_suite", data, SuiteConfig(alpha, alpha, alpha, alpha, classes))


@settings(max_examples=100, deadline=None)
@given(st.floats(-100.0, 0.0), st.floats(1e-3, 100.0), st.data())
def test_normalize_matches_list_oracle(lower, upper, data):
    inside = st.one_of(st.floats(lower, upper, exclude_max=True),
                       st.integers(math.ceil(lower), math.ceil(upper) - 1))
    sample = data.draw(st.lists(inside, min_size=1, max_size=50))
    assert repr(normalize(sample, lower, upper)) == repr(oracles.normalize(sample, lower, upper))
    finite = {"allow_nan": False, "allow_infinity": False}
    sample.append(data.draw(st.one_of(st.floats(max_value=lower, exclude_max=True, **finite),
                                      st.floats(min_value=upper, **finite))))
    for battery in (oracles, validation):
        with pytest.raises(ValueError, match="outside"):
            battery.normalize(sample, lower, upper)


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
        sample = rng.random(n).tolist()
        ks += not ks_test(sample, 0.01).satisfied
        chi2 += not chi2_test(sample, _CLASSES[n], 0.001).satisfied
    for rejected, alpha in ((ks, 0.01), (chi2, 0.001)):
        law = scipy_stats.binom(_REPLICATES, alpha)
        assert law.ppf(1e-6) <= rejected <= law.isf(1e-6), (rejected, alpha)


def test_normalize_rejects_non_finite_sample():
    # the list loop let a nan through, since nan < lower and nan >= upper are both false
    assert oracles.normalize([0.5, math.nan], 0.0, 1.0)[0] == 0.5
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            normalize([0.5, bad], 0.0, 1.0)


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
    for numpy_from in (0, 10**6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "_NUMPY_FROM", numpy_from)
            out = normalize(sample, lower, upper)
        assert all(0.0 <= v < 1.0 for v in out)
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
