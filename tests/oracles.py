"""Reference checks the acceptance tests measure the package against.

None of these is part of wsngen: the CLI never calls them. They draw from a
true-uniform numpy source, count windows of an already generated sample,
run the uniformity battery as the per-element list loops it was before it
ran on float64 arrays, write a file through the standard library's csv
and json encoders, fill the exponential-recurrence matrix through the
t x t working table it used before it became two chains, measure the
distance between two points, as the radius graph once did and exactly, or
predict the seed gap at which two deployments coincide.
"""

import csv
import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from wsngen.deployment import Deployment
from wsngen.generator import DEFAULT_TABLE, GeneratorParams, validate_table
from wsngen.traffic import TrafficMatrix, _check_traffic_args
from wsngen.validation import (
    Z_TWO_SIDED,
    SuiteConfig,
    TestReport,
    _require_alpha,
    _verdict,
    chi2_critical_value,
    ks_critical_value,
)


def exp_inverse_transform(r, rate: float):
    """Inverse exponential CDF: -ln(1-r)/rate.

    Accepts scalars or numpy arrays. r must lie in [0, 1); monotone in r and
    0 at r = 0.
    """
    if not rate > 0 or not math.isfinite(rate):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0) or np.any(arr >= 1):
        raise ValueError("r must lie in [0, 1)")
    out = -np.log1p(-arr) / rate
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def min_exponentials_check(
    rates: Sequence[float],
    samples: int,
    *,
    rng_seed: int = 20240817,
) -> tuple[float, tuple[float, ...]]:
    """Monte-Carlo check of the minimum-of-exponentials law.

    Draws `samples` tuples of independent Exp(rate_k) variates through
    exp_inverse_transform over a true-uniform source, then returns the
    fitted rate of the minimum (1 / sample mean) and the frequency with
    which each index attains the minimum. For independent exponentials the
    minimum is Exp(sum of rates) and index k wins with probability
    rate_k / sum(rates).
    """
    rates = tuple(float(r) for r in rates)
    if len(rates) < 2:
        raise ValueError("need at least 2 rates")
    if any(r <= 0 for r in rates):
        raise ValueError("rates must be positive")
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    rng = np.random.default_rng(rng_seed)
    u = rng.random((samples, len(rates)))
    draws = exp_inverse_transform(u, 1.0) / np.asarray(rates)
    mins = draws.min(axis=1)
    winners = draws.argmin(axis=1)
    empirical_rate = 1.0 / float(mins.mean())
    freqs = np.bincount(winners, minlength=len(rates)) / samples
    return empirical_rate, tuple(float(f) for f in freqs)


def interval_uniformity(sample01: Sequence[float], windows: int = 10, alpha: float = 0.05) -> dict:
    """Interval property check: equal-width window frequencies should not
    depend on window position.

    Counts the sample into `windows` equal-width bins of [0, 1) and compares
    the largest pairwise count gap against the chi-square-calibrated bound
    sqrt(2 * E * crit): if only two bins deviate, by +d/2 and -d/2, they
    contribute d^2/(2E) to the statistic, so any sample passing the
    chi-square test at `alpha` has all pairwise gaps below that bound.
    """
    vals = [float(v) for v in sample01]
    if min(vals) < 0 or max(vals) >= 1:
        raise ValueError("sample values must lie in [0, 1)")
    counts = _bin_counts(vals, windows)
    n = len(vals)
    expected = n / windows
    chi2_stat = sum((f - expected) ** 2 / expected for f in counts)
    crit = chi2_critical_value(windows - 1, alpha)
    bound = math.sqrt(2.0 * expected * crit)
    max_pairwise = max(counts) - min(counts)
    return {
        "counts": counts,
        "expected": expected,
        "chi2": chi2_stat,
        "critical": crit,
        "bound": bound,
        "max_pairwise": float(max_pairwise),
        "passed": max_pairwise < bound,
    }


# --- the uniformity battery as list loops, kept byte for byte -----------------

def _left_sum(values) -> float:
    """Sum floats strictly left to right, as sum() did before Python 3.12."""
    total = 0.0
    for v in values:
        total += v
    return total


def normalize(sample: Sequence[float], lower: float, upper: float) -> list[float]:
    """Affine map of [lower, upper) onto [0, 1); a value whose map rounds onto
    1.0 gets the largest float below it."""
    span = upper - lower
    if not 0 < span < math.inf:
        raise ValueError(f"bounds must be finite with upper > lower, got [{lower}, {upper})")
    out = []
    for v in sample:
        if v < lower or v >= upper:
            raise ValueError(f"value {v} outside [{lower}, {upper})")
        out.append(min((v - lower) / span, math.nextafter(1.0, 0.0)))
    return out


def subsample(sample: Sequence, index: int) -> list:
    """Contiguous quarter of the sample; the last quarter absorbs any remainder."""
    n = len(sample)
    if n < 4:
        raise ValueError("sample must hold at least 4 elements")
    if not 0 <= index <= 3:
        raise ValueError("index must be in 0..3")
    q = n // 4
    if index == 3:
        return list(sample[3 * q:])
    return list(sample[index * q:(index + 1) * q])


def ks_test(sample: Sequence[float], alpha: float = 0.01) -> TestReport:
    """Kolmogorov-Smirnov test against the uniform distribution on [0, 1).

    D+ = max_i(i/n - r_i), D- = max_i(r_i - (i-1)/n) over the ascending
    sample, D = max(D+, D-). Satisfied when D <= critical.
    """
    n = len(sample)
    if n < 5:
        raise ValueError("KS test needs at least 5 values")
    _require_alpha(alpha)
    r = sorted(float(v) for v in sample)
    if r[0] < 0 or r[-1] >= 1:
        raise ValueError("sample values must lie in [0, 1)")
    d_plus = max((i + 1) / n - v for i, v in enumerate(r))
    d_minus = max(v - i / n for i, v in enumerate(r))
    d = max(d_plus, d_minus)
    crit = ks_critical_value(n, alpha)
    return TestReport(
        test_name="ks", statistic=d, critical_value=crit, alpha=alpha,
        verdict=_verdict(d, crit), sample_size=n,
        details={"D_plus": d_plus, "D_minus": d_minus},
    )


def _bin_counts(sample: Sequence[float], classes: int) -> list[int]:
    # membership by boundary comparison: value v lands in bin i when
    # i/classes <= v < (i+1)/classes
    boundaries = [k / classes for k in range(classes + 1)]
    counts = [0] * classes
    idx = np.searchsorted(boundaries, np.asarray(sample, dtype=float), side="right") - 1
    for i in idx:
        counts[int(i)] += 1
    return counts


def chi2_test(sample: Sequence[float], classes: int = 10, alpha: float = 0.001) -> TestReport:
    """Chi-square goodness of fit over equal-width bins of [0, 1).

    Expected count per class is N/classes; nu = classes - 1. Satisfied when
    the statistic does not exceed the critical value (standard direction).
    Validity rule: N >= 5 * classes.
    """
    n = len(sample)
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if n < 5 * classes:
        raise ValueError(f"chi2 needs at least {5 * classes} values for {classes} classes")
    _require_alpha(alpha)
    vals = [float(v) for v in sample]
    if min(vals) < 0 or max(vals) >= 1:
        raise ValueError("sample values must lie in [0, 1)")
    counts = _bin_counts(vals, classes)
    expected = n / classes
    # sum (f - n/k)^2 / (n/k) == sum (k*f - n)^2 / (n*k): a ratio of integers,
    # which int/int division rounds correctly, on every Python version
    statistic = sum((classes * f - n) ** 2 for f in counts) / (n * classes)
    nu = classes - 1
    crit = chi2_critical_value(nu, alpha)
    return TestReport(
        test_name="chi2", statistic=statistic, critical_value=crit,
        alpha=alpha, verdict=_verdict(statistic, crit), sample_size=n,
        details={"counts": counts, "expected": expected, "nu": nu},
    )


def autocorrelation_test(
    sample: Sequence[float], start: int = 1, lag: int = 1, alpha: float = 0.01
) -> TestReport:
    """Lagged autocorrelation test. start is 1-based.

    M is the largest integer with start + (M+1)*lag <= N. The product pairs
    elements at positions start + k*lag and start + (k+1)*lag for k = 0..M:

        rho_hat = (1/(M+1)) * sum_k R[start+k*lag] * R[start+(k+1)*lag] - 0.25

    Z0 = rho_hat / sigma with sigma = sqrt((13M+7) / (12(M+1))); two-sided
    verdict on |Z0|.
    """
    n = len(sample)
    if start < 1 or lag < 1:
        raise ValueError("start and lag must be >= 1")
    m = (n - start) // lag - 1
    if m < 1:
        raise ValueError(f"sequence too short for start={start}, lag={lag}")
    _require_alpha(alpha)
    vals = [float(v) for v in sample]
    prods = [vals[start - 1 + k * lag] * vals[start - 1 + (k + 1) * lag] for k in range(m + 1)]
    rho = _left_sum(prods) / len(prods) - 0.25
    sigma = math.sqrt((13 * m + 7) / (12 * (m + 1)))
    z0 = rho / sigma
    crit = Z_TWO_SIDED[alpha]
    statistic = abs(z0)
    # "sigma_form" names the one form left, so the report JSON keeps its keys
    return TestReport(
        test_name="autocorrelation", statistic=statistic,
        critical_value=crit, alpha=alpha,
        verdict=_verdict(statistic, crit), sample_size=n,
        details={"rho": rho, "sigma": sigma, "Z0": z0, "M": m,
                 "start": start, "lag": lag, "sigma_form": "ratio"},
    )


def circular_correlation_test(
    x: Sequence[float], y: Sequence[float], lag: int = 0, alpha: float = 0.001
) -> TestReport:
    """Circular cross-correlation with indices wrapped modulo N.

    rho_hat = (1/N) * sum_k x[k] * y[(k-lag) mod N] - 0.25, with
    sigma = sqrt((13N+7)/(12(N+1))) and a two-sided verdict on |Z0|. The
    -0.25 centering mirrors the linear test so a true-uniform pair scores
    near zero. For deployments, pass the normalized X and Y coordinate
    sequences.
    """
    n = len(x)
    if n != len(y):
        raise ValueError("x and y must have equal length")
    if n < 2:
        raise ValueError("need at least 2 values")
    if not 0 <= lag < n:
        raise ValueError("lag must satisfy 0 <= lag < N")
    _require_alpha(alpha)
    xv = [float(v) for v in x]
    yv = [float(v) for v in y]
    rho = _left_sum(xv[k] * yv[(k - lag) % n] for k in range(n)) / n - 0.25
    sigma = math.sqrt((13 * n + 7) / (12 * (n + 1)))
    z0 = rho / sigma
    crit = Z_TWO_SIDED[alpha]
    statistic = abs(z0)
    return TestReport(
        test_name="circular", statistic=statistic, critical_value=crit,
        alpha=alpha, verdict=_verdict(statistic, crit), sample_size=n,
        details={"rho": rho, "sigma": sigma, "Z0": z0, "lag": lag},
    )


def _suite_streams(data):
    """Resolve input data to named unit-interval streams plus a circular pair."""
    if isinstance(data, Deployment):
        xs, ys = zip(*data.points)
        nx = normalize(xs, 0.0, data.area)
        ny = normalize(ys, 0.0, data.area)
        return {"x": nx, "y": ny}, (nx, ny)
    if isinstance(data, TrafficMatrix):
        flat = normalize(data.flatten(), data.p_min, data.p_max)
        return {"all": flat}, (flat, flat)
    vals = [float(v) for v in data]
    if not vals:
        raise ValueError("empty data")
    if min(vals) < 0 or max(vals) >= 1:
        raise ValueError("raw sequences must already lie in [0, 1)")
    return {"all": vals}, (vals, vals)


def run_suite(data, config: Optional[SuiteConfig] = None) -> list[TestReport]:
    """Run the full test battery on a deployment, traffic matrix, or stream.

    KS runs on the four contiguous quarters and on the full sample; chi2 and
    autocorrelation run on the full sample (quarter-sized pieces would break
    the chi2 validity rule at the default class count). The circular test
    runs once, on the (x, y) coordinate pair for deployments and on the
    stream against itself otherwise. A test is Satisfied overall only if
    every run of it is.
    """
    cfg = config or SuiteConfig()
    streams, circular_pair = _suite_streams(data)
    need = max(20, 5 * cfg.classes)
    reports: list[TestReport] = []
    for name, vals in streams.items():
        if len(vals) < need:
            raise ValueError(f"the battery needs at least {need} values per stream "
                             f"at {cfg.classes} chi-square classes, got {len(vals)}")
        parts = [(f"quarter-{i}", subsample(vals, i)) for i in range(4)]
        parts.append(("full", list(vals)))
        for part_name, part in parts:
            rep = ks_test(part, cfg.alpha_ks)
            rep.details.update(stream=name, part=part_name)
            reports.append(rep)
        rep = chi2_test(vals, cfg.classes, cfg.alpha_chi2)
        rep.details.update(stream=name, part="full")
        reports.append(rep)
        rep = autocorrelation_test(vals, alpha=cfg.alpha_auto)
        rep.details.update(stream=name, part="full")
        reports.append(rep)
    rep = circular_correlation_test(*circular_pair, alpha=cfg.alpha_circular)
    rep.details.update(stream="pair", part="full")
    reports.append(rep)
    return reports



def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a header line and then each row of cells as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_document(meta: dict, data: dict, path) -> None:
    """Write the JSON text of {"meta": meta, **data} and a final newline to path."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(json.dumps({"meta": meta, **data}, indent=2) + "\n")


# --- the distance between two points ------------------------------------------

def plain_distance(p, q) -> float:
    """sqrt of the summed squared coordinate differences, row-wise, as the
    radius graph computed every distance before it rescaled the pairs whose
    squares leave the normal range."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(((np.asarray(p, dtype=float) - np.asarray(q, dtype=float)) ** 2).sum()))


def exact_distance(p, q) -> Decimal:
    """The Euclidean distance to 60 significant digits: a float converts to
    Decimal exactly, and each step rounds once at that precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        dx = Decimal(p[0]) - Decimal(q[0])
        dy = Decimal(p[1]) - Decimal(q[1])
        return (dx * dx + dy * dy).sqrt()


# --- seed aliasing ------------------------------------------------------------

def alias_period(a: float, area: float) -> int:
    """The seed gap 14k after which a deployment's first point comes back.

    Seeds s and s + 14k share a and c, and their first points differ by
    14k*a. For the 6-decimal a that is a whole number of areas when k is the
    denominator of 14*a/area; only the error of float(a) is left to tell the
    two seeds apart.
    """
    return 14 * (14 * Fraction(str(a)) / Fraction(str(area))).denominator


# --- the exponential recurrence over its working table, kept byte for byte ----

def traffic_exponential_recurrence(
    n: int,
    t: int,
    p_min: float,
    p_max: float,
    *,
    table: Sequence[float] = DEFAULT_TABLE,
) -> TrafficMatrix:
    """Exponential-regime matrix from the diagonal t x t recurrence.

    Seed cell W[0][0] = table[floor(p_max) % L]; a = table[floor(p_min) % L];
    c = table[(floor(seed) + L//2) % L]. For i in 1..n, j in 1..t:

        v = (a * W[(i-1) % t][(j-1) % t] + c) mod span + p_min
        W[i % t][j % t] = v

    and v is emitted in loop order, unclamped. Cells never written read as 0.
    """
    _check_traffic_args(n, t, p_min, p_max)
    values = validate_table(table)
    size = len(values)
    offset = size // 2
    span = p_max - p_min
    x00 = values[int(math.floor(p_max)) % size]
    a = values[int(math.floor(p_min)) % size]
    c = values[(int(math.floor(x00)) + offset) % size]
    params = GeneratorParams(seed=x00, a=a, c=c)

    work = [[0.0] * t for _ in range(t)]
    work[0][0] = x00
    flat = []
    for i in range(1, n + 1):
        for j in range(1, t + 1):
            v = (a * work[(i - 1) % t][(j - 1) % t] + c) % span + p_min
            work[i % t][j % t] = v
            flat.append(v)
    # an overflowed cell need not be read again, so check every value
    if not all(map(math.isfinite, flat)):
        raise ValueError("the recurrence overflows the float range; use a smaller area or packet range")
    return TrafficMatrix(values=tuple(tuple(flat[i:i + t]) for i in range(0, len(flat), t)),
                         p_min=float(p_min), p_max=float(p_max),
                         distribution="exponential-recurrence", params=params)
