"""Reference checks the acceptance tests measure the package against.

None of these is part of wsngen: the CLI never calls them. They draw from a
true-uniform numpy source, count windows of an already generated sample, or
write a file through the standard library's csv and json encoders.
"""

import csv
import json
import math
from typing import Sequence

import numpy as np

from wsngen.validation import _bin_counts, chi2_critical_value


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


def write_csv(path, header: Sequence[str], rows) -> None:
    """Write a header line and then each row of cells as CSV."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_document(meta: dict, data: dict, path=None) -> str:
    """JSON text of {"meta": meta, **data}, written with a final newline to path if given."""
    text = json.dumps({"meta": meta, **data}, indent=2)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
