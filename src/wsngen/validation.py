"""Statistical test suite: KS, chi-square, lag-1 autocorrelation, circular correlation.

Verdict vocabulary is Satisfied/Rejected. A test is Satisfied when its
statistic does not exceed the critical value at the chosen alpha. Alphas are
restricted to {0.001, 0.01, 0.05} because critical values are table-backed;
the chi-square table covers nu = 1..100 degrees of freedom, so --classes is
limited to 2..101.

The autocorrelation is lag 1 over the whole stream, and the circular test
pairs x[k] with y[k]. The autocorrelation sigma is the "ratio" form
sqrt((13M+7) / (12(M+1))), with the whole fraction under the root. Since
rho_hat is bounded in [-0.25, 0.75] and this sigma never drops below
sqrt(20/24), |Z0| cannot exceed 0.822, so the test never rejects at the
supported alphas; the circular sigma, the same form in N, is at least
sqrt(33/36), so its |Z0| stays below 0.784. The bundled golden verdicts were
produced with this form, which is why it is the one kept.

A stream below generator._NUMPY_FROM values is a list of floats, so a
process that only meets small datasets never imports numpy, whose import
takes longer than the battery at those sizes; a longer stream is one float64
array. Both paths give the same floats: every float sum that reaches a
statistic adds left to right, by functools.reduce over a list and as the
last element of np.cumsum over an array. np.sum pairs terms, and
Python 3.12 made the builtin sum() compensated.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from functools import reduce
from itertools import chain
from operator import add, mul, sub
from typing import NamedTuple, Optional, Sequence

from . import generator

SUPPORTED_ALPHAS = (0.001, 0.01, 0.05)

# The largest float below 1.0: _scaled's image of a value whose map rounds
# onto 1.0.
_BELOW_ONE = math.nextafter(1.0, 0.0)

# Large-sample KS coefficients: critical = c(alpha)/sqrt(n) for n > 35.
KS_ASYMPTOTIC = {0.05: 1.36, 0.01: 1.63, 0.001: 1.95}

# Exact two-sided KS critical values for n = 1..35 (index n-1), frozen from
# the exact finite-sample distribution of D_n at 10 decimal places.
KS_CRITICAL = {
    0.05: (
        0.9750000000, 0.8418861170, 0.7075982262, 0.6239385421, 0.5632751984,
        0.5192619543, 0.4834239632, 0.4542665911, 0.4300110365, 0.4092460848,
        0.3912236558, 0.3754297816, 0.3614322865, 0.3489012993, 0.3375961365,
        0.3273334700, 0.3179626919, 0.3093601033, 0.3014250707, 0.2940753144,
        0.2872424564, 0.2808686150, 0.2749043648, 0.2693074070, 0.2640413902,
        0.2590748718, 0.2543804583, 0.2499341271, 0.2457147071, 0.2417034706,
        0.2378837931, 0.2342408600, 0.2307614176, 0.2274335649, 0.2242465789,
    ),
    0.01: (
        0.9950000000, 0.9292893219, 0.8290024053, 0.7342382428, 0.6685311015,
        0.6166072544, 0.5758120914, 0.5417925244, 0.5133172837, 0.4889316594,
        0.4677022766, 0.4490453297, 0.4324732419, 0.4176158208, 0.4041994659,
        0.3920073069, 0.3808623481, 0.3706219534, 0.3611701909, 0.3524108916,
        0.3442632103, 0.3366589002, 0.3295400333, 0.3228570200, 0.3165670642,
        0.3106330081, 0.3050224368, 0.2997069371, 0.2946614788, 0.2898639065,
        0.2852945284, 0.2809357758, 0.2767719198, 0.2727888307, 0.2689737736,
    ),
    0.001: (
        0.9995000000, 0.9776393202, 0.9206299474, 0.8504651219, 0.7813687769,
        0.7247913131, 0.6793047799, 0.6409786046, 0.6084642597, 0.5804173077,
        0.5558780778, 0.5342172857, 0.5148987426, 0.4975336583, 0.4818180013,
        0.4675049177, 0.4543981182, 0.4423380333, 0.4311923902, 0.4208511890,
        0.4112222491, 0.4022274579, 0.3938001219, 0.3858829778, 0.3784265472,
        0.3713878071, 0.3647291470, 0.3584175316, 0.3524238110, 0.3467221509,
        0.3412895617, 0.3361055097, 0.3311515898, 0.3264112508, 0.3218695608,
    ),
}

# Chi-square upper critical values chi2_{1-alpha}(nu) for nu = 1..100 (index
# nu-1), frozen as the shortest round-trip repr of
# scipy.stats.chi2.ppf(1 - alpha, nu), so a lookup returns that exact float.
CHI2_CRITICAL = {
    0.05: (
        3.841458820694124, 5.991464547107979, 7.814727903251179, 9.487729036781154,
        11.070497693516351, 12.591587243743977, 14.067140449340169, 15.50731305586545,
        16.918977604620448, 18.307038053275146, 19.67513757268249, 21.02606981748307,
        22.362032494826934, 23.684791304840576, 24.995790139728616, 26.29622760486423,
        27.58711163827534, 28.869299430392623, 30.14352720564616, 31.410432844230918,
        32.670573340917315, 33.92443847144381, 35.17246162690806, 36.41502850180731,
        37.65248413348277, 38.885138659830055, 40.113272069413625, 41.33713815142739,
        42.55696780429269, 43.77297182574219, 44.98534328036513, 46.19425952027847,
        47.39988391908093, 48.602367367294164, 49.80184956820181, 50.99846016571065,
        52.192319730102895, 53.383540622969356, 54.572227758941736, 55.75847927888702,
        56.94238714682408, 58.12403768086803, 59.30351202689981, 60.480886582336446,
        61.65623337627955, 62.829620411408165, 64.00111197221803, 65.17076890356982,
        66.3386488629688, 67.5048065495412, 68.66929391228578, 69.83216033984813,
        70.99345283378227, 72.15321616702309, 73.31149302908324, 74.46832415930936,
        75.62374846937608, 76.7778031560615, 77.93052380523042, 79.08194448784874,
        80.23209784876272, 81.3810151888991, 82.5287265414718, 83.67526074272097,
        84.82064549765667, 85.96490744123096, 87.10807219532191, 88.25016442187412,
        89.39120787250796, 90.53122543488065, 91.67023917605484, 92.80827038310771,
        93.94533960119225, 95.08146666924324, 96.21667075350383, 97.35097037903296,
        98.48438345934042, 99.61692732428385, 100.74861874635032, 101.87947396543588,
        103.00950871222618, 104.13873823027387, 105.26717729686034, 106.39484024272251,
        107.52174097071946, 108.6478929735076, 109.77330935028795, 110.89800282268448,
        112.02198574980785, 113.1452701425554, 114.26786767719355, 115.38978970826685,
        116.51104728087356, 117.63165114234555, 118.75161175336736, 119.87093929856714,
        120.98964369660958, 122.10773460981942, 123.2252214533618, 124.34211340400407,
    ),
    0.01: (
        6.6348966010212145, 9.21034037197618, 11.344866730144373, 13.276704135987622,
        15.08627246938899, 16.811893829770927, 18.475306906582357, 20.090235029663233,
        21.665994333461924, 23.209251158954356, 24.724970311318277, 26.216967305535853,
        27.68824961045705, 29.141237740672796, 30.57791416689249, 31.999926908815176,
        33.40866360500461, 34.805305734705065, 36.19086912927004, 37.56623478662507,
        38.93217268351607, 40.289360437593864, 41.638398118858476, 42.97982013935165,
        44.31410489621915, 45.64168266628317, 46.962942124751436, 48.27823577031548,
        49.58788447289881, 50.89218131151707, 52.19139483319193, 53.48577183623535,
        54.77553976011035, 56.06090874778906, 57.3420734338592, 58.61921450168706,
        59.89250004508689, 61.1620867636897, 62.4281210161849, 63.690739751564465,
        64.9500713352112, 66.20623628399322, 67.45934792232582, 68.7095129693454,
        69.95683206583814, 71.20140024831149, 72.44330737654823, 73.68263852010573,
        74.91947430847816, 76.1538912490127, 77.38596201613736, 78.6157557150025,
        79.84333812225145, 81.0687719062971, 82.29211682919967, 83.51342993198946,
        84.73276570506393, 85.95017624510335, 87.16571139978757, 88.37941890144937,
        89.59134449068712, 90.80153203083871, 92.01002361413214, 93.21685966023843,
        94.42207900788506, 95.62571900011294, 96.82781556371239, 98.02840328331405,
        99.22751547056947, 100.42518422881135, 101.62144051355205, 102.81631418914067,
        104.00983408187484, 105.20202802983307, 106.3929229296718, 107.58254478061242,
        108.77091872581823, 109.95806909135288, 111.14401942288376, 112.32879252029748,
        113.51241047036046, 114.69489467756802, 115.87626589329334, 117.0565442433582,
        118.23574925412316, 119.413899877195, 120.59101451284052, 121.76711103218736,
        122.9422067982886, 124.11631868612129, 125.28946310158369, 126.46165599955252,
        127.63291290105586, 128.80324890961418, 129.97267872679876, 131.141216667052,
        132.30887667181258, 133.47567232298493, 134.64161685578915, 135.80672317102676,
    ),
    0.001: (
        10.827566170662733, 13.815510557964274, 16.26623619623813, 18.46682695290317,
        20.515005652432873, 22.457744484825323, 24.321886347856854, 26.12448155837614,
        27.877164871256568, 29.58829844507442, 31.264133620239985, 32.90949040736021,
        34.52817897487089, 36.12327368039813, 37.69729821835383, 39.252354790768464,
        40.79021670690253, 42.31239633167996, 43.82019596451753, 45.31474661812586,
        46.797038041561315, 48.26794229083518, 49.7282324664315, 51.17859777737739,
        52.619655776172834, 54.05196238857664, 55.47602020574521, 56.892285393353625,
        58.301173489794905, 59.70306430442994, 61.098306081058126, 62.487219057088474,
        63.870098522344946, 65.24721746094244, 66.61882884370104, 67.98516762602424,
        69.3464524962412, 70.70288741150503, 72.0546629519878, 73.40195751899103,
        74.74493839842374, 76.08376270770002, 77.41857824131394, 78.74952422804303,
        80.07673201081901, 81.40032565870999, 82.72042251912399, 84.03713371722348,
        85.35056460859305, 86.66081519040317, 87.96798047562868, 89.27215083430448,
        90.5734123052986, 91.8718468816601, 93.16753277222854, 94.46054464187807,
        95.75095383248956, 97.03882856650883, 98.32423413474163, 99.60723306984946,
        100.8878853068583, 102.16624833184879, 103.44237731987324, 104.71632526304057,
        105.98814308961282, 107.25787977487072, 108.52558244443486, 109.79129647066172,
        111.05506556267146, 112.31693185051572, 113.57693596394476, 114.83511710619328,
        116.09151312316095, 117.34616056833929, 118.59909476379528, 119.85034985750531,
        121.09995887729859, 122.34795378165676, 123.59436550758484, 124.83922401576478,
        126.08255833316952, 127.32439659331791, 128.56476607432293, 129.80369323488026,
        131.04120374833502, 132.27732253494605, 133.51207379246583, 134.7454810251423,
        135.97756707124026, 137.20835412917324, 138.437863782331, 139.66611702268335,
        140.8931342732306, 142.11893540936777, 143.34353977923126, 144.56696622308277,
        145.7892330917839, 147.01035826441762, 148.23035916510173, 149.44925277903886,
    ),
}

# Two-sided standard normal quantiles z_{alpha/2}.
Z_TWO_SIDED = {0.05: 1.9599639845, 0.01: 2.5758293035, 0.001: 3.2905267315}


class TestReport(NamedTuple):
    test_name: str  # ks | chi2 | autocorrelation | circular
    statistic: float
    critical_value: float
    alpha: float
    verdict: str  # Satisfied | Rejected
    sample_size: int
    details: dict

    @property
    def satisfied(self) -> bool:
        return self.verdict == "Satisfied"


def _verdict(statistic: float, critical: float) -> str:
    return "Satisfied" if statistic <= critical else "Rejected"


def _require_alpha(alpha: float) -> None:
    if alpha not in SUPPORTED_ALPHAS:
        raise ValueError(f"alpha {alpha} is not table-backed; use one of {SUPPORTED_ALPHAS}")


def _finite(sample: Sequence[float], lower: float = -math.inf, upper: float = math.inf):
    """The sample checked to be finite and, by _within, to lie in [lower, upper):
    a new list of floats below generator._NUMPY_FROM values, else a float64 array."""
    vals = None
    if len(sample) < generator._NUMPY_FROM:
        try:
            vals = [float(v) for v in sample] or None
        except (TypeError, ValueError, OverflowError):
            pass  # the array path below refuses it with its own message
    if vals is not None:
        finite = all(map(math.isfinite, vals))
    else:
        import numpy as np

        try:
            vals = np.asarray(sample, dtype=float)
        except OverflowError:  # an int beyond the float range
            raise ValueError("sample holds a non-finite value") from None
        if vals.ndim != 1 or not vals.size:
            raise ValueError(f"sample must be a non-empty flat sequence of numbers, got shape {vals.shape}")
        finite = np.isfinite(vals).all()
    if not finite:
        raise ValueError("sample holds a non-finite value")
    return _within(vals, lower, upper)


def _within(vals, lower: float, upper: float):
    """A list or array of finite floats, once every value lies in [lower, upper)."""
    lo, hi = (min(vals), max(vals)) if isinstance(vals, list) else (vals.min(), vals.max())
    if lo < lower or hi >= upper:
        raise ValueError(f"sample values span [{lo}, {hi}], outside [{lower}, {upper})")
    return vals


def _scaled(vals, lower, upper, names: tuple[str, str]):
    """The affine map of [lower, upper) onto [0, 1), of finite floats that _within
    passes; names are the bounds' names, for _float_arg. A value just below upper
    can round onto 1.0; it maps to _BELOW_ONE instead, as traffic keeps a value
    that rounded onto p_max just below it."""
    span = generator._float_arg(upper, names[1]) - generator._float_arg(lower, names[0])
    if not 0 < span < math.inf:
        raise ValueError(f"bounds must be finite with upper > lower, got [{lower}, {upper})")
    vals = _within(vals, lower, upper)
    if isinstance(vals, list):
        out = [(v - lower) / span for v in vals]
        return out if max(out) < 1.0 else [min(v, _BELOW_ONE) for v in out]
    out = (vals - lower) / span
    return out if out.max() < 1.0 else out.clip(max=_BELOW_ONE)


def _ascending(pieces: list):
    """The values of checked pieces, all lists or all arrays, sorted into one
    container of their kind. Lists are the pieces of small datasets, which
    sorted() orders without the numpy import that would cost more than the
    battery. Both sorts are stable, so -0.0 and 0.0 keep their order."""
    if isinstance(pieces[0], list):
        return sorted(chain.from_iterable(pieces))
    import numpy as np

    return np.sort(np.concatenate(pieces), kind="stable")


def ks_critical_value(n: int, alpha: float) -> float:
    if n <= 35:
        return KS_CRITICAL[alpha][n - 1]
    return KS_ASYMPTOTIC[alpha] / math.sqrt(n)


def _ks(r, alpha: float) -> TestReport:
    """Kolmogorov-Smirnov test against the uniform distribution on [0, 1), of a
    sample r that _finite checked and _ascending sorted.

    D+ = max_i(i/n - r_i), D- = max_i(r_i - (i-1)/n) over the ascending
    sample, D = max(D+, D-). Satisfied when D <= critical.
    """
    n = len(r)
    # i/n for i = 0..n: exact ints over n, correctly rounded on both paths; a
    # leading -0.0 gives the only -0.0 term of D-, and the builtin max keeps
    # the first of equal values
    if isinstance(r, list):
        grid = [i / n for i in range(n + 1)]
        d_plus = max(map(sub, grid[1:], r))
        d_minus = max(map(sub, r, grid))
    else:
        import numpy as np

        grid = np.arange(n + 1, dtype=float) / n
        d_plus = (grid[1:] - r).max().item()
        below = r - grid[:-1]
        d_minus = max(below[0].item(), below[1:].max().item())
    d = max(d_plus, d_minus)
    crit = ks_critical_value(n, alpha)
    return TestReport(
        test_name="ks", statistic=d, critical_value=crit, alpha=alpha,
        verdict=_verdict(d, crit), sample_size=n,
        details={"D_plus": d_plus, "D_minus": d_minus},
    )


def _bin_counts(sample, classes: int) -> list[int]:
    """Bin counts of an ascending list or array in [0, 1). Value v lands in
    bin i when i/classes <= v < (i+1)/classes, so bin i starts at the first
    value not below its boundary."""
    starts = [bisect_left(sample, k / classes) for k in range(classes + 1)]
    return list(map(sub, starts[1:], starts))


def chi2_critical_value(nu: int, alpha: float) -> float:
    table = CHI2_CRITICAL[alpha]
    if not 1 <= nu <= len(table):
        raise ValueError(
            f"no chi2 table for nu={nu}: degrees of freedom must be in 1..{len(table)} "
            f"(--classes 2..{len(table) + 1})"
        )
    return table[nu - 1]


def _chi2(sample, classes: int, alpha: float) -> TestReport:
    """Chi-square goodness of fit over equal-width bins of [0, 1), of a sample
    that _finite checked and _ascending sorted.

    Expected count per class is N/classes; nu = classes - 1. Satisfied when
    the statistic does not exceed the critical value (standard direction).
    Validity rule: N >= 5 * classes, which run_suite's length check enforces.
    """
    n = len(sample)
    counts = _bin_counts(sample, classes)
    expected = n / classes
    # sum (f - n/k)^2 / (n/k) == sum (k*f - n)^2 / (n*k): a ratio of integers,
    # which int/int division rounds correctly, on every Python version
    statistic = sum((classes * f - n) ** 2 for f in counts) / (n * classes)
    nu = classes - 1
    crit = CHI2_CRITICAL[alpha][nu - 1]  # run_suite checked classes against the table
    return TestReport(
        test_name="chi2", statistic=statistic, critical_value=crit,
        alpha=alpha, verdict=_verdict(statistic, crit), sample_size=n,
        details={"counts": counts, "expected": expected, "nu": nu},
    )


def _dot(x, y) -> float:
    """sum_k x[k] * y[k] over two checked lists or arrays, added left to right."""
    if isinstance(x, list):
        return reduce(add, map(mul, x, y))
    import numpy as np

    return np.cumsum(x * y)[-1].item()


def _autocorrelation(vals, alpha: float) -> TestReport:
    """Lag-1 autocorrelation over the whole of a sample that _finite checked.

    With M = N - 2, every neighbouring pair R[k], R[k+1] for k = 0..M enters:

        rho_hat = (1/(M+1)) * sum_k R[k] * R[k+1] - 0.25

    Z0 = rho_hat / sigma with sigma = sqrt((13M+7) / (12(M+1))); two-sided
    verdict on |Z0|. The -0.25 centering assumes a sample in [0, 1).
    """
    n = len(vals)
    m = n - 2
    rho = _dot(vals[:-1], vals[1:]) / (m + 1) - 0.25
    sigma = math.sqrt((13 * m + 7) / (12 * (m + 1)))
    z0 = rho / sigma
    crit = Z_TWO_SIDED[alpha]
    statistic = abs(z0)
    # "start", "lag" and "sigma_form" name the one setting left, so the
    # report JSON keeps its keys
    return TestReport(
        test_name="autocorrelation", statistic=statistic,
        critical_value=crit, alpha=alpha,
        verdict=_verdict(statistic, crit), sample_size=n,
        details={"rho": rho, "sigma": sigma, "Z0": z0, "M": m,
                 "start": 1, "lag": 1, "sigma_form": "ratio"},
    )


def _circular(x, y, alpha: float) -> TestReport:
    """Cross-correlation of two equal-length samples that _finite checked, x[k]
    paired with y[k].

    rho_hat = (1/N) * sum_k x[k] * y[k] - 0.25, with
    sigma = sqrt((13N+7)/(12(N+1))) and a two-sided verdict on |Z0|. The
    -0.25 centering mirrors the linear test, so a true-uniform pair in [0, 1)
    scores near zero. For a deployment, run_suite pairs its scaled X and Y
    coordinate sequences.
    """
    n = len(x)
    rho = _dot(x, y) / n - 0.25
    sigma = math.sqrt((13 * n + 7) / (12 * (n + 1)))
    z0 = rho / sigma
    crit = Z_TWO_SIDED[alpha]
    statistic = abs(z0)
    return TestReport(
        test_name="circular", statistic=statistic, critical_value=crit,
        alpha=alpha, verdict=_verdict(statistic, crit), sample_size=n,
        details={"rho": rho, "sigma": sigma, "Z0": z0, "lag": 0},
    )


class SuiteConfig(NamedTuple):
    alpha_ks: float = 0.01
    alpha_chi2: float = 0.001
    alpha_auto: float = 0.01
    alpha_circular: float = 0.001
    classes: int = 10


def _suite_streams(data):
    """Resolve input data, read by its fields, to named checked unit-interval
    streams plus a circular pair: points and an area make a deployment, p_min,
    p_max and flatten() a traffic matrix, and anything else is a raw stream."""
    if hasattr(data, "points"):
        nx, ny = (_scaled(col, 0.0, data.area, ("origin", "area")) for col in generator.point_columns(data))
        return {"x": nx, "y": ny}, (nx, ny)
    if hasattr(data, "p_min"):
        flat = _scaled(_finite(data.flatten()), data.p_min, data.p_max, ("p_min", "p_max"))
        return {"all": flat}, (flat, flat)
    vals = _finite(data, 0, 1)
    return {"all": vals}, (vals, vals)


def run_suite(data, config: Optional[SuiteConfig] = None) -> list[TestReport]:
    """Run the full test battery on a deployment, traffic matrix, or stream.

    KS runs on the four contiguous quarters and on the full sample; chi2 and
    autocorrelation run on the full sample (quarter-sized pieces would break
    the chi2 validity rule at the default class count). The circular test
    runs once, on the (x, y) coordinate pair for deployments and on the
    stream against itself otherwise. A test is Satisfied overall only if
    every run of it is. The settings are checked before the data: each alpha
    against the tables, and classes against the chi-square table's 2..101.
    """
    cfg = config or SuiteConfig()
    for alpha in (cfg.alpha_ks, cfg.alpha_chi2, cfg.alpha_auto, cfg.alpha_circular):
        _require_alpha(alpha)
    chi2_critical_value(cfg.classes - 1, cfg.alpha_chi2)
    streams, circular_pair = _suite_streams(data)
    need = max(20, 5 * cfg.classes)  # 5 values per KS quarter and per chi2 class
    reports: list[TestReport] = []
    for name, vals in streams.items():
        n = len(vals)
        if n < need:
            raise ValueError(f"the battery needs at least {need} values per stream "
                             f"at {cfg.classes} chi-square classes, got {n}")
        # four contiguous quarters, the last taking the remainder; KS ignores
        # order, and with sorted quarters the full sample's sort is a merge
        cuts = [i * (n // 4) for i in range(4)] + [n]
        quarters = [_ascending([vals[lo:hi]]) for lo, hi in zip(cuts, cuts[1:])]
        full = _ascending(quarters)
        parts = [(f"quarter-{i}", q) for i, q in enumerate(quarters)]
        parts.append(("full", full))
        for part_name, part in parts:
            rep = _ks(part, cfg.alpha_ks)
            rep.details.update(stream=name, part=part_name)
            reports.append(rep)
        # bin counting needs the sample ascending
        rep = _chi2(full, cfg.classes, cfg.alpha_chi2)
        rep.details.update(stream=name, part="full")
        reports.append(rep)
        rep = _autocorrelation(vals, cfg.alpha_auto)
        rep.details.update(stream=name, part="full")
        reports.append(rep)
    rep = _circular(*circular_pair, alpha=cfg.alpha_circular)
    rep.details.update(stream="pair", part="full")
    reports.append(rep)
    return reports


def aggregate_verdicts(reports: Sequence[TestReport]) -> dict[str, str]:
    """Per-test overall verdict: Satisfied only if every run of the test is."""
    out: dict[str, str] = {}
    for rep in reports:
        if rep.test_name not in out:
            out[rep.test_name] = "Satisfied"
        if not rep.satisfied:
            out[rep.test_name] = "Rejected"
    return out


def suite_satisfied(reports: Sequence[TestReport]) -> bool:
    return all(r.satisfied for r in reports)


def reports_to_json(reports: Sequence[TestReport]) -> str:
    return json.dumps([r._asdict() for r in reports], indent=2, allow_nan=False)


def reports_to_text(reports: Sequence[TestReport]) -> str:
    """Fixed-width detail table, one row per executed test."""
    header = f"{'test':<16}{'stream':<8}{'part':<11}{'statistic':>12}{'critical':>12}{'alpha':>8}  verdict"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.test_name:<16}{r.details.get('stream', '-'):<8}{r.details.get('part', '-'):<11}"
            f"{r.statistic:>12.6f}{r.critical_value:>12.6f}{r.alpha:>8}  {r.verdict}"
        )
    verdicts = aggregate_verdicts(reports)
    lines.append("")
    lines.append(f"{'KS-Test':<12}{'Chi2Test':<12}{'Autocorrelation Test':<22}Circular")
    lines.append(
        f"{verdicts.get('ks', '-'):<12}{verdicts.get('chi2', '-'):<12}"
        f"{verdicts.get('autocorrelation', '-'):<22}{verdicts.get('circular', '-')}"
    )
    return "\n".join(lines) + "\n"
