"""Per-recording cardiorespiratory parameters and paired position statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import ndtr, stdtr

from ._util import without_overflow
from .record_io import DERIVED_SOURCES, ParameterRow, Position
from .resp_signals import BreathSeries


class FeatureError(ValueError):
    """Inputs cannot support the requested parameter computation."""


@dataclass(frozen=True)
class ParamVector:
    """The ten parameters of one recording, keyed by PARAMETER_NAMES."""

    params: dict[str, float]

    def to_row(self, subject_id: str, position: Position) -> ParameterRow:
        return ParameterRow(subject_id=subject_id, position=position, params=self.params)


class TestKind(Enum):
    PAIRED_T = "paired_t"
    WILCOXON_SIGNED_RANK = "wilcoxon_signed_rank"


@dataclass(frozen=True)
class PairedTestResult:
    parameter: str
    test_used: TestKind
    statistic: float
    p_value: float
    normality_p: float

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise FeatureError("p_value must lie in [0, 1]")
        expected = TestKind.PAIRED_T if self.normality_p >= 0.05 else TestKind.WILCOXON_SIGNED_RANK
        if self.test_used is not expected:
            raise FeatureError("test_used inconsistent with normality_p")


def cardiac_params(rr_ms) -> dict[str, float]:
    """HR, RMSSD and lnRMSSD from artifact-filtered R-R intervals (ms)."""
    rr = np.asarray(rr_ms, dtype=float)
    if rr.size < 3:
        raise FeatureError("need at least 3 R-R intervals")
    if not np.all(np.isfinite(rr)) or np.any(rr <= 0):
        raise FeatureError("R-R intervals must be finite and positive")
    rmssd = float(np.sqrt(np.mean(np.diff(rr) ** 2)))
    if rmssd == 0.0:
        raise FeatureError("constant rhythm: lnRMSSD undefined")
    return {"HR": 60000.0 / float(np.mean(rr)), "RMSSD": rmssd, "lnRMSSD": math.log(rmssd)}


def _population_cv(values) -> float:
    v = np.asarray(values, dtype=float)
    return float(np.std(v) / np.mean(v))


def respiratory_params(breaths: BreathSeries) -> dict[str, float]:
    """Breathing rate RR and the five coefficients of variation.

    The CVs are of i_rr_s, ins_t_s, exp_t_s, ins_v and exp_v, keyed
    ciRR, cInsT, cExpT, cInsV and cExpV (the order of DERIVED_SOURCES["BR"]).
    """
    fields = (breaths.i_rr_s, breaths.ins_t_s, breaths.exp_t_s, breaths.ins_v, breaths.exp_v)
    if min(len(f) for f in fields) < 5:
        raise FeatureError("need at least 5 complete breaths")
    return {
        "RR": 60.0 / float(np.mean(fields[0])),
        **{name: _population_cv(f) for name, f in zip(DERIVED_SOURCES["BR"], fields)},
    }


def breathing_regularity(cvs) -> float:
    """Regularity score in percent: 100 - 20 * sum of tanh of the five CVs.

    ``cvs`` holds the five coefficients of variation in the order of
    DERIVED_SOURCES["BR"]; the order fixes the floating-point sum.
    """
    if len(cvs) != len(DERIVED_SOURCES["BR"]):
        raise FeatureError("need the five coefficients of variation")
    total = 0.0  # added left to right: from Python 3.12 sum() compensates
    for v in cvs:
        total += math.tanh(v)
    return 100.0 - 20.0 * total


def param_vector(rr_ms, breaths: BreathSeries) -> ParamVector:
    """Assemble the ten parameters of one recording, in PARAMETER_NAMES order."""
    params = {**cardiac_params(rr_ms), **respiratory_params(breaths)}
    params["BR"] = breathing_regularity([params[name] for name in DERIVED_SOURCES["BR"]])
    return ParamVector(params)


def _average_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average (mid) ranks from 1 of ``values``, and the size of each tie group."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inverse], counts


def _wilcoxon_exact_two_sided(doubled_ranks: np.ndarray, w_plus_doubled: int) -> float:
    """Exact two-sided p over all sign assignments, via subset-sum counting.

    Ranks are doubled so tied (half-integer) average ranks become integers.
    """
    total = int(doubled_ranks.sum())
    counts = np.zeros(total + 1)
    counts[0] = 1.0
    for r in doubled_ranks:
        counts[r:] = counts[r:] + counts[: total + 1 - r]
    denom = counts.sum()
    cdf_le = counts[: w_plus_doubled + 1].sum() / denom
    cdf_ge = counts[w_plus_doubled:].sum() / denom
    return min(1.0, 2.0 * min(cdf_le, cdf_ge))


def wilcoxon_signed_rank(differences) -> tuple[float, float]:
    """Two-sided signed-rank test: (W+ statistic, p-value).

    Zero differences are dropped and tied absolute values receive averaged
    ranks.  The distribution is exact for n <= 25 remaining pairs, otherwise
    a normal approximation with tie and continuity corrections is used.
    """
    d = np.asarray(differences, dtype=float)
    d = d[d != 0]
    n = d.size
    if n == 0:
        raise FeatureError("all differences zero: signed-rank test undefined")
    ranks, tie_counts = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= 25:
        doubled = np.rint(2.0 * ranks).astype(int)
        w2 = int(round(2.0 * w_plus))
        p = _wilcoxon_exact_two_sided(doubled, w2)
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        if var <= 0:
            raise FeatureError("degenerate signed-rank variance")
        z = (w_plus - mu - 0.5 * np.sign(w_plus - mu)) / math.sqrt(var)
        p = float(2.0 * ndtr(-abs(z)))
    return w_plus, p


# Royston's AS R94 (Applied Statistics 44, 1995) with the AS 111 normal
# quantiles and the AS 66 normal tail it calls, in the double-precision
# constants and operation order of scipy.stats.shapiro, whose W and p it
# reproduces to the last bit.
_SW_C1 = (0.0, 0.221157, -0.147981, -2.07119, 4.434685, -2.706056)
_SW_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_SW_C3 = (0.544, -0.39978, 0.025054, -6.714e-4)
_SW_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_SW_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_SW_C6 = (-0.4803, -0.082676, 0.0030302)
_SW_GAMMA = (-2.273, 0.459)


def _poly(c, x: float) -> float:
    """c[0] + c[1] x + c[2] x^2 + ..., nested as in AS 181.2."""
    p = x * c[-1]
    for cj in c[-2:0:-1]:
        p = (p + cj) * x
    return c[0] + p


def _normal_upper_tail(z: float) -> float:
    """P(Z > z) for a standard normal Z (AS 66)."""
    up = z >= 0.0
    z = abs(z)
    if z > 7.0 and not (up and z <= 38.0):
        tail = 0.0
    elif z <= 1.28:
        y = 0.5 * z * z
        frac = y + 2.62433121679 + 48.6959930692 / (y + 5.92885724438)
        frac = y + 5.75885480458 - 29.8213557808 / frac
        tail = 0.5 - z * (0.398942280444 - 0.399903438504 * y / frac)
    else:
        # a continued fraction, evaluated from the innermost term out
        frac = z + 0.742380924027 + 30.789933034 / (z + 3.99019417011)
        frac = z + 4.8385912808 - 15.1508972451 / frac
        frac = z - 0.151679116635 + 5.29330324926 / frac
        frac = z + 3.98064794e-4 + 1.98615381364 / frac
        frac = z - 3.8052e-8 + 1.00000615302 / frac
        tail = 0.398942280385 * math.exp(-0.5 * z * z) / frac
    return tail if up else 1.0 - tail


def _shapiro_coefficients(n: int) -> np.ndarray:
    """The n // 2 Shapiro-Wilk coefficients of the top order statistics, largest first."""
    if n == 3:
        return np.array([math.sqrt(0.5)])
    # AS 111 quantiles of the lower half of the expected normal order statistics
    p = (np.arange(1, n // 2 + 1) - 0.375) / (n + 0.25)
    q = p - 0.5
    r = q * q
    m = q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r + 2.50662823884) / (
        (((3.13082909833 * r - 21.06224101826) * r + 23.08336743743) * r - 8.4735109309) * r + 1.0
    )
    tail = q < -0.42
    s = np.sqrt([-math.log(v) for v in p[tail]])
    m[tail] = -(((2.32121276858 * s + 4.85014127135) * s - 2.29796479134) * s - 2.78718931138) / (
        (1.63706781897 * s + 3.54388924762) * s + 1.0
    )
    summ2 = 2.0 * np.cumsum(m * m)[-1]
    ssumm2 = math.sqrt(summ2)
    rsn = 1.0 / math.sqrt(n)
    head = [_poly(_SW_C1, rsn) - m[0] / ssumm2]
    if n > 5:
        head.append(-m[1] / ssumm2 + _poly(_SW_C2, rsn))
    num, den = summ2, 1.0
    for mi, hi in zip(m, head):
        num -= 2.0 * mi * mi
        den -= 2.0 * hi * hi
    fac = math.sqrt(num / den)
    a = -m * (1.0 / fac)
    a[: len(head)] = head
    return a


def shapiro_wilk(x) -> tuple[float, float]:
    """Shapiro-Wilk test of normality: (W, p) for a sample of at least 3 values.

    As in scipy.stats.shapiro, the sorted sample is shifted by the value at
    index n // 2 of the unsorted one, and a sample whose range is below
    1e-19 gets W = p = 1.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if x.ndim != 1 or n < 3:
        raise FeatureError("Shapiro-Wilk test needs a vector of at least 3 values")
    y = np.sort(x) - x[n // 2]
    span = y[-1] - y[0]
    if span < 1e-19:
        return 1.0, 1.0
    a = _shapiro_coefficients(n)
    c = np.zeros(n)
    c[: n // 2] = -a
    c[n - n // 2 :] = a[::-1]
    u = y / span
    # np.cumsum adds in sequence, in the order of the published loops
    dc = c - np.cumsum(c)[-1] / n
    du = u - np.cumsum(u)[-1] / n
    ssa = np.cumsum(dc * dc)[-1]
    ssu = np.cumsum(du * du)[-1]
    sau = np.cumsum(dc * du)[-1]
    root = math.sqrt(ssa * ssu)
    w1 = float((root - sau) * (root + sau) / (ssa * ssu))  # 1 - W, free of cancellation
    w = 1.0 - w1
    if w1 <= 0.0:  # an exact fit, or W a rounding error above 1
        return w, 1.0
    if n == 3:
        return w, max(0.0, 1.0 - 6.0 / math.pi * math.acos(math.sqrt(w)))
    t = math.log(w1)
    if n <= 11:
        # AS R94 returns p = 1e-19 when t >= gamma, which needs 1 - W >= 0.646
        # at n = 4 (W is at least 0.6298 there) and 1 - W > 1 for n > 4
        t = -math.log(_poly(_SW_GAMMA, n) - t)
        mean, sd = _poly(_SW_C3, n), math.exp(_poly(_SW_C4, n))
    else:
        mean, sd = _poly(_SW_C5, math.log(n)), math.exp(_poly(_SW_C6, math.log(n)))
    return w, _normal_upper_tail((t - mean) / sd)


def paired_compare(supine, standing, parameter: str) -> PairedTestResult:
    """Compare one parameter between positions on subject-paired samples.

    Differences are standing minus supine.  Their Shapiro-Wilk normality
    p-value selects the test: paired t when p >= 0.05, otherwise the
    two-sided Wilcoxon signed-rank test.
    """
    a = np.asarray(supine, dtype=float)
    b = np.asarray(standing, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise FeatureError("paired samples must be equal-length vectors")
    n = a.size
    if n < 8:
        raise FeatureError("need at least 8 pairs")
    # both samples in one power-of-two unit, which changes no statistic and
    # keeps the squared differences finite
    a, b = without_overflow(np.stack((a, b)))
    d = b - a
    if np.all(d == 0):
        raise FeatureError("all differences zero: paired test undefined")

    normality_p = shapiro_wilk(d)[1]

    if normality_p >= 0.05:
        mean = float(np.mean(d))
        sd = float(np.std(d, ddof=1))
        if sd == 0.0:
            statistic = math.inf if mean > 0 else -math.inf
            p = 0.0
        else:
            statistic = mean / (sd / math.sqrt(n))
            p = float(2.0 * stdtr(n - 1, -abs(statistic)))
        kind = TestKind.PAIRED_T
    else:
        statistic, p = wilcoxon_signed_rank(d)
        kind = TestKind.WILCOXON_SIGNED_RANK
    return PairedTestResult(
        parameter=parameter,
        test_used=kind,
        statistic=float(statistic),
        p_value=float(p),
        normality_p=normality_p,
    )
