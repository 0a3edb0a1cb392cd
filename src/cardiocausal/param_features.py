"""Per-recording cardiorespiratory parameters and paired position statistics."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy import stats

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
    return 100.0 - 20.0 * sum(math.tanh(v) for v in cvs)


def param_vector(rr_ms, breaths: BreathSeries) -> ParamVector:
    """Assemble the ten parameters of one recording, in PARAMETER_NAMES order."""
    params = {**cardiac_params(rr_ms), **respiratory_params(breaths)}
    params["BR"] = breathing_regularity([params[name] for name in DERIVED_SOURCES["BR"]])
    return ParamVector(params)


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
    ranks = stats.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    if n <= 25:
        doubled = np.rint(2.0 * ranks).astype(int)
        w2 = int(round(2.0 * w_plus))
        p = _wilcoxon_exact_two_sided(doubled, w2)
    else:
        mu = n * (n + 1) / 4.0
        var = n * (n + 1) * (2 * n + 1) / 24.0
        _, tie_counts = np.unique(ranks, return_counts=True)
        var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
        if var <= 0:
            raise FeatureError("degenerate signed-rank variance")
        z = (w_plus - mu - 0.5 * np.sign(w_plus - mu)) / math.sqrt(var)
        p = float(2.0 * stats.norm.sf(abs(z)))
    return w_plus, p


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
    d = b - a
    if np.all(d == 0):
        raise FeatureError("all differences zero: paired test undefined")

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        normality_p = float(stats.shapiro(d).pvalue)

    if normality_p >= 0.05:
        mean = float(np.mean(d))
        sd = float(np.std(d, ddof=1))
        if sd == 0.0:
            statistic = math.inf if mean > 0 else -math.inf
            p = 0.0
        else:
            statistic = mean / (sd / math.sqrt(n))
            p = float(2.0 * stats.t.sf(abs(statistic), n - 1))
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
