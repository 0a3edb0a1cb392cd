"""Association screening: Bayesian linear correlation with an MPE gate, and
generalized (kernel-regression) correlations with a direction rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

import numpy as np
from scipy.special import stdtr

from ._util import is_constant, without_overflow
from .record_io import PARAMETER_NAMES, ParameterTable, Position

MPE_GATE = 0.9
DIRECTION_ALPHA = 0.05


class AssociationError(ValueError):
    """Degenerate or mismatched inputs for an association computation."""


@dataclass(frozen=True)
class BayesRegressionFit:
    """Flat-prior Bayesian fit of x = alpha + beta * y + noise."""

    alpha_hat: float
    beta_hat: float
    sigma_x: float
    sigma_y: float
    r: float
    mpe: float

    def __post_init__(self):
        if abs(self.r - self.beta_hat * self.sigma_y / self.sigma_x) > 1e-9:
            raise AssociationError("r inconsistent with slope and deviations")
        if abs(self.r) > 1 + 1e-12:
            raise AssociationError("|r| exceeds 1")
        if not 0.5 <= self.mpe <= 1.0:
            raise AssociationError("mpe must lie in [0.5, 1]")


class Direction(Enum):
    X_CAUSES_Y = "x_causes_y"
    Y_CAUSES_X = "y_causes_x"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class GeneralizedCorrPair:
    r_pearson: float
    r_star_y_given_x: float
    r_star_x_given_y: float
    gmc_y_given_x: float
    gmc_x_given_y: float
    direction: Direction
    gate_p: float

    def __post_init__(self):
        sign = 1.0 if self.r_pearson >= 0 else -1.0
        if abs(self.r_star_y_given_x - sign * math.sqrt(self.gmc_y_given_x)) > 1e-9:
            raise AssociationError("r*_y|x inconsistent with gmc")
        if abs(self.r_star_x_given_y - sign * math.sqrt(self.gmc_x_given_y)) > 1e-9:
            raise AssociationError("r*_x|y inconsistent with gmc")
        if max(abs(self.r_star_y_given_x), abs(self.r_star_x_given_y)) > 1.0 + 1e-12:
            raise AssociationError("|r*| exceeds 1")
        if self.direction is not Direction.UNDECIDED and not self.gate_p < DIRECTION_ALPHA:
            raise AssociationError("decided direction requires gate_p < 0.05")


def _as_pair(x, y, min_n: int):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise AssociationError("inputs must be equal-length vectors")
    if x.size < min_n:
        raise AssociationError(f"need at least {min_n} observations")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise AssociationError("non-finite input")
    if is_constant(x) or is_constant(y):
        raise AssociationError("zero variance input")
    return x, y


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
    if denom == 0:
        raise AssociationError("zero variance input")
    return float(xc @ yc) / denom


def _pearson_p(r: float, n: int) -> float:
    """Two-sided t test of a correlation coefficient, n - 2 df."""
    r = max(min(r, 1.0), -1.0)
    if abs(r) == 1.0:
        return 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    return float(2.0 * stdtr(n - 2, -abs(t)))


@dataclass(frozen=True)
class _Moments:
    """A column with the moments each of its correlations uses."""

    values: np.ndarray
    mean: float
    centered: np.ndarray
    ss: float  # sum of squared deviations
    sd: float  # standard deviation, n - 1 denominator


def _moments(x: np.ndarray) -> _Moments:
    mean = x.mean()
    centered = x - mean
    return _Moments(x, mean, centered, float(centered @ centered), float(np.std(x, ddof=1)))


def _bayes_fit(x: _Moments, y: _Moments) -> BayesRegressionFit:
    n = x.values.size
    beta = float(y.centered @ x.centered) / y.ss
    alpha = float(x.mean - beta * y.mean)
    resid = x.values - alpha - beta * y.values
    rss = float(resid @ resid)
    r = beta * y.sd / x.sd

    se2 = rss / (n - 2) / y.ss
    if se2 <= 0:
        mpe = 1.0 if beta != 0 else 0.5
    else:
        t_stat = beta / math.sqrt(se2)
        cdf = float(stdtr(n - 2, t_stat))
        mpe = max(cdf, 1.0 - cdf)
    return BayesRegressionFit(
        alpha_hat=alpha,
        beta_hat=beta,
        sigma_x=x.sd,
        sigma_y=y.sd,
        r=r,
        mpe=mpe,
    )


def bayes_correlation(x, y) -> BayesRegressionFit:
    """Correlation via the regression x = alpha + beta * y + noise.

    Under the flat conjugate prior the posterior mean of beta is the
    least-squares slope and its posterior is Student-t with n - 2 degrees of
    freedom, so r = beta * sd(y) / sd(x) equals the sample Pearson
    coefficient and the maximum probability of effect (MPE) has closed form.
    """
    x, y = _as_pair(x, y, 4)
    return _bayes_fit(_moments(x), _moments(y))


def correlation_matrix(table: ParameterTable, position: Position, warnings=None) -> np.ndarray:
    """Gated correlation matrix for one position, over ``PARAMETER_NAMES``.

    Entry (i, j) holds the correlation between parameters i and j when its
    MPE exceeds 0.9, NaN otherwise; the diagonal is NaN.  Symmetric by
    construction (each unordered pair is evaluated once).  A constant
    column has no correlation: its row and column are NaN, and when a
    ``warnings`` list is given it gets one message for each such column.
    Each column's moments are computed once, in power-of-two units if its
    values are extreme, which changes no correlation.
    """
    if len(table.subjects(position)) < 4:
        raise AssociationError("need at least 4 subjects for the position")
    k = len(PARAMETER_NAMES)
    out = np.full((k, k), np.nan)
    columns = [without_overflow(table.column(name, position)) for name in PARAMETER_NAMES]
    constant = [is_constant(c) for c in columns]
    if warnings is not None:
        warnings.extend(
            f"correlation matrix for {position.value}: {name} is constant; "
            "its correlations are null"
            for name, flat in zip(PARAMETER_NAMES, constant)
            if flat
        )
    moments = [None if flat else _moments(c) for c, flat in zip(columns, constant)]
    for i, j in combinations(range(k), 2):
        if constant[i] or constant[j]:
            continue
        fit = _bayes_fit(moments[i], moments[j])
        if fit.mpe > MPE_GATE:
            out[i, j] = fit.r
            out[j, i] = fit.r
    return out


def _loo_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out Gaussian kernel weights of x, and their row sums.

    Silverman bandwidth 1.06 * sd(x) * n^(-1/5); the diagonal is zero, so a
    point's own response is excluded to avoid zero-residual overfit.  The
    weights are built in place in one n x n array: -0.5 * (z * z) equals
    (-0.5 * z) * z bit for bit, since halving is exact above the subnormal
    range and exp gives 1.0 within it either way.
    """
    n = x.size
    h = 1.06 * float(np.std(x, ddof=1)) * n ** (-0.2)
    if h <= 0:
        raise AssociationError("degenerate variance: zero bandwidth")
    weights = np.subtract.outer(x, x)
    weights /= h
    weights *= weights
    weights *= -0.5
    np.exp(weights, out=weights)
    np.fill_diagonal(weights, 0.0)
    return weights, weights.sum(axis=1)


def _loo_predict(weights: np.ndarray, denom: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Leave-one-out Nadaraya-Watson estimate of E(y | x) at each x_i, from
    the kernel of x."""
    n = y.size
    numer = weights @ y
    fallback = (y.sum() - y) / (n - 1)  # isolated point: mean of the others
    with np.errstate(invalid="ignore", divide="ignore"):
        pred = np.where(denom > 1e-300, numer / np.maximum(denom, 1e-300), fallback)
    return pred


def _gmc_side(response: np.ndarray, pred: np.ndarray) -> tuple[float, float]:
    """(gmc, gate p) for one conditioning side."""
    var = float(np.var(response))
    gmc = 1.0 - float(np.mean((response - pred) ** 2)) / var
    gmc = min(max(gmc, 0.0), 1.0)
    if np.std(pred) == 0:
        return gmc, 1.0
    rho = _pearson(response, pred)
    return gmc, _pearson_p(rho, response.size)


class GeneralizedCorrPairs:
    """Generalized correlations among equal-length columns, with one kernel
    per column.

    A column's kernel is built the first time a pair needs it, predicts every
    other column and is dropped, so one n x n matrix is alive at a time.
    """

    def __init__(self, columns):
        # extreme columns in power-of-two units, which changes no correlation
        self.columns = [without_overflow(np.asarray(c, dtype=float)) for c in columns]
        self._predictions: dict[int, dict[int, np.ndarray]] = {}

    def _prediction(self, cause: int, response: int) -> np.ndarray:
        if cause not in self._predictions:
            weights, denom = _loo_kernel(self.columns[cause])
            self._predictions[cause] = {
                j: _loo_predict(weights, denom, y)
                for j, y in enumerate(self.columns)
                if j != cause
            }
        return self._predictions[cause][response]

    def pair(self, i: int, j: int) -> GeneralizedCorrPair:
        """``generalized_corr_pair(columns[i], columns[j])``."""
        x, y = _as_pair(self.columns[i], self.columns[j], 20)
        r = _pearson(x, y)
        sign = 1.0 if r >= 0 else -1.0

        gmc_yx, p_yx = _gmc_side(y, self._prediction(i, j))
        gmc_xy, p_xy = _gmc_side(x, self._prediction(j, i))
        r_star_yx = sign * math.sqrt(gmc_yx)
        r_star_xy = sign * math.sqrt(gmc_xy)

        if abs(r_star_xy) > abs(r_star_yx):
            candidate, gate_p = Direction.Y_CAUSES_X, p_xy
        elif abs(r_star_yx) > abs(r_star_xy):
            candidate, gate_p = Direction.X_CAUSES_Y, p_yx
        else:
            candidate, gate_p = Direction.UNDECIDED, max(p_yx, p_xy)
        direction = candidate if gate_p < DIRECTION_ALPHA else Direction.UNDECIDED

        return GeneralizedCorrPair(
            r_pearson=r,
            r_star_y_given_x=r_star_yx,
            r_star_x_given_y=r_star_xy,
            gmc_y_given_x=gmc_yx,
            gmc_x_given_y=gmc_xy,
            direction=direction,
            gate_p=gate_p,
        )


def generalized_corr_pair(x, y) -> GeneralizedCorrPair:
    """Generalized correlations of a pair with the kernel-cause rule.

    gmc_y|x = 1 - E(y - E(y|x))^2 / var(y) with the conditional mean from
    leave-one-out kernel regression; r* = sign(r_pearson) * sqrt(gmc).  The
    side that explains the other better names the cause: |r*_x|y| > |r*_y|x|
    means y causes x.  A decision requires the winning side's fit to be
    significant: its gate p-value (two-sided correlation test between the
    response and its leave-one-out prediction) must be below 0.05.
    """
    return GeneralizedCorrPairs((x, y)).pair(0, 1)
