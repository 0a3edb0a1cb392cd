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
# rows and columns of one tile of gc's kernel (0.3 MB), the fastest of 96-256
# at 100, 1000 and 2000 rows
_KERNEL_TILE = 192
# the kernel tiles multiply panels of a multiple of this many columns, where
# the BLAS product gives each column the same bits whatever its neighbours
_PANEL_WIDTH = 8


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


def _check_lengths(x: np.ndarray, y: np.ndarray, min_n: int) -> None:
    if x.shape != y.shape or x.ndim != 1:
        raise AssociationError("inputs must be equal-length vectors")
    if x.size < min_n:
        raise AssociationError(f"need at least {min_n} observations")


def _column_failure(x: np.ndarray) -> str | None:
    """Why no correlation with the column ``x`` exists, or None."""
    if not np.all(np.isfinite(x)):
        return "non-finite input"
    if is_constant(x):
        return "zero variance input"
    return None


def _raise_failure(*failures) -> None:
    """Raise the first of the columns' failures, a non-finite one before a
    constant one."""
    for message in ("non-finite input", "zero variance input"):
        if message in failures:
            raise AssociationError(message)


def _as_pair(x, y, min_n: int):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_lengths(x, y, min_n)
    _raise_failure(_column_failure(x), _column_failure(y))
    return x, y


def _pearson(xc: np.ndarray, sxx: float, yc: np.ndarray, syy: float) -> float:
    """Pearson's r of two centered columns with their sums of squares."""
    denom = math.sqrt(sxx * syy)
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


def _loo_predictions(x: np.ndarray, responses) -> list[np.ndarray]:
    """Leave-one-out Nadaraya-Watson estimates of E(y | x) at each x_i, one
    for each response y, from the Gaussian kernel of x.

    Silverman bandwidth 1.06 * sd(x) * n^(-1/5); the kernel's diagonal is
    zero, so a point's own response is excluded to avoid zero-residual
    overfit, and a point whose weights sum under 1e-300 gets the mean of the
    other responses.

    The kernel is built in square tiles of ``_KERNEL_TILE`` rows and
    columns, and only the tiles on and above the diagonal: it is exactly
    symmetric, as x_i - x_j and x_j - x_i differ only in sign, so the tile
    below is the transpose of the tile above.  Each tile is built in place,
    with the entries of the whole kernel: -0.5 * (z * z) equals
    (-0.5 * z) * z bit for bit, since halving is exact above the subnormal
    range and exp gives 1.0 within it either way.  The tile, and off the
    diagonal its transpose, is multiplied once into a panel of a ones column
    and the responses, zero-padded to a multiple of ``_PANEL_WIDTH``
    columns, so one product per side gives a row's weight sum and every
    numerator.  Each row adds its terms tile by tile, in column order, so
    the predictions are the whole kernel's to within rounding (about 1e-14
    of the response scale), not bit for bit; a response gets the same bits
    whatever the other responses are.  Memory is one tile (0.3 MB) and two
    n x 8 panels for up to seven responses, with no n x n array.
    """
    n = x.size
    h = 1.06 * float(np.std(x, ddof=1)) * n ** (-0.2)
    if h <= 0:
        raise AssociationError("degenerate variance: zero bandwidth")
    width = -(-(1 + len(responses)) // _PANEL_WIDTH) * _PANEL_WIDTH
    panel = np.zeros((n, width))
    panel[:, 0] = 1.0
    for column, y in enumerate(responses, 1):
        panel[:, column] = y
    sums = np.zeros((n, width))
    spans = [(start, min(start + _KERNEL_TILE, n)) for start in range(0, n, _KERNEL_TILE)]
    for k, (a0, a1) in enumerate(spans):
        for b0, b1 in spans[k:]:
            tile = np.subtract.outer(x[a0:a1], x[b0:b1])
            tile /= h
            tile *= tile
            tile *= -0.5
            np.exp(tile, out=tile)
            if a0 == b0:
                tile.ravel()[:: a1 - a0 + 1] = 0.0  # the diagonal
            else:
                sums[b0:b1] += tile.T @ panel[a0:a1]
            sums[a0:a1] += tile @ panel[b0:b1]
            del tile  # freed before the next tile is allocated
    denom = sums[:, 0]
    predictions = []
    for numer, y in zip(sums[:, 1:].T, responses):
        fallback = (y.sum() - y) / (n - 1)  # isolated point: mean of the others
        with np.errstate(invalid="ignore", divide="ignore"):
            predictions.append(
                np.where(denom > 1e-300, numer / np.maximum(denom, 1e-300), fallback)
            )
    return predictions


@dataclass(frozen=True)
class _GcColumn:
    """A column's failure, or the moments each of its generalized
    correlations reads."""

    failure: str | None
    moments: _Moments | None = None
    var: float = math.nan  # population variance, the denominator of gmc


def _gmc_side(response: _GcColumn, pred: np.ndarray) -> tuple[float, float]:
    """(gmc, gate p) for one conditioning side."""
    y = response.moments
    gmc = 1.0 - float(np.mean((y.values - pred) ** 2)) / response.var
    gmc = min(max(gmc, 0.0), 1.0)
    if np.std(pred) == 0:
        return gmc, 1.0
    pc = pred - pred.mean()
    rho = _pearson(y.centered, y.ss, pc, float(pc @ pc))
    return gmc, _pearson_p(rho, pred.size)


class GeneralizedCorrPairs:
    """Generalized correlations among equal-length columns, with one kernel
    per column.

    A column's kernel is built the first time a pair needs it, one tile at a
    time, and predicts every other column at once, so no n x n matrix is
    ever held (one 0.3 MB tile and two n x 16 panels at most for ten
    columns: about 0.6 MB at n = 1000).  A prediction is dropped when read,
    as ``gc_graph`` reads each pair once, so the predictions of each cause
    are freed as they are used.  A column's finiteness and constancy checks,
    centering, sum of squares and variance are taken once, by its first
    pair.
    """

    def __init__(self, columns):
        # extreme columns in power-of-two units, which changes no correlation
        self.columns = [without_overflow(np.asarray(c, dtype=float)) for c in columns]
        self._checked: dict[int, _GcColumn] = {}
        self._predictions: dict[int, dict[int, np.ndarray]] = {}

    def _column(self, i: int) -> _GcColumn:
        if i not in self._checked:
            x = self.columns[i]
            failure = _column_failure(x)
            self._checked[i] = (
                _GcColumn(failure) if failure else _GcColumn(None, _moments(x), float(np.var(x)))
            )
        return self._checked[i]

    def _prediction(self, cause: int, response: int) -> np.ndarray:
        if cause not in self._predictions:
            others = [j for j in range(len(self.columns)) if j != cause]
            predictions = _loo_predictions(
                self.columns[cause], [self.columns[j] for j in others]
            )
            self._predictions[cause] = dict(zip(others, predictions))
        return self._predictions[cause].pop(response)

    def pair(self, i: int, j: int) -> GeneralizedCorrPair:
        """``generalized_corr_pair(columns[i], columns[j])``."""
        _check_lengths(self.columns[i], self.columns[j], 20)
        cx, cy = self._column(i), self._column(j)
        _raise_failure(cx.failure, cy.failure)
        x, y = cx.moments, cy.moments
        r = _pearson(x.centered, x.ss, y.centered, y.ss)
        sign = 1.0 if r >= 0 else -1.0

        gmc_yx, p_yx = _gmc_side(cy, self._prediction(i, j))
        gmc_xy, p_xy = _gmc_side(cx, self._prediction(j, i))
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
