"""Three-variable mediation fits with the Sobel significance test."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from ._util import is_constant


class MediationError(ValueError):
    """Degenerate or mismatched mediation inputs."""


@dataclass(frozen=True)
class MediationFit:
    path: tuple[str, str, str]
    a_hat: float
    se_a: float
    b_hat: float
    se_b: float
    direct_effect: float
    indirect_effect: float
    sobel_z: float
    sobel_p: float

    def __post_init__(self):
        if abs(self.indirect_effect - self.a_hat * self.b_hat) > 1e-9:
            raise MediationError("indirect_effect must equal a_hat * b_hat")
        if not 0.0 <= self.sobel_p <= 1.0:
            raise MediationError("sobel_p must lie in [0, 1]")


def _ols(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(coefficients, standard errors) of ordinary least squares."""
    n, k = design.shape
    xtx = design.T @ design
    try:
        beta = np.linalg.solve(xtx, design.T @ y)
    except np.linalg.LinAlgError:
        raise MediationError("degenerate design matrix") from None
    resid = y - design @ beta
    dof = n - k
    sigma2 = float(resid @ resid) / dof
    cov = sigma2 * np.linalg.inv(xtx)
    return beta, np.sqrt(np.diag(cov))


# Columns whose largest magnitude lies outside [2**-500, 2**500] are fitted
# in units of a power of two.  Inside it the squares and sums of squares of
# the fit stay finite and normal for up to 2**20 rows.
_EXTREME_EXPONENT = 500


def _extreme_exponent(v: np.ndarray) -> int:
    """k with v / 2**k of moderate magnitude, or 0 for a column in range."""
    top = float(np.max(np.abs(v)))
    k = math.frexp(top)[1]
    return k if abs(k) > _EXTREME_EXPONENT else 0


def mediation_fit(x, m, y, path: tuple[str, str, str] = ("x", "m", "y")) -> MediationFit:
    """Fit m ~ x and y ~ m + x; test the indirect effect a*b with Sobel's z.

    The first-order delta-method standard error is used:
    z = a*b / sqrt(b^2 se_a^2 + a^2 se_b^2); p is the two-sided normal tail.
    A zero denominator (a = b = 0) yields p = 1 by convention.

    A column of extreme magnitude is divided by a power of two first, which
    is exact; the effects are scaled back by powers of two, and z, which
    does not depend on the units, is computed in the scaled ones.
    """
    x = np.asarray(x, dtype=float)
    m = np.asarray(m, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (x.shape == m.shape == y.shape) or x.ndim != 1:
        raise MediationError("inputs must be equal-length vectors")
    n = x.size
    if n < 10:
        raise MediationError("need at least 10 observations")
    for label, v in (("x", x), ("m", m), ("y", y)):
        if not np.all(np.isfinite(v)):
            raise MediationError(f"non-finite values in {label}")
    kx, km, ky = (_extreme_exponent(v) for v in (x, m, y))
    x, m, y = np.ldexp(x, -kx), np.ldexp(m, -km), np.ldexp(y, -ky)
    for label, v in (("x", x), ("m", m), ("y", y)):
        if is_constant(v):
            raise MediationError(f"degenerate variance in {label}")
    # the rank of the standardized columns does not depend on their scale
    standardized = np.column_stack([(v - v.mean()) / np.std(v) for v in (x, m)])
    if np.linalg.matrix_rank(standardized) < 2:
        raise MediationError("collinear x and m")

    ones = np.ones(n)
    coef_a, se_vec_a = _ols(np.column_stack([ones, x]), m)
    a_hat, se_a = float(coef_a[1]), float(se_vec_a[1])
    coef_b, se_vec_b = _ols(np.column_stack([ones, m, x]), y)
    b_hat, se_b = float(coef_b[1]), float(se_vec_b[1])
    direct = float(coef_b[2])

    denom = math.sqrt(b_hat**2 * se_a**2 + a_hat**2 * se_b**2)
    if denom == 0.0:
        z, p = 0.0, 1.0
    else:
        z = a_hat * b_hat / denom
        p = float(2.0 * ndtr(-abs(z)))
    try:
        a_hat, se_a = math.ldexp(a_hat, km - kx), math.ldexp(se_a, km - kx)
        b_hat, se_b = math.ldexp(b_hat, ky - km), math.ldexp(se_b, ky - km)
        direct = math.ldexp(direct, ky - kx)
    except OverflowError:
        raise MediationError("effects overflow in the units of the data") from None
    return MediationFit(
        path=tuple(path),
        a_hat=a_hat,
        se_a=se_a,
        b_hat=b_hat,
        se_b=se_b,
        direct_effect=direct,
        indirect_effect=a_hat * b_hat,
        sobel_z=z,
        sobel_p=p,
    )
