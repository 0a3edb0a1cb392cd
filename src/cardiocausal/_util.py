"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d


def is_constant(x: np.ndarray, axis=None):
    """Whether all values of ``x`` (along ``axis``) are equal.

    Exact where a zero standard deviation is not: 0.2 in every row has a
    standard deviation near 1e-17, because its mean rounds.  Values so close
    that their squared deviations underflow count as constant too, since
    nothing can be divided by their variance.
    """
    return (np.max(x, axis=axis) == np.min(x, axis=axis)) | (np.std(x, axis=axis) == 0)


# Values whose largest magnitude lies outside [2**-500, 2**500] are handled in
# units of a power of two.  Inside it the squares and sums of squares of a
# column stay finite and normal for up to 2**20 rows.
_EXTREME_EXPONENT = 500


def extreme_exponent(x: np.ndarray, axis=None):
    """k with x / 2**k of moderate magnitude, or 0 for values in range; one k
    for each slice along ``axis``."""
    k = np.frexp(np.max(np.abs(x), axis=axis, initial=0.0))[1]
    return np.where(np.abs(k) > _EXTREME_EXPONENT, k, 0)


def without_overflow(x: np.ndarray, axis=None) -> np.ndarray:
    """``x`` divided by 2**k wherever its largest magnitude (along ``axis``)
    is above 2**500, which is exact.  Values under 2**-500 are left as they
    are: a variance that underflows counts as constant (``is_constant``)."""
    return np.ldexp(x, -np.maximum(extreme_exponent(x, axis), 0))


def centered_moving_average(x: np.ndarray, width: int) -> np.ndarray:
    """Centered moving mean; edges are reflect-padded so length is preserved."""
    if width < 1:
        raise ValueError("width must be >= 1")
    x = np.asarray(x, dtype=float)
    if width == 1:
        return x.copy()
    left = width // 2
    right = width - 1 - left
    padded = np.pad(x, (left, right), mode="reflect")
    kernel = np.full(width, 1.0 / width)
    return np.convolve(padded, kernel, mode="valid")


def rolling_std(x: np.ndarray, width: int) -> np.ndarray:
    """Centered rolling population standard deviation, edge-replicated."""
    x = np.asarray(x, dtype=float)
    m1 = uniform_filter1d(x, size=width, mode="nearest")
    m2 = uniform_filter1d(x * x, size=width, mode="nearest")
    var = np.maximum(m2 - m1 * m1, 0.0)
    return np.sqrt(var)
