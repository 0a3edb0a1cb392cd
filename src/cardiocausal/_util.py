"""Small shared numeric helpers."""

from __future__ import annotations

import numpy as np
from scipy.ndimage import uniform_filter1d


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
