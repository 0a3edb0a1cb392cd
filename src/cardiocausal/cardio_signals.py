"""ECG channel processing: baseline detrending, R-peak detection, R-R series.

The detector follows the classic integrate-and-threshold design: band-pass
via differences of centered moving averages, five-point derivative, squaring,
150 ms moving-window integration, then dual adaptive thresholds with a 200 ms
refractory period, 360 ms T-wave discrimination, and search-back at 1.66x the
running R-R average.  All thresholds adapt to the signal, so detection is
invariant to positive amplitude scaling.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.ndimage import median_filter

from ._util import centered_moving_average


class SignalError(ValueError):
    """Input signal violates a precondition (length, finiteness, rate)."""


class NoBeatsError(SignalError):
    """No detectable heartbeats in the channel."""


@dataclass(frozen=True)
class BeatSeries:
    """Detected R peaks, in seconds."""

    r_peak_times_s: tuple[float, ...]

    def __post_init__(self):
        t = np.asarray(self.r_peak_times_s, dtype=float)
        if not np.all(np.isfinite(t)):
            raise SignalError("peak times must be finite")
        if np.any(np.diff(t) <= 0):
            raise SignalError("peak times must be strictly increasing")

    @property
    def rr_intervals_ms(self) -> tuple[float, ...]:
        """Raw successive intervals (not artifact-filtered), in milliseconds."""
        t = self.r_peak_times_s
        return tuple(1000.0 * (b - a) for a, b in zip(t, t[1:]))


def _check_input(samples, sample_rate_hz, min_duration_s):
    x = np.asarray(samples, dtype=float)
    if sample_rate_hz <= 0:
        raise SignalError("sample rate must be positive")
    if x.ndim != 1 or x.size < min_duration_s * sample_rate_hz:
        raise SignalError(f"input shorter than {min_duration_s} s")
    if not np.all(np.isfinite(x)):
        raise SignalError("non-finite input sample")
    return x


def _odd(width: int) -> int:
    width = max(int(width), 1)
    return width if width % 2 == 1 else width + 1


def detrend_ecg(samples, sample_rate_hz: float) -> np.ndarray:
    """Remove baseline wander with cascaded median filters (200 ms, 600 ms).

    Median filtering is nonlinear: it tracks the slow baseline between beats
    without smearing QRS edges, and leaves a constant signal at exactly zero.
    """
    x = _check_input(samples, sample_rate_hz, 2.0)
    w1 = _odd(round(0.2 * sample_rate_hz))
    w2 = _odd(round(0.6 * sample_rate_hz))
    baseline = median_filter(x, size=w1, mode="nearest")
    baseline = median_filter(baseline, size=w2, mode="nearest")
    return x - baseline


def _band_pass(x: np.ndarray, rate: float) -> np.ndarray:
    # Difference of centered moving averages ~ 5-15 Hz pass band.
    short = centered_moving_average(x, max(round(rate / 15.0), 1))
    long = centered_moving_average(x, max(round(rate / 5.0), 2))
    return short - long


def _derivative(x: np.ndarray, rate: float) -> np.ndarray:
    kernel = np.array([1.0, 2.0, 0.0, -2.0, -1.0]) * (rate / 8.0)
    # np.convolve flips the kernel; this yields y[n] ~ d/dt at sample n.
    return np.convolve(x, kernel, mode="same")


def _local_maxima(x: np.ndarray) -> np.ndarray:
    left = x[1:-1] > x[:-2]
    right = x[1:-1] >= x[2:]
    return np.nonzero(left & right)[0] + 1


def _suppress_lesser_maxima(x: np.ndarray, maxima: np.ndarray, radius: int) -> np.ndarray:
    """Drop any local maximum with a larger one within ``radius`` samples.

    One physiological event produces one integrated-signal bump; noise adds
    sub-peaks on its flanks that would otherwise fire first and push the true
    peak into the refractory shadow.
    """
    # largest first, ties by position
    order = np.lexsort((maxima, -x[maxima]))
    kept: list[int] = []  # sorted positions of the maxima kept so far
    for c in maxima[order].tolist():
        # the first kept position at or after c - radius + 1 is the only one
        # that can lie within radius
        k = bisect_left(kept, c - radius + 1)
        if k == len(kept) or kept[k] >= c + radius:
            kept.insert(k, c)
    return np.asarray(kept, dtype=np.intp)


def detect_r_peaks(samples, sample_rate_hz: float) -> BeatSeries:
    """Find R peaks in a detrended ECG channel."""
    if sample_rate_hz < 100:
        raise SignalError("sample rate below 100 Hz")
    x = _check_input(samples, sample_rate_hz, 10.0)
    rate = float(sample_rate_hz)

    bp = _band_pass(x, rate)
    der = _derivative(bp, rate)
    mwi = centered_moving_average(der * der, max(round(0.15 * rate), 1))

    refractory = round(0.2 * rate)
    candidates = _local_maxima(mwi)
    candidates = _suppress_lesser_maxima(mwi, candidates, refractory)
    if candidates.size == 0:
        raise NoBeatsError("no detectable beats (flat integrated signal)")
    t_wave_window = round(0.36 * rate)
    slope_half = round(0.075 * rate)
    learn = mwi[: min(int(2 * rate), mwi.size)]
    spki = float(np.max(learn))
    npki = float(np.mean(learn))
    if spki <= 0:
        raise NoBeatsError("no detectable beats (flat integrated signal)")

    def slope_at(idx: int) -> float:
        lo = max(idx - slope_half, 0)
        hi = min(idx + slope_half + 1, der.size)
        return float(np.max(np.abs(der[lo:hi])))

    qrs: list[int] = []
    noise_since_qrs: list[int] = []
    rr_history: list[float] = []

    def accept(idx: int, searchback: bool) -> None:
        nonlocal spki
        weight = 0.25 if searchback else 0.125
        spki = weight * mwi[idx] + (1 - weight) * spki
        if qrs:
            rr_history.append(float(idx - qrs[-1]))
            del rr_history[:-8]
        qrs.append(idx)
        noise_since_qrs.clear()

    for c in candidates:
        threshold1 = npki + 0.25 * (spki - npki)
        # Search-back: a gap beyond 1.66x the running RR average means a beat
        # was missed; re-examine sub-threshold events at half the threshold.
        # the gaps are whole sample counts, so their sum is exact in any
        # order and this mean is the one np.mean gives; rr_history is empty
        # until two beats are accepted
        if rr_history and c - qrs[-1] > 1.66 * (sum(rr_history) / len(rr_history)):
            back = [i for i in noise_since_qrs if i - qrs[-1] >= refractory]
            if back:
                best = max(back, key=lambda i: mwi[i])
                if mwi[best] > 0.5 * threshold1:
                    accept(best, searchback=True)
                    threshold1 = npki + 0.25 * (spki - npki)
        if qrs and c - qrs[-1] < refractory:
            continue
        is_qrs = mwi[c] > threshold1
        if is_qrs and qrs and c - qrs[-1] < t_wave_window:
            if slope_at(c) < 0.5 * slope_at(qrs[-1]):
                is_qrs = False  # T wave: shallower than the preceding QRS
        if is_qrs:
            accept(c, searchback=False)
        else:
            npki = 0.125 * mwi[c] + 0.875 * npki
            noise_since_qrs.append(c)

    if len(qrs) < 2:
        raise NoBeatsError("fewer than 2 beats detected")

    # Refine each integrated-signal candidate to the largest deflection of
    # the input within +-75 ms; integration shifts fiducial points.  A
    # 3-sample average suppresses single-sample noise without moving the apex.
    smoothed = centered_moving_average(x, 3)
    refined: list[int] = []
    for c in qrs:
        lo = max(c - slope_half, 0)
        hi = min(c + slope_half + 1, x.size)
        idx = lo + int(np.argmax(np.abs(smoothed[lo:hi])))
        if refined and idx - refined[-1] < refractory:
            continue
        refined.append(idx)

    if len(refined) < 2:
        raise NoBeatsError("fewer than 2 beats detected")
    return BeatSeries(tuple(i / rate for i in refined))


def rr_intervals(beats: BeatSeries) -> np.ndarray:
    """Artifact-filtered R-R intervals in milliseconds.

    An interval is excluded when outside (200, 3000) ms or deviating more
    than 40% from the median of the up-to-5 surrounding intervals.
    """
    if len(beats.r_peak_times_s) < 2:
        raise SignalError("need at least 2 peaks")
    rr = np.asarray(beats.rr_intervals_ms, dtype=float)
    med = np.empty(rr.size)
    # interior windows hold 5 intervals; the up-to-4 edge windows are shorter
    if rr.size >= 5:
        med[2:-2] = np.median(sliding_window_view(rr, 5), axis=1)
    for i in (0, 1, rr.size - 2, rr.size - 1):
        if 0 <= i < rr.size:
            med[i] = np.median(rr[max(i - 2, 0) : i + 3])
    # "not above the bound", so that a NaN median rejects nothing
    keep = (200.0 < rr) & (rr < 3000.0) & ~(np.abs(rr - med) > 0.4 * med)
    return rr[keep]
