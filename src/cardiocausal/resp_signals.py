"""Impedance-pneumography processing: cardiac-artifact removal and breath
delimitation.

Amplitudes are relative impedance units throughout; only their coefficient of
variation is consumed downstream, so no volume calibration is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.lapack import dtrtrs

from ._util import centered_moving_average, rolling_std
from .cardio_signals import SignalError, _check_input

_LMS_TAPS = 50
_LMS_STEP = 0.05
# Samples per exact block solve of the LMS recursion.  The block size fixes
# the floating-point summation order of the cleaned channel, and so of every
# pinned output downstream: changing it is an output change.
_LMS_BLOCK = 64


class TooFewBreathsError(SignalError):
    """Fewer than 3 complete breaths detected."""


@dataclass(frozen=True)
class BreathSeries:
    """Delimited breathing phases: onset times and per-breath amplitudes.

    With N inspiratory onsets and E expiratory onsets (E = N or N - 1),
    ins_v has E entries and exp_v has N - 1.  The durations are differences
    of the onsets: ins_t_s has E entries, exp_t_s and i_rr_s have N - 1.
    """

    insp_onsets_s: tuple[float, ...]
    exp_onsets_s: tuple[float, ...]
    ins_v: tuple[float, ...]
    exp_v: tuple[float, ...]

    def __post_init__(self):
        insp = np.asarray(self.insp_onsets_s)
        exp = np.asarray(self.exp_onsets_s)
        n, e = insp.size, exp.size
        if e not in (n, n - 1):
            raise SignalError("expiratory onset count must be N or N-1")
        if np.any(np.diff(insp) <= 0) or np.any(np.diff(exp) <= 0):
            raise SignalError("onsets must be strictly increasing")
        for i in range(e):
            if not insp[i] < exp[i]:
                raise SignalError("onsets must interleave: insp[i] < exp[i]")
            if i + 1 < n and not exp[i] < insp[i + 1]:
                raise SignalError("onsets must interleave: exp[i] < insp[i+1]")
        if len(self.ins_v) != e:
            raise SignalError("ins_v must have one entry per expiration onset")
        if len(self.exp_v) != max(n - 1, 0):
            raise SignalError("exp_v must have N-1 entries")
        for field in (self.ins_v, self.exp_v):
            if any(v <= 0 for v in field):
                raise SignalError("amplitudes must be positive")

    @property
    def ins_t_s(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.insp_onsets_s, self.exp_onsets_s))

    @property
    def exp_t_s(self) -> tuple[float, ...]:
        return tuple(b - a for a, b in zip(self.exp_onsets_s, self.insp_onsets_s[1:]))

    @property
    def i_rr_s(self) -> tuple[float, ...]:
        insp = self.insp_onsets_s
        return tuple(b - a for a, b in zip(insp, insp[1:]))

    def breath_count(self) -> int:
        return len(self.exp_onsets_s)


def remove_cardiac_component(ip, ecg, sample_rate_hz: float) -> np.ndarray:
    """Cancel the cardiac artifact and smooth the impedance channel.

    A normalized LMS filter (50 taps, step 0.05, zero-initialized weights)
    driven by the ECG reference estimates the cardiac contribution, which is
    subtracted; the residual is smoothed by a centered 400 ms moving average
    with reflected edges.  An all-zero reference leaves the weights at zero,
    so the output is then exactly the moving average of the input.

    The per-sample recursion is solved exactly, a block of samples at a
    time.  With window rows X, normalized steps s and the weights w at the
    start of a block, the block's errors solve the unit lower-triangular
    system (I + tril(X X^T, -1) diag(s)) e = y - X w, whose forward
    substitution is the recursion itself; the weights then advance by
    X^T (s * e).  Only the floating-point summation order differs from a
    sample-by-sample loop.  The product X X^T diag(s) is formed in full, but
    only its strict lower triangle enters the solve: the unit-diagonal solve
    never reads the diagonal or the upper triangle.
    """
    y = _check_input(ip, sample_rate_hz, 30.0)
    x = _check_input(ecg, sample_rate_hz, 30.0)
    if y.size != x.size:
        raise SignalError("channel length mismatch")

    n = y.size
    # Row i is the reference window x[i], x[i-1], ..., x[i-taps+1], with
    # zeros before the first sample.
    windows = sliding_window_view(
        np.concatenate([np.zeros(_LMS_TAPS - 1), x]), _LMS_TAPS
    )[:, ::-1]
    # Regularizing by a multiple of the average window energy keeps the
    # normalized step bounded where the reference is momentarily quiet,
    # which would otherwise let the filter absorb the slow breathing
    # component.  A zero reference yields zero updates, so the output then
    # reduces to the moving average of the input.
    eps = 1e-12 + 100.0 * _LMS_TAPS * float(np.mean(x * x))
    step = _LMS_STEP / (np.einsum("ij,ij->i", windows, windows) + eps)
    weights = np.zeros(_LMS_TAPS)
    cleaned = np.empty(n)
    for start in range(0, n, _LMS_BLOCK):
        block = slice(start, start + _LMS_BLOCK)
        xb, sb = windows[block], step[block]
        coupling = xb @ xb.T
        coupling *= sb
        # coupling.T is a Fortran-ordered view; solving with its transpose
        # and its upper triangle solves with the coupling's lower triangle
        error, info = dtrtrs(coupling.T, y[block] - xb @ weights, lower=0, trans=1, unitdiag=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dtrtrs")
        cleaned[block] = error
        weights += xb.T @ (sb * error)

    width = max(round(0.4 * sample_rate_hz), 1)
    return centered_moving_average(cleaned, width)


def _flow_and_threshold(x: np.ndarray, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Flow surrogate (central difference) and its hysteresis threshold."""
    # Detection runs on a power-of-two-normalized copy: dividing by 2**k is
    # exact, so rescaling the input cannot flip marginal threshold
    # comparisons and onset times are scale-invariant.
    max_abs = float(np.max(np.abs(x)))
    xn = x / (2.0 ** math.frexp(max_abs)[1] if max_abs > 0 else 1.0)

    flow = np.empty(x.size)
    flow[1:-1] = (xn[2:] - xn[:-2]) * (rate / 2.0)
    flow[0] = flow[1]
    flow[-1] = flow[-2]
    threshold = 0.2 * rolling_std(flow, max(round(10.0 * rate), 2))
    return flow, threshold


def _phase_events(flow: np.ndarray, threshold: np.ndarray) -> list[tuple[str, int]]:
    """Hysteresis-confirmed phase onsets as (kind, onset sample index).

    Where the threshold is positive, flow above it confirms inspiration and
    flow below its negative confirms expiration; the confirmed phase is the
    sign of the latest such crossing.  Onsets are emitted only where the
    confirmed phase flips, so a partial breath at the recording edge (whose
    true onset was never observed) produces no event.  An onset sits at the
    last sample, up to the flip, whose flow has the opposite sign or is zero;
    the opposite crossing that precedes every flip guarantees one exists.
    """
    index = np.arange(flow.size)
    last_nonpos = np.maximum.accumulate(np.where(flow <= 0, index, -1))
    last_nonneg = np.maximum.accumulate(np.where(flow >= 0, index, -1))
    crossing = np.where(
        threshold > 0, (flow > threshold).astype(int) - (flow < -threshold), 0
    )
    crossed = np.flatnonzero(crossing)
    phase = crossing[crossed]
    flips = crossed[1:][phase[1:] != phase[:-1]]
    return [
        ("insp", int(last_nonpos[i])) if crossing[i] > 0 else ("exp", int(last_nonneg[i]))
        for i in flips
    ]


def delimit_breaths(ip_clean, sample_rate_hz: float) -> BreathSeries:
    """Segment a cleaned impedance channel into breathing phases.

    The flow surrogate is the central difference of the signal; phase onsets
    are its zero crossings, confirmed by a hysteresis threshold of 0.2x the
    rolling (10 s) standard deviation of the surrogate.  Breaths with
    inspiratory time under 0.5 s or inspiratory amplitude under 10% of the
    running median amplitude are rejected (merged into the previous
    expiration).  Partial first/last breaths are discarded.
    """
    x = _check_input(ip_clean, sample_rate_hz, 30.0)
    rate = float(sample_rate_hz)
    events = _phase_events(*_flow_and_threshold(x, rate))

    # The kinds alternate, so once a leading expiration onset is dropped
    # each inspiration onset pairs with the expiration onset after it.
    onsets = [idx for _, idx in events]
    if events and events[0][0] == "exp":
        del onsets[0]
    pairs = zip(onsets[0::2], onsets[1::2])

    # Rejection pass: short or small inspirations are artifacts; dropping the
    # pair lets the previous expiration absorb the interval.
    accepted: list[tuple[int, int]] = []
    amplitudes: list[float] = []
    for a, b in pairs:
        ins_t = (b - a) / rate
        ins_v = x[b] - x[a]
        if ins_t < 0.5 or ins_v <= 0:
            continue
        if amplitudes and ins_v < 0.1 * float(np.median(amplitudes[-15:])):
            continue
        accepted.append((a, b))
        amplitudes.append(ins_v)

    # Final guard: a breath whose expiratory drop from the last kept breath
    # is not positive indicates mis-segmentation; merge it away.
    kept = accepted[:1]
    for a, b in accepted[1:]:
        if x[kept[-1][1]] - x[a] > 0:
            kept.append((a, b))

    if len(kept) < 3:
        raise TooFewBreathsError("fewer than 3 complete breaths detected")

    insp_idx = [a for a, _ in kept]
    exp_idx = [b for _, b in kept]
    return BreathSeries(
        insp_onsets_s=tuple(a / rate for a in insp_idx),
        exp_onsets_s=tuple(b / rate for b in exp_idx),
        ins_v=tuple(float(x[b] - x[a]) for a, b in kept),
        exp_v=tuple(float(x[b] - x[a]) for b, a in zip(exp_idx, insp_idx[1:])),
    )
