"""Synthetic data generators: ECG/IP test signals with ground truth, and a
linear structural-equation cohort with a known causal graph.

These generators ship with the package so the end-to-end pipeline can be
exercised and benchmarked without any recorded data.
"""

from __future__ import annotations

import math

import numpy as np

from .param_features import breathing_regularity
from .record_io import DERIVED_SOURCES, ParameterRow, ParameterTable, Position

# Ground-truth causal graph of the cohort generator, over the eight free
# parameters (lnRMSSD and BR are deterministic functions and carry no edges).
SEM_EDGES: frozenset[tuple[str, str]] = frozenset(
    {
        ("HR", "RMSSD"),
        ("HR", "RR"),
        ("RR", "cInsT"),
        ("RMSSD", "cInsV"),
        ("cInsT", "ciRR"),
        ("cExpT", "ciRR"),
        ("cInsV", "cExpV"),
    }
)

_SEM_COEFFS = {
    ("HR", "RMSSD"): -0.8,
    ("HR", "RR"): 0.7,
    ("RR", "cInsT"): -0.7,
    ("RMSSD", "cInsV"): 0.7,
    ("cInsT", "ciRR"): 0.65,
    ("cExpT", "ciRR"): 0.6,
    ("cInsV", "cExpV"): 0.85,
}

_SEM_ORDER = ("HR", "cExpT", "RMSSD", "RR", "cInsT", "cInsV", "ciRR", "cExpV")

# Affine maps from standardized SEM values to plausible physiological units.
_SCALES = {
    Position.SUPINE: {
        "HR": (65.0, 8.0),
        "RMSSD": (55.0, 10.0),
        "RR": (14.0, 2.0),
        "ciRR": (0.30, 0.045),
        "cInsT": (0.22, 0.035),
        "cExpT": (0.25, 0.04),
        "cInsV": (0.28, 0.04),
        "cExpV": (0.30, 0.045),
    },
    Position.STANDING: {
        "HR": (85.0, 9.0),
        "RMSSD": (35.0, 7.0),
        "RR": (17.0, 2.5),
        "ciRR": (0.36, 0.05),
        "cInsT": (0.27, 0.04),
        "cExpT": (0.31, 0.045),
        "cInsV": (0.34, 0.045),
        "cExpV": (0.36, 0.05),
    },
}


def _add_gaussian(x: np.ndarray, rate: float, center_s: float, amp: float, sigma_s: float):
    lo = max(int((center_s - 4 * sigma_s) * rate), 0)
    hi = min(int((center_s + 4 * sigma_s) * rate) + 1, x.size)
    if lo >= hi:
        return
    t = np.arange(lo, hi) / rate
    x[lo:hi] += amp * np.exp(-0.5 * ((t - center_s) / sigma_s) ** 2)


def synthetic_ecg(
    duration_s: float,
    sample_rate_hz: float,
    hr_start_bpm: float = 75.0,
    hr_end_bpm: float | None = None,
    noise_snr_db: float | None = None,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """ECG-like signal with known R-peak times.

    Heart rate sweeps linearly from ``hr_start_bpm`` to ``hr_end_bpm`` over
    the recording.  Returns (samples, ground-truth R-peak times in seconds).
    """
    if hr_end_bpm is None:
        hr_end_bpm = hr_start_bpm
    rate = float(sample_rate_hz)
    n = int(round(duration_s * rate))
    x = np.zeros(n)
    truth = []

    t = 1.0
    while t < duration_s - 1.0:
        frac = t / duration_s
        hr = hr_start_bpm + (hr_end_bpm - hr_start_bpm) * frac
        rr = 60.0 / hr
        _add_gaussian(x, rate, t - 0.20 * rr, 0.15, 0.03 * rr)  # P
        _add_gaussian(x, rate, t - 0.025, -0.15, 0.008)  # Q
        _add_gaussian(x, rate, t, 1.0, 0.013)  # R
        _add_gaussian(x, rate, t + 0.028, -0.2, 0.009)  # S
        _add_gaussian(x, rate, t + 0.30 * rr, 0.3, 0.08 * rr)  # T
        truth.append(t)
        t += rr

    if noise_snr_db is not None:
        rng = np.random.default_rng(seed)
        signal_power = float(np.mean(x * x))
        noise_sd = math.sqrt(signal_power / 10 ** (noise_snr_db / 10.0))
        x = x + rng.normal(0.0, noise_sd, n)
    return x, np.asarray(truth)


def synthetic_ip(
    duration_s: float,
    sample_rate_hz: float,
    breath_hz: float = 0.25,
    amplitude: float = 1.0,
    phase: float = 0.0,
) -> np.ndarray:
    """Sinusoidal impedance-like respiration signal."""
    n = int(round(duration_s * sample_rate_hz))
    t = np.arange(n) / sample_rate_hz
    return amplitude * np.sin(2.0 * math.pi * breath_hz * t + phase)


def _sem_sample(rng: np.random.Generator, n: int) -> dict[str, np.ndarray]:
    values: dict[str, np.ndarray] = {}
    for name in _SEM_ORDER:
        contributions = [
            beta * values[src] for (src, dst), beta in _SEM_COEFFS.items() if dst == name
        ]
        explained = sum(beta**2 for (src, dst), beta in _SEM_COEFFS.items() if dst == name)
        noise_sd = math.sqrt(max(1.0 - explained, 0.05))
        values[name] = sum(contributions) + rng.normal(0.0, noise_sd, n)
    return values


def sem_cohort(n_subjects: int = 100, seed: int = 0) -> tuple[ParameterTable, frozenset]:
    """Cohort drawn from a linear SEM with a known graph over 8 parameters.

    Both positions are sampled from the same structural equations but mapped
    to position-specific physiological ranges, so every parameter differs
    between positions.  lnRMSSD and BR are derived deterministically.
    Returns (table, ground-truth directed edges).
    """
    rng = np.random.default_rng(seed)
    rows = []
    width = max(3, len(str(n_subjects)))
    for position in (Position.SUPINE, Position.STANDING):
        z = _sem_sample(rng, n_subjects)
        scales = _SCALES[position]
        for i in range(n_subjects):
            params = {}
            for name, (mean, sd) in scales.items():
                value = mean + sd * float(z[name][i])
                params[name] = max(value, 1e-6)
            params["lnRMSSD"] = math.log(params["RMSSD"])
            params["BR"] = breathing_regularity([params[n] for n in DERIVED_SOURCES["BR"]])
            rows.append(
                ParameterRow(
                    subject_id=f"s{i + 1:0{width}d}", position=position, params=params
                )
            )
    return ParameterTable(tuple(rows)), SEM_EDGES
