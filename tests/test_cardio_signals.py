"""ECG front-end contracts: detrending, R-peak detection, R-R filtering."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cardiocausal import cardio_signals
from cardiocausal._util import centered_moving_average
from cardiocausal.cardio_signals import (
    BeatSeries,
    NoBeatsError,
    SignalError,
    _band_pass,
    _derivative,
    _local_maxima,
    _suppress_lesser_maxima,
    detect_r_peaks,
    detrend_ecg,
    rr_intervals,
)
from cardiocausal.synthetic import synthetic_ecg

RATE = 250.0


def _former_suppress_lesser_maxima(x, maxima, radius):
    """Peak suppression as first written: a Python sort by (-height,
    position) and a boolean mask scanned per candidate."""
    kept = np.zeros(x.size, dtype=bool)
    order = sorted(maxima, key=lambda i: (-x[i], i))
    for c in order:
        lo = max(c - radius + 1, 0)
        if not kept[lo : c + radius].any():
            kept[c] = True
    return np.nonzero(kept)[0]


def _former_rr_intervals(beats):
    """The R-R artifact filter as first written: one median per interval."""
    rr = np.asarray(beats.rr_intervals_ms, dtype=float)
    kept = []
    for i, value in enumerate(rr):
        if not 200.0 < value < 3000.0:
            continue
        lo = max(i - 2, 0)
        hi = min(i + 3, rr.size)
        med = float(np.median(rr[lo:hi]))
        if abs(value - med) > 0.4 * med:
            continue
        kept.append(value)
    return np.asarray(kept)


def _weak_beat_train(rr=0.8, weak=30, amp=0.45):
    """Spike train whose beat ``weak`` only search-back can recover."""
    n = int(60 * RATE)
    x = np.zeros(n)
    t = np.arange(n) / RATE
    beat_times = np.arange(1.0, 59.0, rr)
    for i, bt in enumerate(beat_times):
        x += (amp if i == weak else 1.0) * np.exp(-0.5 * ((t - bt) / 0.013) ** 2)
    return x, beat_times


def _synthetic_detrended(duration_s, hr_bpm, snr_db, seed, hr_end_bpm=None):
    ecg, _ = synthetic_ecg(
        duration_s, RATE, hr_start_bpm=hr_bpm, hr_end_bpm=hr_end_bpm,
        noise_snr_db=snr_db, seed=seed,
    )
    return detrend_ecg(ecg, RATE)


DETECTION_RECORDS = {
    "300s_72bpm": lambda: _synthetic_detrended(300.0, 72.0, 20.0, 0),
    "120s_68_to_80bpm": lambda: _synthetic_detrended(120.0, 68.0, 25.0, 7, hr_end_bpm=80.0),
    "60s_110bpm_6db": lambda: _synthetic_detrended(60.0, 110.0, 6.0, 4),
    "60s_45bpm_clean": lambda: _synthetic_detrended(60.0, 45.0, None, 9),
    "weak_beat": lambda: _weak_beat_train()[0],
}


def _match_counts(detected_s, truth_s, tol_s=0.05):
    """Greedy one-to-one matching of detections to annotations."""
    detected = list(detected_s)
    tp = 0
    for t in truth_s:
        best = None
        for i, d in enumerate(detected):
            if abs(d - t) <= tol_s and (best is None or abs(d - t) < abs(detected[best] - t)):
                best = i
        if best is not None:
            tp += 1
            detected.pop(best)
    fn = len(truth_s) - tp
    fp = len(detected)
    return tp, fp, fn


def _qrs_train(duration_s, rate, hz=1.2):
    """Narrow-spike train: QRS-like deflections, no P/T waves, no baseline."""
    n = int(duration_s * rate)
    t = np.arange(n) / rate
    x = np.zeros(n)
    for bt in np.arange(0.5, duration_s - 0.5, 1.0 / hz):
        x += np.exp(-0.5 * ((t - bt) / 0.013) ** 2)
    return x


class TestDetrend:
    def test_zero_baseline_train_unchanged(self):
        ecg = _qrs_train(60.0, RATE)
        out = detrend_ecg(ecg, RATE)
        rms_in = np.sqrt(np.mean(ecg**2))
        assert np.sqrt(np.mean((out - ecg) ** 2)) / rms_in < 1e-6

    def test_sine_baseline_removed(self):
        ecg = _qrs_train(60.0, RATE)
        t = np.arange(ecg.size) / RATE
        baseline = 0.5 * np.sin(2 * np.pi * 0.2 * t)
        out = detrend_ecg(ecg + baseline, RATE)
        # residual baseline via projection onto the known sinusoid
        basis = np.sin(2 * np.pi * 0.2 * t)
        resid_amp = 2 * abs(np.dot(out, basis)) / basis.size
        assert resid_amp < 0.05 * 0.5

    def test_constant_maps_to_zero(self):
        out = detrend_ecg(np.full(3000, 7.3), RATE)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_idempotent(self):
        # modest residual wander (10% of QRS amplitude at the cascade's worst
        # frequency); larger wander leaves a tail the second pass still sees
        ecg = _qrs_train(60.0, RATE)
        t = np.arange(ecg.size) / RATE
        once = detrend_ecg(ecg + 0.1 * np.sin(2 * np.pi * 0.2 * t + 0.7), RATE)
        twice = detrend_ecg(once, RATE)
        rms = np.sqrt(np.mean(once**2))
        assert np.sqrt(np.mean((twice - once) ** 2)) / rms < 1e-3

    def test_idempotent_exactly_without_baseline(self):
        ecg = _qrs_train(60.0, RATE)
        once = detrend_ecg(ecg, RATE)
        twice = detrend_ecg(once, RATE)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(SignalError):
            detrend_ecg(np.zeros(100), RATE)

    def test_non_finite_rejected(self):
        x = np.zeros(3000)
        x[5] = np.nan
        with pytest.raises(SignalError):
            detrend_ecg(x, RATE)


class TestDetectRPeaks:
    def test_clean_75_bpm_six_minutes(self):
        ecg, truth = synthetic_ecg(360.0, RATE, hr_start_bpm=75.0)
        beats = detect_r_peaks(detrend_ecg(ecg, RATE), RATE)
        times = np.asarray(beats.r_peak_times_s)
        # 75 bpm over [1 s, 359 s) -> 448 beats; criterion tolerance +-1 on
        # the nominal count of complete beats of the generator
        assert abs(times.size - truth.size) <= 1
        tp, fp, fn = _match_counts(times, truth, tol_s=0.05)
        assert fp == 0 and fn <= 1
        # timing error within 8 ms (2 samples at 250 Hz)
        for t in truth:
            nearest = times[np.argmin(np.abs(times - t))]
            assert abs(nearest - t) <= 0.008 + 1e-12

    def test_noisy_10db_sensitivity_ppv(self):
        ecg, truth = synthetic_ecg(360.0, RATE, hr_start_bpm=75.0, noise_snr_db=10.0, seed=2)
        beats = detect_r_peaks(detrend_ecg(ecg, RATE), RATE)
        tp, fp, fn = _match_counts(beats.r_peak_times_s, truth, tol_s=0.05)
        sensitivity = tp / (tp + fn)
        ppv = tp / (tp + fp)
        assert sensitivity >= 0.99
        assert ppv >= 0.99

    def test_flatline_raises(self):
        with pytest.raises(NoBeatsError):
            detect_r_peaks(np.zeros(int(60 * RATE)), RATE)

    def test_low_sample_rate_rejected(self):
        with pytest.raises(SignalError, match="100 Hz"):
            detect_r_peaks(np.zeros(6000), 90.0)

    def test_too_short_rejected(self):
        with pytest.raises(SignalError):
            detect_r_peaks(np.zeros(int(5 * RATE)), RATE)

    def test_refractory_period_enforced(self):
        ecg, _ = synthetic_ecg(120.0, RATE, hr_start_bpm=180.0)
        beats = detect_r_peaks(detrend_ecg(ecg, RATE), RATE)
        assert np.min(np.diff(beats.r_peak_times_s)) >= 0.2

    def test_time_shift_equivariance(self):
        ecg, _ = synthetic_ecg(60.0, RATE, hr_start_bpm=80.0, noise_snr_db=20.0, seed=7)
        det = detrend_ecg(ecg, RATE)
        base = np.asarray(detect_r_peaks(det, RATE).r_peak_times_s)
        k = 125
        shifted = np.concatenate([det[-k:], det[:-k]])  # rotate to keep length
        times = np.asarray(detect_r_peaks(shifted, RATE).r_peak_times_s)
        # compare peaks in the interior, away from the rotation seam
        interior = base[(base > 2.0) & (base < 57.0)]
        expected = interior + k / RATE
        for t in expected:
            assert np.min(np.abs(times - t)) < 1e-9

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_amplitude_scale_invariance(self, scale):
        ecg, _ = synthetic_ecg(40.0, RATE, hr_start_bpm=70.0, noise_snr_db=15.0, seed=5)
        det = detrend_ecg(ecg, RATE)
        base = detect_r_peaks(det, RATE).r_peak_times_s
        scaled = detect_r_peaks(scale * det, RATE).r_peak_times_s
        assert scaled == base

    def test_search_back_recovers_weak_beat(self):
        # one beat weak enough that the primary threshold misses it (its
        # integrated value is amplitude squared, ~20% of normal) but strong
        # enough for search-back at half the threshold; without search-back
        # the series would show a 2x RR gap
        rr = 0.8
        x, beat_times = _weak_beat_train(rr=rr, weak=30, amp=0.45)
        beats = detect_r_peaks(x, RATE)
        times = np.asarray(beats.r_peak_times_s)
        weak = beat_times[30]
        assert np.min(np.abs(times - weak)) < 0.05
        assert np.max(np.diff(times)) < 1.5 * rr

    @pytest.mark.parametrize("make", DETECTION_RECORDS.values(), ids=DETECTION_RECORDS.keys())
    def test_matches_former_peak_suppression(self, make, monkeypatch):
        x = make()
        beats = detect_r_peaks(x, RATE)
        monkeypatch.setattr(
            cardio_signals, "_suppress_lesser_maxima", _former_suppress_lesser_maxima
        )
        assert detect_r_peaks(x, RATE) == beats

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=8))
    def test_search_back_average_is_exact(self, gaps):
        # the running R-R history holds up to 8 integer sample gaps as floats;
        # their plain mean is the one np.mean computes
        history = [float(g) for g in gaps]
        assert sum(history) / len(history) == float(np.mean(history))


class TestSuppressLesserMaxima:
    @pytest.mark.parametrize("make", DETECTION_RECORDS.values(), ids=DETECTION_RECORDS.keys())
    def test_matches_former_on_integrated_signal(self, make):
        x = make()
        # the integrated signal as detect_r_peaks forms it
        der = _derivative(_band_pass(x, RATE), RATE)
        mwi = centered_moving_average(der * der, round(0.15 * RATE))
        maxima = _local_maxima(mwi)
        for radius in (1, 7, round(0.2 * RATE)):
            out = _suppress_lesser_maxima(mwi, maxima, radius)
            assert np.array_equal(out, _former_suppress_lesser_maxima(mwi, maxima, radius))

    def test_matches_former_on_tie_heavy_integer_signals(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            x = rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float)
            radius = int(rng.integers(1, 31))
            if rng.random() < 0.5:
                maxima = _local_maxima(x)
            else:  # any increasing positions, plateaus and minima included
                maxima = np.flatnonzero(rng.random(n) < rng.random())
            out = _suppress_lesser_maxima(x, maxima, radius)
            expected = _former_suppress_lesser_maxima(x, maxima, radius)
            assert out.dtype == expected.dtype
            assert np.array_equal(out, expected)


class TestBeatSeries:
    def test_strictly_increasing_enforced(self):
        with pytest.raises(SignalError, match="increasing"):
            BeatSeries((0.0, 1.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_peak_times_rejected(self, bad):
        # a NaN difference compares False with <= 0, so order alone misses it
        with pytest.raises(SignalError, match="finite"):
            BeatSeries((0.0, bad, 1.0, 1.8, 2.6, 3.4))
        with pytest.raises(SignalError, match="finite"):
            BeatSeries((bad,))

    def test_intervals_are_peak_time_differences(self):
        beats = BeatSeries((0.0, 0.8, 1.6))
        assert beats.rr_intervals_ms == (800.0, 800.0)
        assert BeatSeries((1.0,)).rr_intervals_ms == ()


class TestRrIntervals:
    def test_plain_differences(self):
        beats = BeatSeries((0.0, 0.8, 1.6))
        np.testing.assert_allclose(rr_intervals(beats), [800.0, 800.0])

    def test_short_artifact_flagged(self):
        beats = BeatSeries((0.0, 0.8, 0.9, 1.7))
        kept = rr_intervals(beats)
        assert 100.0 not in kept
        np.testing.assert_allclose(kept, [800.0, 800.0])

    def test_out_of_band_excluded(self):
        beats = BeatSeries((0.0, 0.15, 0.95, 1.75, 2.55, 6.0))
        kept = rr_intervals(beats)
        assert np.all(kept > 200.0) and np.all(kept < 3000.0)

    def test_single_peak_rejected(self):
        with pytest.raises(SignalError):
            rr_intervals(BeatSeries((1.0,)))

    def test_forty_percent_median_rule(self):
        # base 800 ms, one 1200 ms interval: |1200 - 800| = 400 > 0.4 * 800
        beats = BeatSeries((0.0, 0.8, 1.6, 2.8, 3.6, 4.4, 5.2))
        kept = rr_intervals(beats)
        assert 1200.0 not in kept
        # a 1000 ms interval deviates 200 <= 0.4 * 800 and survives
        beats2 = BeatSeries((0.0, 0.8, 1.6, 2.6, 3.4, 4.2, 5.0))
        assert 1000.0 in rr_intervals(beats2)

    # intervals in seconds: in-band, out-of-band and artifact values, with
    # repeats so that medians tie and edge windows of even length split
    _INTERVAL = st.one_of(
        st.sampled_from([0.1, 0.2, 0.45, 0.8, 1.0, 1.2, 2.0, 3.0, 3.5]),
        st.floats(min_value=0.01, max_value=4.0),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_INTERVAL, min_size=1, max_size=12))
    @example([0.8, 0.45])
    @example([0.8, 0.8, 1.2])
    @example([0.8, 1.2, 0.45, 0.8])
    @example([0.45, 0.8, 0.8, 1.2, 0.8])
    def test_matches_former_per_interval_filter(self, intervals):
        beats = BeatSeries(tuple(np.cumsum([0.0, *intervals]).tolist()))
        out = rr_intervals(beats)
        expected = _former_rr_intervals(beats)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("make", DETECTION_RECORDS.values(), ids=DETECTION_RECORDS.keys())
    def test_matches_former_per_interval_filter_on_records(self, make):
        beats = detect_r_peaks(make(), RATE)
        assert np.array_equal(rr_intervals(beats), _former_rr_intervals(beats))
