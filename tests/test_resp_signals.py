"""Impedance-channel contracts: cardiac-artifact removal, breath delimitation."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import periodogram

from cardiocausal._util import centered_moving_average
from cardiocausal.cardio_signals import SignalError, _check_input, detrend_ecg
from cardiocausal.resp_signals import (
    _LMS_BLOCK,
    BreathSeries,
    TooFewBreathsError,
    _flow_and_threshold,
    _phase_events,
    delimit_breaths,
    remove_cardiac_component,
)
from cardiocausal.synthetic import synthetic_ecg, synthetic_ip

RATE = 250.0


def _reference_nlms(ip, ecg, rate, taps=50, mu=0.05):
    """The normalized LMS canceller as a plain per-sample loop."""
    y = np.asarray(ip, dtype=float)
    x = np.asarray(ecg, dtype=float)
    weights = np.zeros(taps)
    padded = np.concatenate([np.zeros(taps - 1), x])
    cleaned = np.empty(y.size)
    eps = 1e-12 + 100.0 * taps * float(np.mean(x * x))
    for i in range(y.size):
        window = padded[i : i + taps][::-1]
        error = y[i] - float(weights @ window)
        cleaned[i] = error
        weights += (mu * error / (float(window @ window) + eps)) * window
    return centered_moving_average(cleaned, max(round(0.4 * rate), 1))


def _reference_events(flow, threshold):
    """Hysteresis phase onsets as a plain per-sample state machine."""
    events = []
    state = 0
    last_nonpos = -1
    last_nonneg = -1
    for i in range(flow.size):
        if flow[i] <= 0:
            last_nonpos = i
        if flow[i] >= 0:
            last_nonneg = i
        if threshold[i] <= 0:
            continue
        if state != 1 and flow[i] > threshold[i]:
            if state == -1 and last_nonpos >= 0:
                events.append(("insp", last_nonpos))
            state = 1
        elif state != -1 and flow[i] < -threshold[i]:
            if state == 1 and last_nonneg >= 0:
                events.append(("exp", last_nonneg))
            state = -1
    return events


def _former_delimit_breaths(ip_clean, sample_rate_hz):
    """``delimit_breaths`` as it was before its pairing became one slice and
    its guard one pass: a pairing loop with a skip branch, and a guard that
    rescans from the first breath after each merge.  Returns the series and
    the number of guard merges."""
    x = _check_input(ip_clean, sample_rate_hz, 30.0)
    rate = float(sample_rate_hz)
    events = _phase_events(*_flow_and_threshold(x, rate))
    while events and events[0][0] != "insp":
        events.pop(0)
    pairs = []
    i = 0
    while i + 1 < len(events):
        kind, idx = events[i]
        nkind, nidx = events[i + 1]
        if kind == "insp" and nkind == "exp":
            pairs.append((idx, nidx))
            i += 2
        else:
            i += 1
    accepted, amplitudes = [], []
    for a, b in pairs:
        ins_t = (b - a) / rate
        ins_v = x[b] - x[a]
        if ins_t < 0.5 or ins_v <= 0:
            continue
        if amplitudes and ins_v < 0.1 * float(np.median(amplitudes[-15:])):
            continue
        accepted.append((a, b))
        amplitudes.append(ins_v)
    merges = 0
    while True:
        bad = next(
            (
                k
                for k in range(len(accepted) - 1)
                if x[accepted[k][1]] - x[accepted[k + 1][0]] <= 0
            ),
            None,
        )
        if bad is None:
            break
        del accepted[bad + 1]
        merges += 1
    if len(accepted) < 3:
        raise TooFewBreathsError("fewer than 3 complete breaths detected")
    insp_idx = [a for a, _ in accepted]
    exp_idx = [b for _, b in accepted]
    series = BreathSeries(
        insp_onsets_s=tuple(a / rate for a in insp_idx),
        exp_onsets_s=tuple(b / rate for b in exp_idx),
        ins_v=tuple(float(x[b] - x[a]) for a, b in accepted),
        exp_v=tuple(float(x[b] - x[a]) for b, a in zip(exp_idx, insp_idx[1:])),
    )
    return series, merges


def _noisy_breathing(seed, rate):
    """30-90 s of a breathing sine at a random rate and phase, with a slow
    amplitude envelope, a random-walk baseline and white noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(rng.uniform(30.0, 90.0) * rate)) / rate
    breath = np.sin(2.0 * math.pi * rng.uniform(0.15, 0.5) * t + rng.uniform(0.0, 2.0 * math.pi))
    envelope = 1.0 + rng.uniform(0.0, 0.8) * np.sin(
        2.0 * math.pi * rng.uniform(0.01, 0.1) * t + rng.uniform(0.0, 6.0)
    )
    baseline = np.cumsum(rng.normal(0.0, rng.uniform(0.0, 0.1), t.size))
    return envelope * breath + baseline + rng.normal(0.0, rng.uniform(0.0, 0.1), t.size)


_PHASE_VALUES = st.one_of(
    st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


def _contaminated():
    ecg, _ = synthetic_ecg(120.0, RATE, hr_start_bpm=72.0, noise_snr_db=20.0, seed=3)
    det = detrend_ecg(ecg, RATE)
    return synthetic_ip(120.0, RATE, breath_hz=0.25) + 0.5 * det, det


def _zero_reference():
    ip = synthetic_ip(60.0, RATE, breath_hz=0.25)
    return ip, np.zeros(ip.size)


def _quiet_and_bursts():
    # the reference drops to exact zeros for seconds at a time and swells to
    # 20x in bursts, so the normalized step swings over its whole range
    ecg, _ = synthetic_ecg(90.0, RATE, hr_start_bpm=65.0, noise_snr_db=15.0, seed=8)
    det = detrend_ecg(ecg, RATE)
    t = np.arange(det.size) / RATE
    envelope = np.where((t % 20.0) < 4.0, 0.0, np.where((t % 20.0) > 17.0, 20.0, 1.0))
    ref = det * envelope
    return synthetic_ip(90.0, RATE, breath_hz=0.3, phase=0.4) + 0.3 * ref, ref


def _ragged_length():
    n = round(30.0 * RATE) + 37
    assert n % _LMS_BLOCK != 0
    ecg, _ = synthetic_ecg(31.0, RATE, hr_start_bpm=80.0, noise_snr_db=20.0, seed=5)
    det = detrend_ecg(ecg[:n], RATE)
    return synthetic_ip(31.0, RATE, breath_hz=0.35)[:n] + 0.4 * det, det


ORACLE_INPUTS = {
    "contaminated": _contaminated,
    "zero_reference": _zero_reference,
    "quiet_and_bursts": _quiet_and_bursts,
    "ragged_length": _ragged_length,
}


def _synthetic_record(duration_s, hr_bpm, snr_db, seed):
    # the detrended ECG is the reference, as in the pipeline; the impedance
    # carries 0.03x the raw ECG, as in the pinned signal record
    ecg, _ = synthetic_ecg(duration_s, RATE, hr_start_bpm=hr_bpm, noise_snr_db=snr_db, seed=seed)
    return synthetic_ip(duration_s, RATE, breath_hz=0.27) + 0.03 * ecg, detrend_ecg(ecg, RATE)


SYNTHETIC_RECORDS = {
    "300s_72bpm": lambda: _synthetic_record(300.0, 72.0, 20.0, 0),
    "60s_110bpm_noisy": lambda: _synthetic_record(60.0, 110.0, 6.0, 4),
    "45s_50bpm_clean": lambda: _synthetic_record(45.0, 50.0, None, 9),
}


# SHA-256 of remove_cardiac_component(ip, ref, RATE).tobytes() on each input
# above, taken with one BLAS thread, which conftest.py sets
_CLEANED_DIGESTS = {
    "contaminated": "16aaea6fe6b27aa876faecdcf23a2c46f23ddc87aea0baec32b162fbdc7da41c",
    "zero_reference": "373f703373cc415cc2ca9e819a4006cff11698aedc25461979124c454f8f7d9a",
    "quiet_and_bursts": "f334630cb81b7d1d2d496b8c7eec55e954908f48b2bd29d1b892a930b602cfdd",
    "ragged_length": "e9d04d97b368abf0ed30d5eb87a9542e14b9b4bd920a78ff8ec008d80f5527f5",
    "300s_72bpm": "632c6c69754695760479cf947e3d5690ec7e76ae7f7fcb71f991d0e9d7fac271",
    "60s_110bpm_noisy": "76a211be5ea4621ca2b2d810e77e3d2aaf6675609bd977d530042864b13dfdc3",
    "45s_50bpm_clean": "a69bfcb8148261b89d9055f9d7453d7a260d83d3ba129139255f4b63e3473f10",
}


def _band_power(sig, lo=0.8, hi=3.0):
    f, p = periodogram(sig, fs=RATE)
    mask = (f >= lo) & (f <= hi)
    return float(np.trapezoid(p[mask], f[mask]))


class TestRemoveCardiacComponent:
    def test_cardiac_band_power_reduced_10x(self):
        ecg, _ = synthetic_ecg(120.0, RATE, hr_start_bpm=72.0, noise_snr_db=20.0, seed=3)
        det = detrend_ecg(ecg, RATE)
        ip = synthetic_ip(120.0, RATE, breath_hz=0.25) + 0.5 * det
        cleaned = remove_cardiac_component(ip, det, RATE)
        assert _band_power(ip) / _band_power(cleaned) >= 10.0

    def test_zero_reference_is_exact_moving_average(self):
        ip = synthetic_ip(60.0, RATE, breath_hz=0.25)
        out = remove_cardiac_component(ip, np.zeros(ip.size), RATE)
        expected = centered_moving_average(ip, round(0.4 * RATE))
        np.testing.assert_array_equal(out, expected)

    def test_uncontaminated_ip_stays_close_to_moving_average(self):
        # a nonzero but uncorrelated reference keeps weights near zero; the
        # exact identity of the zero-reference case relaxes to a small bound
        ecg, _ = synthetic_ecg(120.0, RATE, hr_start_bpm=72.0, noise_snr_db=20.0, seed=1)
        det = detrend_ecg(ecg, RATE)
        ip = synthetic_ip(120.0, RATE, breath_hz=0.25)
        out = remove_cardiac_component(ip, det, RATE)
        expected = centered_moving_average(ip, round(0.4 * RATE))
        assert np.sqrt(np.mean((out - expected) ** 2)) < 0.05

    def test_length_mismatch_rejected(self):
        with pytest.raises(SignalError, match="mismatch"):
            remove_cardiac_component(np.zeros(10000), np.zeros(9999), RATE)

    def test_non_finite_rejected(self):
        ip = np.zeros(10000)
        ip[3] = np.inf
        with pytest.raises(SignalError):
            remove_cardiac_component(ip, np.zeros(10000), RATE)

    def test_output_same_length(self):
        ip = synthetic_ip(40.0, RATE)
        out = remove_cardiac_component(ip, np.zeros(ip.size), RATE)
        assert out.size == ip.size

    @pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
    def test_block_solve_matches_per_sample_loop(self, make):
        ip, ref = make()
        expected = _reference_nlms(ip, ref, RATE)
        out = remove_cardiac_component(ip, ref, RATE)
        assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("name", _CLEANED_DIGESTS)
    def test_cleaned_bytes_keep_their_digest(self, name):
        # the block size fixes the summation order, so the bytes change with
        # it; an intended change records the new digest, and why, in CHANGES.md
        ip, ref = {**ORACLE_INPUTS, **SYNTHETIC_RECORDS}[name]()
        digest = hashlib.sha256(remove_cardiac_component(ip, ref, RATE).tobytes()).hexdigest()
        assert digest == _CLEANED_DIGESTS[name], f"new digest for {name}: {digest}"


class TestDelimitBreaths:
    def test_quarter_hz_sine_six_minutes(self):
        ip = synthetic_ip(360.0, RATE, breath_hz=0.25)
        series = delimit_breaths(ip, RATE)
        assert abs(series.breath_count() - 89) <= 1
        i_rr = np.asarray(series.i_rr_s)
        assert np.max(np.abs(i_rr - 4.0)) <= 0.040
        ins_v = np.asarray(series.ins_v)
        assert np.max(ins_v) / np.min(ins_v) <= 1.02

    def test_small_breaths_rejected_by_median_rule(self):
        # alternate full breaths with 5% breaths: the small ones fall under
        # 10% of the running median inspiratory amplitude
        t = np.arange(int(360 * RATE)) / RATE
        period = 4.0
        cycle = np.floor(t / period).astype(int)
        amp = np.where(cycle % 2 == 0, 1.0, 0.05)
        ip = amp * np.sin(2 * np.pi * t / period)
        series = delimit_breaths(ip, RATE)
        ins_v = np.asarray(series.ins_v)
        # only full-amplitude breaths survive
        assert np.min(ins_v) > 0.5 * np.max(ins_v)
        i_rr = np.asarray(series.i_rr_s)
        assert np.median(i_rr) == pytest.approx(8.0, abs=0.2)

    def test_constant_signal_raises(self):
        with pytest.raises(TooFewBreathsError):
            delimit_breaths(np.full(int(60 * RATE), 3.3), RATE)

    def test_short_inspirations_rejected(self):
        # 0.25 Hz carrier with a burst of 2 Hz ripple: ripple inspirations
        # last 0.25 s < 0.5 s and must not appear as breaths
        t = np.arange(int(120 * RATE)) / RATE
        ip = np.sin(2 * np.pi * 0.25 * t)
        burst = (t > 40) & (t < 44)
        ip = ip + np.where(burst, 0.3 * np.sin(2 * np.pi * 2.0 * t), 0.0)
        series = delimit_breaths(ip, RATE)
        assert np.min(series.ins_t_s) >= 0.5

    def test_scale_invariance_of_timing(self):
        # Generic phase keeps flow zero-crossings off exact sample points;
        # with phase 0 the decisive comparison is zero-margin in exact
        # arithmetic and the rounding of c*ip alone can flip it.
        ip = synthetic_ip(120.0, RATE, breath_hz=0.25, phase=0.37)
        base = delimit_breaths(ip, RATE)
        for c in (0.01, 3.0, 250.0, 7.3e-5, 1.0e6):
            scaled = delimit_breaths(c * ip, RATE)
            assert scaled.insp_onsets_s == base.insp_onsets_s
            assert scaled.exp_onsets_s == base.exp_onsets_s
            np.testing.assert_allclose(scaled.ins_v, np.asarray(base.ins_v) * c, rtol=1e-9)
            np.testing.assert_allclose(scaled.exp_v, np.asarray(base.exp_v) * c, rtol=1e-9)

    def test_onset_interleaving_and_counts(self):
        ip = synthetic_ip(90.0, RATE, breath_hz=0.3, phase=1.1)
        s = delimit_breaths(ip, RATE)
        n, e = len(s.insp_onsets_s), len(s.exp_onsets_s)
        assert e in (n, n - 1)
        for i in range(e):
            assert s.insp_onsets_s[i] < s.exp_onsets_s[i]
            if i + 1 < n:
                assert s.exp_onsets_s[i] < s.insp_onsets_s[i + 1]
        assert all(v > 0 for v in s.ins_t_s + s.exp_t_s + s.ins_v + s.exp_v + s.i_rr_s)

    def test_too_short_input_rejected(self):
        with pytest.raises(SignalError):
            delimit_breaths(np.zeros(int(10 * RATE)), RATE)

    @pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
    def test_events_match_per_sample_loop(self, make):
        ip, ref = make()
        flow, threshold = _flow_and_threshold(remove_cardiac_component(ip, ref, RATE), RATE)
        events = _phase_events(flow, threshold)
        assert events
        assert events == _reference_events(flow, threshold)

    @pytest.mark.parametrize("seed", range(20))
    def test_events_match_loop_with_ties(self, seed):
        # small integer flows hit zero and the threshold exactly, and
        # zero-threshold stretches must leave the confirmed phase alone
        rng = np.random.default_rng(seed)
        flow = rng.integers(-3, 4, size=500).astype(float)
        threshold = rng.choice([0.0, 1.0, 2.0], size=500, p=[0.3, 0.4, 0.3])
        assert _phase_events(flow, threshold) == _reference_events(flow, threshold)


    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.lists(_PHASE_VALUES, min_size=n, max_size=n),
                st.lists(_PHASE_VALUES, min_size=n, max_size=n),
            )
        )
    )
    def test_event_kinds_alternate(self, arrays):
        # zeros, ties with the threshold and stretches where it is zero or
        # negative included: an onset is emitted only where the confirmed
        # phase flips, so no two consecutive events share a kind
        flow, threshold = (np.array(a) for a in arrays)
        kinds = [kind for kind, _ in _phase_events(flow, threshold)]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))

    def test_matches_former_pairing_and_guard(self):
        rate = 25.0
        compared = merged = leading_exp = 0
        for seed in range(210):
            ip = _noisy_breathing(seed, rate)
            events = _phase_events(*_flow_and_threshold(ip, rate))
            leading_exp += bool(events) and events[0][0] == "exp"
            try:
                expected, merges = _former_delimit_breaths(ip, rate)
            except TooFewBreathsError:
                with pytest.raises(TooFewBreathsError):
                    delimit_breaths(ip, rate)
                continue
            assert delimit_breaths(ip, rate) == expected, seed
            compared += 1
            merged += merges > 0
        # both rewritten branches ran: the guard merged breaths, and records
        # started with an expiration onset
        assert compared >= 200
        assert merged >= 5
        assert leading_exp >= 50


class TestBreathSeries:
    def test_valid_construction(self):
        s = BreathSeries(
            insp_onsets_s=(1.0, 5.0, 9.0),
            exp_onsets_s=(3.0, 7.0, 11.0),
            ins_v=(1.0, 1.1, 0.9),
            exp_v=(1.0, 1.05),
        )
        assert s.breath_count() == 3
        assert s.ins_t_s == (2.0, 2.0, 2.0)
        assert s.exp_t_s == (2.0, 2.0)
        assert s.i_rr_s == (4.0, 4.0)

    def test_trailing_expiration_may_be_missing(self):
        s = BreathSeries(
            insp_onsets_s=(1.0, 5.0, 9.0),
            exp_onsets_s=(3.0, 7.0),
            ins_v=(1.0, 1.1),
            exp_v=(1.0, 1.05),
        )
        assert s.breath_count() == 2
        assert s.ins_t_s == (2.0, 2.0)
        assert s.exp_t_s == (2.0, 2.0)
        assert s.i_rr_s == (4.0, 4.0)

    def test_non_interleaved_rejected(self):
        with pytest.raises(SignalError, match="interleave"):
            BreathSeries(
                insp_onsets_s=(1.0, 5.0),
                exp_onsets_s=(6.0, 7.0),
                ins_v=(1.0, 1.0),
                exp_v=(1.0,),
            )

    def test_nonpositive_amplitude_rejected(self):
        with pytest.raises(SignalError, match="positive"):
            BreathSeries(
                insp_onsets_s=(1.0, 5.0),
                exp_onsets_s=(3.0, 7.0),
                ins_v=(1.0, 0.0),
                exp_v=(1.0,),
            )
