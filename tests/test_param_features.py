"""Tests for per-recording parameters and paired position statistics."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cardiocausal.param_features import (
    FeatureError,
    ParamVector,
    PairedTestResult,
    TestKind,
    _average_ranks,
    _shapiro_coefficients,
    breathing_regularity,
    cardiac_params,
    paired_compare,
    param_vector,
    respiratory_params,
    shapiro_wilk,
    wilcoxon_signed_rank,
)
from cardiocausal.cardio_signals import detect_r_peaks, detrend_ecg, rr_intervals
from cardiocausal.record_io import DERIVED_SOURCES, PARAMETER_NAMES, FormatError, Position
from cardiocausal.resp_signals import BreathSeries, delimit_breaths, remove_cardiac_component
from cardiocausal.synthetic import synthetic_ecg

TestKind.__test__ = False  # enum of statistical tests, not a test class


def make_breaths(
    n_insp=6,
    period=4.0,
    ins_t=1.5,
    ins_v=None,
    exp_v=None,
    n_exp=None,
    start=0.0,
):
    """Regular breath series: N inspiratory onsets every `period` seconds."""
    if n_exp is None:
        n_exp = n_insp
    insp = [start + period * i for i in range(n_insp)]
    exp = [t + ins_t for t in insp[:n_exp]]
    if ins_v is None:
        ins_v = [1.0] * n_exp
    if exp_v is None:
        exp_v = [1.0] * (n_insp - 1)
    return BreathSeries(
        insp_onsets_s=tuple(insp),
        exp_onsets_s=tuple(exp),
        ins_v=tuple(ins_v),
        exp_v=tuple(exp_v),
    )


class TestCardiacParams:
    def test_hand_computed_triplet(self):
        out = cardiac_params([800.0, 810.0, 790.0])
        assert list(out) == ["HR", "RMSSD", "lnRMSSD"]
        assert out["HR"] == 75.0
        assert out["RMSSD"] == pytest.approx(math.sqrt(250.0), rel=1e-12)
        assert out["lnRMSSD"] == pytest.approx(2.7607, abs=5e-5)
        assert out["lnRMSSD"] == math.log(out["RMSSD"])

    def test_constant_rhythm_rejected(self):
        with pytest.raises(FeatureError):
            cardiac_params([1000.0, 1000.0, 1000.0])

    def test_too_few_intervals(self):
        with pytest.raises(FeatureError):
            cardiac_params([500.0])
        with pytest.raises(FeatureError):
            cardiac_params([500.0, 510.0])

    def test_invalid_intervals(self):
        with pytest.raises(FeatureError):
            cardiac_params([800.0, -10.0, 820.0])
        with pytest.raises(FeatureError):
            cardiac_params([800.0, math.nan, 820.0])

    def test_hr_oracle_on_random_intervals(self):
        rng = np.random.default_rng(0)
        rr = rng.uniform(700.0, 1100.0, 50)
        out = cardiac_params(rr)
        assert out["HR"] == pytest.approx(60000.0 / rr.mean(), rel=1e-12)
        sq = [(rr[i + 1] - rr[i]) ** 2 for i in range(len(rr) - 1)]
        assert out["RMSSD"] == pytest.approx(math.sqrt(sum(sq) / len(sq)), rel=1e-12)


class TestRespiratoryParams:
    def test_constant_breathing(self):
        out = respiratory_params(make_breaths(n_insp=6))
        assert out == {
            "RR": 15.0, "ciRR": 0.0, "cInsT": 0.0, "cExpT": 0.0, "cInsV": 0.0, "cExpV": 0.0,
        }
        assert list(out)[1:] == list(DERIVED_SOURCES["BR"])

    def test_hand_computed_amplitude_cv(self):
        series = make_breaths(n_insp=6, n_exp=5, ins_v=[1.0, 1.0, 1.0, 1.0, 2.0])
        out = respiratory_params(series)
        # population sd 0.4 over mean 1.2
        assert out["cInsV"] == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_too_few_breaths(self):
        with pytest.raises(FeatureError):
            respiratory_params(make_breaths(n_insp=5, n_exp=4))

    def test_amplitude_scale_invariance(self):
        rng = np.random.default_rng(1)
        iv = rng.uniform(0.5, 2.0, 6).tolist()
        ev = rng.uniform(0.5, 2.0, 5).tolist()
        base = respiratory_params(make_breaths(n_insp=6, ins_v=iv, exp_v=ev))
        for c in (1e-4, 0.3, 7.0, 1e5):
            scaled = respiratory_params(
                make_breaths(n_insp=6, ins_v=[c * v for v in iv], exp_v=[c * v for v in ev])
            )
            assert scaled["cInsV"] == pytest.approx(base["cInsV"], rel=1e-9)
            assert scaled["cExpV"] == pytest.approx(base["cExpV"], rel=1e-9)
            assert scaled["RR"] == base["RR"]

    def test_time_shift_invariance(self):
        iv = [1.0, 1.2, 0.9, 1.1, 1.05, 1.3]
        a = respiratory_params(make_breaths(n_insp=6, ins_v=iv, start=0.0))
        b = respiratory_params(make_breaths(n_insp=6, ins_v=iv, start=16.0))
        assert a == b


class TestBreathingRegularity:
    def test_zero_cvs_give_100(self):
        assert breathing_regularity([0.0, 0.0, 0.0, 0.0, 0.0]) == 100.0

    def test_saturation_limit_is_0(self):
        br = breathing_regularity([50.0, 50.0, 50.0, 50.0, 50.0])
        assert 0.0 <= br <= 1e-40

    def test_direct_evaluation_at_0p1(self):
        br = breathing_regularity([0.1, 0.1, 0.1, 0.1, 0.1])
        assert br == pytest.approx(100.0 - 100.0 * math.tanh(0.1), rel=1e-12)
        assert br == pytest.approx(90.033, abs=1e-3)

    def test_bounds_on_random_cv_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(10_000):
            cv = np.abs(rng.normal(0.0, 2.0, 5))
            assert 0.0 <= breathing_regularity(cv) <= 100.0

    def test_strictly_decreasing_in_each_component(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            base = rng.uniform(0.0, 3.0, 5)
            br0 = breathing_regularity(base)
            for i in range(5):
                bumped = base.copy()
                bumped[i] += 0.1
                assert breathing_regularity(bumped) < br0

    def test_wrong_count_rejected(self):
        with pytest.raises(FeatureError):
            breathing_regularity([0.1, 0.1, 0.1, 0.1])


class TestParamVector:
    def test_assembly_and_row(self):
        vec = param_vector([800.0, 810.0, 790.0], make_breaths(n_insp=8))
        assert tuple(vec.params) == PARAMETER_NAMES
        row = vec.to_row("s001", Position.SUPINE)
        assert row.params == vec.params
        assert row.params["HR"] == 75.0
        assert row.params["RR"] == 15.0
        assert row.params["BR"] == 100.0

    def test_invariant_violations_rejected(self):
        # the row the vector becomes is where parameters are validated
        values = (60.0, 20.0, math.log(20.0), 15.0, 0.1, 0.1, 0.1, 0.1, 0.1, 90.0)
        good = dict(zip(PARAMETER_NAMES, values))
        ParamVector(good).to_row("s001", Position.SUPINE)
        for name, bad in (("BR", 101.0), ("HR", 0.0), ("cInsT", -0.1), ("RMSSD", math.inf)):
            with pytest.raises(FormatError, match=name):
                ParamVector({**good, name: bad}).to_row("s001", Position.SUPINE)

    def test_signal_record_parameters_are_pinned(self):
        # One 60 s, 250 Hz record through the whole front end: noisy ECG with
        # a rising rate; amplitude-modulated breathing plus 0.03x the ECG, so
        # the LMS filter has an artifact to cancel.  Exact values guard every
        # float operation between the samples and the ten parameters.
        rate, duration = 250.0, 60.0
        t = np.arange(int(duration * rate)) / rate
        ecg, _ = synthetic_ecg(
            duration, rate, hr_start_bpm=68.0, hr_end_bpm=80.0, noise_snr_db=25.0, seed=7
        )
        envelope = 1.0 + 0.35 * np.sin(2.0 * math.pi * 0.02 * t + 1.0)
        ip = envelope * np.sin(2.0 * math.pi * 0.27 * t + 0.5) + 0.03 * ecg
        clean = detrend_ecg(ecg, rate)
        rr = rr_intervals(detect_r_peaks(clean, rate))
        breaths = delimit_breaths(remove_cardiac_component(ip, clean, rate), rate)
        row = param_vector(rr, breaths).to_row("s01", Position.SUPINE)
        pinned = {
            "HR": "0x1.278bc674b8da0p+6",
            "RMSSD": "0x1.9f0ca9a3a51f9p+1",
            "lnRMSSD": "0x1.2d266a9bbf73bp+0",
            "RR": "0x1.03477def864fdp+4",
            "ciRR": "0x1.a77a00fb48faep-9",
            "cInsT": "0x1.935cc9270aa30p-8",
            "cExpT": "0x1.dff4d87218dcap-8",
            "cInsV": "0x1.f8cd2a99fc964p-3",
            "cExpV": "0x1.f8ee9f8549631p-3",
            "BR": "0x1.680026c31615ap+6",
        }
        assert {n: row.params[n].hex() for n in PARAMETER_NAMES} == pinned


def enum_wilcoxon(d):
    """Exact two-sided signed-rank p by enumerating all sign assignments.

    Ranks are tie-averaged by hand: rank of |d_i| = mean 1-based position of
    its equals in the sorted magnitudes.
    """
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    n = d.size
    mags = np.sort(np.abs(d))
    ranks = np.array(
        [np.mean(np.nonzero(mags == abs(v))[0] + 1.0) for v in d]
    )
    w_obs = float(ranks[d > 0].sum())
    bits = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
    w_all = bits @ ranks
    p_le = float(np.mean(w_all <= w_obs))
    p_ge = float(np.mean(w_all >= w_obs))
    return w_obs, min(1.0, 2.0 * min(p_le, p_ge))


class TestWilcoxonSignedRank:
    def test_distinct_magnitudes_hand_case(self):
        d = [3.0, -1.0, 4.0, -2.0, 6.0, 5.0, -7.0, 8.0, 9.0, 10.0]
        w, p = wilcoxon_signed_rank(d)
        assert w == 45.0  # ranks 3+4+6+5+8+9+10 of the positives
        w_ref, p_ref = enum_wilcoxon(d)
        assert w == w_ref
        assert p == pytest.approx(p_ref, abs=1e-12)

    def test_zeros_dropped(self):
        d = [0.0, 1.5, -2.5, 0.0, 3.5, -4.5, 5.5]
        assert wilcoxon_signed_rank(d) == wilcoxon_signed_rank([v for v in d if v != 0])

    def test_all_zero_rejected(self):
        with pytest.raises(FeatureError):
            wilcoxon_signed_rank([0.0, 0.0, 0.0])

    def test_exact_agrees_with_scipy_without_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mag = rng.permutation(np.arange(1, 11)) * 0.7
            d = mag * rng.choice([-1.0, 1.0], 10)
            w, p = wilcoxon_signed_rank(d)
            ref = stats.wilcoxon(d, alternative="two-sided", method="exact")
            # scipy reports min(W+, W-); both sums carry the same information
            assert min(w, 55.0 - w) == ref.statistic
            assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_large_n_matches_scipy_normal_approximation(self):
        rng = np.random.default_rng(5)
        d = rng.normal(0.3, 1.0, 40)
        _, p = wilcoxon_signed_rank(d)
        ref = stats.wilcoxon(d, alternative="two-sided", method="approx", correction=True)
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-9, max_value=9), min_size=1, max_size=12
        ).filter(lambda d: any(v != 0 for v in d))
    )
    def test_matches_exact_enumeration_oracle(self, d):
        d = [float(v) for v in d]
        w, p = wilcoxon_signed_rank(d)
        w_ref, p_ref = enum_wilcoxon(d)
        assert w == w_ref
        assert p == pytest.approx(p_ref, abs=1e-12)


class TestAverageRanks:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40))
    def test_tied_ranks_equal_scipy(self, values):
        v = np.asarray(values, dtype=float) * 0.1
        ranks, counts = _average_ranks(v)
        assert np.array_equal(ranks, stats.rankdata(v))
        assert np.array_equal(counts, np.unique(v, return_counts=True)[1])

    def test_distinct_ranks_equal_scipy(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 25, 26, 300):
            v = np.abs(rng.normal(size=n))
            assert np.array_equal(_average_ranks(v)[0], stats.rankdata(v))


def _shapiro_battery(count, seed):
    """``count`` samples of 8 to 300 values: normal, exponential, t(3) and
    normal rounded to thirds (many ties), in turn."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(8, 301))
        shape = k % 4
        if shape == 0:
            yield rng.normal(size=n)
        elif shape == 1:
            yield rng.exponential(size=n)
        elif shape == 2:
            yield rng.standard_t(3, size=n)
        else:
            yield np.round(rng.normal(size=n) * 3.0) / 3.0


class TestShapiroWilk:
    def test_matches_scipy_on_battery(self):
        """3,000 samples of 8 to 300 values against scipy.stats.shapiro.

        On x86-64 Linux (numpy 2.4, scipy 1.17) W and p were equal to the
        last bit on 3,000 of 3,000 samples, 1,167 of them with p >= 0.05.
        """
        for x in _shapiro_battery(3000, 2024):
            w, p = shapiro_wilk(x)
            ref = stats.shapiro(x)
            assert p == pytest.approx(ref.pvalue, rel=1e-12, abs=0.0)
            assert w == pytest.approx(ref.statistic, rel=1e-12, abs=0.0)
            assert (p >= 0.05) == (ref.pvalue >= 0.05)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_small_samples_match_scipy(self, n):
        # n = 3 has an exact p, n <= 5 one adjusted coefficient, n <= 11 its own tail
        rng = np.random.default_rng(n)
        for _ in range(20):
            x = rng.exponential(size=n)
            w, p = shapiro_wilk(x)
            ref = stats.shapiro(x)
            assert p == pytest.approx(ref.pvalue, rel=1e-12, abs=1e-15)
            assert w == pytest.approx(ref.statistic, rel=1e-12, abs=0.0)

    def test_zero_range_is_perfectly_normal(self):
        # scipy warns and returns W = p = 1 for a sample of zero range
        assert shapiro_wilk(np.full(10, 3.5)) == (1.0, 1.0)
        assert shapiro_wilk(np.arange(10) * 1e-21) == (1.0, 1.0)

    def test_exact_fit_has_p_one(self):
        # data equal to the coefficients fit them exactly; rounding can put
        # W a hair above 1, which must not reach the logarithm
        for n in (8, 12, 20, 51):
            a = _shapiro_coefficients(n)
            x = np.concatenate([-a, np.zeros(n % 2), a[::-1]])
            w, p = shapiro_wilk(x)
            assert w == pytest.approx(1.0, abs=1e-15)
            assert p == 1.0 == stats.shapiro(x).pvalue

    def test_too_few_values_rejected(self):
        with pytest.raises(FeatureError):
            shapiro_wilk([1.0, 2.0])
        with pytest.raises(FeatureError):
            shapiro_wilk(np.ones((3, 3)))


class TestPairedCompare:
    def test_constant_shift_exact_differences(self):
        # quarter-integer values keep x + 10 exact, so every difference is
        # exactly 10.0: Shapiro returns 1.0 and the zero-variance paired t
        # is decisive
        rng = np.random.default_rng(6)
        supine = np.round(rng.uniform(50.0, 80.0, 20) * 4.0) / 4.0
        res = paired_compare(supine, supine + 10.0, "HR")
        assert res.test_used is TestKind.PAIRED_T
        assert res.statistic == math.inf
        assert res.p_value < 1e-12

    def test_constant_shift_with_rounding_jitter(self):
        # generic floats leave ~1 ulp jitter in (x + 10) - x; Shapiro then
        # rejects and the signed-rank test returns its exact minimum
        # two-sided p of 2 / 2^20
        rng = np.random.default_rng(6)
        supine = rng.normal(60.0, 5.0, 20)
        res = paired_compare(supine, supine + 10.0, "HR")
        if res.test_used is TestKind.PAIRED_T:
            assert res.p_value < 1e-12
        else:
            assert res.p_value == pytest.approx(2.0 / 2.0**20, abs=1e-15)

    def test_identical_samples_rejected(self):
        x = np.linspace(50.0, 80.0, 10)
        with pytest.raises(FeatureError):
            paired_compare(x, x.copy(), "HR")

    def test_length_mismatch_and_small_n(self):
        with pytest.raises(FeatureError):
            paired_compare([1.0] * 10, [2.0] * 9, "HR")
        with pytest.raises(FeatureError):
            paired_compare(np.arange(7.0), np.arange(7.0) + 1.0, "HR")

    def test_normal_differences_use_paired_t(self):
        rng = np.random.default_rng(7)
        supine = rng.normal(60.0, 5.0, 30)
        d = rng.normal(2.0, 1.0, 30)
        res = paired_compare(supine, supine + d, "RMSSD")
        assert res.test_used is TestKind.PAIRED_T
        assert res.normality_p >= 0.05
        t_ref, p_ref = stats.ttest_rel(supine + d, supine)
        assert res.statistic == pytest.approx(t_ref, rel=1e-10)
        assert res.p_value == pytest.approx(p_ref, rel=1e-10)

    def test_heavy_tailed_differences_use_wilcoxon(self):
        rng = np.random.default_rng(11)
        supine = rng.normal(60.0, 5.0, 30)
        d = rng.lognormal(0.0, 1.0, 30) ** 3 * rng.choice([-1.0, 1.0], 30)
        res = paired_compare(supine, supine + d, "BR")
        assert res.test_used is TestKind.WILCOXON_SIGNED_RANK
        assert res.normality_p < 0.05
        w_ref, p_ref = wilcoxon_signed_rank((supine + d) - supine)
        assert res.statistic == w_ref
        assert res.p_value == p_ref

    def test_result_consistency_enforced(self):
        with pytest.raises(FeatureError):
            PairedTestResult("HR", TestKind.PAIRED_T, 1.0, 0.5, normality_p=0.01)
        with pytest.raises(FeatureError):
            PairedTestResult("HR", TestKind.PAIRED_T, 1.0, 1.5, normality_p=0.5)
