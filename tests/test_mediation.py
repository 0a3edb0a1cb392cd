"""Tests for three-variable mediation fits and the Sobel test."""

import math

import numpy as np
import pytest
from scipy import stats

from cardiocausal.mediation import MediationError, MediationFit, mediation_fit


def fw_slopes(x, m, y):
    """Independent route: a from simple regression, b by partialling out x."""
    n = x.size
    lr_a = stats.linregress(x, m)
    resid_m = m - (lr_a.intercept + lr_a.slope * x)
    lr_y = stats.linregress(x, y)
    resid_y = y - (lr_y.intercept + lr_y.slope * x)
    lr_b = stats.linregress(resid_m, resid_y)
    # partialled fit hides one regressor, so rescale the error dof n-2 -> n-3
    se_b = lr_b.stderr * math.sqrt((n - 2) / (n - 3))
    return lr_a.slope, lr_a.stderr, lr_b.slope, se_b


def mediated_sample(rng, n=80, a=0.6, b=0.5, direct=0.2):
    x = rng.normal(0.0, 1.0, n)
    m = a * x + rng.normal(0.0, 1.0, n)
    y = b * m + direct * x + rng.normal(0.0, 1.0, n)
    return x, m, y


class TestMediationFitValues:
    def test_strong_chain_has_unit_indirect_effect(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, 1000)
        m = x + 0.05 * rng.normal(0.0, 1.0, 1000)
        y = m + 0.05 * rng.normal(0.0, 1.0, 1000)
        fit = mediation_fit(x, m, y)
        assert fit.indirect_effect == pytest.approx(1.0, abs=0.05)
        assert fit.sobel_p < 1e-6
        assert abs(fit.direct_effect) < 0.05

    def test_slopes_and_errors_match_partialling_route(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            x, m, y = mediated_sample(rng, n=60, a=0.7, b=0.5, direct=0.3)
            fit = mediation_fit(x, m, y)
            a, se_a, b, se_b = fw_slopes(x, m, y)
            assert fit.a_hat == pytest.approx(a, abs=1e-10)
            assert fit.se_a == pytest.approx(se_a, abs=1e-10)
            assert fit.b_hat == pytest.approx(b, abs=1e-10)
            assert fit.se_b == pytest.approx(se_b, abs=1e-10)

    def test_sobel_fields_satisfy_definition(self):
        rng = np.random.default_rng(6)
        x, m, y = mediated_sample(rng)
        fit = mediation_fit(x, m, y)
        denom = math.sqrt(fit.b_hat**2 * fit.se_a**2 + fit.a_hat**2 * fit.se_b**2)
        assert fit.sobel_z == pytest.approx(fit.indirect_effect / denom, rel=1e-12)
        assert fit.sobel_p == pytest.approx(2.0 * stats.norm.sf(abs(fit.sobel_z)), rel=1e-12)
        assert fit.indirect_effect == pytest.approx(fit.a_hat * fit.b_hat, abs=1e-12)

    def test_path_labels_echoed(self):
        rng = np.random.default_rng(8)
        x, m, y = mediated_sample(rng)
        fit = mediation_fit(x, m, y, path=("cInsV", "ciRR", "HR"))
        assert fit.path == ("cInsV", "ciRR", "HR")


class TestNullBehaviour:
    def test_independent_exposure_rarely_significant(self):
        rng = np.random.default_rng(7)
        trials, nonreject = 400, 0
        for _ in range(trials):
            x = rng.normal(0.0, 1.0, 60)
            m = rng.normal(0.0, 1.0, 60)
            y = 0.5 * m + rng.normal(0.0, 1.0, 60)
            fit = mediation_fit(x, m, y)
            assert abs(fit.a_hat) < 1.0
            nonreject += fit.sobel_p >= 0.05
        assert nonreject / trials >= 0.94

    def test_exactly_orthogonal_design_gives_p_one(self):
        # Walsh-pattern columns: slopes are exactly zero, so the Sobel
        # denominator vanishes and the convention p = 1 applies
        x = np.tile([1.0, -1.0, 1.0, -1.0], 3)
        m = np.tile([1.0, 1.0, -1.0, -1.0], 3)
        y = np.tile([1.0, -1.0, -1.0, 1.0], 3)
        fit = mediation_fit(x, m, y)
        assert fit.a_hat == 0.0 and fit.b_hat == 0.0
        assert fit.sobel_z == 0.0
        assert fit.sobel_p == 1.0


class TestProperties:
    def test_mediator_rescaling_equivariance(self):
        rng = np.random.default_rng(9)
        x, m, y = mediated_sample(rng)
        base = mediation_fit(x, m, y)
        for c in (1e-3, 0.5, 7.3, 1e4):
            fit = mediation_fit(x, c * m, y)
            assert fit.a_hat == pytest.approx(c * base.a_hat, rel=1e-9)
            assert fit.se_a == pytest.approx(c * base.se_a, rel=1e-9)
            assert fit.b_hat == pytest.approx(base.b_hat / c, rel=1e-9)
            assert fit.se_b == pytest.approx(base.se_b / c, rel=1e-9)
            assert fit.indirect_effect == pytest.approx(base.indirect_effect, rel=1e-9)
            assert fit.sobel_z == pytest.approx(base.sobel_z, rel=1e-9)
            assert fit.sobel_p == pytest.approx(base.sobel_p, rel=1e-9)

    def test_p_monotone_decreasing_in_abs_z(self):
        rng = np.random.default_rng(10)
        fits = []
        for a in (0.0, 0.2, 0.4, 0.6, 0.9):
            x, m, y = mediated_sample(rng, n=120, a=a, b=0.6)
            fits.append(mediation_fit(x, m, y))
        fits.sort(key=lambda f: abs(f.sobel_z))
        for lo, hi in zip(fits, fits[1:]):
            if abs(hi.sobel_z) > abs(lo.sobel_z):
                assert hi.sobel_p <= lo.sobel_p

    def test_decisions_agree_with_percentile_bootstrap(self):
        def boot_significant(x, m, y, rng, n_boot=1000):
            n = x.size
            prods = np.empty(n_boot)
            for i in range(n_boot):
                idx = rng.integers(0, n, n)
                xs, ms, ys = x[idx], m[idx], y[idx]
                a = np.polyfit(xs, ms, 1)[0]
                design = np.column_stack([np.ones(n), ms, xs])
                b = np.linalg.lstsq(design, ys, rcond=None)[0][1]
                prods[i] = a * b
            lo, hi = np.percentile(prods, [2.5, 97.5])
            return not (lo <= 0.0 <= hi)

        rng = np.random.default_rng(2026)
        effects = [(0.0, 0.0), (0.0, 0.6), (0.6, 0.0), (0.4, 0.4), (0.8, 0.8)]
        agree = 0
        for trial in range(50):
            a, b = effects[trial % 5]
            x = rng.normal(0.0, 1.0, 80)
            m = a * x + rng.normal(0.0, 1.0, 80)
            y = b * m + 0.2 * x + rng.normal(0.0, 1.0, 80)
            fit = mediation_fit(x, m, y)
            agree += (fit.sobel_p < 0.05) == boot_significant(x, m, y, rng)
        assert agree >= 45


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(MediationError):
            mediation_fit(np.zeros(12) + np.arange(12), np.arange(11), np.arange(12))

    def test_too_short_rejected(self):
        rng = np.random.default_rng(11)
        x, m, y = mediated_sample(rng, n=9)
        with pytest.raises(MediationError):
            mediation_fit(x, m, y)

    def test_non_finite_rejected(self):
        rng = np.random.default_rng(12)
        x, m, y = mediated_sample(rng, n=20)
        m[3] = np.nan
        with pytest.raises(MediationError):
            mediation_fit(x, m, y)

    def test_constant_column_rejected(self):
        rng = np.random.default_rng(13)
        x, m, y = mediated_sample(rng, n=20)
        with pytest.raises(MediationError):
            mediation_fit(x, np.full(20, 3.0), y)

    @pytest.mark.parametrize("scale", [1e-9, 1e-3, 1.0, 7.5e4, 3e8])
    def test_collinear_mediator_rejected(self, scale):
        rng = np.random.default_rng(14)
        x, _, y = mediated_sample(rng, n=40)
        x = scale * x
        for m in (2.0 * x + scale, -0.5 * x + 3.0 * scale):
            with pytest.raises(MediationError, match="collinear"):
                mediation_fit(x, m, y)
        mediation_fit(x, 2.0 * x + scale * rng.normal(0.0, 1e-3, 40), y)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("scaled", ["xm", "xmy", "y"])
    def test_extreme_magnitudes_fit_in_power_of_two_units(self, scale, scaled):
        # squares of 1e200 overflow and those of 1e-200 underflow; the suite
        # turns a numpy RuntimeWarning into an error, so none may be raised
        rng = np.random.default_rng(15)
        x = rng.normal(0.0, 1.0, 40)
        m = x + 0.5 * rng.normal(0.0, 1.0, 40)
        y = 0.5 * m + 0.3 * x + rng.normal(0.0, 1.0, 40)
        plain = mediation_fit(x, m, y)
        sx, sm, sy = (scale if c in scaled else 1.0 for c in "xmy")
        fit = mediation_fit(sx * x, sm * m, sy * y)
        assert fit.sobel_z == pytest.approx(plain.sobel_z, rel=1e-12)
        assert fit.sobel_p == pytest.approx(plain.sobel_p, rel=1e-9)
        assert fit.a_hat == pytest.approx(plain.a_hat * sm / sx, rel=1e-12)
        assert fit.se_a == pytest.approx(plain.se_a * sm / sx, rel=1e-12)
        assert fit.b_hat == pytest.approx(plain.b_hat * sy / sm, rel=1e-12)
        assert fit.se_b == pytest.approx(plain.se_b * sy / sm, rel=1e-12)
        assert fit.direct_effect == pytest.approx(plain.direct_effect * sy / sx, rel=1e-12)

    def test_extreme_magnitudes_keep_their_validation_messages(self):
        rng = np.random.default_rng(16)
        x = 1e200 * rng.normal(0.0, 1.0, 40)
        y = rng.normal(0.0, 1.0, 40)
        with pytest.raises(MediationError, match="collinear"):
            mediation_fit(x, 2.0 * x + 1e200, y)
        with pytest.raises(MediationError, match="degenerate variance in m"):
            mediation_fit(x, np.full(40, 1e-200), y)

    def test_effects_beyond_float_range_rejected(self):
        rng = np.random.default_rng(17)
        x = 1e-300 * rng.normal(0.0, 1.0, 40)
        m = 1e300 * (rng.normal(0.0, 1.0, 40) + 1e300 * x)
        with pytest.raises(MediationError, match="overflow"):
            mediation_fit(x, m, rng.normal(0.0, 1.0, 40))

    def test_result_invariants_enforced(self):
        with pytest.raises(MediationError):
            MediationFit(
                path=("x", "m", "y"), a_hat=1.0, se_a=0.1, b_hat=1.0, se_b=0.1,
                direct_effect=0.0, indirect_effect=2.0, sobel_z=1.0, sobel_p=0.5,
            )
        with pytest.raises(MediationError):
            MediationFit(
                path=("x", "m", "y"), a_hat=1.0, se_a=0.1, b_hat=1.0, se_b=0.1,
                direct_effect=0.0, indirect_effect=1.0, sobel_z=1.0, sobel_p=1.5,
            )
