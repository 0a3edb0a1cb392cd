"""Tests for correlation screening and generalized-correlation direction."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy import stats

from cardiocausal.association import (
    AssociationError,
    BayesRegressionFit,
    Direction,
    GeneralizedCorrPair,
    GeneralizedCorrPairs,
    bayes_correlation,
    correlation_matrix,
    generalized_corr_pair,
)
from cardiocausal.record_io import PARAMETER_NAMES, ParameterRow, ParameterTable, Position
from cardiocausal.synthetic import sem_cohort


def make_table(columns, position=Position.SUPINE, start=0):
    """Table with one row per subject from a dict of parameter columns."""
    n = len(next(iter(columns.values())))
    rows = []
    for i in range(n):
        params = {name: float(columns[name][i]) for name in PARAMETER_NAMES}
        rows.append(
            ParameterRow(subject_id=f"s{start + i:03d}", position=position, params=params)
        )
    return ParameterTable(rows=tuple(rows))


def random_columns(rng, n):
    """Independent columns that satisfy the per-row validity bounds."""
    cols = {}
    for name in PARAMETER_NAMES:
        draw = rng.normal(0.0, 1.0, n)
        if name in ("HR", "RMSSD", "RR"):
            cols[name] = np.abs(draw) + 1.0
        elif name in ("ciRR", "cInsT", "cExpT", "cInsV", "cExpV"):
            cols[name] = np.abs(draw)
        elif name == "BR":
            cols[name] = 50.0 + 10.0 * np.clip(draw, -4.0, 4.0)
        else:
            cols[name] = draw
    return cols


class TestBayesCorrelation:
    def test_identity_pair(self):
        x = np.random.default_rng(0).normal(0.0, 1.0, 50)
        fit = bayes_correlation(x, x.copy())
        assert fit.r == pytest.approx(1.0, abs=1e-12)
        assert fit.mpe == 1.0
        assert fit.beta_hat == pytest.approx(1.0, abs=1e-12)

    def test_collapses_to_pearson_on_bivariate_normal(self):
        rng = np.random.default_rng(1)
        cov = [[1.0, 0.6], [0.6, 2.0]]
        xy = rng.multivariate_normal([0.0, 0.0], cov, size=100)
        fit = bayes_correlation(xy[:, 0], xy[:, 1])
        assert fit.r == pytest.approx(np.corrcoef(xy[:, 0], xy[:, 1])[0, 1], abs=1e-9)

    def test_collapse_property_on_varied_samples(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 120))
            kind = rng.integers(0, 3)
            if kind == 0:
                x = rng.normal(0.0, 1.0, n)
                y = 0.5 * x + rng.normal(0.0, 1.0, n)
            elif kind == 1:
                x = rng.lognormal(0.0, 1.0, n)
                y = rng.lognormal(0.0, 1.0, n)
            else:
                x = rng.integers(0, 5, n).astype(float)
                y = rng.integers(0, 5, n).astype(float)
            if np.std(x) == 0 or np.std(y) == 0:
                continue
            fit = bayes_correlation(x, y)
            assert fit.r == pytest.approx(np.corrcoef(x, y)[0, 1], abs=1e-9)

    def test_mpe_is_one_minus_half_pearson_p(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(0.0, 1.0, 40)
            y = 0.3 * x + rng.normal(0.0, 1.0, 40)
            fit = bayes_correlation(x, y)
            p_ref = stats.pearsonr(x, y).pvalue
            assert fit.mpe == pytest.approx(1.0 - p_ref / 2.0, abs=1e-12)
            assert 0.5 <= fit.mpe <= 1.0

    def test_null_gate_rate_is_one_fifth(self):
        # under independence the two-sided p is uniform, so
        # P(mpe > 0.9) = P(p < 0.2) = 0.2
        rng = np.random.default_rng(4)
        hits = sum(
            bayes_correlation(rng.normal(0, 1, 100), rng.normal(0, 1, 100)).mpe > 0.9
            for _ in range(2000)
        )
        assert 0.17 < hits / 2000 < 0.23

    def test_preconditions(self):
        with pytest.raises(AssociationError):
            bayes_correlation([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(AssociationError):
            bayes_correlation([1.0] * 10, np.arange(10.0))
        with pytest.raises(AssociationError):
            bayes_correlation(np.arange(10.0), np.arange(9.0))
        with pytest.raises(AssociationError):
            bayes_correlation(np.arange(10.0), [math.nan] + [1.0] * 9)

    def test_fit_invariants_enforced(self):
        with pytest.raises(AssociationError):
            BayesRegressionFit(
                alpha_hat=0.0, beta_hat=0.5, sigma_x=1.0, sigma_y=1.0, r=0.9, mpe=0.95
            )
        with pytest.raises(AssociationError):
            BayesRegressionFit(
                alpha_hat=0.0, beta_hat=0.5, sigma_x=1.0, sigma_y=1.0, r=0.5, mpe=0.3
            )


class TestCorrelationMatrix:
    def test_identical_columns_present_as_one(self):
        rng = np.random.default_rng(5)
        cols = random_columns(rng, 30)
        cols["RMSSD"] = cols["HR"].copy()
        out = correlation_matrix(make_table(cols), Position.SUPINE)
        i, j = PARAMETER_NAMES.index("HR"), PARAMETER_NAMES.index("RMSSD")
        assert out[i, j] == pytest.approx(1.0, abs=1e-9)
        assert out[j, i] == out[i, j]

    def test_symmetric_with_empty_diagonal(self):
        rng = np.random.default_rng(6)
        out = correlation_matrix(make_table(random_columns(rng, 40)), Position.SUPINE)
        assert np.array_equal(out, out.T, equal_nan=True)
        assert np.all(np.isnan(np.diag(out)))

    def test_entries_match_pairwise_gate(self):
        rng = np.random.default_rng(7)
        table = make_table(random_columns(rng, 25))
        out = correlation_matrix(table, Position.SUPINE)
        for i, j in combinations(range(len(PARAMETER_NAMES)), 2):
            fit = bayes_correlation(
                table.column(PARAMETER_NAMES[i], Position.SUPINE),
                table.column(PARAMETER_NAMES[j], Position.SUPINE),
            )
            if fit.mpe > 0.9:
                assert out[i, j] == fit.r
            else:
                assert math.isnan(out[i, j])

    def test_too_few_subjects(self):
        rng = np.random.default_rng(8)
        with pytest.raises(AssociationError):
            correlation_matrix(make_table(random_columns(rng, 3)), Position.SUPINE)

    def test_positions_are_independent(self):
        rng = np.random.default_rng(9)
        supine = make_table(random_columns(rng, 20), Position.SUPINE)
        standing = make_table(random_columns(rng, 20), Position.STANDING, start=100)
        merged = ParameterTable(rows=supine.rows + standing.rows)
        out_merged = correlation_matrix(merged, Position.SUPINE)
        out_alone = correlation_matrix(supine, Position.SUPINE)
        assert np.array_equal(out_merged, out_alone, equal_nan=True)


class TestGeneralizedCorrPair:
    def test_quadratic_relationship_names_the_cause(self):
        rng = np.random.default_rng(10)
        x = rng.uniform(-1.0, 1.0, 2000)
        g = generalized_corr_pair(x, x * x)
        assert g.gmc_y_given_x >= 0.9
        assert abs(g.r_pearson) <= 0.1
        assert g.direction is Direction.X_CAUSES_Y
        assert g.gate_p < 0.05

    def test_independent_inputs_stay_undecided(self):
        for seed in (4, 5, 6):
            rng = np.random.default_rng(seed)
            g = generalized_corr_pair(rng.normal(0, 1, 2000), rng.normal(0, 1, 2000))
            assert g.gmc_y_given_x <= 0.05
            assert g.gmc_x_given_y <= 0.05
            assert g.direction is Direction.UNDECIDED

    def test_identity_is_a_tie(self):
        x = np.random.default_rng(11).normal(0.0, 1.0, 500)
        g = generalized_corr_pair(x, x.copy())
        assert g.gmc_y_given_x == g.gmc_x_given_y
        assert g.r_star_y_given_x == g.r_star_x_given_y
        assert g.r_star_y_given_x >= 0.99
        assert g.direction is Direction.UNDECIDED

    def test_swap_antisymmetry(self):
        rng = np.random.default_rng(12)
        swap = {
            Direction.X_CAUSES_Y: Direction.Y_CAUSES_X,
            Direction.Y_CAUSES_X: Direction.X_CAUSES_Y,
            Direction.UNDECIDED: Direction.UNDECIDED,
        }
        x = rng.uniform(-1.0, 1.0, 400)
        cases = [
            (x, x * x + 0.05 * rng.normal(0, 1, 400)),
            (rng.normal(0, 1, 400), rng.normal(0, 1, 400)),
            (x, 0.8 * x + 0.2 * rng.normal(0, 1, 400)),
        ]
        for a, b in cases:
            g_ab = generalized_corr_pair(a, b)
            g_ba = generalized_corr_pair(b, a)
            assert g_ba.direction is swap[g_ab.direction]
            assert g_ba.gmc_y_given_x == g_ab.gmc_x_given_y
            assert g_ba.gmc_x_given_y == g_ab.gmc_y_given_x
            assert g_ba.r_pearson == pytest.approx(g_ab.r_pearson, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-1.0, 1.0, 300)
        y = x * x + 0.1 * rng.normal(0.0, 1.0, 300)
        base = generalized_corr_pair(x, y)
        moved = generalized_corr_pair(3.7 * x - 2.0, y)
        assert abs(moved.r_pearson) == pytest.approx(abs(base.r_pearson), abs=1e-6)
        assert moved.gmc_y_given_x == pytest.approx(base.gmc_y_given_x, abs=1e-6)
        assert moved.gmc_x_given_y == pytest.approx(base.gmc_x_given_y, abs=1e-6)
        assert moved.direction is base.direction

    def test_gmc_always_clamped(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.normal(0.0, 1.0, 60)
            y = rng.normal(0.0, 1.0, 60)
            g = generalized_corr_pair(x, y)
            assert 0.0 <= g.gmc_y_given_x <= 1.0
            assert 0.0 <= g.gmc_x_given_y <= 1.0
            assert abs(g.r_star_y_given_x) <= 1.0
            assert abs(g.r_star_x_given_y) <= 1.0

    def test_preconditions(self):
        with pytest.raises(AssociationError):
            generalized_corr_pair(np.arange(19.0), np.arange(19.0) ** 2)
        with pytest.raises(AssociationError):
            generalized_corr_pair(np.ones(30), np.arange(30.0))

    def test_pair_invariants_enforced(self):
        with pytest.raises(AssociationError):
            GeneralizedCorrPair(
                r_pearson=0.5,
                r_star_y_given_x=0.9,
                r_star_x_given_y=0.3,
                gmc_y_given_x=0.81,
                gmc_x_given_y=0.09,
                direction=Direction.X_CAUSES_Y,
                gate_p=0.2,
            )
        with pytest.raises(AssociationError):
            GeneralizedCorrPair(
                r_pearson=0.5,
                r_star_y_given_x=0.5,
                r_star_x_given_y=0.3,
                gmc_y_given_x=0.81,
                gmc_x_given_y=0.09,
                direction=Direction.UNDECIDED,
                gate_p=0.5,
            )


def _loo_kernel_prediction(x, y):
    """Reference: leave-one-out Nadaraya-Watson estimate of E(y | x), one
    kernel per call.  GeneralizedCorrPairs must reproduce it bit for bit."""
    n = x.size
    h = 1.06 * float(np.std(x, ddof=1)) * n ** (-0.2)
    if h <= 0:
        raise AssociationError("degenerate variance: zero bandwidth")
    z = (x[:, None] - x[None, :]) / h
    weights = np.exp(-0.5 * z * z)
    np.fill_diagonal(weights, 0.0)
    denom = weights.sum(axis=1)
    numer = weights @ y
    fallback = (y.sum() - y) / (n - 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        pred = np.where(denom > 1e-300, numer / np.maximum(denom, 1e-300), fallback)
    return pred


class TestGeneralizedCorrPairs:
    def test_shared_kernel_predictions_equal_per_pair_ones(self):
        table, _ = sem_cohort(200, seed=0)
        # a far outlier has no neighbours inside the kernel: the fallback path
        outlier = np.random.default_rng(15).normal(0.0, 1.0, 200)
        outlier[0] = 1e4
        for position in Position:
            columns = [table.column(n, position) for n in PARAMETER_NAMES] + [outlier]
            pairs = GeneralizedCorrPairs(columns)
            for i, j in permutations(range(len(columns)), 2):
                want = _loo_kernel_prediction(columns[i], columns[j])
                assert np.array_equal(pairs._prediction(i, j), want)
            y = columns[0]
            assert pairs._prediction(len(columns) - 1, 0)[0] == (y.sum() - y[0]) / 199

    def test_pair_matches_generalized_corr_pair(self):
        table, _ = sem_cohort(200, seed=1)
        columns = [table.column(n, Position.STANDING) for n in PARAMETER_NAMES]
        pairs = GeneralizedCorrPairs(columns)
        for i, j in permutations(range(len(columns)), 2):
            assert pairs.pair(i, j) == generalized_corr_pair(columns[i], columns[j])
