"""Tests for correlation screening and generalized-correlation direction."""

import math
import tracemalloc
from itertools import combinations, permutations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtr

from cardiocausal import association
from cardiocausal.association import (
    AssociationError,
    BayesRegressionFit,
    Direction,
    GeneralizedCorrPair,
    GeneralizedCorrPairs,
    _loo_predictions,
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


def _former_bayes_correlation(x, y) -> BayesRegressionFit:
    """bayes_correlation as it was, with every moment taken per call."""
    x, y = association._as_pair(x, y, 4)
    n = x.size
    yc = y - y.mean()
    syy = float(yc @ yc)
    beta = float(yc @ (x - x.mean())) / syy
    alpha = float(x.mean() - beta * y.mean())
    resid = x - alpha - beta * y
    rss = float(resid @ resid)
    sigma_x = float(np.std(x, ddof=1))
    sigma_y = float(np.std(y, ddof=1))
    r = beta * sigma_y / sigma_x
    se2 = rss / (n - 2) / syy
    if se2 <= 0:
        mpe = 1.0 if beta != 0 else 0.5
    else:
        cdf = float(stdtr(n - 2, beta / math.sqrt(se2)))
        mpe = max(cdf, 1.0 - cdf)
    return BayesRegressionFit(
        alpha_hat=alpha, beta_hat=beta, sigma_x=sigma_x, sigma_y=sigma_y, r=r, mpe=mpe
    )


def _former_correlation_matrix(table, position):
    """The gated matrix as one former bayes_correlation call per pair."""
    k = len(PARAMETER_NAMES)
    out = np.full((k, k), np.nan)
    columns = [table.column(name, position) for name in PARAMETER_NAMES]
    for i, j in combinations(range(k), 2):
        if np.ptp(columns[i]) == 0 or np.ptp(columns[j]) == 0:
            continue
        fit = _former_bayes_correlation(columns[i], columns[j])
        if fit.mpe > 0.9:
            out[i, j] = out[j, i] = fit.r
    return out


@st.composite
def _screen_tables(draw):
    """4-60 subjects of independent columns, some of them rescaled by up to
    1e3 either way and up to four of them constant."""
    n = draw(st.integers(4, 60))
    cols = random_columns(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    for name in draw(st.lists(st.sampled_from(PARAMETER_NAMES), unique=True, max_size=4)):
        if name != "BR":
            cols[name] = cols[name] * 10.0 ** draw(st.floats(-3.0, 3.0))
    for name in draw(st.lists(st.sampled_from(PARAMETER_NAMES), unique=True, max_size=4)):
        cols[name] = np.full(n, draw(st.sampled_from([0.1, 0.2, 0.3, 14.0])))
    return make_table(cols)


class TestCorrelationMatrix:
    @settings(max_examples=100, deadline=None)
    @given(_screen_tables())
    def test_matches_the_former_pairwise_loop(self, table):
        # moments taken once per column give the former per-pair bits
        out = correlation_matrix(table, Position.SUPINE)
        assert np.array_equal(out, _former_correlation_matrix(table, Position.SUPINE), equal_nan=True)
        columns = [table.column(name, Position.SUPINE) for name in PARAMETER_NAMES]
        for x, y in permutations(columns, 2):
            if np.ptp(x) > 0 and np.ptp(y) > 0:
                assert bayes_correlation(x, y) == _former_bayes_correlation(x, y)

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

    def test_constant_column_is_null_with_one_warning(self):
        rng = np.random.default_rng(10)
        cols = random_columns(rng, 30)
        table = make_table(cols)
        cols["RR"] = np.full(30, 14.0)
        cols["cExpT"] = np.full(30, 1.5)
        warnings = []
        out = correlation_matrix(make_table(cols), Position.SUPINE, warnings=warnings)
        assert warnings == [
            "correlation matrix for supine: RR is constant; its correlations are null",
            "correlation matrix for supine: cExpT is constant; its correlations are null",
        ]
        flat = [PARAMETER_NAMES.index("RR"), PARAMETER_NAMES.index("cExpT")]
        assert np.all(np.isnan(out[flat, :])) and np.all(np.isnan(out[:, flat]))
        # every other pair is the one the table without the constants gives
        rest = [i for i in range(len(PARAMETER_NAMES)) if i not in flat]
        full = correlation_matrix(table, Position.SUPINE)
        assert np.array_equal(out[np.ix_(rest, rest)], full[np.ix_(rest, rest)], equal_nan=True)
        # without a list the matrix is the same and nothing is reported
        again = correlation_matrix(make_table(cols), Position.SUPINE)
        assert np.array_equal(again, out, equal_nan=True)

    def test_constant_column_with_a_rounding_mean_is_constant(self):
        rng = np.random.default_rng(10)
        cols = random_columns(rng, 100)
        # np.std of these is 2.8e-17, 5.6e-17, 0 and (underflow) 0
        cols["ciRR"] = np.full(100, 0.1)
        cols["cInsT"] = np.full(100, 0.2)
        cols["cExpT"] = np.full(100, 0.3)
        cols["lnRMSSD"] = np.tile([0.0, 1e-300], 50)
        warnings = []
        out = correlation_matrix(make_table(cols), Position.SUPINE, warnings=warnings)
        flat = ["lnRMSSD", "ciRR", "cInsT", "cExpT"]
        assert warnings == [
            f"correlation matrix for supine: {name} is constant; its correlations are null"
            for name in flat
        ]
        rows = [PARAMETER_NAMES.index(name) for name in flat]
        assert np.all(np.isnan(out[rows, :])) and np.all(np.isnan(out[:, rows]))
        for name in flat:
            with pytest.raises(AssociationError, match="zero variance input"):
                generalized_corr_pair(cols[name], cols["HR"])
            with pytest.raises(AssociationError, match="zero variance input"):
                bayes_correlation(cols["HR"], cols[name])

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


def _former_loo_kernel(x):
    """Reference: the whole leave-one-out kernel and its row sums, as five
    n x n temporaries."""
    n = x.size
    h = 1.06 * float(np.std(x, ddof=1)) * n ** (-0.2)
    if h <= 0:
        raise AssociationError("degenerate variance: zero bandwidth")
    z = (x[:, None] - x[None, :]) / h
    weights = np.exp(-0.5 * z * z)
    np.fill_diagonal(weights, 0.0)
    return weights, weights.sum(axis=1)


def former_loo_predictions(x, responses):
    """Reference: ``_loo_predictions`` as it was, one n x n kernel predicting
    each response.  The tiled kernel adds each row's terms in another order,
    so it must come within ``_KERNEL_TOLERANCE`` of the response scale."""
    n = x.size
    weights, denom = _former_loo_kernel(x)
    predictions = []
    for y in responses:
        numer = weights @ y
        fallback = (y.sum() - y) / (n - 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            predictions.append(
                np.where(denom > 1e-300, numer / np.maximum(denom, 1e-300), fallback)
            )
    return predictions


# bound on |tiled - dense| / max|y| for each response; rounding gives about
# 1e-14 over 400 random columns of 20-500 points at tiles of 16 and 192
_KERNEL_TOLERANCE = 1e-12


def _assert_near_the_dense_kernel(got, x, responses):
    want = former_loo_predictions(x, responses)
    for g, w, y in zip(got, want, responses, strict=True):
        assert np.max(np.abs(g - w)) <= _KERNEL_TOLERANCE * np.max(np.abs(y))


# from this size up, a point 1e4 standard draws from the rest has a kernel row
# that sums under 1e-300, so _loo_predictions gives it the mean of the others
_ISOLATING_N = 250


@st.composite
def _kernel_columns(draw):
    """(column, whether its first point is isolated): 20-400 normal draws at
    a scale from 1e-3 to 1e3 and an offset up to 1e4 in size, sometimes
    rounded to a few tied values, sometimes with one far outlier.  Half the
    sizes are 1 more than a multiple of 16."""
    shape = draw(st.sampled_from(["normal", "tied", "outlier"]))
    low = _ISOLATING_N if shape == "outlier" else 20
    n = draw(
        st.one_of(st.integers(low, 400), st.integers(low // 16 + 1, 24).map(lambda k: 16 * k + 1))
    )
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = draw(st.floats(-1e4, 1e4))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(0.0, 1.0, n)
    if shape == "tied":
        x = np.round(x)
    elif shape == "outlier":
        x[0] = 1e4
    return offset + scale * x, shape == "outlier"


def _responses(x, seed):
    """Responses of assorted shapes for the column x: its square, an
    independent draw, a tied one and x itself."""
    rng = np.random.default_rng(seed)
    return [x * x, rng.normal(0.0, 1.0, x.size), np.round(rng.normal(0.0, 2.0, x.size)), x]


class TestLooKernel:
    @settings(max_examples=200, deadline=None)
    @given(_kernel_columns())
    def test_matches_the_former_kernel(self, case):
        # tiles of 16 rows and columns: every column has diagonal and
        # off-diagonal tiles, and a size 1 more than a multiple of 16 ends
        # on a one-row tile
        x, isolated = case
        responses = _responses(x, x.size)
        with mock.patch.object(association, "_KERNEL_TILE", 16):
            got = _loo_predictions(x, responses)
        _assert_near_the_dense_kernel(got, x, responses)
        if isolated:
            y = responses[1]
            assert got[1][0] == (y.sum() - y[0]) / (x.size - 1)

    @pytest.mark.parametrize("n", [257, 961, 997, 1000, 1003, 2001, 2049])
    def test_matches_the_former_kernel_at_the_shipped_budget(self, n):
        # tiles of 192: 257 rows end on a tile of 65, 961 on a one-row tile
        # and 2049 on a tile of 129, after 1 to 10 whole ones
        x = np.random.default_rng(n).normal(0.0, 1.0, n)
        responses = _responses(x, n + 1)
        _assert_near_the_dense_kernel(_loo_predictions(x, responses), x, responses)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(AssociationError, match="zero bandwidth"):
            _loo_predictions(np.full(30, 2.0), [np.arange(30.0)])

    def test_peak_memory_grows_with_n(self):
        # predicting seven columns from one at n = 2000 holds one tile of
        # the kernel, not its 32 MB
        columns = list(np.random.default_rng(16).normal(0.0, 1.0, (8, 2000)))
        bound = 4 * 2**20
        peaks = []
        for predict in (
            lambda: GeneralizedCorrPairs(columns)._prediction(0, 1),
            lambda: _former_loo_kernel(columns[0]),
        ):
            tracemalloc.start()
            try:
                predict()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the former kernel shows that numpy's arrays are traced at all
        assert peaks[0] < bound < peaks[1]


class TestGeneralizedCorrPairs:
    def test_shared_kernel_predictions_equal_per_pair_ones(self):
        table, _ = sem_cohort(200, seed=0)
        # a far outlier has no neighbours inside the kernel: the fallback path
        outlier = np.random.default_rng(15).normal(0.0, 1.0, 200)
        outlier[0] = 1e4
        for position in Position:
            columns = [table.column(n, position) for n in PARAMETER_NAMES] + [outlier]
            pairs = GeneralizedCorrPairs(columns)
            got = {}
            for i, j in permutations(range(len(columns)), 2):
                got[i, j] = pairs._prediction(i, j)
                _assert_near_the_dense_kernel([got[i, j]], columns[i], [columns[j]])
            y = columns[0]
            assert got[len(columns) - 1, 0][0] == (y.sum() - y[0]) / 199

    def test_predictions_are_freed_once_every_pair_is_read(self):
        table, _ = sem_cohort(100, seed=0)
        columns = [table.column(n, Position.SUPINE) for n in PARAMETER_NAMES]
        pairs = GeneralizedCorrPairs(columns)
        for i, j in combinations(range(len(columns)), 2):
            pairs.pair(i, j)
            assert j not in pairs._predictions[i] and i not in pairs._predictions[j]
        assert len(pairs._predictions) == len(columns)
        assert all(not held for held in pairs._predictions.values())

    def test_pair_matches_generalized_corr_pair(self):
        table, _ = sem_cohort(200, seed=1)
        columns = [table.column(n, Position.STANDING) for n in PARAMETER_NAMES]
        # each object is asked for a pair once, as gc_graph asks
        forward, backward = GeneralizedCorrPairs(columns), GeneralizedCorrPairs(columns)
        for i, j in combinations(range(len(columns)), 2):
            assert forward.pair(i, j) == generalized_corr_pair(columns[i], columns[j])
            assert backward.pair(j, i) == generalized_corr_pair(columns[j], columns[i])
