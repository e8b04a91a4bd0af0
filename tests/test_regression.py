"""Tests for the least-squares kernel and the sequential threshold solver."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lagdyn.errors import RegressionError
from lagdyn.regression import SparseModel, least_squares, stls


class TestLeastSquares:
    def test_identity_system(self):
        x = least_squares(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-14)

    def test_overdetermined_mean(self):
        x = least_squares(np.ones((3, 1)), np.array([1.0, 2.0, 3.0]))
        assert x[0] == pytest.approx(2.0, abs=1e-14)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(50, 5))
        b = rng.normal(size=50)
        oracle = np.linalg.solve(A.T @ A, A.T @ b)
        assert np.allclose(least_squares(A, b), oracle, atol=1e-8)

    def test_rank_deficient_minimum_norm(self):
        # Duplicate column: minimum-norm solution splits the weight evenly.
        col = np.arange(1.0, 6.0)
        A = np.column_stack([col, col])
        b = 3.0 * col
        x = least_squares(A, b)
        assert np.allclose(x, [1.5, 1.5], atol=1e-10)

    def test_non_finite_rejected(self):
        with pytest.raises(RegressionError):
            least_squares(np.array([[1.0], [np.nan]]), np.array([1.0, 2.0]))
        with pytest.raises(RegressionError):
            least_squares(np.eye(2), np.array([np.inf, 0.0]))


class TestStls:
    def test_zero_threshold_matches_least_squares(self):
        rng = np.random.default_rng(3)
        A = rng.normal(size=(40, 6))
        b = rng.normal(size=40)
        dense = least_squares(A, b)
        model = stls(A, b, threshold=0.0)
        assert np.linalg.norm(model.coefficients - dense) <= 1e-10 * np.linalg.norm(
            dense
        )
        assert model.converged
        assert model.iterations_used == 1

    def test_zero_target_gives_empty_model(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(30, 5))
        model = stls(A, np.zeros(30), threshold=0.5)
        assert model.active_set == []
        assert np.all(model.coefficients == 0.0)
        assert model.converged

    def test_recovers_single_true_column_among_noise(self):
        # One harmonic-response feature column plus 20 uninformative ones;
        # the target weights the true column by -1000. Oracle: plain least
        # squares on the true column alone.
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 1.0, 400)
        true_col = 0.05 * np.cos(31.6 * t)
        noise_cols = 0.05 * rng.normal(size=(400, 20))
        A = np.column_stack([true_col, noise_cols])
        b = -1000.0 * true_col + 0.01 * rng.normal(size=400)
        model = stls(A, b, threshold=10.0)
        assert model.active_set == [0]
        oracle = least_squares(true_col[:, None], b)[0]
        assert model.coefficients[0] == pytest.approx(oracle, rel=1e-12)
        assert model.coefficients[0] == pytest.approx(-1000.0, rel=0.01)

    def test_zero_columns_are_excluded(self):
        rng = np.random.default_rng(5)
        col = rng.normal(size=50)
        A = np.column_stack([np.zeros(50), col, np.zeros(50)])
        b = 2.0 * col
        model = stls(A, b, threshold=0.1)
        assert model.active_set == [1]
        assert model.coefficients[1] == pytest.approx(2.0, abs=1e-10)
        assert model.coefficients[0] == 0.0 and model.coefficients[2] == 0.0

    @pytest.mark.parametrize("threshold", [0.0, 0.3])
    def test_zero_column_changes_no_coefficient_bit(self, threshold):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(60, 4))
        b = A @ np.array([1.5, 0.0, -0.7, 0.02]) + 0.01 * rng.normal(size=60)
        padded = np.column_stack([A, np.zeros(60)])
        base = stls(A, b, threshold)
        model = stls(padded, b, threshold)
        assert np.array_equal(model.coefficients[:4], base.coefficients)
        assert model.coefficients[4] == 0.0
        assert model.active_set == base.active_set
        assert 4 not in model.active_set
        assert model.residual_norm == base.residual_norm

    def test_idempotence_on_active_columns(self):
        rng = np.random.default_rng(13)
        A = rng.normal(size=(120, 10))
        b = A @ np.array([4.0, 0, 0, -2.0, 0, 0, 0, 1.8, 0, 0]) + 0.05 * rng.normal(
            size=120
        )
        first = stls(A, b, threshold=0.5)
        sub = A[:, first.active_set]
        second = stls(sub, b, threshold=0.5)
        assert second.active_set == list(range(len(first.active_set)))
        assert np.allclose(
            second.coefficients, first.coefficients[first.active_set], atol=1e-10
        )

    def test_scale_covariance(self):
        rng = np.random.default_rng(17)
        A = rng.normal(size=(80, 6))
        b = A @ np.array([3.0, 0, 0, -1.0, 0, 0]) + 0.02 * rng.normal(size=80)
        alpha = 7.5
        base = stls(A, b, threshold=0.4)
        scaled = stls(A, alpha * b, threshold=alpha * 0.4)
        assert scaled.active_set == base.active_set
        assert np.allclose(scaled.coefficients, alpha * base.coefficients, rtol=1e-10)

    def test_monotone_support_via_iterations(self):
        # A target built from two strong columns and one weak one: the weak
        # coefficient dies on the first prune and never returns.
        rng = np.random.default_rng(21)
        A = rng.normal(size=(150, 5))
        b = A @ np.array([10.0, 0.1, 0.0, -8.0, 0.0])
        model = stls(A, b, threshold=1.0)
        assert set(model.active_set) == {0, 3}
        assert model.converged

    def test_raw_mode_zero_threshold_matches_least_squares(self):
        rng = np.random.default_rng(23)
        A = rng.normal(size=(40, 6)) * np.array([1.0, 50.0, 0.1, 3.0, 1.0, 8.0])
        b = rng.normal(size=40)
        dense = least_squares(A, b)
        model = stls(A, b, threshold=0.0)
        assert np.linalg.norm(model.coefficients - dense) <= 1e-10 * np.linalg.norm(
            dense
        )

    def test_raw_mode_thresholds_original_units(self):
        # col1 carries a physically tiny coefficient on a huge-RMS column:
        # its contribution to b is as large as a unit-coefficient column's,
        # but its raw magnitude (0.001) is below lam = 0.5, so it is pruned.
        rng = np.random.default_rng(29)
        col0 = rng.normal(size=300)
        col1 = 1000.0 * rng.normal(size=300)
        A = np.column_stack([col0, col1])
        b = 5.0 * col0 + 0.001 * col1
        raw = stls(A, b, threshold=0.5)
        assert raw.active_set == [0]
        assert raw.coefficients[0] == pytest.approx(5.0, rel=0.01)

    def test_rcond_caps_degenerate_inflation(self):
        # Near-duplicate columns: without a cutoff the tiny difference
        # direction amplifies target noise into huge +/- coefficient pairs;
        # with a cutoff the pair collapses to the stable min-norm split.
        rng = np.random.default_rng(31)
        col = rng.normal(size=500)
        A = np.column_stack([col, col + 1e-6 * rng.normal(size=500)])
        b = col + 0.01 * rng.normal(size=500)
        loose = least_squares(A, b)
        capped = least_squares(A, b, rcond=1e-3)
        assert np.abs(loose).max() > 100.0
        assert np.abs(capped).max() < 1.0
        assert capped.sum() == pytest.approx(1.0, abs=0.01)

    def test_stls_forwards_rcond(self):
        rng = np.random.default_rng(37)
        col = rng.normal(size=200)
        A = np.column_stack([col, col + 1e-7 * rng.normal(size=200)])
        b = 2.0 * col + 0.02 * rng.normal(size=200)
        model = stls(A, b, threshold=0.0, rcond=1e-3)
        dense = least_squares(A, b, rcond=1e-3)
        assert np.allclose(model.coefficients, dense, atol=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(RegressionError):
            stls(np.array([[np.nan, 1.0]]), np.array([1.0]), threshold=0.1)

    def test_bad_arguments_rejected(self):
        A = np.eye(3)
        b = np.ones(3)
        with pytest.raises(RegressionError):
            stls(A, b, threshold=-1.0)

    def test_result_type_fields(self):
        model = stls(np.eye(2), np.array([1.0, 0.0]), threshold=0.0)
        assert isinstance(model, SparseModel)
        assert model.residual_norm >= 0.0
        outside = [i for i in range(2) if i not in model.active_set]
        assert all(model.coefficients[i] == 0.0 for i in outside)


@st.composite
def _problems(draw):
    """A generic full-column-rank system, some of its columns zeroed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(8, 40))
    cols = draw(st.integers(1, 6))
    zero = draw(st.lists(st.booleans(), min_size=cols, max_size=cols))
    A = rng.normal(size=(rows, cols)) * rng.uniform(0.1, 10.0, size=cols)
    A[:, zero] = 0.0
    return A, rng.normal(size=rows)


class TestStlsProperties:
    @given(_problems(), st.floats(0.0, 2.0))
    def test_support_invariants(self, problem, threshold):
        A, b = problem
        model = stls(A, b, threshold)
        zero_cols = np.flatnonzero(~A.any(axis=0))
        assert not set(zero_cols) & set(model.active_set)
        outside = np.setdiff1d(np.arange(A.shape[1]), model.active_set)
        assert np.all(model.coefficients[outside] == 0.0)
        if model.converged:
            kept = np.abs(model.coefficients[model.active_set])
            assert np.all(kept >= threshold)

    @given(_problems())
    def test_zero_threshold_matches_least_squares(self, problem):
        A, b = problem
        dense = least_squares(A, b)
        model = stls(A, b, 0.0)
        assert (np.linalg.norm(model.coefficients - dense)
                <= 1e-10 * np.linalg.norm(dense))
