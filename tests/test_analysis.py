"""Tests for regression and report formatting."""

import numpy as np
import pytest

from repro.analysis import (GreedyFeatureSelector, format_comparison,
                            format_series, format_table,
                            mean_abs_pct_error, nnls, ols, predict)
from repro.errors import AnalysisError, ModelError


class TestRegression:
    def test_ols_recovers_exact_model(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 3))
        y = x @ np.array([2.0, -1.0, 0.5]) + 3.0
        coef = ols(x, y)
        np.testing.assert_allclose(coef, [2.0, -1.0, 0.5, 3.0],
                                   atol=1e-9)

    def test_ols_shape_validation(self):
        with pytest.raises(ModelError):
            ols(np.zeros((3, 2)), np.zeros(4))

    def test_nnls_nonnegative(self):
        rng = np.random.default_rng(1)
        x = rng.random((60, 4))
        y = x @ np.array([1.0, 0.0, 2.0, 0.0]) + 0.5
        coef = nnls(x, y)
        assert np.all(coef[:-1] >= -1e-9)

    def test_predict_matches_fit(self):
        x = np.arange(10, dtype=float).reshape(-1, 1)
        y = 3 * x.ravel() + 1
        coef = ols(x, y)
        np.testing.assert_allclose(predict(x, coef), y, atol=1e-9)

    def test_mean_abs_pct_error(self):
        assert mean_abs_pct_error([100.0], [90.0]) == pytest.approx(10.0)

    def test_greedy_selector_budget(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((80, 6))
        y = 5 * x[:, 2] + 0.1 * rng.standard_normal(80)
        selector = GreedyFeatureSelector([f"f{i}" for i in range(6)])
        fit = selector.fit(x, y, max_inputs=2)
        assert "f2" in fit.feature_names
        assert len(fit.feature_indices) <= 2

    def test_greedy_selector_validation(self):
        selector = GreedyFeatureSelector(["a"])
        with pytest.raises(ModelError):
            selector.fit(np.zeros((5, 1)), np.zeros(5), max_inputs=0)


class TestReport:
    def test_format_table(self):
        text = format_table("T", ["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "T" in text and "2.500" in text and "x" in text

    def test_row_width_validation(self):
        with pytest.raises(AnalysisError):
            format_table("T", ["a"], [[1, 2]])

    def test_format_series(self):
        text = format_series("S", {"y": [1.0, 2.0]}, "x", [10, 20])
        assert "10" in text and "2.000" in text

    def test_format_comparison(self):
        text = format_comparison("C", {"speedup": 2.0},
                                 {"speedup": 1.8})
        assert "0.90x" in text
