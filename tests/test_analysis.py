"""Tests for regression and report formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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

    def test_zero_column_design_rejected_at_fit(self):
        with pytest.raises(ModelError):
            GreedyFeatureSelector([]).fit(np.zeros((5, 0)), np.ones(5), 1)


def _same_fit(a, b) -> bool:
    """Bit for bit: errors compare as bytes, like the coefficients, so
    two NaN errors (a fit whose coefficients overflowed) are the same."""
    return (a.feature_indices == b.feature_indices
            and a.feature_names == b.feature_names
            and a.coefficients.tobytes() == b.coefficients.tobytes()
            and a.intercept_used == b.intercept_used
            and a.nonnegative == b.nonnegative
            and np.float64(a.train_error_pct).tobytes()
            == np.float64(b.train_error_pct).tobytes())


@st.composite
def _designs(draw):
    rows = draw(st.integers(min_value=3, max_value=12))
    cols = draw(st.integers(min_value=1, max_value=5))
    values = st.floats(min_value=-50, max_value=50, allow_nan=False,
                       allow_infinity=False)
    x = draw(arrays(np.float64, (rows, cols), elements=values))
    y = draw(arrays(np.float64, rows, elements=values))
    return x, y


class TestGreedyPath:
    """One greedy path answers every smaller budget: ``fit(k)`` is
    entry ``k - 1`` of the path with budget ``K``, bit for bit."""

    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("nonnegative", [True, False])
    @settings(max_examples=30, deadline=None)
    @given(design=_designs(), budget=st.integers(min_value=1,
                                                  max_value=6))
    def test_fit_is_a_prefix_of_the_path(self, nonnegative, intercept,
                                         design, budget):
        x, y = design
        selector = GreedyFeatureSelector(
            [f"f{i}" for i in range(x.shape[1])],
            nonnegative=nonnegative, intercept=intercept)
        try:
            path = selector.path(x, y, budget)
        except ModelError:
            # no finite first step: every budget refuses alike
            with pytest.raises(ModelError):
                selector.sweep(x, y, range(budget, 0, -1))
            for k in range(1, budget + 1):
                with pytest.raises(ModelError):
                    selector.fit(x, y, k)
            return
        assert 1 <= len(path) <= min(budget, x.shape[1])
        for step in path:
            assert np.isfinite(step.train_error_pct)
            assert np.all(np.isfinite(step.coefficients))
        fits = selector.sweep(x, y, range(budget, 0, -1))
        assert list(fits) == list(range(budget, 0, -1))
        for k in range(1, budget + 1):
            fit = selector.fit(x, y, k)
            assert _same_fit(fit, path[min(k, len(path)) - 1])
            assert _same_fit(fit, fits[k])

    @pytest.mark.parametrize("intercept", [True, False])
    @pytest.mark.parametrize("nonnegative", [True, False])
    def test_path_that_stops_before_its_budget(self, nonnegative,
                                               intercept):
        """A duplicated column cannot improve on the first pick, so the
        path stops after one step and every budget gets that step."""
        x = np.arange(1.0, 9.0).reshape(-1, 1).repeat(3, axis=1)
        y = 2.0 * x[:, 0]
        selector = GreedyFeatureSelector(
            ["a", "b", "c"], nonnegative=nonnegative,
            intercept=intercept)
        path = selector.path(x, y, 3)
        assert len(path) == 1
        for k in (1, 2, 3):
            assert _same_fit(selector.fit(x, y, k), path[0])

    def test_overflowed_step_is_never_taken(self):
        """NNLS without an intercept returns ``[inf]`` on a denormal
        column, whose error is NaN: no such step is taken, so a path
        with no finite first step raises, and a later one stops."""
        x = np.array([[5e-324], [0.0], [0.0]])
        y = np.ones(3)
        selector = GreedyFeatureSelector(["d"], nonnegative=True,
                                         intercept=False)
        assert not np.all(np.isfinite(nnls(x, y, intercept=False)))
        for call in (lambda: selector.path(x, y, 1),
                     lambda: selector.fit(x, y, 1),
                     lambda: selector.sweep(x, y, (1,))):
            with pytest.raises(ModelError):
                call()
        wide = np.hstack([np.array([[1.0], [2.0], [4.0]]), x])
        path = GreedyFeatureSelector(
            ["a", "d"], nonnegative=True, intercept=False).path(
                wide, np.array([1.0, 3.0, 2.0]), 2)
        assert [step.feature_names for step in path] == [["a"]]

    def test_overflowed_step_with_an_intercept_is_never_taken(self):
        """With an intercept the overflow must not reach scipy again as
        a NaN target (a ``ValueError``): the fit comes back non-finite
        and the path refuses it like any other."""
        x = np.array([[-5e-324], [0.0], [-5e-324]])
        y = np.array([-1.0, 0.0, 0.0])
        assert not np.all(np.isfinite(nnls(x, y, intercept=True)))
        selector = GreedyFeatureSelector(["d"], nonnegative=True,
                                         intercept=True)
        for call in (lambda: selector.path(x, y, 1),
                     lambda: selector.fit(x, y, 1),
                     lambda: selector.sweep(x, y, (1,))):
            with pytest.raises(ModelError):
                call()

    def test_sweep_budgets_are_checked(self):
        selector = GreedyFeatureSelector(["a", "b"])
        x, y = np.eye(4)[:, :2], np.arange(4.0)
        assert selector.sweep(x, y, ()) == {}
        with pytest.raises(ModelError):
            selector.sweep(x, y, (2, 0))


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
