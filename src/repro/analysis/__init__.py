"""Analysis utilities: constrained regression, validation and report
formatting for the benchmark harness."""

from .regression import (FitResult, GreedyFeatureSelector,
                         mean_abs_pct_error, nnls, ols, predict)
from .report import format_comparison, format_series, format_table
from .validate import (PowerValidationRow, RegressionReport,
                       cross_model_power, generational_goal_check,
                       regression_check)

__all__ = [
    "FitResult", "GreedyFeatureSelector", "mean_abs_pct_error",
    "nnls", "ols", "predict",
    "format_comparison", "format_series", "format_table",
    "PowerValidationRow", "RegressionReport", "cross_model_power",
    "generational_goal_check", "regression_check",
]
