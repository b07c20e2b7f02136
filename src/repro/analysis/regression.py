"""Regression utilities for counter-based power modeling.

The paper builds its M1-linked power models and hardware power proxy
with "counter-based power modeling methodologies based on machine
learning techniques": linear models over performance-counter rates,
fitted under implementation constraints (bounded input counts,
non-negative coefficients, with/without intercept).  This module
provides exactly that toolbox:

* :func:`ols` — ordinary least squares (numpy lstsq),
* :func:`nnls` — non-negative least squares (``scipy.optimize.nnls``,
  with an unconstrained intercept found by alternating solves),
* :class:`GreedyFeatureSelector` — forward stepwise selection to the
  requested input budget, the mechanism behind Figs. 11 and 15(a).
  One selection path answers every budget up to its own: the fit with
  budget *k* is the path's *k*-th step (:meth:`~GreedyFeatureSelector.
  sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError


def _design(x: np.ndarray, intercept: bool) -> np.ndarray:
    if intercept:
        return np.hstack([x, np.ones((x.shape[0], 1))])
    return x


def ols(x: np.ndarray, y: np.ndarray, *,
        intercept: bool = True) -> np.ndarray:
    """Least-squares fit; returns coefficients (intercept last if any)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
        raise ModelError("design matrix and target sizes do not match")
    design = _design(x, intercept)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef


def nnls(x: np.ndarray, y: np.ndarray, *,
         intercept: bool = True) -> np.ndarray:
    """Non-negative least squares via scipy, intercept unconstrained."""
    from scipy.optimize import nnls as scipy_nnls
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not intercept:
        coef, _ = scipy_nnls(x, y)
        return coef
    # unconstrained intercept: alternate between intercept and nn coefs
    icept = float(np.mean(y))
    coef = np.zeros(x.shape[1])
    for _ in range(12):
        coef, _ = scipy_nnls(x, y - icept)
        icept = float(np.mean(y - x @ coef))
        if not math.isfinite(icept):
            # a denormal column overflowed ``coef``: scipy would refuse
            # the NaN target of another round, and the caller rejects
            # this non-finite fit
            break
    return np.append(coef, icept)


def predict(x: np.ndarray, coef: np.ndarray, *,
            intercept: bool = True) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _design(x, intercept) @ coef


def mean_abs_pct_error(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Mean |error| as a percentage of the true value (paper's metric)."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    denom = np.where(np.abs(y_true) < 1e-12, 1e-12, np.abs(y_true))
    return float(np.mean(np.abs(y_true - y_pred) / denom) * 100.0)


@dataclass
class FitResult:
    """A fitted constrained linear model."""

    feature_indices: List[int]
    feature_names: List[str]
    coefficients: np.ndarray
    intercept_used: bool
    nonnegative: bool
    train_error_pct: float

    def predict(self, x_full: np.ndarray) -> np.ndarray:
        x = np.asarray(x_full, dtype=float)[:, self.feature_indices]
        return predict(x, self.coefficients, intercept=self.intercept_used)


class GreedyFeatureSelector:
    """Forward stepwise selection of model inputs.

    Mirrors the paper's model-design exploration: "thousands of models
    were generated with different modeling constraints, such as number
    of inputs, coefficient ranges (all positive or not), intercepts
    (with and without)".
    """

    def __init__(self, feature_names: Sequence[str], *,
                 nonnegative: bool = False, intercept: bool = True):
        self.feature_names = list(feature_names)
        self.nonnegative = nonnegative
        self.intercept = intercept

    def _fit(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if self.nonnegative:
            return nnls(x, y, intercept=self.intercept)
        return ols(x, y, intercept=self.intercept)

    def path(self, x: np.ndarray, y: np.ndarray,
             max_inputs: int) -> List[FitResult]:
        """Select up to ``max_inputs`` features greedily by train error;
        returns the fit after each accepted step.

        Selection stops early when a step no longer improves the train
        error.  A candidate whose coefficients or train error are not
        finite (a solver overflow) is never taken: a round without a
        finite candidate ends the path, or raises
        :class:`~repro.errors.ModelError` if it is the first.  The stop
        rule depends only on the path so far, so a smaller budget ``k``
        selects exactly this path's first ``k`` steps:
        ``path(x, y, K)[min(k, len(path)) - 1]`` is ``fit(x, y, k)`` for
        every ``k <= K``.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if max_inputs <= 0:
            raise ModelError("max_inputs must be positive")
        if x.ndim != 2 or x.shape[1] != len(self.feature_names):
            raise ModelError("feature-name count mismatch")
        if x.shape[1] == 0:
            raise ModelError("no candidate features to select from")
        chosen: List[int] = []
        remaining = list(range(x.shape[1]))
        steps: List[FitResult] = []
        best_err = float("inf")
        while remaining and len(chosen) < max_inputs:
            round_best: Optional[Tuple[float, int, np.ndarray]] = None
            for idx in remaining:
                cols = chosen + [idx]
                coef = self._fit(x[:, cols], y)
                if not np.all(np.isfinite(coef)):
                    continue
                err = mean_abs_pct_error(
                    y, predict(x[:, cols], coef, intercept=self.intercept))
                if not np.isfinite(err):
                    continue
                if round_best is None or err < round_best[0]:
                    round_best = (err, idx, coef)
            if round_best is None:
                if not chosen:
                    raise ModelError("no candidate feature gives a finite fit")
                break
            err, idx, coef = round_best
            if err >= best_err - 1e-9 and chosen:
                break       # no further improvement
            chosen.append(idx)
            remaining.remove(idx)
            best_err = err
            steps.append(FitResult(
                feature_indices=list(chosen),
                feature_names=[self.feature_names[i] for i in chosen],
                coefficients=coef,
                intercept_used=self.intercept,
                nonnegative=self.nonnegative,
                train_error_pct=err))
        return steps

    def fit(self, x: np.ndarray, y: np.ndarray,
            max_inputs: int) -> FitResult:
        """Select up to ``max_inputs`` features greedily by train error."""
        return self.path(x, y, max_inputs)[-1]

    def sweep(self, x: np.ndarray, y: np.ndarray,
              budgets: Sequence[int]) -> Dict[int, FitResult]:
        """``{k: fit(x, y, k)}`` for every budget, from one path at the
        largest."""
        if not budgets:
            return {}
        if min(budgets) <= 0:
            raise ModelError("input budgets must be positive")
        path = self.path(x, y, max(budgets))
        return {k: path[min(k, len(path)) - 1] for k in budgets}
