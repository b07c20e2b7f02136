"""The hardware core power proxy (Section IV-C, Fig. 15).

POWER10 implements a small set of event counters whose weighted sum the
power-management firmware reads as a fast power estimate.  The paper's
methodology: ~500 candidate counters observed during RTLSim power runs,
thousands of constrained model fits (input budget, non-negative
coefficients, intercept on/off), and a final 16-counter design with
9.8% active-power error (<5% counting static contributors), accurate
down to ~50-cycle granularity.

We reproduce the full flow: candidate generation (real events plus
derived/debug-counter style composites), the constrained design-space
sweep, counter selection, and windowed-prediction error vs time
granularity (Fig. 15b).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.regression import (FitResult, GreedyFeatureSelector,
                                   mean_abs_pct_error)
from ..core.activity import EVENT_NAMES
from ..core.config import CoreConfig
from ..errors import ModelError
from .einspower import EinspowerModel

# Derived candidate counters, standing in for the designers' debug
# instrumentation ("instrumentation counters added by designers to debug
# and validate design functionality").  Each is a named function of the
# base events, per cycle.
_DERIVED: Dict[str, Tuple[str, ...]] = {
    "mem_ops": ("load_issue", "store_issue"),
    "vector_ops": ("issue_vsx", "issue_fp"),
    "frontend_ops": ("fetch_instr", "decode_instr"),
    "translation_ops": ("erat_lookup", "tlb_lookup"),
    "queue_writes": ("issueq_write", "loadq_write", "storeq_write"),
    "cache_hierarchy": ("l2_access", "l3_access", "mem_access"),
    "flush_activity": ("flush_instr", "flush_event"),
    "rf_traffic": ("rf_read", "rf_write"),
    "mma_activity": ("issue_mma", "mma_acc_access", "mma_move"),
    "miss_activity": ("l1d_miss", "icache_miss", "erat_miss"),
}


def candidate_counter_names() -> List[str]:
    """All proxy counter candidates (base events + derived)."""
    return list(EVENT_NAMES) + list(_DERIVED)


def _feature_matrix(rate_rows: Sequence[Dict[str, float]]) -> np.ndarray:
    names = candidate_counter_names()
    rows = []
    for rates in rate_rows:
        row = [rates[ev] for ev in EVENT_NAMES]
        row += [sum(rates[e] for e in events)
                for events in _DERIVED.values()]
        rows.append(row)
    return np.array(rows)


@dataclass
class ProxyDesign:
    """A selected power-proxy implementation."""

    fit: FitResult
    include_static_w: float      # leakage + active-idle added on read

    @property
    def counters(self) -> List[str]:
        return self.fit.feature_names

    @property
    def num_counters(self) -> int:
        return len(self.fit.feature_names)

    def predict_active_w(self, features: np.ndarray) -> np.ndarray:
        return self.fit.predict(features)

    def predict_total_w(self, features: np.ndarray) -> np.ndarray:
        return self.predict_active_w(features) + self.include_static_w


@dataclass
class DesignPoint:
    """One entry of the proxy design-space sweep."""

    num_counters: int
    nonnegative: bool
    intercept: bool
    active_error_pct: float
    total_error_pct: float
    budget: int                  # the input budget this fit was given
    fit: FitResult


class PowerProxyDesigner:
    """Runs the counter-selection methodology for one configuration."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self._reference = EinspowerModel(config)

    def characterize(self, traces, *, warmup_fraction: float = 0.3,
                     engine=None):
        """Run workloads, returning (features, active_w, total_w).

        The runs form one engine plan (``engine=None`` means
        ``Engine()``).
        """
        from ..exec.executor import run_traces
        return self.characterize_runs(run_traces(
            self.config, traces, warmup_fraction=warmup_fraction,
            engine=engine))

    def characterize_runs(self, results):
        """(features, active_w, total_w) of finished runs."""
        if not results:
            raise ModelError("no workloads characterized")
        reports = [self._reference.report(r.activity) for r in results]
        return (_feature_matrix([dict(r.activity.rates())
                                 for r in results]),
                np.array([rep.active_w for rep in reports]),
                np.array([rep.total_w for rep in reports]))

    def design_space(self, features: np.ndarray, active_w: np.ndarray,
                     total_w: np.ndarray,
                     counter_budgets: Sequence[int] = (2, 4, 8, 16, 32),
                     ) -> List[DesignPoint]:
        """Sweep (input budget x coefficient sign x intercept).

        One greedy path per (sign, intercept) at the largest budget
        answers every smaller budget.
        """
        static = float(np.mean(total_w - active_w))
        sweeps = {
            (nonneg, intercept): GreedyFeatureSelector(
                candidate_counter_names(), nonnegative=nonneg,
                intercept=intercept).sweep(features, active_w,
                                           counter_budgets)
            for nonneg in (True, False) for intercept in (True, False)}
        points: List[DesignPoint] = []
        for budget in counter_budgets:
            for (nonneg, intercept), fits in sweeps.items():
                fit = fits[budget]
                pred = fit.predict(features)
                points.append(DesignPoint(
                    num_counters=len(fit.feature_indices),
                    nonnegative=nonneg,
                    intercept=intercept,
                    active_error_pct=mean_abs_pct_error(
                        active_w, pred),
                    total_error_pct=mean_abs_pct_error(
                        total_w, pred + static),
                    budget=budget, fit=fit))
        return points

    def select(self, features: np.ndarray, active_w: np.ndarray,
               total_w: np.ndarray, *, num_counters: int = 16,
               nonnegative: bool = True,
               space: Optional[Sequence[DesignPoint]] = None,
               ) -> ProxyDesign:
        """Pick the final proxy implementation (paper: 16 counters,
        hardware-friendly non-negative weights).

        ``space`` is a :meth:`design_space` sweep of the same data: a
        point at this budget, sign and intercept already holds the fit
        (a greedy path's prefix is the smaller budget's fit), so it is
        taken from there instead of walking the path again.
        """
        fits = [p.fit for p in space or ()
                if (p.budget, p.nonnegative, p.intercept)
                == (num_counters, nonnegative, True)]
        fit = fits[0] if fits else GreedyFeatureSelector(
            candidate_counter_names(), nonnegative=nonnegative,
            intercept=True).fit(features, active_w, num_counters)
        static = float(np.mean(total_w - active_w))
        return ProxyDesign(fit=fit, include_static_w=static)

    def granularity_error(self, design: ProxyDesign, trace,
                          window_cycles: Sequence[int],
                          *, warmup_fraction: float = 0.2,
                          engine=None) -> Dict[int, float]:
        """Fig. 15(b): total-power prediction error vs time granularity.

        The trace is re-measured in instruction windows sized to land
        near each requested cycle granularity; each window is measured
        at steady state (repeated with warmup, like the L1-contained
        proxies).  Small windows carry high sampling variance — few
        events per sample — reproducing the error blow-up below
        ~50 cycles.

        The whole trace runs first for its CPI, then each granularity's
        windows as one engine plan, all on one engine (``engine=None``
        means an ``Engine()`` built for this call and closed after it);
        a plan per granularity holds only that granularity's repeated
        windows in memory.
        """
        from ..exec.executor import Engine, run_traces
        if any(cycles <= 0 for cycles in window_cycles):
            raise ModelError("granularity must be positive")
        with (Engine() if engine is None
              else contextlib.nullcontext(engine)) as engine:
            base_cpi = run_traces(self.config, [trace],
                                  warmup_fraction=warmup_fraction,
                                  engine=engine)[0].cpi
            errors: Dict[int, float] = {}
            for cycles in window_cycles:
                instr_per_window = max(2, int(cycles / base_cpi))
                results = run_traces(
                    self.config,
                    [window.repeated(4)
                     for window in trace.windows(instr_per_window)],
                    warmup_fraction=0.5, engine=engine)
                feats = _feature_matrix([dict(r.activity.rates())
                                         for r in results])
                pred = design.predict_total_w(feats)
                truth_arr = np.array(
                    [self._reference.report(r.activity).total_w
                     for r in results])
                # firmware calibrates the proxy's constant offset against a
                # reference measurement; the granularity study isolates the
                # per-window (variance) error on top of that
                pred = pred + float(np.mean(truth_arr - pred))
                errors[cycles] = mean_abs_pct_error(truth_arr, pred)
            return errors
