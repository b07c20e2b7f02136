"""Cross-model / cross-environment validation (Section III-A/III-B).

The paper's proxies exist partly so the *same* workloads can run on
every environment (RTLSim, M1, APEX, hardware) and results can be
cross-checked.  This module provides the comparison machinery:

* :func:`cross_model_power` — detailed (Einspower) vs APEX vs a fitted
  counter model on the same runs;
* :func:`regression_check` — the project-tracking use: compare one
  model version's suite results against a stored baseline and flag
  per-workload regressions (the paper's "detect performance regressions
  ... and pinpoint cases where core performance does not achieve the
  generational performance improvement goals").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from ..core.config import CoreConfig
from ..errors import ModelError
from ..power.apex import apex_power_from_activity
from ..power.einspower import EinspowerModel


@dataclass
class PowerValidationRow:
    workload: str
    einspower_w: float
    apex_w: float
    model_w: float

    @property
    def apex_error_pct(self) -> float:
        return abs(self.apex_w - self.einspower_w) \
            / self.einspower_w * 100.0

    @property
    def model_error_pct(self) -> float:
        return abs(self.model_w - self.einspower_w) \
            / self.einspower_w * 100.0


def cross_model_power(config: CoreConfig, traces, model=None, *,
                      warmup_fraction: float = 0.3,
                      ) -> List[PowerValidationRow]:
    """Validate APEX and (optionally) a fitted counter model against the
    Einspower reference on the same activity (one engine plan)."""
    import numpy as np
    from ..core.activity import EVENT_NAMES
    from ..exec.executor import run_traces
    traces = list(traces)
    results = run_traces(config, traces, warmup_fraction=warmup_fraction)
    reference = EinspowerModel(config)
    rows: List[PowerValidationRow] = []
    for trace, result in zip(traces, results):
        ein = reference.report(result.activity)
        apex = apex_power_from_activity(config, result.activity)
        model_w = ein.total_w
        if model is not None:
            rates = result.activity.rates()
            features = np.array([[rates[ev] for ev in EVENT_NAMES]])
            static = ein.total_w - ein.active_w
            model_w = float(model.predict(features)[0]) + static
        rows.append(PowerValidationRow(
            workload=trace.name, einspower_w=ein.total_w,
            apex_w=apex, model_w=model_w))
    if not rows:
        raise ModelError("no workloads to validate")
    return rows


@dataclass
class RegressionReport:
    regressions: Dict[str, float]       # workload -> ratio vs baseline
    improvements: Dict[str, float]
    unchanged: Dict[str, float]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions)


def regression_check(current: Mapping[str, float],
                     baseline: Mapping[str, float], *,
                     tolerance: float = 0.02) -> RegressionReport:
    """Compare per-workload metrics against a stored baseline.

    ``current``/``baseline`` map workload name to a
    higher-is-better metric (IPC, perf/W).  Workloads missing from
    either side are an error — silently dropping coverage is how
    regressions escape.
    """
    if set(current) != set(baseline):
        missing = set(current) ^ set(baseline)
        raise ModelError(f"workload sets differ: {sorted(missing)}")
    if tolerance < 0:
        raise ModelError("tolerance must be non-negative")
    regressions, improvements, unchanged = {}, {}, {}
    for name, value in current.items():
        base = baseline[name]
        if base <= 0:
            raise ModelError(f"baseline for {name} must be positive")
        ratio = value / base
        if ratio < 1.0 - tolerance:
            regressions[name] = ratio
        elif ratio > 1.0 + tolerance:
            improvements[name] = ratio
        else:
            unchanged[name] = ratio
    return RegressionReport(regressions=regressions,
                            improvements=improvements,
                            unchanged=unchanged)


def generational_goal_check(p9_ipc: Mapping[str, float],
                            p10_ipc: Mapping[str, float], *,
                            goal: float = 1.25) -> Dict[str, float]:
    """Workloads falling short of the generational improvement goal
    (the paper's target: "at least a 25% boost in per-core throughput").
    Returns {workload: achieved_ratio} for the shortfalls."""
    if set(p9_ipc) != set(p10_ipc):
        raise ModelError("workload sets differ")
    return {name: p10_ipc[name] / p9_ipc[name]
            for name in p9_ipc
            if p10_ipc[name] / p9_ipc[name] < goal}
