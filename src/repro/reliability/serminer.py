"""SERMiner: power-aware latch reliability modeling (Section III-E).

Estimates soft-error vulnerability from latch switching characteristics
derived from simulation, using **clock utilization as the vulnerability
proxy** (latch data is refreshed every clocked cycle, so data-residency
metrics underestimate protection opportunities under POWER10's fine
clock gating).

Definitions (paper, Section III-E-1):

* **static-derated** — latches that never switch across the entire
  workload set (config latches excluded from the protection question);
* **runtime-derated** — latches with non-zero switching whose clock
  utilization stays below the Vulnerability Threshold (VT).  The VT is
  an activity cutoff swept from strict to permissive: ``VT=10%`` only
  calls a latch vulnerable when it is clocked in at least 90% of cycles
  in some workload, while ``VT=90%`` already flags latches clocked 10%
  of the time — so higher VT classifies more latches as vulnerable.

Derating is goodness: the fraction of latches an SER flip in which is
unlikely to propagate, i.e. that need no hardening at the chosen VT.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..core.config import CoreConfig
from ..errors import ModelError
from .latches import LatchGroup, LatchPopulation, build_population


@dataclass
class DeratingResult:
    """Derating metrics for one workload set at one or more VT values."""

    config_name: str
    workload_set: str
    total_latches: int
    static_derating_pct: float
    runtime_derating_pct: Dict[int, float]     # VT -> derating %

    def vulnerable_pct(self, vt: int) -> float:
        return 100.0 - self.runtime_derating_pct[vt]


class SERMiner:
    """Derating analysis driver for one core configuration.

    Its simulations run on ``engine`` (``None`` means ``Engine()``),
    one plan per analyzed workload set.
    """

    def __init__(self, config: CoreConfig,
                 population: LatchPopulation = None, *, engine=None):
        self.config = config
        self.population = population or build_population(config)
        self.engine = engine

    def _switching_matrix(self, traces,
                          warmup_fraction: float) -> np.ndarray:
        """latch-group x workload switching activity."""
        from ..exec.executor import run_traces
        rows: List[List[float]] = []
        groups = self.population.groups
        results = run_traces(self.config, traces,
                             warmup_fraction=warmup_fraction,
                             engine=self.engine)
        for trace, result in zip(traces, results):
            data_scale = 1.0
            if trace.metadata.get("data_init") == "zero":
                data_scale = 0.06
            switching = self.population.switching(
                result.activity, data_scale=data_scale)
            rows.append([switching[g] for g in groups])
        return np.array(rows).T        # groups x workloads

    def analyze(self, traces, *, vt_values: Sequence[int] = (10, 50, 90),
                workload_set: str = "suite",
                warmup_fraction: float = 0.2) -> DeratingResult:
        """Compute static and runtime derating over a workload set."""
        if not traces:
            raise ModelError("need at least one workload")
        for vt in vt_values:
            if not 0 < vt <= 100:
                raise ModelError(f"VT must be in (0, 100]: {vt}")
        matrix = self._switching_matrix(traces, warmup_fraction)
        groups = self.population.groups
        counts = np.array([g.count for g in groups], dtype=float)
        total = counts.sum()

        never_switches = matrix.max(axis=1) <= 1e-9
        static_pct = 100.0 * counts[never_switches].sum() / total

        peak = matrix.max(axis=1)        # worst case over workloads
        runtime: Dict[int, float] = {}
        for vt in vt_values:
            threshold = max(1.0 - vt / 100.0, 1e-9)
            vulnerable = peak >= threshold
            runtime[vt] = 100.0 * counts[~vulnerable].sum() / total
        return DeratingResult(
            config_name=self.config.name,
            workload_set=workload_set,
            total_latches=self.population.total_latches,
            static_derating_pct=static_pct,
            runtime_derating_pct=runtime)

    def per_suite(self, suites: Dict[str, Sequence],
                  vt_values: Sequence[int] = (10, 50, 90),
                  ) -> List[DeratingResult]:
        """Fig. 13: derating per testcase suite."""
        return [self.analyze(traces, vt_values=vt_values,
                             workload_set=name)
                for name, traces in suites.items()]


def protection_candidates(miner: SERMiner, traces, *,
                          vt: int = 50) -> List[LatchGroup]:
    """Latch groups that would be protected/hardened at the given VT —
    SERMiner's "key components of interest ... that would most benefit
    from protection"."""
    matrix = miner._switching_matrix(traces, warmup_fraction=0.2)
    groups = miner.population.groups
    threshold = max(1.0 - vt / 100.0, 1e-9)
    vulnerable = matrix.max(axis=1) >= threshold
    return [g for g, v in zip(groups, vulnerable) if v]


def compare_generations(p9_config: CoreConfig, p10_config: CoreConfig,
                        traces, *,
                        vt_values: Sequence[int] = tuple(
                            range(10, 100, 10)),
                        engine=None) -> Dict[str, DeratingResult]:
    """Fig. 14: POWER9 vs POWER10 derating averaged across workloads."""
    out = {}
    for config in (p9_config, p10_config):
        miner = SERMiner(config, engine=engine)
        out[config.name] = miner.analyze(
            traces, vt_values=vt_values, workload_set="all")
    return out
