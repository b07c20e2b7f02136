"""APEX: accelerated power extraction (Section III-C).

The paper's APEX instruments the RTL with LFSR switching counters, runs
on the Awan hardware-accelerated platform, and extracts activity in
batches at configurable intervals — achieving ~5000x the speed of
software RTLSim power integration with identical accuracy, because the
power math is done on *counts per interval* instead of per-cycle signal
waveforms.

This module reproduces the methodology contrast:

* :func:`detailed_reference_power` integrates power the RTLSim way —
  walking every cycle of an expanded activity schedule (deliberately
  the slow path; it is the accuracy reference).
* :class:`Apex` samples the same activity through an
  :class:`~repro.power.lfsr.LfsrBank` at interval boundaries and
  computes power from the extracted counts with vectorized math.

Both produce the same energy totals (tests assert equality within
rounding), and ``benchmarks/bench_apex_speedup.py`` measures the
speedup ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.activity import ActivityCounters, EVENT_NAMES
from ..core.config import CoreConfig
from ..errors import ModelError
from ..obs.tracing import span as _obs_span
from .einspower import EinspowerModel
from .lfsr import LfsrBank


@dataclass
class ApexInterval:
    """One extraction interval: counts plus on-the-fly power."""

    index: int
    instructions: int
    cycles: int
    counts: Dict[str, int]
    power_w: float
    ipc: float


@dataclass
class ApexRun:
    """Result of an APEX-style characterization of one workload."""

    workload: str
    config_name: str
    intervals: List[ApexInterval]
    total_power_w: float
    total_ipc: float
    elapsed_seconds: float
    metadata: Dict[str, object] = field(default_factory=dict)


class Apex:
    """APEX characterization driver for one core configuration."""

    def __init__(self, config: CoreConfig,
                 signals: Sequence[str] = EVENT_NAMES):
        self.config = config
        self.signals = list(signals)

    def run(self, trace, *, interval_instructions: int = 2000,
            warmup_fraction: float = 0.0, engine=None) -> ApexRun:
        """Characterize a workload with interval-batched extraction.

        Window simulations go through the execution engine (pass
        ``engine`` to share workers/cache; None means the environment
        default); the LFSR fold stays serial and in interval order,
        because the bank is stateful across intervals.
        """
        if interval_instructions <= 0:
            raise ModelError("interval must be positive")
        from ..exec.executor import Engine, run_sim_plan, sim_task
        if engine is None:
            engine = Engine()
        with _obs_span("apex.run", "power",
                       workload=getattr(trace, "name", "?"),
                       config=self.config.name,
                       interval_instructions=interval_instructions) as sp:
            bank = LfsrBank(self.signals)
            intervals: List[ApexInterval] = []
            windows = trace.windows(interval_instructions)
            results = run_sim_plan(
                engine,
                [sim_task(self.config, w,
                          warmup_fraction=warmup_fraction)
                 for w in windows])
            total_cycles = 0
            total_instr = 0
            energy_weighted = 0.0
            for i, result in enumerate(results):
                act = result.activity
                bank.record({ev: act.events[ev] for ev in self.signals})
                counts = bank.extract()
                power = apex_power_from_activity(
                    self.config, ActivityCounters(
                        cycles=act.cycles, events=counts,
                        unit_busy_cycles=act.unit_busy_cycles))
                intervals.append(ApexInterval(
                    index=i, instructions=act.instructions,
                    cycles=act.cycles, counts=counts, power_w=power,
                    ipc=act.ipc))
                total_cycles += act.cycles
                total_instr += act.instructions
                energy_weighted += power * act.cycles
            if not intervals:
                raise ModelError("trace produced no intervals")
            sp.set(intervals=len(intervals))
            return ApexRun(
                workload=getattr(trace, "name", "?"),
                config_name=self.config.name,
                intervals=intervals,
                total_power_w=energy_weighted / total_cycles,
                total_ipc=total_instr / total_cycles,
                elapsed_seconds=sp.duration_s,
                metadata={"interval_instructions": interval_instructions,
                          "chip_model":
                          not self.config.hierarchy.infinite_l2})


def apex_power_from_activity(config: CoreConfig,
                             activity: ActivityCounters) -> float:
    """APEX fast path on an existing activity record: vectorized count x
    energy dot product plus clock/leakage."""
    pcfg = config.power
    names = list(activity.events.keys())
    counts = np.array([activity.events[n] for n in names], dtype=float)
    energies = np.array([pcfg.energy.energy_pj(n) for n in names])
    runtime_ns = activity.cycles / pcfg.frequency_ghz
    dynamic_w = float(counts @ energies) / runtime_ns / 1000.0
    floor = pcfg.gating_floor
    clock_w = sum(
        w * (floor + (1.0 - floor) * activity.utilization(u))
        for u, w in pcfg.unit_clock_w.items())
    return dynamic_w + clock_w + pcfg.leakage_w + (
        pcfg.mma_leakage_w if config.issue.mma_present else 0.0)


def detailed_reference_power(config: CoreConfig,
                             activity: ActivityCounters,
                             *, max_cycles: Optional[int] = None) -> float:
    """The accuracy-reference slow path: integrate energy cycle by cycle
    over an expanded activity schedule, the way software RTLSim power
    integration walks signal waveforms.

    Events are spread uniformly over the run (the schedule RTLSim would
    see for a steady-state proxy loop); the result matches the fast path
    to floating-point rounding, which is the paper's "identical
    accuracy" claim — only the cost differs.
    """
    pcfg = config.power
    cycles = activity.cycles if max_cycles is None \
        else min(activity.cycles, max_cycles)
    if cycles <= 0:
        raise ModelError("activity has no cycles")
    # per-event: (energy, per-cycle rate)
    rates = [(pcfg.energy.energy_pj(name), count / activity.cycles)
             for name, count in activity.events.items() if count]
    floor = pcfg.gating_floor
    clock_per_cycle_w = sum(
        w * (floor + (1.0 - floor) * activity.utilization(u))
        for u, w in pcfg.unit_clock_w.items())
    total_pj = 0.0
    accumulators = [0.0] * len(rates)
    for _cycle in range(cycles):
        # walk every tracked signal every cycle, firing events whenever
        # the accumulated fractional count crosses one
        for i, (energy, rate) in enumerate(rates):
            accumulators[i] += rate
            if accumulators[i] >= 1.0:
                fired = int(accumulators[i])
                accumulators[i] -= fired
                total_pj += fired * energy
    # leftover fractional events
    for i, (energy, _rate) in enumerate(rates):
        total_pj += accumulators[i] * energy
    runtime_ns = cycles / pcfg.frequency_ghz
    dynamic_w = total_pj / runtime_ns / 1000.0
    return dynamic_w + clock_per_cycle_w + pcfg.leakage_w + (
        pcfg.mma_leakage_w if config.issue.mma_present else 0.0)


def compare_core_vs_chip(core_config: CoreConfig, chip_config: CoreConfig,
                         traces, *, warmup_fraction: float = 0.3,
                         engine=None):
    """Run the Fig. 10 experiment: the same workloads through the core
    model (infinite L2) and the chip model (full hierarchy); returns
    (ipc, power) points for both.

    All (workload, model) runs form one flat engine plan, so workers
    and the result cache cover the whole experiment.
    """
    if not core_config.hierarchy.infinite_l2:
        raise ModelError("core model must be built with infinite_l2=True")
    if chip_config.hierarchy.infinite_l2:
        raise ModelError("chip model must have the full hierarchy")
    from ..exec.executor import Engine, run_sim_plan, sim_task
    if engine is None:
        engine = Engine()
    traces = list(traces)
    pairs = [(trace, label, config)
             for trace in traces
             for label, config in (("core", core_config),
                                   ("chip", chip_config))]
    results = run_sim_plan(
        engine,
        [sim_task(config, trace, warmup_fraction=warmup_fraction)
         for trace, _label, config in pairs])
    points = [{"workload": trace.name} for trace in traces]
    for k, ((_trace, label, config), result) in enumerate(
            zip(pairs, results)):
        row = points[k // 2]
        report = EinspowerModel(config).report(result.activity)
        row[f"{label}_ipc"] = result.ipc
        row[f"{label}_power_w"] = report.total_w
    return points
