"""High-level simulation API: single runs and the P9/P10 comparison.

This is the public entry point most examples and benchmarks use:

>>> from repro.core import power10_config, simulate_trace
>>> result = simulate_trace(power10_config(), trace)
>>> result.ipc, result.power_w
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from ..errors import SimulationError
from ..obs.metrics import get_registry
from ..obs.tracing import span as _obs_span
from .config import CoreConfig
from .pipeline import SimResult, simulate


def simulate_trace(config: CoreConfig, trace, *,
                   with_power: bool = True,
                   sampler=None,
                   warmup_fraction: float = 0.0,
                   max_instructions: Optional[int] = None,
                   ) -> "RunMeasurement":
    """Simulate one trace; optionally attach an Einspower power report.

    ``sampler`` (a :class:`repro.obs.sampler.CycleIntervalSampler`) is
    forwarded to the timing model for interval telemetry capture;
    ``warmup_fraction``/``max_instructions`` pass through to
    :func:`repro.core.pipeline.simulate`, whose one path replays the
    extracted activity stream, samplers and fault injectors included.
    """
    with _obs_span("simulator.simulate_trace", "core",
                   config=config.name,
                   trace=getattr(trace, "name", "?")) as sp:
        result = simulate(config, trace, sampler=sampler,
                          warmup_fraction=warmup_fraction,
                          max_instructions=max_instructions)
        measurement = measurement_from_result(config, result,
                                              with_power=with_power)
        if measurement.power_w is not None:
            sp.set(power_w=round(measurement.power_w, 3))
        registry = get_registry()
        registry.histogram(
            "repro_run_seconds",
            "wall time of simulate_trace").observe(
                sp.duration_s, config=config.name)
    return measurement


def measurement_from_result(config: CoreConfig, result: SimResult, *,
                            with_power: bool = True) -> "RunMeasurement":
    """Attach the power report to an existing timing result.

    Shared by the direct path above and the engine path below: power is
    always recomputed in the calling process from the (exact) activity
    counters, so a cached or worker-produced :class:`SimResult` yields
    a bit-identical :class:`RunMeasurement`.
    """
    power_w = None
    breakdown = None
    if with_power:
        from ..power.einspower import EinspowerModel
        report = EinspowerModel(config).report(result.activity)
        power_w = report.total_w
        breakdown = report
    get_registry().counter(
        "repro_runs_total",
        "simulate_trace invocations").inc(
            config=config.name, power=with_power)
    return RunMeasurement(result=result, power_w=power_w,
                          power_report=breakdown)


@dataclass
class RunMeasurement:
    """SimResult plus the attached power report (if requested)."""

    result: SimResult
    power_w: Optional[float] = None
    power_report: Optional[object] = None

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def cpi(self) -> float:
        return self.result.cpi

    @property
    def flops_per_cycle(self) -> float:
        return self.result.flops_per_cycle

    @property
    def perf_per_watt(self) -> float:
        if self.power_w is None:
            raise SimulationError("run was measured without power")
        if self.power_w == 0.0:
            raise SimulationError(
                "measured power is zero; perf/watt is undefined")
        return self.result.ipc / self.power_w

    @property
    def energy_per_instruction_nj(self) -> float:
        """nJ per completed instruction (power x time / instructions)."""
        if self.power_w is None:
            raise SimulationError("run was measured without power")
        freq_hz = 1e9 * _freq_of(self.result)
        seconds = self.result.cycles / freq_hz
        return 1e9 * self.power_w * seconds / self.result.instructions


def _freq_of(result: SimResult) -> float:
    return float(result.metadata.get("frequency_ghz", 4.0))


def weighted_comparison(
        rows: Iterable[Tuple[str, float, float, float, float, float]],
        ) -> Dict[str, object]:
    """The POWER10-vs-POWER9 comparison over a weighted workload list.

    Each row is ``(name, weight, ipc9, power9_w, ipc10, power10_w)``.
    The answer (the ``/v1/compare`` result) carries one entry per
    workload and the weighted aggregate: the mean perf and power
    ratios, and their quotient as the perf/W ratio (the paper's 1.3x
    at 0.5x -> 2.6x, Table I).
    """
    workloads = []
    perf = power = wsum = 0.0
    for name, weight, ipc9, power9_w, ipc10, power10_w in rows:
        wsum += weight
        perf += weight * ipc10 / ipc9
        power += weight * power10_w / power9_w
        workloads.append({
            "workload": name, "weight": weight,
            "p9_ipc": ipc9, "p10_ipc": ipc10,
            "p9_power_w": power9_w, "p10_power_w": power10_w,
            "perf_ratio": ipc10 / ipc9,
            "power_ratio": power10_w / power9_w})
    return {"workloads": workloads,
            "aggregate": {
                "perf_ratio": perf / wsum,
                "power_ratio": power / wsum,
                "perf_per_watt_ratio": perf / power}}
