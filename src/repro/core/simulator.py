"""High-level simulation API: single runs, suites, and SMT sweeps.

This is the public entry point most examples and benchmarks use:

>>> from repro.core import power10_config, simulate_trace
>>> result = simulate_trace(power10_config(), trace)
>>> result.ipc, result.power_w
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from ..errors import SimulationError
from ..obs.metrics import get_registry
from ..obs.tracing import span as _obs_span
from .config import CoreConfig
from .pipeline import SimResult, simulate
from .activity import ActivityCounters


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


@dataclass
class SuiteResult:
    """Weighted aggregate over a suite of traces (e.g. SPECint proxies)."""

    runs: List[RunMeasurement]
    weights: List[float]

    def __post_init__(self) -> None:
        if len(self.runs) != len(self.weights):
            raise SimulationError("runs and weights must align")
        if not self.runs:
            raise SimulationError("empty suite result")

    @property
    def mean_ipc(self) -> float:
        return self._weighted(lambda r: r.ipc)

    @property
    def mean_power_w(self) -> float:
        return self._weighted(lambda r: r.power_w or 0.0)

    @property
    def mean_cpi(self) -> float:
        return self._weighted(lambda r: r.cpi)

    @property
    def perf_per_watt(self) -> float:
        power = self.mean_power_w
        if power <= 0:
            raise SimulationError("suite has no power data")
        return self.mean_ipc / power

    @property
    def total_flushed(self) -> int:
        return sum(r.result.flushed_instructions for r in self.runs)

    @property
    def total_instructions(self) -> int:
        return sum(r.result.instructions for r in self.runs)

    def _weighted(self, fn) -> float:
        total_w = sum(self.weights)
        return sum(fn(r) * w for r, w in zip(self.runs, self.weights)) \
            / total_w


def simulate_suite(config: CoreConfig, traces: Sequence,
                   with_power: bool = True, sampler=None,
                   engine=None) -> SuiteResult:
    """Run a whole trace suite and aggregate by trace weight.

    Runs route through the execution engine
    (:class:`repro.exec.Engine`), so worker fan-out and the result
    cache apply; pass ``engine`` to share one across calls, or leave it
    None for the environment default (``$REPRO_WORKERS`` /
    ``$REPRO_CACHE_DIR``).  A shared ``sampler`` collects one telemetry
    segment per trace (run labels distinguish them) and forces the
    direct in-process path, since samplers are stateful.
    """
    if sampler is not None:
        runs = [simulate_trace(config, t, with_power=with_power,
                               sampler=sampler)
                for t in traces]
    else:
        from ..exec.executor import Engine, run_sim_plan, sim_task
        if engine is None:
            engine = Engine()
        results = run_sim_plan(
            engine, [sim_task(config, t) for t in traces])
        runs = [measurement_from_result(config, r,
                                        with_power=with_power)
                for r in results]
    weights = [getattr(t, "weight", 1.0) for t in traces]
    return SuiteResult(runs=runs, weights=weights)


def compare_configs(configs: Sequence[CoreConfig], traces: Sequence,
                    with_power: bool = True,
                    engine=None) -> Dict[str, SuiteResult]:
    """Run the same suite across configs; keys are config names.

    All (config, trace) runs go to the engine as one flat plan, so
    ``workers=N`` parallelizes across the whole cross product rather
    than one suite at a time.
    """
    from ..exec.executor import Engine, run_sim_plan, sim_task
    if engine is None:
        engine = Engine()
    traces = list(traces)
    results = run_sim_plan(
        engine, [sim_task(c, t) for c in configs for t in traces])
    weights = [getattr(t, "weight", 1.0) for t in traces]
    out: Dict[str, SuiteResult] = {}
    for ci, config in enumerate(configs):
        block = results[ci * len(traces):(ci + 1) * len(traces)]
        runs = [measurement_from_result(config, r,
                                        with_power=with_power)
                for r in block]
        out[config.name] = SuiteResult(runs=runs,
                                       weights=list(weights))
    return out
