"""Campaign runner: N seeded fault-injection runs with checkpointing.

The methodology is the counter-vs-ground-truth loop the related work
applies to power models, pointed at the defensive stack instead: every
run draws a reproducible fault schedule, executes the timing model with
the injector installed, exercises the PM stack (fail-safe OCC + droop
loop) on the run's telemetry, and classifies the outcome against a
golden (injection-free) reference:

* ``masked`` — nothing observable happened;
* ``detected`` — a validity check tripped (counter parity analog,
  strict event accounting, model input validation) and the run
  fail-stopped;
* ``degraded`` — the run completed architecturally correct but the
  defenses engaged (timing perturbation, OCC last-good/fail-safe
  substitution, droop throttle);
* ``sdc`` — silent data corruption: architected outputs differ and no
  defense noticed;
* ``hang`` — the per-run cycle-budget watchdog fired
  (:class:`~repro.errors.HangError`), converting a runaway simulation
  into a classified outcome instead of wedging the campaign.

The runner writes a JSON checkpoint after *every* run; an interrupted
campaign resumed from its checkpoint produces results bit-identical to
an uninterrupted one, because per-run seeds derive only from
``(campaign seed, run index)`` and runs share no mutable state.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..core import power9_config, power10_config
from ..core.pipeline import simulate
from ..errors import HangError, ReproError, ResilienceError
from ..obs.metrics import get_registry
from ..obs.sampler import CycleIntervalSampler
from ..pm.dds import DigitalDroopSensor, SupplyModel
from ..pm.occ import OnChipController
from ..pm.throttle import CoarseThrottle, run_throttled_current
from ..pm.wof import WofDesignPoint, WofGovernor
from ..reliability.latches import build_population
from .faults import FaultSchedule, generate_schedule
from .injector import FaultInjector, injection

OUTCOMES = ("masked", "detected", "degraded", "sdc", "hang")

CHECKPOINT_VERSION = 1


# The campaign workload namespace is the shared one: identical names
# fingerprint to identical exec-cache keys everywhere.
from ..workloads.resolve import resolve_workload  # noqa: E402  (re-export)


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's results.

    Frozen: the fingerprint of this record guards checkpoint resume —
    resuming under a different configuration is an error, not a silent
    mix of incompatible runs.
    """

    seed: int = 0
    runs: int = 8
    workload: str = "xz"
    instructions: int = 2000
    faults_per_run: int = 3
    generation: str = "power10"          # "power9" | "power10"
    interval_cycles: int = 500
    cycle_budget_factor: float = 8.0
    staleness_budget: int = 2

    def __post_init__(self) -> None:
        if self.runs <= 0:
            raise ResilienceError("campaign needs at least one run")
        if self.instructions <= 0:
            raise ResilienceError("instructions must be positive")
        if self.faults_per_run <= 0:
            raise ResilienceError("faults_per_run must be positive")
        if self.generation not in ("power9", "power10"):
            raise ResilienceError(
                f"unknown generation {self.generation!r}")
        if self.cycle_budget_factor <= 1.0:
            raise ResilienceError(
                "cycle_budget_factor must exceed 1.0 (the golden run)")

    def fingerprint(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def run_seed(self, index: int) -> int:
        """Per-run seed: a pure function of (campaign seed, index)."""
        return (self.seed * 1_000_003 + index * 7919 + 1) & 0x7FFFFFFF


@dataclass
class RunRecord:
    """One campaign run's classified outcome."""

    index: int
    seed: int
    outcome: str
    detail: str
    cycles: int                       # -1 when the run fail-stopped
    schedule: Dict[str, object]       # FaultSchedule.to_json()
    injections: List[Dict[str, object]] = field(default_factory=list)
    pm: Dict[str, int] = field(default_factory=dict)

    def to_json(self) -> Dict[str, object]:
        return {"index": self.index, "seed": self.seed,
                "outcome": self.outcome, "detail": self.detail,
                "cycles": self.cycles, "schedule": self.schedule,
                "injections": list(self.injections),
                "pm": dict(self.pm)}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "RunRecord":
        try:
            return cls(index=int(data["index"]), seed=int(data["seed"]),
                       outcome=str(data["outcome"]),
                       detail=str(data["detail"]),
                       cycles=int(data["cycles"]),
                       schedule=dict(data["schedule"]),
                       injections=list(data["injections"]),
                       pm=dict(data.get("pm", {})))
        except (KeyError, TypeError, ValueError) as exc:
            raise ResilienceError(
                f"malformed campaign run record: {exc}") from exc


@dataclass
class CampaignResult:
    """All completed runs of one campaign."""

    config: CampaignConfig
    records: List[RunRecord]
    golden_cycles: int

    def counts(self) -> Dict[str, int]:
        out = {name: 0 for name in OUTCOMES}
        for record in self.records:
            out[record.outcome] += 1
        return out

    @property
    def complete(self) -> bool:
        return len(self.records) >= self.config.runs

    def to_json(self) -> Dict[str, object]:
        return {"config": asdict(self.config),
                "fingerprint": self.config.fingerprint(),
                "golden_cycles": self.golden_cycles,
                "counts": self.counts(),
                "records": [r.to_json() for r in self.records]}


class CampaignRunner:
    """Executes a campaign, checkpointing after every run."""

    def __init__(self, config: CampaignConfig, *,
                 checkpoint: Optional[os.PathLike] = None):
        self.config = config
        self.core_config = (power9_config()
                            if config.generation == "power9"
                            else power10_config())
        self.trace = resolve_workload(config.workload,
                                      config.instructions)
        self.population = build_population(self.core_config)
        self.checkpoint_path = (Path(checkpoint)
                                if checkpoint is not None else None)
        self._golden: Optional[Dict[str, object]] = None

    # ---- golden reference --------------------------------------------

    def golden(self) -> Dict[str, object]:
        """The injection-free reference run (computed once, lazily).

        Deterministic, so a resumed campaign recomputes the identical
        reference instead of trusting the checkpoint's copy; the
        checkpoint's golden cycle count is only used as a consistency
        check.
        """
        if self._golden is None:
            sampler = CycleIntervalSampler(self.config.interval_cycles)
            result = simulate(self.core_config, self.trace,
                              sampler=sampler)
            from ..power.einspower import EinspowerModel
            power_w = EinspowerModel(
                self.core_config).report(result.activity).total_w
            self._golden = {
                "cycles": result.cycles,
                "instructions": result.instructions,
                "flops": result.flops,
                "events": dict(result.activity.events),
                "power_w": power_w,
                "n_intervals": max(1, len(sampler.samples)),
                "activity": result.activity,
            }
        return self._golden

    # ---- one run ------------------------------------------------------

    def run_one(self, index: int) -> RunRecord:
        golden = self.golden()
        seed = self.config.run_seed(index)
        schedule = generate_schedule(
            seed,
            population=self.population,
            n_instructions=len(self.trace),
            n_intervals=int(golden["n_intervals"]),
            n_faults=self.config.faults_per_run)
        budget = int(golden["cycles"]
                     * self.config.cycle_budget_factor)
        injector = FaultInjector(schedule, cycle_budget=budget)
        sampler = CycleIntervalSampler(self.config.interval_cycles)
        registry = get_registry()
        for fault in schedule.faults:
            registry.counter(
                "repro_faults_injected_total",
                "faults delivered by injection campaigns").inc(
                    kind=fault.kind)

        outcome = detail = None
        cycles = -1
        pm_stats: Dict[str, int] = {}
        try:
            with injection(injector):
                result = simulate(self.core_config, self.trace,
                                  sampler=sampler)
        except HangError as exc:
            outcome, detail = "hang", str(exc)
        except ReproError as exc:
            outcome, detail = "detected", \
                f"{type(exc).__name__}: {exc}"
        else:
            cycles = result.cycles
            pm_stats = self._pm_phase(injector, sampler.samples)
            outcome, detail = self._classify(golden, result, pm_stats)

        registry.counter(
            "repro_campaign_runs_total",
            "campaign runs classified, by outcome").inc(outcome=outcome)
        return RunRecord(
            index=index, seed=seed, outcome=outcome, detail=detail,
            cycles=cycles, schedule=schedule.to_json(),
            injections=[r.to_json() for r in injector.records],
            pm=pm_stats)

    def _pm_phase(self, injector: FaultInjector,
                  samples) -> Dict[str, int]:
        """Drive the fail-safe OCC and the droop loop from this run's
        telemetry; returns the defense counters."""
        if not samples:
            return {"occ_degraded": 0, "occ_failsafe": 0,
                    "droop_engages": 0, "droop_events": 0}
        golden = self.golden()
        envelope = max(1e-3, float(golden["power_w"]))
        governor = WofGovernor(
            self.core_config,
            WofDesignPoint(tdp_core_w=envelope,
                           rdp_core_w=envelope * 1.1))
        occ = OnChipController(
            governor, cores=1, socket_budget_w=envelope,
            staleness_budget=self.config.staleness_budget)
        occ.run_from_samples({0: list(samples)})

        # droop surface: per-interval proxy power read as the demanded
        # current (non-finite readings draw nothing); injected steps
        # overlaid on top, then the sensor/coarse-throttle closed loop
        currents = [s.proxy_w if math.isfinite(s.proxy_w) else 0.0
                    for s in samples]
        currents = injector.apply_droop(currents)
        throttle = CoarseThrottle()
        sensor = DigitalDroopSensor()
        run_throttled_current(currents, sensor, SupplyModel(),
                              throttle)
        return {"occ_degraded": occ.degraded_ticks,
                "occ_failsafe": occ.failsafe_ticks,
                "droop_engages": throttle.engage_count,
                "droop_events": len(sensor.events)}

    @staticmethod
    def _classify(golden: Dict[str, object], result,
                  pm_stats: Dict[str, int]):
        arch_same = (dict(result.activity.events) == golden["events"]
                     and result.flops == golden["flops"]
                     and result.instructions == golden["instructions"])
        timing_same = result.cycles == golden["cycles"]
        if not arch_same:
            return "sdc", ("architected activity diverged from the "
                           "golden run with no detection")
        defenses = (pm_stats.get("occ_degraded", 0)
                    + pm_stats.get("occ_failsafe", 0)
                    + pm_stats.get("droop_engages", 0))
        if not timing_same:
            return "degraded", (
                f"timing perturbed: {result.cycles} vs golden "
                f"{golden['cycles']} cycles")
        if defenses:
            return "degraded", (
                f"PM defenses engaged (occ_degraded="
                f"{pm_stats.get('occ_degraded', 0)}, occ_failsafe="
                f"{pm_stats.get('occ_failsafe', 0)}, droop_engages="
                f"{pm_stats.get('droop_engages', 0)})")
        return "masked", "bit-identical to the golden run"

    # ---- campaign loop with checkpoint/resume ------------------------

    def run(self, *, max_runs: Optional[int] = None,
            workers: Optional[int] = None,
            cache=None, engine=None) -> CampaignResult:
        """Execute (or resume) the campaign.

        ``max_runs`` bounds how many *new* runs this invocation
        executes — the test harness uses it to simulate a killed
        campaign.  Runs go through the execution engine
        (:class:`repro.exec.Engine`) as ``campaign`` tasks, which is
        valid because each run's fault schedule is a pure function of
        ``(campaign seed, index)``; ``workers``/``cache`` configure a
        fresh engine (None falls back to ``$REPRO_WORKERS`` /
        ``$REPRO_CACHE_DIR``), or pass ``engine`` to share one.

        The checkpoint is written after every completed batch (every
        run when serial, every ``workers`` runs when parallel), and
        cache hits replay into it exactly like executed runs — a warm
        rerun reproduces the checkpoint bit for bit.
        """
        from ..exec.executor import (Engine, ExecPlan, campaign_task)
        if engine is None:
            engine = Engine(workers=workers, cache=cache)
        golden = self.golden()
        records = self._load_checkpoint(int(golden["cycles"]))
        done = {r.index for r in records}
        pending = [i for i in range(self.config.runs) if i not in done]
        if max_runs is not None:
            pending = pending[:max_runs]
        batch_size = max(1, engine.workers)
        for start in range(0, len(pending), batch_size):
            batch = pending[start:start + batch_size]
            payloads = engine.run(ExecPlan(
                [campaign_task(self.config, i) for i in batch]))
            records.extend(RunRecord.from_json(p) for p in payloads)
            records.sort(key=lambda r: r.index)
            self._write_checkpoint(records, int(golden["cycles"]))
        return CampaignResult(config=self.config, records=records,
                              golden_cycles=int(golden["cycles"]))

    def _load_checkpoint(self, golden_cycles: int) -> List[RunRecord]:
        path = self.checkpoint_path
        if path is None or not path.is_file():
            return []
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ResilienceError(
                f"unreadable campaign checkpoint {path}: {exc}") from exc
        if data.get("version") != CHECKPOINT_VERSION:
            raise ResilienceError(
                f"checkpoint {path} has version "
                f"{data.get('version')!r}, expected {CHECKPOINT_VERSION}")
        if data.get("fingerprint") != self.config.fingerprint():
            raise ResilienceError(
                f"checkpoint {path} belongs to a different campaign "
                f"configuration — refusing to resume")
        if data.get("golden_cycles") != golden_cycles:
            raise ResilienceError(
                f"checkpoint {path} golden reference "
                f"({data.get('golden_cycles')}) does not match this "
                f"tree ({golden_cycles}) — the model changed under the "
                f"campaign")
        return [RunRecord.from_json(r) for r in data.get("records", [])]

    def _write_checkpoint(self, records: List[RunRecord],
                          golden_cycles: int) -> None:
        path = self.checkpoint_path
        if path is None:
            return
        payload = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": self.config.fingerprint(),
            "config": asdict(self.config),
            "golden_cycles": golden_cycles,
            "records": [r.to_json() for r in records],
        }
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        os.replace(tmp, path)
