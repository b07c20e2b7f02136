"""Trace-driven, cycle-approximate out-of-order core timing model.

This is the stand-in for the paper's RTLSim/M1 performance substrate.
It is a scoreboard-style analytical model: each instruction's
dispatch/issue/finish/retire cycles are computed in program order from

* front-end bandwidth (fetch/decode groups, I-cache, branch redirects),
* register dependences (per-thread ready times with full bypass),
* structural resources (execution ports, window, issue queue, LQ/SQ/LMQ),
* the cache hierarchy and address translation (EA- vs RA-tagged L1s).

The model's outputs are total cycles plus the per-unit activity stream
(:class:`~repro.core.activity.ActivityCounters`) that drives every power
tool in :mod:`repro.power`.  It is intentionally not latch-accurate —
the reproduction targets the paper's *relative* power/performance
mechanisms, not absolute POWER10 timing.

This module holds the model's shared pieces (the result record, the
execution ports, the pipeline constants and the busy-cycle estimate)
and :func:`simulate`, the one entry point.  Every run goes through
:mod:`repro.fastsim`: the timing-independent events are extracted as
arrays, and only the occupancy recurrence is replayed.  The
per-instruction walk the replay was derived from is kept as the test
oracle (``tests/walk_oracle.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, TYPE_CHECKING

from ..errors import ConfigError
from ..obs.metrics import get_registry as _obs_registry
from ..obs.tracing import span as _obs_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.sampler import CycleIntervalSampler
from .activity import ActivityCounters
from .config import CoreConfig
from .isa import InstrClass

_FRONT_DEPTH = 5        # fetch->dispatch stages (constant offset)
_WRONG_PATH_WINDOW = 12  # max cycles of wrong-path fetch per mispredict


class _Ports:
    """A small pool of pipelined execution ports.

    Issue bandwidth is tracked per cycle (out-of-order backfill: a
    late-ready instruction reserving cycle *t* does not block an
    earlier-ready one from using the port at *t-3*).  An op with
    initiation interval > 1 occupies its port for that many cycles.
    """

    __slots__ = ("count", "interval", "_occ", "_low_water")

    def __init__(self, count: int, initiation_interval: int = 1):
        if count <= 0:
            raise ConfigError("port count must be positive")
        self.count = count
        self.interval = initiation_interval
        self._occ: Dict[int, int] = {}
        self._low_water = 0

    def issue(self, earliest: int) -> int:
        """Reserve a port at the first cycle >= ``earliest`` with a free
        slot; returns the granted issue cycle."""
        cycle = max(earliest, self._low_water)
        occ = self._occ
        count = self.count
        interval = self.interval
        while True:
            if all(occ.get(cycle + k, 0) < count for k in range(interval)):
                for k in range(interval):
                    occ[cycle + k] = occ.get(cycle + k, 0) + 1
                break
            cycle += 1
        if len(occ) > 65536:
            cutoff = cycle - 4096
            self._occ = {c: n for c, n in occ.items() if c >= cutoff}
            self._low_water = max(self._low_water, cutoff)
        return cycle


@dataclass
class SimResult:
    """Outcome of one simulated trace."""

    config_name: str
    cycles: int
    instructions: int
    activity: ActivityCounters
    flushed_instructions: int
    mispredicts: int
    flops: int
    l1d_miss_rate: float
    l2_miss_rate: float
    fusion_rate: float
    branch_mpki: float
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def flops_per_cycle(self) -> float:
        return self.flops / self.cycles if self.cycles else 0.0


def build_ports(issue) -> Dict[InstrClass, _Ports]:
    """The per-class execution-port map for an ``IssueConfig``.

    The replay (:mod:`repro.fastsim`) arbitrates issue bandwidth through
    these port state machines (inlined for single-cycle intervals).
    """
    ports: Dict[InstrClass, _Ports] = {
        InstrClass.FX: _Ports(issue.fx_ports),
        InstrClass.FX_MULDIV: _Ports(issue.fx_muldiv_ports, 4),
        InstrClass.LOAD: _Ports(issue.load_ports),
        InstrClass.VSX_LOAD: _Ports(issue.load_ports),
        InstrClass.STORE: _Ports(issue.store_ports),
        InstrClass.VSX_STORE: _Ports(issue.store_ports),
        InstrClass.BRANCH: _Ports(issue.branch_ports),
        InstrClass.BRANCH_IND: _Ports(issue.branch_ports),
        InstrClass.FP: _Ports(issue.vsx_ports),
        InstrClass.VSX: _Ports(issue.vsx_ports),
        InstrClass.CR: _Ports(max(1, issue.branch_ports)),
        InstrClass.SYSTEM: _Ports(1, 8),
    }
    if issue.mma_present:
        ports[InstrClass.MMA] = _Ports(issue.mma_ops_per_cycle)
        ports[InstrClass.MMA_MOVE] = _Ports(1)
    # Loads and VSX loads share the same physical AGEN ports:
    ports[InstrClass.VSX_LOAD] = ports[InstrClass.LOAD]
    ports[InstrClass.VSX_STORE] = ports[InstrClass.STORE]
    return ports


def simulate(config: CoreConfig, trace, *,
             max_instructions: Optional[int] = None,
             warmup_fraction: float = 0.0,
             sampler: Optional["CycleIntervalSampler"] = None) -> SimResult:
    """Run one trace through a fresh core and return timing + activity.

    ``trace`` is a :class:`repro.workloads.trace.Trace` (or any object
    with ``name`` and ``columns`` or ``instructions``).  SMT traces are
    pre-interleaved (see :func:`repro.workloads.trace.merge_smt`); each
    instruction's thread selects the dependence/predictor context.

    ``warmup_fraction`` excludes the leading fraction of the trace from
    the reported cycles/activity (caches and predictors stay warm), the
    moral equivalent of the paper's steady-state measurement windows.

    ``sampler`` (a :class:`repro.obs.sampler.CycleIntervalSampler`)
    receives interval snapshots of the activity stream as simulated time
    advances — the OCC-style telemetry tap.  Sampling is observational:
    results are identical with or without it.

    This is the one simulation entry point and it has one path: the
    replay of the extracted activity stream
    (:func:`repro.fastsim.replay.simulate_fast`, the repo's APEX).
    Samplers and an active fault injector
    (:mod:`repro.resilience.injector`) are served by the replay too, at
    decode-group boundaries.  Results, samples and injection records
    equal the per-instruction walk's (``tests/walk_oracle.py``) bit for
    bit.
    """
    with _obs_span("pipeline.simulate", "core", config=config.name,
                   trace=getattr(trace, "name", "?")) as sp:
        # lazy: repro.fastsim imports this module
        from ..fastsim.replay import simulate_fast
        result = simulate_fast(config, trace,
                               max_instructions=max_instructions,
                               warmup_fraction=warmup_fraction,
                               sampler=sampler)
        sp.set(cycles=result.cycles, instructions=result.instructions,
               ipc=round(result.ipc, 4))
        registry = _obs_registry()
        registry.counter(
            "repro_simulations_total",
            "pipeline.simulate invocations").inc(config=config.name)
        registry.counter(
            "repro_simulated_instructions_total",
            "instructions retired across all simulations").inc(
                result.instructions, config=config.name)
        return result


def derive_busy_cycles(act: ActivityCounters, cfg: CoreConfig,
                       cycles: int) -> None:
    """Estimate per-unit busy cycles from event counts and port counts.

    Clock-gating modeling needs an occupancy per unit; for a scoreboard
    model the best deterministic estimate is events divided by ports,
    capped at the run length.  Also used by the interval sampler to
    derive per-interval utilizations from event deltas.
    """
    ev = act.events

    def busy(unit: str, count: float, ports: int = 1) -> None:
        act.unit_busy_cycles[unit] = min(cycles, int(count / max(1, ports)))

    busy("ifu", ev["icache_access"] + ev["fetch_instr"]
         / max(1, cfg.front_end.fetch_width))
    busy("decode", ev["decode_instr"], cfg.front_end.decode_width)
    busy("dispatch", ev["dispatch_iop"], cfg.front_end.decode_width)
    busy("issueq", ev["issueq_write"] + ev["issueq_wakeup"], 4)
    busy("fx", ev["issue_fx"], cfg.issue.fx_ports)
    busy("fx_muldiv", ev["issue_fx_muldiv"] * 4, cfg.issue.fx_muldiv_ports)
    busy("branch", ev["issue_branch"], cfg.issue.branch_ports)
    busy("cr", ev["issue_cr"])
    busy("fp", ev["issue_fp"], cfg.issue.vsx_ports)
    busy("vsu", ev["issue_vsx"], cfg.issue.vsx_ports)
    busy("mma", ev["issue_mma"], cfg.issue.mma_ops_per_cycle)
    busy("regfile", ev["rf_read"] + ev["rf_write"], 6)
    busy("lsu", ev["load_issue"] + ev["store_issue"],
         cfg.issue.load_ports + cfg.issue.store_ports)
    busy("l1d", ev["l1d_access"], 2)
    busy("erat_mmu", ev["erat_lookup"], 2)
    busy("prefetch", ev["prefetch_issued"] + ev["l1d_miss"])
    busy("l2", ev["l2_access"] * 4)
    busy("l3", ev["l3_access"] * 8)
    busy("completion", ev["complete_instr"], cfg.issue.completion_width)
