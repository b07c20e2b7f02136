"""Trace-driven, cycle-approximate out-of-order core timing model.

This is the stand-in for the paper's RTLSim/M1 performance substrate.
It is a scoreboard-style analytical model: instructions are walked in
program order, and each one's dispatch/issue/finish/retire cycles are
computed from

* front-end bandwidth (fetch/decode groups, I-cache, branch redirects),
* register dependences (per-thread ready times with full bypass),
* structural resources (execution ports, window, issue queue, LQ/SQ/LMQ),
* the cache hierarchy and address translation (EA- vs RA-tagged L1s).

The model's outputs are total cycles plus the per-unit activity stream
(:class:`~repro.core.activity.ActivityCounters`) that drives every power
tool in :mod:`repro.power`.  It is intentionally not latch-accurate —
the reproduction targets the paper's *relative* power/performance
mechanisms, not absolute POWER10 timing.

The walk here (:func:`simulate_reference`) defines the model.  The
entry point, :func:`simulate`, runs the same model through
:mod:`repro.fastsim`'s extract-then-replay unless a sampler or an
active fault injector needs the walk; both give identical results.
"""

from __future__ import annotations

import heapq

from dataclasses import dataclass, field
from typing import Dict, List, Optional, TYPE_CHECKING, Tuple

from ..errors import ConfigError, SimulationError
from ..obs.metrics import get_registry as _obs_registry
from ..obs.tracing import span as _obs_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.sampler import CycleIntervalSampler
from .activity import ActivityCounters
from .branch import BranchUnit, make_branch_unit
from .caches import CacheHierarchy
from .config import CoreConfig
from .fusion import FusionEngine, FusionEffect
from .isa import BASE_LATENCY, Instruction, InstrClass
from .tlb import MMU

_FRONT_DEPTH = 5        # fetch->dispatch stages (constant offset)
_WRONG_PATH_WINDOW = 12  # max cycles of wrong-path fetch per mispredict


class _Ring:
    """Fixed-capacity resource: allocation *i* waits for release *i-N*.

    Models ROB/queue-style structures where an entry allocated now is
    freed by the completion of the entry allocated N slots earlier.
    """

    __slots__ = ("capacity", "_releases", "_head")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        self.capacity = capacity
        self._releases: List[int] = []
        self._head = 0

    def earliest_alloc(self) -> int:
        """Cycle at which the next allocation can proceed."""
        if len(self._releases) - self._head < self.capacity:
            return 0
        return self._releases[self._head]

    def alloc(self, release_cycle: int) -> None:
        if len(self._releases) - self._head >= self.capacity:
            self._head += 1
            if self._head > 4096:       # compact
                del self._releases[:self._head]
                self._head = 0
        self._releases.append(release_cycle)


class _Pool:
    """Fixed-capacity resource with out-of-order release.

    Models structures whose entries free as soon as their occupant
    issues/completes, regardless of allocation order (issue queues, the
    load-miss queue).  When full, the next allocation can proceed at the
    *earliest* release among current occupants.
    """

    __slots__ = ("capacity", "_heap")

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ConfigError("capacity must be positive")
        self.capacity = capacity
        self._heap: List[int] = []

    def earliest_alloc(self) -> int:
        if len(self._heap) < self.capacity:
            return 0
        return self._heap[0]

    def alloc(self, release_cycle: int) -> None:
        if len(self._heap) >= self.capacity:
            heapq.heappop(self._heap)
        heapq.heappush(self._heap, release_cycle)


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

    Shared by the per-instruction walk (:class:`CorePipeline`) and the
    replay (:mod:`repro.fastsim`) so both paths of :func:`simulate`
    arbitrate issue bandwidth through bit-identical port state machines.
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


class CorePipeline:
    """One core instance: predictors, caches, MMU, fusion and ports."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.branch_unit: BranchUnit = make_branch_unit(
            config.front_end.branch_kind, config.front_end.branch_scale)
        self.hierarchy = CacheHierarchy(config.hierarchy)
        self.mmu = MMU(config.mmu.erat_entries, config.mmu.tlb_entries,
                       config.mmu.tlb_latency, config.mmu.walk_latency)
        self.fusion = FusionEngine(config.front_end.fusion_enabled)
        self._ports: Dict[InstrClass, _Ports] = build_ports(config.issue)

    def latency_of(self, instr: Instruction) -> int:
        # The POWER10 unified register file adds a pipeline stage, but
        # the bypass network forwards dependent results around it, so
        # producer->consumer latency stays at the base value; the stage
        # shows up only as extra front-end depth (handled in simulate).
        return BASE_LATENCY[instr.iclass]


def simulate(config: CoreConfig, trace, *,
             max_instructions: Optional[int] = None,
             warmup_fraction: float = 0.0,
             sampler: Optional["CycleIntervalSampler"] = None) -> SimResult:
    """Run one trace through a fresh core and return timing + activity.

    ``trace`` is a :class:`repro.workloads.trace.Trace` (or any object
    with ``name`` and ``instructions``).  SMT traces are pre-interleaved
    (see :func:`repro.workloads.trace.merge_smt`); the ``thread`` field
    of each instruction selects the dependence/predictor context.

    ``warmup_fraction`` excludes the leading fraction of the trace from
    the reported cycles/activity (caches and predictors stay warm), the
    moral equivalent of the paper's steady-state measurement windows.

    ``sampler`` (a :class:`repro.obs.sampler.CycleIntervalSampler`)
    receives interval snapshots of the activity stream as simulated time
    advances — the OCC-style telemetry tap.  Sampling is observational:
    results are identical with or without it.

    This is the one simulation entry point, and it picks its own path:
    a plain run replays the pre-extracted activity stream
    (:func:`repro.fastsim.replay.simulate_fast`, the repo's APEX); a run
    with a sampler or under an active fault-injection campaign walks the
    trace instruction by instruction (:func:`simulate_reference`).  The
    two paths are bit-identical (``tests/test_fastsim_diff.py``).
    """
    with _obs_span("pipeline.simulate", "core", config=config.name,
                   trace=getattr(trace, "name", "?")) as sp:
        if _replays(sampler):
            # lazy: repro.fastsim imports this module
            from ..fastsim.replay import simulate_fast
            result = simulate_fast(config, trace,
                                   max_instructions=max_instructions,
                                   warmup_fraction=warmup_fraction)
        else:
            result = simulate_reference(
                config, trace, max_instructions=max_instructions,
                warmup_fraction=warmup_fraction, sampler=sampler)
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


def _replays(sampler) -> bool:
    """Whether :func:`simulate` may replay instead of walking.

    Interval samplers observe, and fault injection perturbs, mid-run
    state the replay never materializes; either one needs the walk.
    """
    from ..resilience.injector import get_injector
    return sampler is None and get_injector() is None


def simulate_reference(config: CoreConfig, trace, *,
                       max_instructions: Optional[int] = None,
                       warmup_fraction: float = 0.0,
                       sampler: Optional["CycleIntervalSampler"] = None,
                       ) -> SimResult:
    """The per-instruction walk behind :func:`simulate`.

    Runs only when a sampler or an active injector needs it, and as the
    reference the replay is checked against.  Same arguments and
    results as :func:`simulate`, without its span and counters.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must be in [0, 1)")
    # Fault-injection hook (lazy import keeps core free of a static
    # dependency on the resilience layer).  With no campaign active the
    # injector is None and every hook below is skipped — results stay
    # bit-identical to a tree without fault injection.
    from ..resilience.injector import get_injector
    injector = get_injector()
    core = CorePipeline(config)
    act = ActivityCounters()
    fe = config.front_end
    issue_cfg = config.issue
    lsu_cfg = config.lsu

    smt = config.smt
    if smt > 1:
        loadq_size = lsu_cfg.load_queue_smt
        storeq_size = lsu_cfg.store_queue_smt
    else:
        loadq_size = lsu_cfg.load_queue_st
        storeq_size = lsu_cfg.store_queue_st

    window = _Ring(issue_cfg.window_entries)        # ROB: in-order release
    issueq = _Pool(issue_cfg.issueq_entries)        # frees at issue
    loadq = _Ring(loadq_size)
    storeq = _Ring(storeq_size)
    lmq = _Pool(lsu_cfg.load_miss_queue)            # frees at fill

    reg_ready: Dict[Tuple[int, int], int] = {}
    instructions = trace.instructions
    if max_instructions is not None:
        instructions = instructions[:max_instructions]
    if not instructions:
        raise SimulationError("cannot simulate an empty trace")
    if injector is not None:
        instructions = injector.begin_sim(instructions)

    front_cycle = 0           # cycle the current decode group occupies
    last_retire_cycle = 0
    retire_in_cycle = 0
    flushed = 0
    mispredicts = 0
    flops = 0
    last_icache_line = -1
    prev_store: Optional[Tuple[int, int, int]] = None  # addr,size,retire

    ea_tagged = config.ea_tagged_l1
    decode_w = fe.decode_width
    total = len(instructions)
    warmup_count = int(total * warmup_fraction)
    snap = None
    idx = 0
    if sampler is not None:
        sampler.begin(config, getattr(trace, "name", "?"))
    while idx < total:
        if snap is None and idx >= warmup_count and warmup_count:
            snap = (dict(act.events), front_cycle, last_retire_cycle,
                    flushed, mispredicts, flops, idx)
        group = instructions[idx:idx + decode_w]
        idx += len(group)

        # ---- fetch: I-cache access per new 32B sector ------------------
        group_stall = 0
        for instr in group:
            line = instr.pc >> 5
            if line != last_icache_line:
                last_icache_line = line
                act.count("icache_access")
                result = core.hierarchy.access_instruction(instr.pc)
                if not ea_tagged:
                    act.count("erat_lookup")
                if not result.l1_hit:
                    act.count("icache_miss")
                    if ea_tagged:
                        act.count("erat_lookup")
                    tr = core.mmu.translate(instr.pc)
                    if not tr.erat_hit:
                        act.count("erat_miss")
                        act.count("tlb_lookup")
                        if not tr.tlb_hit:
                            act.count("tlb_miss")
                            act.count("tablewalk")
                    group_stall += result.latency + tr.extra_latency
        act.count("fetch_instr", len(group))
        act.count("predecode_instr", len(group))
        act.count("ibuffer_write", len(group))
        act.count("decode_instr", len(group))
        front_cycle += 1 + group_stall

        # ---- fusion at decode ------------------------------------------
        effects = core.fusion.apply(group)

        dispatch_base = front_cycle + _FRONT_DEPTH
        prev_issue = 0
        prev_l1d_access_skipped = False
        for pos, instr in enumerate(group):
            effect: Optional[FusionEffect] = effects[pos]
            fused = instr.fused_with_prev and effect is not None

            # ---- dispatch (window/issueq structural limits) ------------
            dispatch = dispatch_base
            dispatch = max(dispatch, window.earliest_alloc())
            if not fused:
                dispatch = max(dispatch, issueq.earliest_alloc())
            if instr.iclass.is_load:
                dispatch = max(dispatch, loadq.earliest_alloc())
            elif instr.iclass.is_store and not (
                    fused and effect.single_storeq_entry):
                dispatch = max(dispatch, storeq.earliest_alloc())
            if dispatch > dispatch_base:
                # structural stall backs up the front end
                front_cycle += dispatch - dispatch_base
                dispatch_base = dispatch
            if not fused:
                act.count("dispatch_iop")
                act.count("issueq_write")
            if instr.dests:
                act.count("rename_write", len(instr.dests))

            # ---- register dependences ----------------------------------
            ready = dispatch + 1
            tid = instr.thread
            for src in instr.srcs:
                src_ready = reg_ready.get((tid, src), 0)
                if src_ready > ready:
                    ready = src_ready
            act.count("rf_read", len(instr.srcs))
            act.count("issueq_wakeup")

            # ---- issue through a port ----------------------------------
            ports = core._ports.get(instr.iclass)
            if ports is None:
                raise SimulationError(
                    f"no execution resource for {instr.iclass} on "
                    f"{config.name}")
            if fused:
                # shared issue-queue entry: issues with its producer,
                # subject to its own port.
                issue_at = ports.issue(max(ready, prev_issue))
            else:
                issue_at = ports.issue(ready)
            prev_issue = issue_at

            latency = core.latency_of(instr)
            if fused:
                latency = max(1, latency + effect.latency_delta)

            # ---- memory access -----------------------------------------
            if instr.iclass.is_memory:
                skip_access = (fused and effect.single_agen
                               and prev_l1d_access_skipped is False
                               and instr.iclass.is_store)
                if not (fused and effect.single_agen):
                    act.count("agen")
                if instr.iclass.is_load:
                    act.count("load_issue")
                    act.count("loadq_write")
                    loadq.alloc(issue_at + latency)
                    act.count("l1d_access")
                    result = core.hierarchy.access_data(instr.address)
                    extra = 0
                    if not ea_tagged:
                        act.count("erat_lookup")
                        tr = core.mmu.translate(instr.address)
                        extra = _translation_events(act, tr)
                    elif not result.l1_hit:
                        act.count("erat_lookup")
                        tr = core.mmu.translate(instr.address)
                        extra = _translation_events(act, tr)
                    if not result.l1_hit:
                        act.count("l1d_miss")
                        lmq_at = max(issue_at, lmq.earliest_alloc())
                        fill = lmq_at + result.latency + extra
                        lmq.alloc(fill)
                        act.count("lmq_alloc")
                        _count_level(act, result.level)
                        latency = max(latency, fill - issue_at)
                    else:
                        latency = max(latency, result.latency + extra)
                else:   # store
                    act.count("store_issue")
                    merged = False
                    if (lsu_cfg.store_merge_enabled and prev_store
                            and prev_store[0] + prev_store[1]
                            == instr.address):
                        act.count("storeq_merge")
                        merged = True
                    if not (fused and effect.single_storeq_entry):
                        act.count("storeq_write")
                        storeq.alloc(issue_at + latency + 4)
                    if not (merged or skip_access):
                        act.count("l1d_access")
                        result = core.hierarchy.access_data(instr.address)
                        if not ea_tagged:
                            act.count("erat_lookup")
                            _translation_events(
                                act, core.mmu.translate(instr.address))
                        elif not result.l1_hit:
                            act.count("erat_lookup")
                            _translation_events(
                                act, core.mmu.translate(instr.address))
                        if not result.l1_hit:
                            act.count("l1d_miss")
                            _count_level(act, result.level)
                    prev_store = (instr.address, instr.size, 0)

            # ---- execute / class-specific events -----------------------
            _count_issue(act, instr)
            if instr.flops:
                flops += instr.flops
            finish = issue_at + latency
            for dest in instr.dests:
                if instr.iclass is InstrClass.MMA and dest >= 256:
                    # accumulate chains forward internally in 1 cycle
                    reg_ready[(tid, dest)] = issue_at + 1
                else:
                    reg_ready[(tid, dest)] = finish
            if instr.dests:
                act.count("rf_write", len(instr.dests))

            # ---- branches: predict, redirect on mispredict -------------
            if instr.iclass.is_branch:
                act.count("bp_dir_lookup")
                act.count("bp_tgt_lookup")
                wrong = core.branch_unit.process(instr)
                if wrong:
                    mispredicts += 1
                    act.count("bp_mispredict")
                    act.count("flush_event")
                    resolve = finish
                    stall = (resolve - front_cycle) + fe.redirect_penalty
                    if smt > 1:
                        # other threads keep the front end busy
                        stall = max(1, stall // smt)
                    # wrong-path fetch is bounded by how far the front
                    # end can run ahead of issue, not by the whole
                    # resolution window
                    ahead = min(max(0, resolve - front_cycle),
                                _WRONG_PATH_WINDOW)
                    wrong_path = int(fe.wrong_path_fill
                                     * fe.fetch_width * ahead)
                    flushed += wrong_path
                    act.count("flush_instr", wrong_path)
                    # wrong-path work still burned front-end energy
                    act.count("fetch_instr", wrong_path)
                    act.count("predecode_instr", wrong_path)
                    act.count("decode_instr", wrong_path // 2)
                    front_cycle += max(0, stall)
                    last_icache_line = -1

            # ---- in-order completion -----------------------------------
            retire = max(finish + 1, last_retire_cycle)
            if retire == last_retire_cycle:
                retire_in_cycle += 1
                if retire_in_cycle >= issue_cfg.completion_width:
                    retire += 1
                    retire_in_cycle = 0
            else:
                retire_in_cycle = 1
            last_retire_cycle = retire
            window.alloc(retire)
            if not fused:
                issueq.alloc(issue_at + 1)
            act.count("complete_instr")

            prev_l1d_access_skipped = fused and effect.single_agen

        if injector is not None:
            # deliver due faults for this window; the poll is also the
            # campaign watchdog (raises HangError past the cycle budget)
            front_cycle += injector.poll(
                idx, act, max(last_retire_cycle, front_cycle))

        if sampler is not None:
            sampler.observe(max(last_retire_cycle, front_cycle), act)

    act.events["prefetch_issued"] = core.hierarchy.prefetcher.issued
    act.events["prefetch_useful"] = core.hierarchy.prefetcher.useful
    cycles = max(last_retire_cycle, front_cycle) + 1
    if sampler is not None:
        # close the trailing partial interval on raw (pre-warmup-
        # subtraction) counts; samples always cover the whole run
        sampler.finalize(cycles, act)
    measured_instructions = len(instructions)
    if snap is not None:
        events0, front0, retire0, flushed0, mispred0, flops0, idx0 = snap
        for key, base in events0.items():
            act.events[key] = max(0, act.events[key] - base)
        cycles = max(1, cycles - (max(retire0, front0) + 1))
        flushed -= flushed0
        mispredicts -= mispred0
        flops -= flops0
        measured_instructions = len(instructions) - idx0
    act.cycles = cycles
    act.instructions = measured_instructions
    derive_busy_cycles(act, config, cycles)

    hier = core.hierarchy
    mpki = 1000.0 * mispredicts / measured_instructions
    return SimResult(
        config_name=config.name,
        cycles=cycles,
        instructions=measured_instructions,
        activity=act,
        flushed_instructions=flushed,
        mispredicts=mispredicts,
        flops=flops,
        l1d_miss_rate=hier.l1d.miss_rate,
        l2_miss_rate=hier.l2.miss_rate,
        fusion_rate=core.fusion.stats.fusion_rate,
        branch_mpki=mpki,
        metadata={"trace": getattr(trace, "name", "?"), "smt": smt,
                  "frequency_ghz": config.power.frequency_ghz},
    )


def _translation_events(act: ActivityCounters, tr) -> int:
    """Record ERAT/TLB events; returns extra latency cycles."""
    if tr.erat_hit:
        return 0
    act.count("erat_miss")
    act.count("tlb_lookup")
    if not tr.tlb_hit:
        act.count("tlb_miss")
        act.count("tablewalk")
    return tr.extra_latency


def _count_level(act: ActivityCounters, level: str) -> None:
    if level in ("l2", "l3", "mem"):
        act.count("l2_access")
    if level in ("l3", "mem"):
        act.count("l2_miss")
        act.count("l3_access")
    if level == "mem":
        act.count("l3_miss")
        act.count("mem_access")


_ISSUE_EVENT = {
    InstrClass.FX: "issue_fx",
    InstrClass.FX_MULDIV: "issue_fx_muldiv",
    InstrClass.BRANCH: "issue_branch",
    InstrClass.BRANCH_IND: "issue_branch",
    InstrClass.CR: "issue_cr",
    InstrClass.FP: "issue_fp",
    InstrClass.VSX: "issue_vsx",
    InstrClass.MMA: "issue_mma",
    InstrClass.MMA_MOVE: "mma_move",
}


def _count_issue(act: ActivityCounters, instr: Instruction) -> None:
    event = _ISSUE_EVENT.get(instr.iclass)
    if event:
        act.count(event)
    if instr.iclass is InstrClass.MMA:
        act.count("mma_acc_access")


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
