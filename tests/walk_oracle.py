"""The per-instruction walk: the test oracle for the replay.

:func:`repro.core.pipeline.simulate` replays the extracted activity
tensor (:mod:`repro.fastsim`).  :func:`simulate_reference` below is the
model the replay was derived from, kept verbatim as the reference it is
checked against: it walks the trace one instruction at a time through a
:class:`CorePipeline` (predictors, caches, MMU, fusion, ports and the
``_Ring``/``_Pool`` queues) and counts every event as it happens.
Samplers observe, and fault injectors poll, after every decode group.

The walk needs one-access-at-a-time versions of the structures the
extraction drives in batches; they live here as subclasses that add the
scalar methods (``Cache.access``/``fill``/``probe``,
``StreamPrefetcher.train``, ``CacheHierarchy.access_data``/
``access_instruction``, ``MMU.translate``, ``_LruTable.access``) and as
:func:`process` for a branch record.  Each scalar call is a one-element
call of the production batched rule.

The execution ports are the walk's own frozen copy (:class:`_Ports`,
:func:`build_ports`), not the production pool the replay drives, so a
change to the production port arbitration shows up as a divergence.

Trace-record faults are applied to ``Instruction`` copies
(:func:`begin_sim`), the way the injector did before it edited columns,
so the column edits are checked too.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import caches, tlb
from repro.core.activity import ActivityCounters
from repro.core.branch import BranchUnit, make_branch_unit
from repro.core.config import CoreConfig
from repro.core.fusion import EFFECT_BY_CODE, FusionEffect, fuse
from repro.core.isa import BASE_LATENCY, Instruction, InstrClass, TraceColumns
from repro.core.pipeline import (_FRONT_DEPTH, _WRONG_PATH_WINDOW, SimResult,
                                 derive_busy_cycles)
from repro.errors import ConfigError, SimulationError
from repro.resilience.injector import InjectionRecord, get_injector

LINE_BYTES = caches.LINE_BYTES
PAGE_BYTES = tlb.PAGE_BYTES


# --- queues -----------------------------------------------------------------

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


# --- execution ports ----------------------------------------------------------

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


def build_ports(issue) -> Dict[InstrClass, _Ports]:
    """The per-class execution-port map for an ``IssueConfig``."""
    ports: Dict[InstrClass, _Ports] = {
        InstrClass.FX: _Ports(issue.fx_ports),
        InstrClass.FX_MULDIV: _Ports(issue.fx_muldiv_ports, 4),
        InstrClass.LOAD: _Ports(issue.load_ports),
        InstrClass.STORE: _Ports(issue.store_ports),
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


# --- one access at a time -----------------------------------------------------

class Cache(caches.Cache):
    """A cache level with the walk's scalar access methods."""

    def probe(self, address: int) -> bool:
        """Check presence without updating LRU or counters."""
        set_idx, tag = self._locate(address)
        cache_set = self._sets.get(set_idx)
        return cache_set is not None and tag in cache_set

    def access(self, address: int) -> bool:
        """Access a line; returns True on hit.  Misses allocate."""
        return not self.access_lines((address // self.geometry.line_bytes,))

    def fill(self, address: int) -> None:
        """Install a line (prefetch path) without counting an access."""
        self.touch_lines((address // self.geometry.line_bytes,))


class StreamPrefetcher(caches.StreamPrefetcher):
    """The stream prefetcher, trained one miss at a time."""

    def train(self, address: int) -> list:
        """Observe a demand miss; returns line addresses to prefetch."""
        line = address // LINE_BYTES
        if not self.train_lines((line,)):
            return []
        return [(line + 1 + i) * LINE_BYTES for i in range(self.depth)]


@dataclass
class AccessResult:
    """Outcome of a hierarchy access: service level and latency."""

    level: str                   # "l1" | "l2" | "l3" | "mem"
    latency: int
    l1_hit: bool


class CacheHierarchy(caches.CacheHierarchy):
    """The hierarchy with the walk's per-access entry points."""

    def __init__(self, geometry: caches.HierarchyGeometry):
        super().__init__(geometry)
        self.l1i = Cache(geometry.l1i, "l1i")
        self.l1d = Cache(geometry.l1d, "l1d")
        self.l2 = Cache(geometry.l2, "l2")
        self.l3 = Cache(geometry.l3, "l3")
        self.prefetcher = StreamPrefetcher(geometry.prefetch_streams,
                                           geometry.prefetch_depth)

    def access_instruction(self, address: int) -> AccessResult:
        return self._access(self.l1i, address)

    def access_data(self, address: int) -> AccessResult:
        return self._access(self.l1d, address)

    def _access(self, l1: Cache, address: int) -> AccessResult:
        """One access, with ``lower_walk`` on a miss spelled out for a
        single address."""
        if l1.access(address):
            return AccessResult("l1", l1.geometry.latency, True)
        g = self.geometry
        if g.infinite_l2:
            return AccessResult("l2", g.l2.latency, False)
        hit = self.l2.access(address)
        ahead = self.prefetcher.train(address)
        for line_addr in ahead:
            self.l2.fill(line_addr)
        if hit:
            self.prefetcher.useful += len(ahead)
            return AccessResult("l2", g.l2.latency, False)
        if self.l3.access(address):
            return AccessResult("l3", g.l3.latency, False)
        return AccessResult("mem", g.memory_latency, False)


@dataclass
class TranslationResult:
    """Outcome of one effective-to-real translation."""

    erat_hit: bool
    tlb_hit: bool
    extra_latency: int       # cycles added beyond the ERAT lookup itself


class _LruTable(tlb._LruTable):
    def access(self, page: int) -> bool:
        return not self.access_pages((page,))


class MMU(tlb.MMU):
    """The MMU with the walk's one-address translation."""

    def __init__(self, erat_entries: int = 64, tlb_entries: int = 1024,
                 tlb_latency: int = 10, walk_latency: int = 60):
        super().__init__(erat_entries, tlb_entries, tlb_latency,
                         walk_latency)
        self.erat = _LruTable(erat_entries)
        self.tlb = _LruTable(tlb_entries)

    def translate(self, address: int) -> TranslationResult:
        erat_missed, walked = self.translate_pages((address // PAGE_BYTES,))
        if not erat_missed:
            return TranslationResult(True, True, 0)
        if not walked:
            return TranslationResult(False, True, self.tlb_latency)
        return TranslationResult(False, False,
                                 self.tlb_latency + self.walk_latency)


def process(unit: BranchUnit, instr: Instruction) -> bool:
    """Predict and train on one branch record; returns True on
    mispredict."""
    if not instr.iclass.is_branch:
        raise SimulationError("process() requires a branch instruction")
    return unit.resolve(instr.iclass is InstrClass.BRANCH_IND,
                        instr.pc, instr.taken, instr.target, instr.thread)


# --- trace-record faults ----------------------------------------------------

def begin_sim(injector, instructions: List) -> List:
    """The injector's run reset and trace-record faults, on records:
    corrupted records are shallow copies, the input is never mutated."""
    injector._sim_pos = 0
    injector._interval_index = 0
    injector._last_proxy = None
    injector._marks = {}
    if not injector._trace_faults:
        return instructions
    out = list(instructions)
    for fault in injector._trace_faults:
        if fault.at >= len(out):
            injector.records.append(InjectionRecord(
                fault=fault.to_json(), applied=False,
                effect="out-of-range",
                detail=f"index {fault.at} beyond trace end"))
            continue
        instr = copy.copy(out[fault.at])
        if fault.mode == "address_bit":
            if instr.address is None:
                injector.records.append(InjectionRecord(
                    fault=fault.to_json(), propagated=False,
                    effect="masked",
                    detail="target is not a memory instruction"))
                continue
            instr.address = instr.address ^ (1 << fault.value)
            detail = f"address bit {fault.value} flipped"
        else:
            if not instr.srcs:
                injector.records.append(InjectionRecord(
                    fault=fault.to_json(), propagated=False,
                    effect="masked",
                    detail="target reads no registers"))
                continue
            instr.srcs = (fault.value,) + tuple(instr.srcs[1:])
            detail = f"src register swapped to {fault.value}"
        out[fault.at] = instr
        injector.records.append(InjectionRecord(
            fault=fault.to_json(), propagated=True,
            effect="trace-corruption", detail=detail))
    return out


# --- the walk -----------------------------------------------------------------

class CorePipeline:
    """One core instance: predictors, caches, MMU, fusion and ports."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.branch_unit: BranchUnit = make_branch_unit(
            config.front_end.branch_kind, config.front_end.branch_scale)
        self.hierarchy = CacheHierarchy(config.hierarchy)
        self.mmu = MMU(config.mmu.erat_entries, config.mmu.tlb_entries,
                       config.mmu.tlb_latency, config.mmu.walk_latency)
        self._ports: Dict[InstrClass, _Ports] = build_ports(config.issue)

    def latency_of(self, instr: Instruction) -> int:
        # The POWER10 unified register file adds a pipeline stage, but
        # the bypass network forwards dependent results around it, so
        # producer->consumer latency stays at the base value; the stage
        # shows up only as extra front-end depth (handled in simulate).
        return BASE_LATENCY[instr.iclass]


def simulate_reference(config: CoreConfig, trace, *,
                       max_instructions: Optional[int] = None,
                       warmup_fraction: float = 0.0,
                       sampler=None) -> SimResult:
    """The per-instruction walk: same arguments and results as
    :func:`repro.core.pipeline.simulate`, without its span and
    counters."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must be in [0, 1)")
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
        instructions = begin_sim(injector, instructions)
    # decode groups are fixed chunks from row 0, so fusion over the
    # whole (truncated, injected) run is the per-group outcome
    fusion = fuse(TraceColumns.pack(instructions), fe.fusion_enabled,
                  fe.decode_width)
    fused_kinds = fusion.kind.tolist()

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
        group_kinds = fused_kinds[idx:idx + decode_w]
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

        dispatch_base = front_cycle + _FRONT_DEPTH
        prev_issue = 0
        prev_l1d_access_skipped = False
        for instr, kind in zip(group, group_kinds):
            # ---- fusion at decode --------------------------------------
            effect: Optional[FusionEffect] = \
                EFFECT_BY_CODE[kind] if kind >= 0 else None
            fused = effect is not None

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
                wrong = process(core.branch_unit, instr)
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
        fusion_rate=fusion.stats.fusion_rate,
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
