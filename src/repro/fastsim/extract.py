"""Activity-stream extraction: the tensor half of the replay.

``core.pipeline.simulate_reference`` interleaves two kinds of work in one
per-instruction loop: *stateful event derivation* (I-cache/D-cache and
TLB walks, branch prediction, fusion classification — none of which
depend on instruction timing) and the *serial occupancy recurrence*
(dispatch/issue/retire cycles through finite windows, queues and
ports).  This module performs only the first kind, driving the very
same component classes (:class:`~repro.core.caches.CacheHierarchy`,
:class:`~repro.core.tlb.MMU`, the branch predictors,
:class:`~repro.core.fusion.FusionEngine`) in the exact order the
walk would, and stores the outcomes as numpy arrays over
instruction index — the activity tensor that
:mod:`repro.fastsim.replay` consumes.

Extraction runs four sub-passes, each depending on only part of the
config:

* **static** — config-independent: instruction classes, register
  dependence edges (CSR), FLOPs, addresses, I-cache lines.
* **branch** — predictor kind/scale: per-branch mispredict outcomes.
* **fusion** — fusion_enabled and decode width: fused masks,
  post-fusion latencies, fusion-rate stats.
* **memory** — the cache/MMU geometry plus everything that changes
  *which* accesses happen (decode width, fusion, branch kind, EA
  tagging, store merging): per-access hit/miss outcomes, extra
  translation latencies, per-group fetch stalls, prefetcher totals.

SMT mode, queue/window sizes, port counts and completion width enter
none of them; only the replay's occupancy recurrence reads those.
Nothing is memoized: the tensor lives only as long as its replay.
Results are exact — the differential harness asserts bit-identical
event counts against the walk.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.branch import make_branch_unit
from ..core.caches import CacheHierarchy
from ..core.config import CoreConfig
from ..core.fusion import FusionEngine
from ..core.isa import ACC_BASE, BASE_LATENCY, InstrClass
from ..core.tlb import MMU
from ..errors import SimulationError

#: Fixed class order used for the ``codes`` tensor and per-class counts.
CLASS_ORDER: Tuple[InstrClass, ...] = tuple(InstrClass)
_CODE = {cls: i for i, cls in enumerate(CLASS_ORDER)}
_BASE_LAT = np.array([BASE_LATENCY[cls] for cls in CLASS_ORDER],
                     dtype=np.int16)
_MMA_CODE = _CODE[InstrClass.MMA]


@dataclass
class StaticPass:
    """Config-independent per-instruction tensors."""

    n: int
    codes: np.ndarray          # int8, index into CLASS_ORDER
    base_lat: np.ndarray       # int16, BASE_LATENCY per instruction
    is_load: np.ndarray        # bool
    is_store: np.ndarray       # bool
    is_branch: np.ndarray      # bool
    is_memory: np.ndarray      # bool
    n_srcs: np.ndarray         # int8
    n_dests: np.ndarray        # int8
    flops: np.ndarray          # int32
    pc: np.ndarray             # int64
    addr: np.ndarray           # int64, -1 when no address
    size: np.ndarray           # int16
    # register dependences in CSR form, aligned with flattened srcs:
    # edge d of instruction i lives in [dep_off[i], dep_off[i+1]);
    # dep_p[d] is the producer index (-1: no in-trace producer) and
    # dep_acc[d] (0/1) marks MMA accumulator forwarding (ready at
    # issue+1 instead of finish).
    dep_off: np.ndarray        # int64, length n+1
    dep_p: np.ndarray          # int32
    dep_acc: np.ndarray        # int8
    branch_idx: List[int]      # indices of branches, program order


@dataclass
class FusionPass:
    """Per-instruction fusion outcome (consumer side)."""

    fused: np.ndarray          # bool: fused with predecessor
    latency: np.ndarray        # int16, post-fusion base latency
    single_agen: np.ndarray    # bool
    single_storeq: np.ndarray  # bool
    fusion_rate: float


@dataclass
class MemoryPass:
    """Cache/TLB outcomes from one interleaved hierarchy walk."""

    newline: np.ndarray        # bool: I-cache access (new 32B sector)
    ic_miss: np.ndarray        # bool: I-cache miss
    gstall: np.ndarray         # int64 per decode group: fetch stall
    erat_lookup: np.ndarray    # int8 per instruction (0..2)
    erat_miss: np.ndarray      # int8 (== tlb_lookup)
    tlb_miss: np.ndarray       # int8 (== tablewalk)
    access_store: np.ndarray   # bool: store that performed a D access
    merged: np.ndarray         # bool: store-queue merge
    load_miss: np.ndarray      # bool
    store_miss: np.ndarray     # bool
    load_delay: np.ndarray     # int32: hierarchy latency + xlat extra
    dm_l3: np.ndarray          # bool: data miss serviced at L3 or memory
    dm_mem: np.ndarray         # bool: data miss serviced at memory
    l1d_miss_rate: float
    l2_miss_rate: float
    pf_issued: int
    pf_useful: int


@dataclass
class ActivityStream:
    """The full activity tensor for one (config, trace) pair."""

    static: StaticPass
    wrong: np.ndarray          # bool per instruction: mispredicted branch
    fusion: FusionPass
    memory: MemoryPass


# --------------------------------------------------------------------------
# Sub-passes.
# --------------------------------------------------------------------------

def _column(values: array) -> np.ndarray:
    """A numpy view of an ``array`` column, without a copy."""
    return np.frombuffer(values, dtype=values.typecode)


def _static_pass(instructions) -> StaticPass:
    # Columns are built as typed arrays, not lists: a list holds a
    # Python int per element, several times the memory of the tensor.
    n = len(instructions)
    codes = array("b")
    n_srcs = array("b")
    n_dests = array("b")
    flops = array("i")
    pc = array("q")
    addr = array("q")
    size = array("h")
    branch_idx: List[int] = []
    dep_p = array("i")
    dep_acc = array("b")
    # reg_ready semantics: each read depends on the most recent earlier
    # write of the same (thread, register), packed into one int key
    # (registers < 2**40); the value is 2 * writer + accumulator flag
    last_write: Dict[int, int] = {}
    last_get = last_write.get
    code_of = {id(cls): code for cls, code in _CODE.items()}
    mma = InstrClass.MMA
    br = InstrClass.BRANCH
    bri = InstrClass.BRANCH_IND
    for i, ins in enumerate(instructions):
        cls = ins.iclass
        codes.append(code_of[id(cls)])
        srcs = ins.srcs
        dests = ins.dests
        n_srcs.append(len(srcs))
        n_dests.append(len(dests))
        flops.append(ins.flops)
        pc.append(ins.pc)
        a = ins.address
        addr.append(-1 if a is None else a)
        size.append(ins.size)
        if cls is br or cls is bri:
            branch_idx.append(i)
        tbase = ins.thread << 40
        for r in srcs:
            w = last_get(tbase + r, -2)
            dep_p.append(w >> 1)
            dep_acc.append(w & 1)
        if dests:
            is_acc_producer = cls is mma
            for d in dests:
                last_write[tbase + d] = 2 * i + (
                    1 if is_acc_producer and d >= ACC_BASE else 0)

    codes_a = _column(codes)
    n_srcs_a = _column(n_srcs)
    dep_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_srcs_a, out=dep_off[1:])
    is_load = (codes_a == _CODE[InstrClass.LOAD]) \
        | (codes_a == _CODE[InstrClass.VSX_LOAD])
    is_store = (codes_a == _CODE[InstrClass.STORE]) \
        | (codes_a == _CODE[InstrClass.VSX_STORE])
    is_branch = (codes_a == _CODE[InstrClass.BRANCH]) \
        | (codes_a == _CODE[InstrClass.BRANCH_IND])
    return StaticPass(
        n=n, codes=codes_a, base_lat=_BASE_LAT[codes_a],
        is_load=is_load, is_store=is_store, is_branch=is_branch,
        is_memory=is_load | is_store,
        n_srcs=n_srcs_a, n_dests=_column(n_dests), flops=_column(flops),
        pc=_column(pc), addr=_column(addr), size=_column(size),
        dep_off=dep_off, dep_p=_column(dep_p), dep_acc=_column(dep_acc),
        branch_idx=branch_idx)


def _branch_pass(instructions, static: StaticPass, kind: str,
                 scale: float) -> np.ndarray:
    unit = make_branch_unit(kind, scale)
    wrong = np.zeros(static.n, dtype=bool)
    process = unit.process
    for i in static.branch_idx:
        if process(instructions[i]):
            wrong[i] = True
    return wrong


def _fusion_pass(instructions, static: StaticPass, enabled: bool,
                 decode_w: int) -> FusionPass:
    n = static.n
    fused = np.zeros(n, dtype=bool)
    latency = static.base_lat.copy()
    single_agen = np.zeros(n, dtype=bool)
    single_storeq = np.zeros(n, dtype=bool)
    engine = FusionEngine(enabled)
    apply = engine.apply
    for s in range(0, n, decode_w):
        effects = apply(instructions[s:s + decode_w])
        for pos, eff in enumerate(effects):
            if eff is not None:
                i = s + pos
                fused[i] = True
                lat = latency[i] + eff.latency_delta
                latency[i] = lat if lat > 1 else 1
                single_agen[i] = eff.single_agen
                single_storeq[i] = eff.single_storeq_entry
    return FusionPass(fused=fused, latency=latency,
                      single_agen=single_agen,
                      single_storeq=single_storeq,
                      fusion_rate=engine.stats.fusion_rate)


def _memory_pass(static: StaticPass, wrong: np.ndarray, fus: FusionPass,
                 config: CoreConfig) -> MemoryPass:
    n = static.n
    decode_w = config.front_end.decode_width
    ea_tagged = config.ea_tagged_l1

    starts = np.arange(0, n, decode_w, dtype=np.int64)
    n_groups = len(starts)

    # I-cache "new sector" mask: last_icache_line always equals the
    # previous instruction's line, except at the start of a group that
    # follows a mispredict (the redirect resets the tracker to -1).
    lines = static.pc >> 5
    newline = np.empty(n, dtype=bool)
    newline[0] = True
    if n > 1:
        np.not_equal(lines[1:], lines[:-1], out=newline[1:])
    if n_groups > 1:
        grp_mis = np.add.reduceat(wrong.astype(np.int64), starts) > 0
        newline[starts[1:][grp_mis[:-1]]] = True

    # store AGEN-skip chain (prev_l1d_access_skipped resets per group)
    sa = fus.fused & fus.single_agen
    prev_sa = np.zeros(n, dtype=bool)
    prev_sa[1:] = sa[:-1]
    prev_sa[starts] = False
    skip = sa & ~prev_sa & static.is_store

    # store-queue merging: previous store (any distance back) ends
    # exactly at this store's address
    merged = np.zeros(n, dtype=bool)
    st_idx = np.flatnonzero(static.is_store)
    if config.lsu.store_merge_enabled and len(st_idx) > 1:
        st_addr = static.addr[st_idx]
        st_size = static.size[st_idx]
        adjacent = st_addr[:-1] + st_size[:-1] == st_addr[1:]
        merged[st_idx[1:][adjacent]] = True

    access_store = static.is_store & ~merged & ~skip

    # ---- the one serial walk: caches + MMU in pipeline order ----------
    hier = CacheHierarchy(config.hierarchy)
    mcfg = config.mmu
    mmu = MMU(mcfg.erat_entries, mcfg.tlb_entries,
              mcfg.tlb_latency, mcfg.walk_latency)
    access_instruction = hier.access_instruction
    access_data = hier.access_data
    translate = mmu.translate
    pcs = memoryview(static.pc)
    addrs = memoryview(static.addr)
    load_l = static.is_load.tolist()

    gstall = np.zeros(n_groups, dtype=np.int64)
    load_delay = np.zeros(n, dtype=np.int32)
    load_miss = np.zeros(n, dtype=bool)
    store_miss = np.zeros(n, dtype=bool)
    ic_miss = np.zeros(n, dtype=bool)
    erat_miss_at: List[int] = []   # one entry per missing translate
    tlb_miss_at: List[int] = []
    dm_idx: List[int] = []         # data misses, with service level
    dm_lvl: List[str] = []

    fetch_i = np.flatnonzero(newline).tolist()
    data_i = np.flatnonzero(static.is_load | access_store).tolist()
    nf, nd = len(fetch_i), len(data_i)
    fp = dp = 0
    g = 0
    for s in range(0, n, decode_w):
        e = s + decode_w
        if e > n:
            e = n
        stall = 0
        while fp < nf and fetch_i[fp] < e:
            i = fetch_i[fp]
            fp += 1
            res = access_instruction(pcs[i])
            if not res.l1_hit:
                ic_miss[i] = True
                tr = translate(pcs[i])
                if not tr.erat_hit:
                    erat_miss_at.append(i)
                    if not tr.tlb_hit:
                        tlb_miss_at.append(i)
                stall += res.latency + tr.extra_latency
        if stall:
            gstall[g] = stall
        g += 1
        while dp < nd and data_i[dp] < e:
            i = data_i[dp]
            dp += 1
            res = access_data(addrs[i])
            hit = res.l1_hit
            if load_l[i]:
                extra = 0
                if not ea_tagged or not hit:
                    tr = translate(addrs[i])
                    if not tr.erat_hit:
                        erat_miss_at.append(i)
                        if not tr.tlb_hit:
                            tlb_miss_at.append(i)
                        extra = tr.extra_latency
                load_delay[i] = res.latency + extra
                if not hit:
                    load_miss[i] = True
                    dm_idx.append(i)
                    dm_lvl.append(res.level)
            else:
                if not ea_tagged or not hit:
                    tr = translate(addrs[i])
                    if not tr.erat_hit:
                        erat_miss_at.append(i)
                        if not tr.tlb_hit:
                            tlb_miss_at.append(i)
                if not hit:
                    store_miss[i] = True
                    dm_idx.append(i)
                    dm_lvl.append(res.level)

    # translation event tensors
    erat_miss = np.zeros(n, dtype=np.int8)
    if erat_miss_at:
        np.add.at(erat_miss, erat_miss_at, 1)
    tlb_miss = np.zeros(n, dtype=np.int8)
    if tlb_miss_at:
        np.add.at(tlb_miss, tlb_miss_at, 1)
    # erat_lookup policy: RA-tagged L1s translate on every access,
    # EA-tagged only on an L1 miss (I-side lookups follow the same
    # policy but the I-side RA lookup is counted per access, miss or
    # not, exactly as the walk's fetch loop does)
    erat_lookup = np.zeros(n, dtype=np.int8)
    if ea_tagged:
        erat_lookup += ic_miss
        erat_lookup += load_miss
        erat_lookup += store_miss
    else:
        erat_lookup += newline
        erat_lookup += static.is_load
        erat_lookup += access_store

    dm_l3 = np.zeros(n, dtype=bool)
    dm_mem = np.zeros(n, dtype=bool)
    for i, lvl in zip(dm_idx, dm_lvl):
        if lvl == "l3":
            dm_l3[i] = True
        elif lvl == "mem":
            dm_l3[i] = True
            dm_mem[i] = True

    return MemoryPass(
        newline=newline, ic_miss=ic_miss, gstall=gstall,
        erat_lookup=erat_lookup, erat_miss=erat_miss, tlb_miss=tlb_miss,
        access_store=access_store, merged=merged,
        load_miss=load_miss, store_miss=store_miss,
        load_delay=load_delay, dm_l3=dm_l3, dm_mem=dm_mem,
        l1d_miss_rate=hier.l1d.miss_rate,
        l2_miss_rate=hier.l2.miss_rate,
        pf_issued=hier.prefetcher.issued,
        pf_useful=hier.prefetcher.useful)


# --------------------------------------------------------------------------
# Entry point.
# --------------------------------------------------------------------------

def extract_stream(config: CoreConfig, trace, *,
                   max_instructions: Optional[int] = None,
                   ) -> ActivityStream:
    """The activity tensor for ``(config, trace)``.

    Raises :class:`~repro.errors.SimulationError` on an empty trace,
    mirroring the walk.
    """
    instructions = trace.instructions
    if max_instructions is not None:
        instructions = instructions[:max_instructions]
    if not instructions:
        raise SimulationError("cannot simulate an empty trace")
    fe = config.front_end
    static = _static_pass(instructions)
    wrong = _branch_pass(instructions, static,
                         fe.branch_kind, fe.branch_scale)
    fus = _fusion_pass(instructions, static,
                       fe.fusion_enabled, fe.decode_width)
    mem = _memory_pass(static, wrong, fus, config)
    return ActivityStream(static=static, wrong=wrong, fusion=fus,
                          memory=mem)
