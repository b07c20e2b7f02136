"""Activity-stream extraction: the tensor half of the replay.

``core.pipeline.simulate_reference`` interleaves two kinds of work in one
per-instruction loop: *stateful event derivation* (I-cache/D-cache and
TLB walks, branch prediction, fusion classification — none of which
depend on instruction timing) and the *serial occupancy recurrence*
(dispatch/issue/retire cycles through finite windows, queues and
ports).  This module performs only the first kind, on the trace's
columns (:class:`~repro.core.isa.TraceColumns`): it drives the very
same stateful components (:class:`~repro.core.caches.CacheHierarchy`,
:class:`~repro.core.tlb.MMU`, the branch predictors) in the exact order
the walk would, shares the walk's fusion classifier
(:func:`~repro.core.fusion.fuse`), and stores the outcomes as numpy
arrays over instruction index — the activity tensor that
:mod:`repro.fastsim.replay` consumes.

Extraction runs four sub-passes, each depending on only part of the
config:

* **static** — config-independent: a view of the trace's columns
  (classes, FLOPs, pc, addresses, sizes) plus register dependence edges
  in CSR form, found with one sort and a ``searchsorted``.
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

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.branch import make_branch_unit
from ..core.caches import CacheHierarchy
from ..core.config import CoreConfig
from ..core.fusion import EFFECT_BY_CODE, fuse
from ..core.isa import (ACC_BASE, BASE_LATENCY, CLASS_CODE, CLASS_ORDER,
                        InstrClass, TraceColumns)
from ..core.tlb import MMU
from ..errors import SimulationError
from ..workloads.trace import columns_of

_BASE_LAT = np.array([BASE_LATENCY[cls] for cls in CLASS_ORDER],
                     dtype=np.int16)
_MMA_CODE = CLASS_CODE[InstrClass.MMA]
# fusion effects per kind code
_LAT_DELTA = np.array([e.latency_delta for e in EFFECT_BY_CODE],
                      dtype=np.int16)
_SINGLE_AGEN = np.array([e.single_agen for e in EFFECT_BY_CODE])
_SINGLE_STOREQ = np.array([e.single_storeq_entry for e in EFFECT_BY_CODE])


@dataclass
class StaticPass:
    """Config-independent per-instruction tensors: views of the trace's
    columns plus the class masks and register dependences."""

    n: int
    codes: np.ndarray          # int8, index into CLASS_ORDER
    base_lat: np.ndarray       # int16, BASE_LATENCY per instruction
    is_load: np.ndarray        # bool
    is_store: np.ndarray       # bool
    is_branch: np.ndarray      # bool
    is_memory: np.ndarray      # bool
    n_srcs: np.ndarray         # int64
    n_dests: np.ndarray        # int64
    flops: np.ndarray          # int32
    pc: np.ndarray             # int64
    addr: np.ndarray           # int64, -1 when no address
    size: np.ndarray           # int32
    # register dependences in CSR form, aligned with flattened srcs:
    # edge d of instruction i lives in [dep_off[i], dep_off[i+1]);
    # dep_p[d] is the producer index (-1: no in-trace producer) and
    # dep_acc[d] (0/1) marks MMA accumulator forwarding (ready at
    # issue+1 instead of finish).
    dep_off: np.ndarray        # int64, length n+1
    dep_p: np.ndarray          # int32
    dep_acc: np.ndarray        # int8


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

def _static_pass(columns: TraceColumns) -> StaticPass:
    codes = columns.codes
    is_load = (codes == CLASS_CODE[InstrClass.LOAD]) \
        | (codes == CLASS_CODE[InstrClass.VSX_LOAD])
    is_store = (codes == CLASS_CODE[InstrClass.STORE]) \
        | (codes == CLASS_CODE[InstrClass.VSX_STORE])
    is_branch = (codes == CLASS_CODE[InstrClass.BRANCH]) \
        | (codes == CLASS_CODE[InstrClass.BRANCH_IND])
    dep_p, dep_acc = _dependences(columns)
    return StaticPass(
        n=len(columns), codes=codes, base_lat=_BASE_LAT[codes],
        is_load=is_load, is_store=is_store, is_branch=is_branch,
        is_memory=is_load | is_store,
        n_srcs=np.diff(columns.src_off), n_dests=np.diff(columns.dest_off),
        flops=columns.flops, pc=columns.pc, addr=columns.address,
        size=columns.size, dep_off=columns.src_off, dep_p=dep_p,
        dep_acc=dep_acc)


def _dependences(columns: TraceColumns) -> Tuple[np.ndarray, np.ndarray]:
    """Producer of every register read, aligned with ``src_reg``.

    A read depends on the most recent strictly earlier write of the
    same (thread, register).  Writes are sorted by (thread, register,
    row) and each read is found by ``searchsorted``.  ``dep_acc`` marks
    an accumulator read whose producer is an MMA op.
    """
    n = len(columns)
    rows = np.arange(n, dtype=np.int64)
    thread = columns.thread.astype(np.int64) << 32
    w_row = np.repeat(rows, np.diff(columns.dest_off))
    w_key = thread[w_row] + columns.dest_reg
    r_row = np.repeat(rows, np.diff(columns.src_off))
    r_key = thread[r_row] + columns.src_reg
    dep_p = np.full(len(r_key), -1, dtype=np.int32)
    dep_acc = np.zeros(len(r_key), dtype=np.int8)
    if not len(w_key) or not len(r_key):
        return dep_p, dep_acc
    keys, w_rank = np.unique(w_key, return_inverse=True)
    # one sortable number per write: key rank major, row minor
    stride = n + 1
    w_pos = w_rank * stride + w_row
    w_order = np.argsort(w_pos, kind="stable")
    w_sorted = w_pos[w_order]
    r_rank = np.minimum(np.searchsorted(keys, r_key), len(keys) - 1)
    last = np.searchsorted(w_sorted, r_rank * stride + r_row) - 1
    at = np.maximum(last, 0)
    hit = (keys[r_rank] == r_key) & (last >= 0) \
        & (w_sorted[at] // stride == r_rank)
    writer = w_row[w_order[at]]
    dep_p[hit] = writer[hit]
    dep_acc[hit & (columns.codes[writer] == _MMA_CODE)
            & (columns.src_reg >= ACC_BASE)] = 1
    return dep_p, dep_acc


def _branch_pass(columns: TraceColumns, static: StaticPass, kind: str,
                 scale: float) -> np.ndarray:
    unit = make_branch_unit(kind, scale)
    resolve = unit.resolve
    wrong = np.zeros(static.n, dtype=bool)
    at = np.flatnonzero(static.is_branch)
    indirect = columns.codes[at] == CLASS_CODE[InstrClass.BRANCH_IND]
    for i, ind, pc, taken, target, thread in zip(
            at.tolist(), indirect.tolist(), columns.pc[at].tolist(),
            columns.taken[at].tolist(), columns.target[at].tolist(),
            columns.thread[at].tolist()):
        if resolve(ind, pc, taken, None if target < 0 else target, thread):
            wrong[i] = True
    return wrong


def _fusion_pass(columns: TraceColumns, static: StaticPass, enabled: bool,
                 decode_w: int) -> FusionPass:
    outcome = fuse(columns, enabled, decode_w)
    fused = outcome.fused
    code = outcome.kind[fused].astype(np.int64)
    latency = static.base_lat.copy()
    latency[fused] = np.maximum(1, latency[fused] + _LAT_DELTA[code])
    single_agen = np.zeros(static.n, dtype=bool)
    single_agen[fused] = _SINGLE_AGEN[code]
    single_storeq = np.zeros(static.n, dtype=bool)
    single_storeq[fused] = _SINGLE_STOREQ[code]
    return FusionPass(fused=fused, latency=latency,
                      single_agen=single_agen,
                      single_storeq=single_storeq,
                      fusion_rate=outcome.stats.fusion_rate)


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
    columns = columns_of(trace)
    if max_instructions is not None:
        columns = columns[:max_instructions]
    if not len(columns):
        raise SimulationError("cannot simulate an empty trace")
    fe = config.front_end
    static = _static_pass(columns)
    wrong = _branch_pass(columns, static, fe.branch_kind, fe.branch_scale)
    fus = _fusion_pass(columns, static, fe.fusion_enabled, fe.decode_width)
    mem = _memory_pass(static, wrong, fus, config)
    return ActivityStream(static=static, wrong=wrong, fusion=fus,
                          memory=mem)
