"""Activity-stream extraction: the tensor half of the replay.

The per-instruction walk (the test oracle, ``tests/walk_oracle.py``)
interleaves two kinds of work in one loop: *stateful event derivation*
(I-cache/D-cache and TLB walks, branch prediction, fusion
classification — none of which depend on instruction timing) and the
*serial occupancy recurrence* (dispatch/issue/retire cycles through
finite windows, queues and ports).  This module performs only the first
kind, on the trace's columns (:class:`~repro.core.isa.TraceColumns`):
it drives the same stateful components as the walk
(:class:`~repro.core.caches.CacheHierarchy`, :class:`~repro.core.tlb.
MMU`, the branch predictors), shares the walk's fusion classifier
(:func:`~repro.core.fusion.fuse`), and stores the outcomes as numpy
arrays over instruction index — the activity tensor that
:mod:`repro.fastsim.replay` consumes.

The walk interleaves every structure in one per-access loop; the memory
pass instead walks each structure once, in one batched call, because the
structures share no state:

* the L1I sees only fetches and the L1D only data accesses, so each
  one's hit mask depends on its own stream alone;
* the L2, the L3 and the prefetcher see only L1 misses, in walk order
  (per decode group: its fetches, then its data accesses);
* the ERAT and the TLB see only translations, in walk order: a fetch
  translates on an L1I miss, a data access on an L1D miss (on every
  access when the L1s are RA-tagged).

Each structure sees exactly the sequence the walk would give it, so the
outcomes are the walk's; numpy scatters them back to instructions.

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
from typing import Optional, Tuple

import numpy as np

from ..core.branch import make_branch_unit
from ..core.caches import CacheHierarchy
from ..core.config import CoreConfig
from ..core.fusion import EFFECT_BY_CODE, fuse
from ..core.isa import (ACC_BASE, BASE_LATENCY, CLASS_CODE, CLASS_ORDER,
                        InstrClass, TraceColumns)
from ..core.tlb import MMU, PAGE_BYTES
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
    """Cache/TLB outcomes from one batched walk per structure."""

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

    # ---- one batched walk per structure --------------------------------
    hier = CacheHierarchy(config.hierarchy)
    mcfg = config.mmu
    mmu = MMU(mcfg.erat_entries, mcfg.tlb_entries,
              mcfg.tlb_latency, mcfg.walk_latency)
    geo = config.hierarchy
    fetch_at = np.flatnonzero(newline)
    data_at = np.flatnonzero(static.is_load | access_store)
    data_addr = static.addr[data_at]
    ic_at = fetch_at[hier.l1i.access_lines(
        (static.pc[fetch_at] // geo.l1i.line_bytes).tolist())]
    n_ic = len(ic_at)
    dm_pos = hier.l1d.access_lines(
        (data_addr // geo.l1d.line_bytes).tolist())
    dm_at = data_at[dm_pos]

    # L2/L3 and the prefetcher: the L1 misses in walk order
    miss_at = np.concatenate([ic_at, dm_at])
    order = _walk_order(miss_at, n_ic, decode_w)
    level = np.empty(len(miss_at), dtype=np.int8)
    level[order] = hier.lower_walk(
        np.concatenate([static.pc[ic_at], data_addr[dm_pos]])[order]
        .tolist())
    miss_lat = np.array(hier.lower_latency, dtype=np.int64)[level]

    # ERAT/TLB: fetches translate on an I-cache miss; data accesses on
    # an L1D miss, or always when the L1s are RA-tagged
    xl_at, xl_addr = (dm_at, data_addr[dm_pos]) if ea_tagged \
        else (data_at, data_addr)
    tr_at = np.concatenate([ic_at, xl_at])
    order = _walk_order(tr_at, n_ic, decode_w)
    pages = np.concatenate([static.pc[ic_at], xl_addr]) // PAGE_BYTES
    erat_pos, walk_pos = mmu.translate_pages(pages[order].tolist())
    erat_missed = order[erat_pos]
    walked = order[walk_pos]
    extra = np.zeros(len(tr_at), dtype=np.int64)
    extra[erat_missed] = mcfg.tlb_latency
    extra[walked] += mcfg.walk_latency
    erat_miss = np.bincount(tr_at[erat_missed], minlength=n) \
        .astype(np.int8)
    tlb_miss = np.bincount(tr_at[walked], minlength=n).astype(np.int8)

    # scatter: fetch stalls per group, data outcomes per instruction
    ic_miss = np.zeros(n, dtype=bool)
    ic_miss[ic_at] = True
    gstall = np.bincount(ic_at // decode_w,
                         weights=miss_lat[:n_ic] + extra[:n_ic],
                         minlength=n_groups).astype(np.int64)
    data_miss = np.zeros(n, dtype=bool)
    data_miss[dm_at] = True
    load_miss = data_miss & static.is_load
    store_miss = data_miss & static.is_store
    delay = np.zeros(n, dtype=np.int64)
    delay[data_at] = geo.l1d.latency
    delay[dm_at] = miss_lat[n_ic:]
    delay[xl_at] += extra[n_ic:]
    load_delay = np.where(static.is_load, delay, 0).astype(np.int32)
    dm_l3 = np.zeros(n, dtype=bool)
    dm_l3[dm_at] = level[n_ic:] >= 1
    dm_mem = np.zeros(n, dtype=bool)
    dm_mem[dm_at] = level[n_ic:] == 2

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


def _walk_order(at: np.ndarray, n_fetch: int, decode_w: int) -> np.ndarray:
    """The walk's order of accesses at instructions ``at``, whose first
    ``n_fetch`` entries are fetches and the rest data accesses (each part
    ascending): per decode group, its fetches and then its data."""
    data = np.arange(len(at)) >= n_fetch
    return np.lexsort((at, data, at // decode_w))


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
