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

The trace is walked in chunks of whole decode groups, at most
``_CHUNK_ROWS`` rows each (16,384 on POWER10, 16,380 on POWER9), so a
trace of up to one chunk takes one pass and a longer one never holds
temporaries for more than a chunk.
What spans a chunk boundary is carried across it:

* the last writer of every (thread, register), which the next chunk
  searches as writes that precede it (:class:`_LastWriters`);
* the branch unit, every cache, the prefetcher and the MMU — the same
  objects take each chunk's batch in turn;
* the store-merge state (where the previous store ended), the previous
  instruction's I-cache sector and whether the previous group
  mispredicted (:class:`_MemoryWalk`).

Fusion pairs never cross a decode group, and the store AGEN-skip chain
resets at every group, so group-aligned chunks carry nothing for them.
Each structure still sees exactly the walk's sequence, so the tensor is
the same at any chunk size.  Its memory is fixed per row: a few bytes of
flags and latencies, plus the dependence edges.

Within a chunk, the memory pass walks each structure once, in one
batched call, because the structures share no state:

* the L1I sees only fetches and the L1D only data accesses, so each
  one's hit mask depends on its own stream alone;
* the L2, the L3 and the prefetcher see only L1 misses, in walk order
  (per decode group: its fetches, then its data accesses);
* the ERAT and the TLB see only translations, in walk order: a fetch
  translates on an L1I miss, a data access on an L1D miss (on every
  access when the L1s are RA-tagged).

Numpy scatters the outcomes back to instructions.  Extraction has four
parts, each depending on only part of the config:

* **static** — config-independent: the trace's classes and FLOPs plus
  register dependence edges in CSR form, found per chunk with one sort
  and a ``searchsorted``.
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
from typing import Optional

import numpy as np

from ..core.branch import make_branch_unit
from ..core.caches import CacheHierarchy
from ..core.config import CoreConfig
from ..core.fusion import EFFECT_BY_CODE, FusionStats, fuse
from ..core.isa import (ACC_BASE, BASE_LATENCY, CLASS_CODE, CLASS_ORDER,
                        InstrClass, TraceColumns)
from ..core.tlb import MMU, PAGE_BYTES
from ..errors import SimulationError
from ..workloads.trace import columns_of

#: rows extracted at once, rounded down to whole decode groups
_CHUNK_ROWS = 16384

_BASE_LAT = np.array([BASE_LATENCY[cls] for cls in CLASS_ORDER],
                     dtype=np.int16)
_MMA_CODE = CLASS_CODE[InstrClass.MMA]
_BRANCH_IND_CODE = CLASS_CODE[InstrClass.BRANCH_IND]


def _class_mask(*classes: InstrClass) -> np.ndarray:
    mask = np.zeros(len(CLASS_ORDER), dtype=bool)
    mask[[CLASS_CODE[cls] for cls in classes]] = True
    return mask


# class masks per class code
_IS_LOAD = _class_mask(InstrClass.LOAD, InstrClass.VSX_LOAD)
_IS_STORE = _class_mask(InstrClass.STORE, InstrClass.VSX_STORE)
_IS_BRANCH = _class_mask(InstrClass.BRANCH, InstrClass.BRANCH_IND)
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
    is_load: np.ndarray        # bool
    is_store: np.ndarray       # bool
    is_branch: np.ndarray      # bool
    flops: np.ndarray          # int32
    # register dependences in CSR form, aligned with flattened srcs:
    # edge d of instruction i lives in [dep_off[i], dep_off[i+1]);
    # dep_p[d] is the producer index (-1: no in-trace producer) and
    # dep_acc[d] (0/1) marks MMA accumulator forwarding (ready at
    # issue+1 instead of finish).  dest_off counts register writes.
    dep_off: np.ndarray        # int64, length n+1
    dest_off: np.ndarray       # int64, length n+1
    dep_p: np.ndarray          # int32
    dep_acc: np.ndarray        # int8


@dataclass
class FusionPass:
    """Per-instruction fusion outcome (consumer side)."""

    fused: np.ndarray          # bool: fused with predecessor
    latency: np.ndarray        # int16, post-fusion base latency
    single_agen: np.ndarray    # bool
    single_storeq: np.ndarray  # bool
    fusion_rate: float = 0.0


@dataclass
class MemoryPass:
    """Cache/TLB outcomes from one batched walk per structure and chunk."""

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
    l1d_miss_rate: float = 0.0
    l2_miss_rate: float = 0.0
    pf_issued: int = 0
    pf_useful: int = 0


@dataclass
class ActivityStream:
    """The full activity tensor for one (config, trace) pair."""

    static: StaticPass
    wrong: np.ndarray          # bool per instruction: mispredicted branch
    fusion: FusionPass
    memory: MemoryPass


def _empty_stream(columns: TraceColumns, decode_w: int) -> ActivityStream:
    """The tensor's arrays for ``columns``, before any chunk fills them."""
    n = len(columns)

    def rows(dtype) -> np.ndarray:
        return np.zeros(n, dtype=dtype)

    static = StaticPass(
        n=n, codes=columns.codes, is_load=rows(bool), is_store=rows(bool),
        is_branch=rows(bool), flops=columns.flops,
        dep_off=columns.src_off, dest_off=columns.dest_off,
        dep_p=np.full(int(columns.src_off[-1]), -1, dtype=np.int32),
        dep_acc=np.zeros(int(columns.src_off[-1]), dtype=np.int8))
    fusion = FusionPass(fused=rows(bool), latency=rows(np.int16),
                        single_agen=rows(bool), single_storeq=rows(bool))
    memory = MemoryPass(
        newline=rows(bool), ic_miss=rows(bool),
        gstall=np.zeros(-(-n // decode_w), dtype=np.int64),
        erat_lookup=rows(np.int8), erat_miss=rows(np.int8),
        tlb_miss=rows(np.int8), access_store=rows(bool), merged=rows(bool),
        load_miss=rows(bool), store_miss=rows(bool),
        load_delay=rows(np.int32), dm_l3=rows(bool), dm_mem=rows(bool))
    return ActivityStream(static=static, wrong=rows(bool), fusion=fusion,
                          memory=memory)


# --------------------------------------------------------------------------
# One chunk of each part.  ``lo`` is the chunk's first row in the run;
# outputs are written into the run's arrays at rows lo:lo+len(chunk).
# --------------------------------------------------------------------------

class _LastWriters:
    """Register dependences, chunk by chunk: a read depends on the most
    recent strictly earlier write of the same (thread, register).

    Within a chunk, writes are sorted by (thread, register, row) and
    each read is found by ``searchsorted``.  Each key's last writer so
    far is carried to the next chunk, which sorts it in as a write that
    precedes all of its own.
    """

    def __init__(self):
        # sorted (thread << 32) + register, and each one's last writer
        self._keys = np.empty(0, dtype=np.int64)
        self._rows = np.empty(0, dtype=np.int64)

    def resolve(self, chunk: TraceColumns, lo: int, static: StaticPass):
        rows = np.arange(lo, lo + len(chunk), dtype=np.int64)
        thread = chunk.thread.astype(np.int64) << 32
        n_dests = np.diff(chunk.dest_off)
        w_row = np.concatenate((self._rows, np.repeat(rows, n_dests)))
        w_key = np.concatenate(
            (self._keys, np.repeat(thread, n_dests) + chunk.dest_reg))
        if not len(w_key):
            return
        keys, w_rank = np.unique(w_key, return_inverse=True)
        del w_key
        # one sortable number per write: key rank major, row minor
        stride = lo + len(chunk)
        w_pos = w_rank * stride + w_row
        w_order = np.argsort(w_pos, kind="stable")
        w_sorted = w_pos[w_order]
        del w_pos, w_rank
        if len(chunk.src_reg):
            # one pass per read, in place where it can be: reads are
            # most of a chunk's edges
            n_srcs = np.diff(chunk.src_off)
            r_key = np.repeat(thread, n_srcs)
            r_key += chunk.src_reg
            r_rank = np.searchsorted(keys, r_key)
            np.minimum(r_rank, len(keys) - 1, out=r_rank)
            hit = keys[r_rank] == r_key
            del r_key
            last = r_rank * stride
            last += np.repeat(rows, n_srcs)
            last = np.searchsorted(w_sorted, last)
            last -= 1
            hit &= last >= 0
            np.maximum(last, 0, out=last)
            hit &= w_sorted[last] // stride == r_rank
            del r_rank
            writer = w_row[w_order[last]]
            del last
            edges = slice(static.dep_off[lo], static.dep_off[lo + len(chunk)])
            static.dep_p[edges][hit] = writer[hit]
            static.dep_acc[edges][hit & (static.codes[writer] == _MMA_CODE)
                                  & (chunk.src_reg >= ACC_BASE)] = 1
        # each key's last write ends its run in the sorted order
        ends = np.searchsorted(
            w_sorted, np.arange(1, len(keys) + 1, dtype=np.int64) * stride)
        self._keys, self._rows = keys, w_row[w_order[ends - 1]]


def _branch_chunk(unit, chunk: TraceColumns, is_branch: np.ndarray,
                  wrong: np.ndarray) -> None:
    resolve = unit.resolve
    at = np.flatnonzero(is_branch)
    indirect = chunk.codes[at] == _BRANCH_IND_CODE
    for i, ind, pc, taken, target, thread in zip(
            at.tolist(), indirect.tolist(), chunk.pc[at].tolist(),
            chunk.taken[at].tolist(), chunk.target[at].tolist(),
            chunk.thread[at].tolist()):
        if resolve(ind, pc, taken, None if target < 0 else target, thread):
            wrong[i] = True


def _fusion_chunk(chunk: TraceColumns, lo: int, fus: FusionPass,
                  enabled: bool, decode_w: int) -> FusionStats:
    outcome = fuse(chunk, enabled, decode_w)
    fused = outcome.fused
    code = outcome.kind[fused].astype(np.int64)
    hi = lo + len(chunk)
    latency = _BASE_LAT[chunk.codes]
    latency[fused] = np.maximum(1, latency[fused] + _LAT_DELTA[code])
    fus.fused[lo:hi] = fused
    fus.latency[lo:hi] = latency
    fus.single_agen[lo:hi][fused] = _SINGLE_AGEN[code]
    fus.single_storeq[lo:hi][fused] = _SINGLE_STOREQ[code]
    return outcome.stats


class _MemoryWalk:
    """The memory structures of one run, and what each chunk hands the
    next besides them."""

    def __init__(self, config: CoreConfig):
        self.config = config
        self.hier = CacheHierarchy(config.hierarchy)
        mcfg = config.mmu
        self.mmu = MMU(mcfg.erat_entries, mcfg.tlb_entries,
                       mcfg.tlb_latency, mcfg.walk_latency)
        self._line: Optional[int] = None     # previous row's I-cache sector
        self._group_wrong = False            # previous group mispredicted
        self._store_end: Optional[int] = None  # previous store's end

    def walk(self, chunk: TraceColumns, lo: int, stream: ActivityStream):
        config, hier, mmu = self.config, self.hier, self.mmu
        st, fus, out = stream.static, stream.fusion, stream.memory
        m = len(chunk)
        hi = lo + m
        decode_w = config.front_end.decode_width
        is_load, is_store = st.is_load[lo:hi], st.is_store[lo:hi]
        wrong = stream.wrong[lo:hi]
        starts = np.arange(0, m, decode_w, dtype=np.int64)

        # I-cache "new sector" mask: last_icache_line always equals the
        # previous instruction's line, except at the start of a group that
        # follows a mispredict (the redirect resets the tracker to -1).
        lines = chunk.pc >> 5
        newline = out.newline[lo:hi]
        newline[0] = self._group_wrong or self._line != int(lines[0])
        np.not_equal(lines[1:], lines[:-1], out=newline[1:])
        grp_wrong = np.logical_or.reduceat(wrong, starts)
        newline[starts[1:][grp_wrong[:-1]]] = True
        self._line, self._group_wrong = int(lines[-1]), bool(grp_wrong[-1])

        # store AGEN-skip chain (prev_l1d_access_skipped resets per group)
        sa = fus.fused[lo:hi] & fus.single_agen[lo:hi]
        prev_sa = np.zeros(m, dtype=bool)
        prev_sa[1:] = sa[:-1]
        prev_sa[starts] = False
        skip = sa & ~prev_sa & is_store

        # store-queue merging: previous store (any distance back) ends
        # exactly at this store's address
        merged = out.merged[lo:hi]
        st_idx = np.flatnonzero(is_store)
        if config.lsu.store_merge_enabled and len(st_idx):
            st_addr = chunk.address[st_idx]
            st_end = st_addr + chunk.size[st_idx]
            merged[st_idx[1:]] = st_end[:-1] == st_addr[1:]
            if self._store_end is not None:
                merged[st_idx[0]] = self._store_end == st_addr[0]
            self._store_end = int(st_end[-1])

        access_store = is_store & ~merged & ~skip
        out.access_store[lo:hi] = access_store

        # ---- one batched walk per structure --------------------------------
        mcfg = config.mmu
        ea_tagged = config.ea_tagged_l1
        geo = config.hierarchy
        fetch_at = np.flatnonzero(newline)
        data_at = np.flatnonzero(is_load | access_store)
        data_addr = chunk.address[data_at]
        ic_at = fetch_at[hier.l1i.access_lines(
            (chunk.pc[fetch_at] // geo.l1i.line_bytes).tolist())]
        n_ic = len(ic_at)
        dm_pos = hier.l1d.access_lines(
            (data_addr // geo.l1d.line_bytes).tolist())
        dm_at = data_at[dm_pos]

        # L2/L3 and the prefetcher: the L1 misses in walk order
        miss_at = np.concatenate([ic_at, dm_at])
        order = _walk_order(miss_at, n_ic, decode_w)
        level = np.empty(len(miss_at), dtype=np.int8)
        level[order] = hier.lower_walk(
            np.concatenate([chunk.pc[ic_at], data_addr[dm_pos]])[order])
        miss_lat = np.array(hier.lower_latency, dtype=np.int64)[level]

        # ERAT/TLB: fetches translate on an I-cache miss; data accesses on
        # an L1D miss, or always when the L1s are RA-tagged
        xl_at, xl_addr = (dm_at, data_addr[dm_pos]) if ea_tagged \
            else (data_at, data_addr)
        tr_at = np.concatenate([ic_at, xl_at])
        order = _walk_order(tr_at, n_ic, decode_w)
        pages = np.concatenate([chunk.pc[ic_at], xl_addr]) // PAGE_BYTES
        erat_pos, walk_pos = mmu.translate_pages(pages[order].tolist())
        erat_missed = order[erat_pos]
        walked = order[walk_pos]
        extra = np.zeros(len(tr_at), dtype=np.int64)
        extra[erat_missed] = mcfg.tlb_latency
        extra[walked] += mcfg.walk_latency
        out.erat_miss[lo:hi] = np.bincount(tr_at[erat_missed], minlength=m)
        out.tlb_miss[lo:hi] = np.bincount(tr_at[walked], minlength=m)

        # scatter: fetch stalls per group, data outcomes per instruction
        ic_miss = out.ic_miss[lo:hi]
        ic_miss[ic_at] = True
        g0 = lo // decode_w
        out.gstall[g0:g0 + len(starts)] = np.bincount(
            ic_at // decode_w, weights=miss_lat[:n_ic] + extra[:n_ic],
            minlength=len(starts))
        load_miss, store_miss = out.load_miss[lo:hi], out.store_miss[lo:hi]
        load_miss[dm_at] = is_load[dm_at]
        store_miss[dm_at] = is_store[dm_at]
        delay = np.zeros(m, dtype=np.int64)
        delay[data_at] = geo.l1d.latency
        delay[dm_at] = miss_lat[n_ic:]
        delay[xl_at] += extra[n_ic:]
        out.load_delay[lo:hi] = np.where(is_load, delay, 0)
        out.dm_l3[lo:hi][dm_at] = level[n_ic:] >= 1
        out.dm_mem[lo:hi][dm_at] = level[n_ic:] == 2

        # erat_lookup policy: RA-tagged L1s translate on every access,
        # EA-tagged only on an L1 miss (I-side lookups follow the same
        # policy but the I-side RA lookup is counted per access, miss or
        # not, exactly as the walk's fetch loop does)
        erat_lookup = out.erat_lookup[lo:hi]
        if ea_tagged:
            erat_lookup += ic_miss
            erat_lookup += load_miss
            erat_lookup += store_miss
        else:
            erat_lookup += newline
            erat_lookup += is_load
            erat_lookup += access_store

    def finish(self, out: MemoryPass) -> None:
        """The run's totals, once every chunk is walked."""
        hier = self.hier
        out.l1d_miss_rate = hier.l1d.miss_rate
        out.l2_miss_rate = hier.l2.miss_rate
        out.pf_issued = hier.prefetcher.issued
        out.pf_useful = hier.prefetcher.useful


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
    """The activity tensor for ``(config, trace)``, walked in chunks of
    whole decode groups, at most ``_CHUNK_ROWS`` rows each.

    Raises :class:`~repro.errors.SimulationError` on an empty trace,
    mirroring the walk.
    """
    columns = columns_of(trace)
    if max_instructions is not None:
        columns = columns[:max_instructions]
    n = len(columns)
    if not n:
        raise SimulationError("cannot simulate an empty trace")
    fe = config.front_end
    decode_w = fe.decode_width
    stream = _empty_stream(columns, decode_w)
    st = stream.static
    writers = _LastWriters()
    unit = make_branch_unit(fe.branch_kind, fe.branch_scale)
    fusion = FusionStats()
    memory = _MemoryWalk(config)
    step = max(1, _CHUNK_ROWS // decode_w) * decode_w
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        chunk = columns[lo:hi]
        st.is_load[lo:hi] = _IS_LOAD[chunk.codes]
        st.is_store[lo:hi] = _IS_STORE[chunk.codes]
        st.is_branch[lo:hi] = _IS_BRANCH[chunk.codes]
        writers.resolve(chunk, lo, st)
        _branch_chunk(unit, chunk, st.is_branch[lo:hi], stream.wrong[lo:hi])
        fusion.add(_fusion_chunk(chunk, lo, stream.fusion,
                                 fe.fusion_enabled, decode_w))
        memory.walk(chunk, lo, stream)
    stream.fusion.fusion_rate = fusion.fusion_rate
    memory.finish(stream.memory)
    return stream
