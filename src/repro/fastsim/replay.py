"""Table-driven replay: the default path of ``core.pipeline.simulate``.

Consumes the activity tensor from :mod:`repro.fastsim.extract` and runs
only the serial occupancy recurrence — dispatch/issue/retire through
the window, issue queue, load/store/load-miss queues and execution
ports — with every stateful derivation (cache hits, translations,
mispredicts, fusion) already resolved to table lookups.  The port
arbiters are the *same* ``_Ports`` state machines the per-instruction walk
uses (via :func:`repro.core.pipeline.build_ports`), and the queue
models replicate ``_Ring``/``_Pool`` semantics with plain lookback
lists and heaps, so replayed cycle counts are bit-identical to the
walk; ``ActivityCounters`` are then tallied array-at-a-time from the
tensor (full-run totals minus a warmup prefix at the same decode-group
boundary the walk snapshots).

Interval samplers and active fault-injection campaigns observe or
perturb mid-run state the replay never materializes, so
:func:`repro.core.pipeline.simulate` sends those runs to the
per-instruction walk instead; this module never sees them.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Optional

import numpy as np

from ..core.activity import ActivityCounters, EVENT_NAMES
from ..core.config import CoreConfig
from ..core.isa import InstrClass
from ..core.pipeline import (_FRONT_DEPTH, _WRONG_PATH_WINDOW, SimResult,
                             build_ports, derive_busy_cycles)
from ..errors import SimulationError
from ..obs.metrics import get_registry as _obs_registry
from ..obs.tracing import span as _obs_span
from .extract import CLASS_ORDER, ActivityStream, extract_stream

_IDX = {cls: i for i, cls in enumerate(CLASS_ORDER)}

#: decode groups whose loop rows exist at once
_CHUNK_GROUPS = 256


def simulate_fast(config: CoreConfig, trace, *,
                  max_instructions: Optional[int] = None,
                  warmup_fraction: float = 0.0) -> SimResult:
    """Replay one trace; :func:`repro.core.pipeline.simulate` calls this.

    Returns a :class:`~repro.core.pipeline.SimResult` bit-identical to
    :func:`repro.core.pipeline.simulate_reference` for the same inputs
    (enforced by ``tests/test_fastsim_diff.py``).  No ``sampler``
    parameter: sampled runs take the walk.
    """
    with _obs_span("fastsim.simulate", "fastsim", config=config.name,
                   trace=getattr(trace, "name", "?")) as sp:
        result = _replay(config, trace, max_instructions=max_instructions,
                         warmup_fraction=warmup_fraction)
        sp.set(cycles=result.cycles, instructions=result.instructions,
               ipc=round(result.ipc, 4))
        _obs_registry().counter(
            "repro_fast_simulations_total",
            "fastsim.simulate_fast invocations").inc(config=config.name)
        return result


def _replay(config: CoreConfig, trace, *,
            max_instructions: Optional[int],
            warmup_fraction: float) -> SimResult:
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must be in [0, 1)")
    stream = extract_stream(config, trace,
                            max_instructions=max_instructions)
    st, fus, mem, wrong = (stream.static, stream.fusion, stream.memory,
                           stream.wrong)
    n = st.n

    fe = config.front_end
    issue_cfg = config.issue
    lsu_cfg = config.lsu
    smt = config.smt
    decode_w = fe.decode_width
    window_n = issue_cfg.window_entries
    issueq_n = issue_cfg.issueq_entries
    if smt > 1:
        loadq_n = lsu_cfg.load_queue_smt
        storeq_n = lsu_cfg.store_queue_smt
    else:
        loadq_n = lsu_cfg.load_queue_st
        storeq_n = lsu_cfg.store_queue_st
    lmq_n = lsu_cfg.load_miss_queue
    completion_w = issue_cfg.completion_width
    redirect = fe.redirect_penalty
    wp_factor = fe.wrong_path_fill * fe.fetch_width
    wrong_window = _WRONG_PATH_WINDOW
    front_depth = _FRONT_DEPTH

    ports = build_ports(issue_cfg)
    port_by_code = [ports.get(cls) for cls in CLASS_ORDER]
    present = np.array([p is not None for p in port_by_code], dtype=bool)
    missing = ~present[st.codes.astype(np.int64)]
    if missing.any():
        cls = CLASS_ORDER[int(st.codes[int(np.argmax(missing))])]
        raise SimulationError(
            f"no execution resource for {cls} on {config.name}")

    # Port arbitration is inlined for single-cycle initiation intervals
    # (the common case); each distinct _Ports group gets one mutable
    # state cell [occ, low_water, count, interval, obj, occ.get] so
    # classes sharing physical ports (VSX_LOAD->LOAD, VSX_STORE->STORE)
    # share occupancy exactly as in the walk.
    port_state: dict = {}
    state_by_code = []
    for p in port_by_code:
        if p is None:
            state_by_code.append(None)
            continue
        cell = port_state.get(id(p))
        if cell is None:
            occ: dict = {}
            cell = [occ, 0, p.count, p.interval, p, occ.get]
            port_state[id(p)] = cell
        state_by_code.append(cell)

    # The warmup boundary is the first decode-group start at or past
    # the warmup count (the walk snapshots there); without one the
    # whole run is measured.
    warmup_count = int(n * warmup_fraction)
    idx0 = -(-warmup_count // decode_w) * decode_w
    if idx0 >= n:
        idx0 = 0
    # Everything but the wrong-path volumes is tallied before the loop,
    # so the loop holds only the columns it reads: peak memory is the
    # tensor the loop needs plus one chunk of rows, not the whole
    # activity tensor plus Python objects for every instruction.
    ev = _tally(stream, idx0)
    mispredicts = int(np.count_nonzero(wrong[idx0:]))
    flops = int(st.flops[idx0:].sum())
    l1d_miss_rate, l2_miss_rate = mem.l1d_miss_rate, mem.l2_miss_rate
    fusion_rate = fus.fusion_rate
    columns = (st.codes,
               st.is_load.astype(np.int8) + 2 * st.is_store.astype(np.int8),
               fus.fused,
               st.is_store & ~(fus.fused & fus.single_storeq),
               wrong, fus.latency, mem.load_miss, mem.load_delay)
    gstall_l = mem.gstall.tolist()
    dep_off = memoryview(st.dep_off)
    dep_p = memoryview(st.dep_p)
    dep_acc = memoryview(st.dep_acc)
    del stream, st, fus, mem, wrong

    issue_ts = array("q", bytes(8 * n))
    finish_ts = array("q", bytes(8 * n))
    retires = array("q")
    retires_append = retires.append
    heap_push = heapq.heappush
    heap_replace = heapq.heapreplace
    iq: list = []
    iq_len = 0
    lmq: list = []
    lmq_len = 0
    lq_rel = array("q")
    lq_append = lq_rel.append
    nl = 0
    sq_rel = array("q")
    sq_append = sq_rel.append
    ns = 0

    front_cycle = 0
    last_retire = 0
    retire_in_cycle = 0
    wp_flush = 0
    wp_decode = 0
    snap = None
    g = 0
    chunk = decode_w * _CHUNK_GROUPS     # splits only between groups
    for c0 in range(0, n, chunk):
        c1 = min(n, c0 + chunk)
        codes, *rest = (col[c0:c1].tolist() for col in columns)
        # one row tuple per instruction: single unpack in the loop
        rows = list(zip([state_by_code[c] for c in codes], *rest))
        for s in range(c0, c1, decode_w):
            if s == idx0 and idx0:
                snap = (front_cycle, last_retire, wp_flush, wp_decode)
            e = s + decode_w
            if e > c1:
                e = c1
            front_cycle += 1 + gstall_l[g]
            g += 1
            dispatch_base = front_cycle + front_depth
            prev_issue = 0
            for i in range(s, e):
                pstate, kind, fused, sqf, wr, lat, lmiss, ldel = rows[i - c0]
                dispatch = dispatch_base
                if i >= window_n:
                    v = retires[i - window_n]
                    if v > dispatch:
                        dispatch = v
                if not fused and iq_len == issueq_n:
                    v = iq[0]
                    if v > dispatch:
                        dispatch = v
                if kind == 1:
                    if nl >= loadq_n:
                        v = lq_rel[nl - loadq_n]
                        if v > dispatch:
                            dispatch = v
                elif kind == 2 and sqf:
                    if ns >= storeq_n:
                        v = sq_rel[ns - storeq_n]
                        if v > dispatch:
                            dispatch = v
                if dispatch > dispatch_base:
                    # structural stall backs up the front end
                    front_cycle += dispatch - dispatch_base
                    dispatch_base = dispatch
                ready = dispatch + 1
                d0 = dep_off[i]
                d1 = dep_off[i + 1]
                while d0 < d1:
                    p = dep_p[d0]
                    if p >= 0:
                        v = issue_ts[p] + 1 if dep_acc[d0] else finish_ts[p]
                        if v > ready:
                            ready = v
                    d0 += 1
                if fused and prev_issue > ready:
                    ready = prev_issue
                if pstate[3] == 1:
                    cycle = ready if ready > pstate[1] else pstate[1]
                    og = pstate[5]
                    cnt = pstate[2]
                    v = og(cycle, 0)
                    while v >= cnt:
                        cycle += 1
                        v = og(cycle, 0)
                    occ = pstate[0]
                    occ[cycle] = v + 1
                    if len(occ) > 65536:
                        cutoff = cycle - 4096
                        occ = {c: x for c, x in occ.items() if c >= cutoff}
                        pstate[0] = occ
                        pstate[5] = occ.get
                        if cutoff > pstate[1]:
                            pstate[1] = cutoff
                    issue_at = cycle
                else:
                    issue_at = pstate[4].issue(ready)
                prev_issue = issue_at
                if kind == 1:
                    lq_append(issue_at + lat)
                    nl += 1
                    if lmiss:
                        le = lmq[0] if lmq_len == lmq_n else 0
                        lmq_at = issue_at if issue_at > le else le
                        fill = lmq_at + ldel
                        if lmq_len >= lmq_n:
                            heap_replace(lmq, fill)
                        else:
                            heap_push(lmq, fill)
                            lmq_len += 1
                        v = fill - issue_at
                        if v > lat:
                            lat = v
                    elif ldel > lat:
                        lat = ldel
                elif kind == 2 and sqf:
                    sq_append(issue_at + lat + 4)
                    ns += 1
                finish = issue_at + lat
                issue_ts[i] = issue_at
                finish_ts[i] = finish
                if wr:
                    ahead = finish - front_cycle
                    stall = ahead + redirect
                    if smt > 1:
                        stall = stall // smt
                        if stall < 1:
                            stall = 1
                    if ahead < 0:
                        ahead = 0
                    elif ahead > wrong_window:
                        ahead = wrong_window
                    wp = int(wp_factor * ahead)
                    wp_flush += wp
                    wp_decode += wp >> 1
                    if stall > 0:
                        front_cycle += stall
                retire = finish + 1
                if retire < last_retire:
                    retire = last_retire
                if retire == last_retire:
                    retire_in_cycle += 1
                    if retire_in_cycle >= completion_w:
                        retire += 1
                        retire_in_cycle = 0
                else:
                    retire_in_cycle = 1
                last_retire = retire
                retires_append(retire)
                if not fused:
                    v = issue_at + 1
                    if iq_len >= issueq_n:
                        heap_replace(iq, v)
                    else:
                        heap_push(iq, v)
                        iq_len += 1

    cycles = max(last_retire, front_cycle) + 1
    if snap is not None:
        front0, retire0, wp_flush0, wp_decode0 = snap
        cycles = max(1, cycles - (max(retire0, front0) + 1))
    else:
        wp_flush0 = wp_decode0 = 0
    measured = n - idx0
    flushed = wp_flush - wp_flush0
    ev["fetch_instr"] += flushed
    ev["predecode_instr"] += flushed
    ev["decode_instr"] += wp_decode - wp_decode0
    ev["flush_instr"] = flushed

    act = ActivityCounters()
    act.events = ev
    act.cycles = cycles
    act.instructions = measured
    derive_busy_cycles(act, config, cycles)

    return SimResult(
        config_name=config.name,
        cycles=cycles,
        instructions=measured,
        activity=act,
        flushed_instructions=flushed,
        mispredicts=mispredicts,
        flops=flops,
        l1d_miss_rate=l1d_miss_rate,
        l2_miss_rate=l2_miss_rate,
        fusion_rate=fusion_rate,
        branch_mpki=1000.0 * mispredicts / measured,
        metadata={"trace": getattr(trace, "name", "?"), "smt": smt,
                  "frequency_ghz": config.power.frequency_ghz},
    )


def _tally(stream: ActivityStream, idx0: int) -> dict:
    """Post-warmup event counts, array-at-a-time from the tensor.

    Equivalent to the walk's "snapshot at the warmup group
    boundary, subtract at the end": every per-instruction event here is
    attributed to its instruction index, and the warmup boundary is a
    decode-group start, so the prefix sum at ``idx0`` *is* the
    snapshot.  Wrong-path volumes (the only timing-dependent events)
    are left out; the replay loop adds them.
    """
    st, fus, mem, wrong = (stream.static, stream.fusion, stream.memory,
                           stream.wrong)
    n = st.n
    live = n - idx0

    def cnt(mask) -> int:
        return int(np.count_nonzero(mask[idx0:]))

    def tot(arr) -> int:
        return int(arr[idx0:].sum())

    per_class = np.bincount(st.codes[idx0:].astype(np.int64),
                            minlength=len(CLASS_ORDER))
    fused_c = cnt(fus.fused)
    mispred = cnt(wrong)
    loads = int(per_class[_IDX[InstrClass.LOAD]]
                + per_class[_IDX[InstrClass.VSX_LOAD]])
    stores = int(per_class[_IDX[InstrClass.STORE]]
                 + per_class[_IDX[InstrClass.VSX_STORE]])
    l1d_miss = cnt(mem.load_miss) + cnt(mem.store_miss)
    erat_miss = tot(mem.erat_miss)
    tlb_miss = tot(mem.tlb_miss)
    dests = tot(st.n_dests)
    dm_l3 = cnt(mem.dm_l3)
    dm_mem = cnt(mem.dm_mem)

    ev = dict.fromkeys(EVENT_NAMES, 0)
    ev["fetch_instr"] = live
    ev["icache_access"] = cnt(mem.newline)
    ev["icache_miss"] = cnt(mem.ic_miss)
    ev["predecode_instr"] = live
    ev["bp_dir_lookup"] = cnt(st.is_branch)
    ev["bp_tgt_lookup"] = ev["bp_dir_lookup"]
    ev["bp_mispredict"] = mispred
    ev["ibuffer_write"] = live
    ev["decode_instr"] = live
    ev["dispatch_iop"] = live - fused_c
    ev["rename_write"] = dests
    ev["issueq_write"] = live - fused_c
    ev["issueq_wakeup"] = live
    ev["issue_fx"] = int(per_class[_IDX[InstrClass.FX]])
    ev["issue_fx_muldiv"] = int(per_class[_IDX[InstrClass.FX_MULDIV]])
    ev["issue_branch"] = int(per_class[_IDX[InstrClass.BRANCH]]
                             + per_class[_IDX[InstrClass.BRANCH_IND]])
    ev["issue_cr"] = int(per_class[_IDX[InstrClass.CR]])
    ev["issue_fp"] = int(per_class[_IDX[InstrClass.FP]])
    ev["issue_vsx"] = int(per_class[_IDX[InstrClass.VSX]])
    ev["issue_mma"] = int(per_class[_IDX[InstrClass.MMA]])
    ev["mma_acc_access"] = ev["issue_mma"]
    ev["mma_move"] = int(per_class[_IDX[InstrClass.MMA_MOVE]])
    ev["rf_read"] = tot(st.n_srcs)
    ev["rf_write"] = dests
    ev["agen"] = cnt(st.is_memory & ~(fus.fused & fus.single_agen))
    ev["l1d_access"] = loads + cnt(mem.access_store)
    ev["l1d_miss"] = l1d_miss
    ev["load_issue"] = loads
    ev["store_issue"] = stores
    ev["loadq_write"] = loads
    ev["storeq_write"] = cnt(st.is_store
                             & ~(fus.fused & fus.single_storeq))
    ev["storeq_merge"] = cnt(mem.merged)
    ev["lmq_alloc"] = cnt(mem.load_miss)
    ev["erat_lookup"] = tot(mem.erat_lookup)
    ev["erat_miss"] = erat_miss
    ev["tlb_lookup"] = erat_miss
    ev["tlb_miss"] = tlb_miss
    ev["tablewalk"] = tlb_miss
    ev["prefetch_issued"] = mem.pf_issued      # assigned, never warmup-cut
    ev["prefetch_useful"] = mem.pf_useful
    ev["l2_access"] = l1d_miss
    ev["l2_miss"] = dm_l3
    ev["l3_access"] = dm_l3
    ev["l3_miss"] = dm_mem
    ev["mem_access"] = dm_mem
    ev["complete_instr"] = live
    ev["flush_event"] = mispred
    return ev
