"""Table-driven replay: the one path of ``core.pipeline.simulate``.

Consumes the activity tensor from :mod:`repro.fastsim.extract` and runs
only the serial occupancy recurrence — dispatch/issue/retire through
the window, issue queue, load/store/load-miss queues and execution
ports — with every stateful derivation (cache hits, translations,
mispredicts, fusion) already resolved to table lookups.  The port
arbiters are the ``_Ports`` state machines of
:func:`repro.core.pipeline.build_ports`, and the queues are plain
lookback lists and heaps; ``ActivityCounters`` are tallied
array-at-a-time from the tensor.

The loop keeps two taps: the cycle ``max(last_retire, front_cycle)`` at
the end of every decode group, and the wrong-path volume of every
mispredict, the only timing-dependent events.  The cumulative counters
at any group end are then the tensor's prefix sums plus those taps,
which is how mid-run observers are served:

* a sampler's ``observe`` runs at the groups whose cycle reaches its
  next boundary (at any other group it would emit nothing);
* an injector's ``poll`` runs at the end of each group where a fault is
  due (``FaultSchedule.sim_faults`` is sorted by instruction index), its
  stall goes into ``front_cycle``, and a forced count becomes a delta
  on every later count; the cycle-budget watchdog reads the group
  cycles between polls;
* trace-record faults are column edits made before extraction
  (:meth:`~repro.resilience.injector.FaultInjector.begin_sim`).

Samples, injection records and errors come out in the order of the
per-instruction walk this replay was derived from (``tests/
walk_oracle.py``): the loop pauses at each poll, and the observes of
the groups before it go first.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Optional

import numpy as np

from ..core.activity import ActivityCounters, EVENT_NAMES
from ..core.config import CoreConfig
from ..core.isa import CLASS_CODE, CLASS_ORDER, InstrClass
from ..core.pipeline import (_FRONT_DEPTH, _WRONG_PATH_WINDOW, SimResult,
                             build_ports, derive_busy_cycles)
from ..errors import SimulationError
from ..workloads.trace import columns_of
from .extract import ActivityStream, extract_stream


#: decode groups whose loop rows exist at once
_CHUNK_GROUPS = 256


def simulate_fast(config: CoreConfig, trace, *,
                  max_instructions: Optional[int] = None,
                  warmup_fraction: float = 0.0,
                  sampler=None) -> SimResult:
    """Replay one trace; :func:`repro.core.pipeline.simulate` calls this.

    ``sampler`` is a :class:`~repro.obs.sampler.CycleIntervalSampler`
    or None; the active fault injector, if any, is looked up here.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise SimulationError("warmup_fraction must be in [0, 1)")
    # lazy: the resilience layer imports the core
    from ..resilience.injector import get_injector
    injector = get_injector()
    columns = columns_of(trace)
    if max_instructions is not None:
        columns = columns[:max_instructions]
    if not len(columns):
        raise SimulationError("cannot simulate an empty trace")
    if injector is not None:
        columns = injector.begin_sim(columns)
    stream = extract_stream(config, columns)
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
    # an instruction without a port fails the run where the walk meets
    # it: the loop stops at the start of its group
    missing = np.flatnonzero(~present[st.codes.astype(np.int64)])
    if len(missing):
        n_loop = int(missing[0]) // decode_w * decode_w
        missing_cls = CLASS_ORDER[int(st.codes[missing[0]])]
    else:
        n_loop, missing_cls = n, None

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
    # so a plain run's loop holds only the columns it reads: peak memory
    # is the tensor the loop needs plus one chunk of rows, not the whole
    # activity tensor plus Python objects for every instruction.
    # Samplers and injectors read mid-run counters off the whole tensor.
    ev = _tally(stream, idx0, n)
    mispredicts = int(np.count_nonzero(wrong[idx0:]))
    mispredicts0 = int(np.count_nonzero(wrong[:idx0]))
    flops = int(st.flops[idx0:].sum())
    l1d_miss_rate, l2_miss_rate = mem.l1d_miss_rate, mem.l2_miss_rate
    pf_issued, pf_useful = mem.pf_issued, mem.pf_useful
    # assigned at the end of the run, as in the walk: not warmup-cut
    ev["prefetch_issued"], ev["prefetch_useful"] = pf_issued, pf_useful
    fusion_rate = fus.fusion_rate
    loop_columns = (
        st.codes, st.is_load.astype(np.int8) + 2 * st.is_store.astype(np.int8),
        fus.fused, st.is_store & ~(fus.fused & fus.single_storeq),
        wrong, fus.latency, mem.load_miss, mem.load_delay)
    gstall_l = mem.gstall.tolist()
    dep_off = memoryview(st.dep_off)
    dep_p = memoryview(st.dep_p)
    dep_acc = memoryview(st.dep_acc)
    taps = array("q")                 # cycle at the end of each group
    wps = array("q")                  # wrong-path volume per mispredict
    hooks = None
    polls: set = set()
    if sampler is not None or injector is not None:
        hooks = _Hooks(stream, sampler, injector, decode_w, taps, wps)
        if injector is not None:
            # a fault is due at the end of the group holding its index
            polls = {min(n, (f.at // decode_w + 1) * decode_w)
                     for f in injector.schedule.sim_faults if f.at < n_loop}
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
    taps_append = taps.append
    wps_append = wps.append
    snap = None
    delta0: dict = {}
    g = 0
    # the loop pauses only between groups: at every chunk of rows, at
    # each poll and at the warmup boundary
    chunk = decode_w * _CHUNK_GROUPS
    stops = sorted({*range(chunk, n_loop, chunk), *polls, n_loop}
                   | ({idx0} if 0 < idx0 < n_loop else set()))
    if sampler is not None:
        sampler.begin(config, getattr(trace, "name", "?"))
    c0 = 0
    for c1 in stops:
        codes, *rest = (col[c0:c1].tolist() for col in loop_columns)
        # one row tuple per instruction: single unpack in the loop
        rows = list(zip([state_by_code[c] for c in codes], *rest))
        for s in range(c0, c1, decode_w):
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
                    wps_append(int(wp_factor * ahead))
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
            taps_append(last_retire if last_retire > front_cycle
                        else front_cycle)
        if c1 in polls:
            front_cycle += hooks.poll(c1, front_cycle, last_retire)
        if c1 == idx0:
            # the walk's warmup snapshot: state at this group start
            snap = (front_cycle, last_retire)
            if hooks is not None:
                delta0 = dict(hooks.delta)
        c0 = c1

    if hooks is not None:
        hooks.catch_up(len(taps))
    if missing_cls is not None:
        raise SimulationError(
            f"no execution resource for {missing_cls} on {config.name}")
    cycles = max(last_retire, front_cycle) + 1
    if hooks is not None:
        hooks.finalize(cycles, pf_issued, pf_useful)
    if snap is not None:
        front0, retire0 = snap
        cycles = max(1, cycles - (max(retire0, front0) + 1))
    measured = n - idx0
    flushed = _add_wrong_path(ev, wps[mispredicts0:])
    if hooks is not None:
        # forced counts: what they added by the end less what they had
        # added by the warmup snapshot; the prefetch counts are assigned
        # at the end of the run, over anything forced into them
        for key, d in hooks.delta.items():
            if key not in _ASSIGNED:
                ev[key] += d
        for key, d in delta0.items():
            ev[key] -= d
        if snap is not None:
            for key, v in ev.items():
                if v < 0:
                    ev[key] = 0

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


#: counts the walk assigns at the end of a run instead of accumulating
_ASSIGNED = ("prefetch_issued", "prefetch_useful")


def _add_wrong_path(ev: dict, volumes: array) -> int:
    """Add the wrong-path work of mispredicts with these volumes: each
    one's volume is fetched, predecoded and flushed in full and decoded
    at half.  Returns the instructions flushed."""
    flushed = sum(volumes)
    ev["fetch_instr"] += flushed
    ev["predecode_instr"] += flushed
    ev["decode_instr"] += sum(v >> 1 for v in volumes)
    ev["flush_instr"] += flushed
    return flushed


def _tally(stream: ActivityStream, lo: int, hi: int) -> dict:
    """Event counts of instructions ``lo:hi``, array-at-a-time from the
    tensor.

    Every per-instruction event is attributed to its instruction index,
    so the walk's counters at a decode-group boundary are the tally up
    to it: the warmup snapshot subtracted at the end of a run is
    ``_tally(stream, 0, idx0)``, and the run measures ``idx0:n``.
    Wrong-path volumes (the only timing-dependent events) are left out;
    the replay loop adds them.  The prefetch counts read 0, as the
    walk's do until the end of the run.
    """
    st, fus, mem, wrong = (stream.static, stream.fusion, stream.memory,
                           stream.wrong)
    live = hi - lo

    def cnt(mask) -> int:
        return int(np.count_nonzero(mask[lo:hi]))

    def tot(arr) -> int:
        return int(arr[lo:hi].sum())

    per_class = np.bincount(st.codes[lo:hi].astype(np.int64),
                            minlength=len(CLASS_ORDER))
    fused_c = cnt(fus.fused)
    mispred = cnt(wrong)
    loads = int(per_class[CLASS_CODE[InstrClass.LOAD]]
                + per_class[CLASS_CODE[InstrClass.VSX_LOAD]])
    stores = int(per_class[CLASS_CODE[InstrClass.STORE]]
                 + per_class[CLASS_CODE[InstrClass.VSX_STORE]])
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
    ev["issue_fx"] = int(per_class[CLASS_CODE[InstrClass.FX]])
    ev["issue_fx_muldiv"] = int(per_class[CLASS_CODE[InstrClass.FX_MULDIV]])
    ev["issue_branch"] = int(per_class[CLASS_CODE[InstrClass.BRANCH]]
                             + per_class[CLASS_CODE[InstrClass.BRANCH_IND]])
    ev["issue_cr"] = int(per_class[CLASS_CODE[InstrClass.CR]])
    ev["issue_fp"] = int(per_class[CLASS_CODE[InstrClass.FP]])
    ev["issue_vsx"] = int(per_class[CLASS_CODE[InstrClass.VSX]])
    ev["issue_mma"] = int(per_class[CLASS_CODE[InstrClass.MMA]])
    ev["mma_acc_access"] = ev["issue_mma"]
    ev["mma_move"] = int(per_class[CLASS_CODE[InstrClass.MMA_MOVE]])
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
    ev["l2_access"] = l1d_miss
    ev["l2_miss"] = dm_l3
    ev["l3_access"] = dm_l3
    ev["l3_miss"] = dm_mem
    ev["mem_access"] = dm_mem
    ev["complete_instr"] = live
    ev["flush_event"] = mispred
    return ev


class _Hooks:
    """Serves a sampler and a fault injector from the replay's taps.

    Keeps the walk's cumulative counters at the last group end asked
    for: the tensor's tally up to it, plus the wrong-path volumes of the
    mispredicts before it, plus ``delta``, what forced counts have added
    so far.  Groups are visited in order; ``catch_up`` runs the walk's
    per-group observe and watchdog over groups where no fault is due,
    and ``poll`` the group where one is.
    """

    def __init__(self, stream: ActivityStream, sampler, injector,
                 decode_w: int, taps: array, wps: array):
        self.delta: dict = {}
        self._stream = stream
        self._n = stream.static.n
        self._mis_at = np.flatnonzero(stream.wrong)
        self._sampler = sampler
        self._injector = injector
        self._budget = None if injector is None else injector.cycle_budget
        self._decode_w = decode_w
        self._taps = taps
        self._wps = wps
        self._done = 0              # groups observed and watched
        self._end = 0               # instructions in _base
        self._base = dict.fromkeys(EVENT_NAMES, 0)

    def _group_end(self, group: int) -> int:
        return min(self._n, (group + 1) * self._decode_w)

    def counters(self, end: int) -> ActivityCounters:
        """The walk's counters after the group ending at ``end``."""
        if end > self._end:
            base = self._base
            for key, v in _tally(self._stream, self._end, end).items():
                base[key] += v
            k0, k1 = np.searchsorted(self._mis_at, (self._end, end))
            _add_wrong_path(base, self._wps[k0:k1])
            self._end = end
        act = ActivityCounters()
        act.events = dict(self._base)
        for key, d in self.delta.items():
            act.events[key] += d
        return act

    def catch_up(self, stop: int) -> None:
        """The walk's observe and watchdog at groups ``_done:stop``, none
        of which has a fault due: observe emits only at a group whose
        cycle reaches the sampler's next boundary, and the watchdog
        fires at the first cycle past the budget."""
        start = self._done
        taps = np.array(self._taps[start:stop], dtype=np.int64)
        hang = len(taps)
        if self._budget is not None:
            over = np.flatnonzero(taps > self._budget)
            if len(over):
                hang = int(over[0])
        if self._sampler is not None:
            # group cycles never decrease, so each crossing is a search
            i = 0
            while True:
                i += int(np.searchsorted(taps[i:hang],
                                         self._sampler.next_boundary))
                if i >= hang:
                    break
                self._sampler.observe(
                    int(taps[i]), self.counters(self._group_end(start + i)))
                i += 1
        if hang < len(taps):
            end = self._group_end(start + hang)
            # raises HangError
            self._injector.poll(end, self.counters(end), int(taps[hang]))
        self._done = stop

    def poll(self, end: int, front_cycle: int, last_retire: int) -> int:
        """The walk's poll and observe after the group ending at
        ``end``; returns the stall the poll adds to the front end."""
        group = (end - 1) // self._decode_w
        self.catch_up(group)
        act = self.counters(end)
        # the poll sees the cycle from before its stall, observe after
        stall = self._injector.poll(end, act, max(last_retire, front_cycle))
        base = self._base
        self.delta = {key: v - base[key] for key, v in act.events.items()
                      if v != base[key]}
        if self._sampler is not None:
            self._sampler.observe(max(last_retire, front_cycle + stall), act)
        self._done = group + 1
        return stall

    def finalize(self, cycles: int, pf_issued: int, pf_useful: int) -> None:
        """Close the sampler's trailing interval on the run's raw
        counts, with the prefetch counts assigned."""
        if self._sampler is None:
            return
        act = self.counters(self._n)
        act.events["prefetch_issued"] = pf_issued
        act.events["prefetch_useful"] = pf_useful
        self._sampler.finalize(cycles, act)
