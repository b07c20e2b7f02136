"""Extraction and replay in chunks: the tensor does not depend on where
the trace is cut.

:func:`repro.fastsim.extract.extract_stream` walks a trace in chunks of
whole decode groups (``_CHUNK_ROWS``) and carries the last writer per
(thread, register), the branch unit, the caches, the prefetcher, the
MMU and the store-merge state across each cut; the replay loop pauses
every ``_CHUNK_GROUPS`` groups.  Production chunks are larger than any
short trace, so these tests shrink both to one or two decode groups,
where every carried piece crosses a cut many times, and hold the replay
to the walk oracle.  A bound on the peak bytes per row of a cold
``simulate`` keeps extraction from growing with the trace again.
"""

import dataclasses
import gc
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fastsim.extract
import repro.fastsim.replay
from repro.core import power9_config, power10_config
from repro.core.caches import CacheGeometry
from repro.core.isa import ACC_BASE, Instruction, InstrClass, TraceColumns
from repro.core.pipeline import simulate
from repro.errors import SimulationError
from repro.exec.cache import sim_result_to_json
from repro.fastsim import simulate_fast
from repro.fastsim.extract import extract_stream
from repro.obs.sampler import CycleIntervalSampler
from repro.resilience.faults import CounterFault, FaultSchedule
from repro.resilience.injector import FaultInjector, injection
from repro.workloads import resolve_workload, workload_names
from repro.workloads.trace import merge_smt
from tests.test_fastsim_diff import (assert_energy_equivalent,
                                     assert_results_equivalent)
from tests.walk_oracle import simulate_reference


def _fusion(config, enabled: bool):
    return dataclasses.replace(config, front_end=dataclasses.replace(
        config.front_end, fusion_enabled=enabled))


def _small_l2(config):
    return dataclasses.replace(config, hierarchy=dataclasses.replace(
        config.hierarchy, l2=CacheGeometry(4096, 2, latency=12)))


_CONFIGS = {
    "p10": power10_config,
    "p10-no-fusion": lambda: _fusion(power10_config(), False),
    "p9": power9_config,
    "p9-fusion": lambda: _fusion(power9_config(), True),
    # eighth-size caches and TLB: misses, prefetches and translations in
    # every chunk, so a cache, prefetcher or MMU reset at a cut shows
    "p10-scale8": lambda: power10_config(cache_scale=8),
    "p9-scale8": lambda: power9_config(cache_scale=8),
    # a 4 KB L2: lines evicted from it hit in the L3, so an L3 reset at
    # a cut shows too
    "p10-small-l2": lambda: _small_l2(power10_config(cache_scale=8)),
}

#: extraction chunk (rows, rounded down to whole groups) and replay chunk
#: (groups): one decode group, then two
_TINY = {"one-group": (1, 1), "two-groups": (16, 2)}


@pytest.fixture(params=list(_TINY))
def tiny_chunks(request, monkeypatch):
    rows, groups = _TINY[request.param]
    monkeypatch.setattr(repro.fastsim.extract, "_CHUNK_ROWS", rows)
    monkeypatch.setattr(repro.fastsim.replay, "_CHUNK_GROUPS", groups)


def _agree(config, trace, **kwargs):
    try:
        detailed = simulate_reference(config, trace, **kwargs)
    except SimulationError as exc:
        # MMA workloads on POWER9: the same refusal
        with pytest.raises(SimulationError, match=re.escape(str(exc))):
            simulate_fast(config, trace, **kwargs)
        return
    fast = simulate_fast(config, trace, **kwargs)
    assert_results_equivalent(detailed, fast)
    assert_energy_equivalent(config, detailed, fast)


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("cfg_name", list(_CONFIGS))
def test_tiny_chunks_agree_with_the_walk(tiny_chunks, workload, cfg_name):
    config = _CONFIGS[cfg_name]()
    _agree(config, resolve_workload(workload, 700), warmup_fraction=0.3)


@pytest.mark.parametrize("cfg_name", ["p10", "p9-scale8"])
def test_tiny_chunks_agree_on_an_smt_merge(tiny_chunks, cfg_name):
    config = dataclasses.replace(_CONFIGS[cfg_name](), smt=4)
    trace = merge_smt([resolve_workload(w, 400) for w in
                       ("daxpy", "pointer-chase", "xz", "stream-triad")])
    _agree(config, trace)


def test_tiny_chunks_agree_with_a_sampler(tiny_chunks):
    config = power10_config(cache_scale=8)
    trace = resolve_workload("mcf", 800)
    sampler, oracle = CycleIntervalSampler(100), CycleIntervalSampler(100)
    sampled = simulate(config, trace, warmup_fraction=0.2, sampler=sampler)
    walked = simulate_reference(config, trace, warmup_fraction=0.2,
                                sampler=oracle)
    assert sampler.samples
    assert [vars(s) for s in sampler.samples] \
        == [vars(s) for s in oracle.samples]
    assert sim_result_to_json(sampled) == sim_result_to_json(walked)


def test_tiny_chunks_agree_with_an_injector(tiny_chunks):
    config = power9_config(cache_scale=8)
    trace = resolve_workload("daxpy", 800)
    schedule = FaultSchedule(seed=0, faults=(
        CounterFault(at=100, event="l1d_access", mode="spike",
                     magnitude=50),
        CounterFault(at=450, event="icache_miss", mode="zero")))
    runs = []
    for run in (simulate, simulate_reference):
        injector = FaultInjector(schedule)
        with injection(injector):
            result = run(config, trace)
        runs.append((sim_result_to_json(result),
                     [r.to_json() for r in injector.records]))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 2


# ---------------------------------------------------------------------
# Register dependences across cuts: a brute-force last-writer scan.
# ---------------------------------------------------------------------

_REG_CLASSES = (InstrClass.FX, InstrClass.FP, InstrClass.VSX,
                InstrClass.MMA, InstrClass.MMA_MOVE)


@st.composite
def _register_traces(draw):
    """Columns of register-only instructions on up to four threads, and
    an extraction chunk of any size from one row to past the trace."""
    n = draw(st.integers(min_value=1, max_value=120))
    threads = draw(st.integers(min_value=1, max_value=4))
    regs = st.sampled_from((0, 1, 2, 3, ACC_BASE, ACC_BASE + 1))
    instrs = [Instruction(
        iclass=draw(st.sampled_from(_REG_CLASSES)),
        dests=tuple(draw(st.lists(regs, max_size=2))),
        srcs=tuple(draw(st.lists(regs, max_size=3))),
        pc=0x1000 + 4 * i, thread=draw(st.integers(0, threads - 1)))
        for i in range(n)]
    chunk_rows = draw(st.integers(min_value=1, max_value=n + 8))
    return TraceColumns.pack(instrs), instrs, chunk_rows


def _brute_force_dependences(instrs):
    """Producer of every read, in read order: the last strictly earlier
    writer of the same (thread, register); accumulator reads of an MMA
    producer are forwarded."""
    dep_p, dep_acc = [], []
    for i, instr in enumerate(instrs):
        for reg in instr.srcs:
            writer = next((j for j in range(i - 1, -1, -1)
                           if instrs[j].thread == instr.thread
                           and reg in instrs[j].dests), -1)
            dep_p.append(writer)
            dep_acc.append(int(writer >= 0 and reg >= ACC_BASE
                               and instrs[writer].iclass is InstrClass.MMA))
    return dep_p, dep_acc


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_register_traces())
def test_chunked_dependences_match_a_last_writer_scan(case):
    columns, instrs, chunk_rows = case
    with mock.patch.object(repro.fastsim.extract, "_CHUNK_ROWS", chunk_rows):
        static = extract_stream(power10_config(), columns).static
    dep_p, dep_acc = _brute_force_dependences(instrs)
    assert static.dep_p.tolist() == dep_p
    assert static.dep_acc.tolist() == dep_acc


# ---------------------------------------------------------------------
# Bounded memory: peak bytes per row of one cold simulate.
# ---------------------------------------------------------------------

#: traced peak of one cold POWER10 ``simulate`` at 20,000 instructions,
#: in bytes per trace row.  Whole-trace extraction needed 186 (dgemm-vsu,
#: 82,500 rows) and 360 (pointer-chase, 40,000 rows); chunked it needs
#: about 82 and 179, pointer-chase's being mostly live L2/L3 lines.
_PEAK_BYTES_PER_ROW = {"dgemm-vsu": 120, "pointer-chase": 250}


@pytest.mark.parametrize("workload", sorted(_PEAK_BYTES_PER_ROW))
def test_cold_simulate_peak_bytes_per_row(workload):
    config = power10_config()
    trace = resolve_workload(workload, 20000)
    simulate(config, resolve_workload("daxpy", 300))
    gc.collect()
    tracemalloc.start()
    try:
        simulate(config, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = len(trace.columns)
    assert peak / rows <= _PEAK_BYTES_PER_ROW[workload], \
        f"{workload}: {peak / rows:.0f} B/row over {rows} rows"


def test_tensor_rows_are_compact():
    """No int64 column and no Python list per row in the tensor, apart
    from the CSR offsets (views of the trace) and the per-group stalls."""
    stream = extract_stream(power10_config(), resolve_workload("xz", 600))
    n = stream.static.n
    for part in (stream.static, stream.fusion, stream.memory):
        for name, value in vars(part).items():
            assert not isinstance(value, list), name
            if isinstance(value, np.ndarray) and len(value) == n:
                assert value.dtype.itemsize <= 4, name
