"""Columnar trace transforms against their object-level reference.

A :class:`~repro.workloads.trace.Trace` stores its instructions as
columns and transforms them with array operations.  The functions below
are the object-at-a-time versions those replaced (copying
``Instruction`` records one by one); every columnar transform must
build the same instructions, names, weights and metadata.
"""

import copy
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.isa import (ACC_BASE, Instruction, InstrClass,
                            TraceColumns)
from repro.errors import TraceError
from repro.workloads import (PROXY_COVERAGE, SPECINT_NAMES,
                             SPECINT_PROFILES, WorkloadSpec, generate,
                             load_trace, merge_smt, save_trace)
from repro.workloads.chopstix import (_L1_FOOTPRINT_BYTES, _SNIPPET_MAX,
                                      _SNIPPET_MIN, _rebase_snippet,
                                      extract_proxies)
from repro.workloads.trace import Trace


# --- the object-level reference -------------------------------------------

def ref_windows(trace, size):
    instrs = trace.instructions
    out = []
    for start in range(0, len(instrs), size):
        chunk = instrs[start:start + size]
        if len(chunk) >= size // 2:
            out.append((f"{trace.name}@{start}", chunk))
    return out


def ref_repeated(instrs, times):
    body = []
    for _ in range(times):
        body.extend(copy.copy(i) for i in instrs)
    return body


def ref_merge_smt(traces):
    streams = []
    for tid, trace in enumerate(traces):
        stream = []
        for instr in trace.instructions:
            clone = copy.copy(instr)
            clone.thread = tid
            stream.append(clone)
        streams.append(stream)
    merged = []
    for i in range(max(len(s) for s in streams)):
        for stream in streams:
            if i < len(stream):
                merged.append(stream[i])
    return merged


def ref_rebase_snippet(instructions):
    out = []
    data_map, code_map = {}, {}
    for instr in instructions:
        clone = copy.copy(instr)
        line = instr.pc >> 5
        if line not in code_map:
            code_map[line] = len(code_map) % (_L1_FOOTPRINT_BYTES // 32)
        clone.pc = 0x1000 + code_map[line] * 32 + (instr.pc & 0x1f)
        if instr.address is not None:
            chunk = instr.address >> 7
            if chunk not in data_map:
                data_map[chunk] = len(data_map) % (
                    _L1_FOOTPRINT_BYTES // 128)
            clone.address = (0x2000000 + data_map[chunk] * 128
                             + (instr.address & 0x7f))
        out.append(clone)
    return out


def ref_extract_proxies(trace, *, top_functions=10, coverage=1.0,
                        snippet_instructions=1500, loop_iterations=2):
    """(name, suite, weight, metadata, instructions) per proxy."""
    instrs = trace.instructions
    counts, first = {}, {}
    for idx, instr in enumerate(instrs):
        fn = (instr.pc >> 5) // 64
        counts[fn] = counts.get(fn, 0) + 1
        first.setdefault(fn, idx)
    profiles = [(fn, first[fn], cnt, cnt / len(instrs))
                for fn, cnt in counts.items()]
    profiles.sort(key=lambda p: p[2], reverse=True)
    out = []
    covered = 0.0
    for fn, start, _count, share in profiles[:top_functions]:
        if covered >= coverage:
            break
        snippet = instrs[start:min(len(instrs),
                                   start + snippet_instructions)]
        if len(snippet) < _SNIPPET_MIN:
            continue
        body = ref_repeated(ref_rebase_snippet(snippet), loop_iterations)
        out.append((f"{trace.name}.f{fn}x{loop_iterations}",
                    f"{trace.suite}-proxy", share,
                    {"application": trace.name, "function": fn,
                     "share": share}, body[:_SNIPPET_MAX]))
        covered += share
    return out


# --- traces to compare on -------------------------------------------------

def _fields(instr):
    return (instr.iclass, instr.dests, instr.srcs, instr.address,
            instr.size, instr.taken, instr.target, instr.flops, instr.pc,
            instr.thread)


def assert_same_instructions(got, want):
    assert [_fields(i) for i in got] == [_fields(i) for i in want]
    for instr in got:
        assert type(instr.taken) is bool
        assert all(type(r) is int for r in instr.srcs + instr.dests)


@st.composite
def instruction_lists(draw):
    """Records covering every column: all classes, None vs 0 addresses
    and targets, accumulators, threads, empty and long register lists."""
    out = []
    for pc in range(0, 4 * draw(st.integers(1, 40)), 4):
        cls = draw(st.sampled_from(list(InstrClass)))
        regs = st.lists(st.sampled_from((0, 1, 5, 64, 300, ACC_BASE + 7)),
                        max_size=4)
        fields = dict(iclass=cls, dests=tuple(draw(regs)),
                      srcs=tuple(draw(regs)),
                      pc=draw(st.sampled_from((pc, pc + 0x40000, 0))),
                      flops=draw(st.sampled_from((0, 16))),
                      thread=draw(st.sampled_from((0, 1, 7))))
        if cls.is_memory or draw(st.booleans()):
            fields["address"] = draw(st.sampled_from(
                (0, 8, 0x1f80, 1 << 40)))
            fields["size"] = draw(st.sampled_from((1, 8, 32)))
        if cls.is_branch:
            fields["taken"] = draw(st.booleans())
            fields["target"] = draw(st.sampled_from((None, 0, 0x4000)))
        out.append(Instruction(**fields))
    return out


_SETTINGS = settings(max_examples=40, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture(scope="module")
def apps():
    """The SPECint applications the proxies are cut from."""
    return [generate(WorkloadSpec(**{**SPECINT_PROFILES[name].__dict__,
                                     "instructions": 3000}))
            for name in SPECINT_NAMES]


# --- packing --------------------------------------------------------------

class TestPacking:
    @_SETTINGS
    @given(instruction_lists())
    def test_pack_round_trips(self, instrs):
        assert_same_instructions(TraceColumns.pack(instrs).instructions(),
                                 instrs)

    def test_none_stays_distinct_from_zero(self):
        instrs = [Instruction(iclass=InstrClass.BRANCH_IND, target=0),
                  Instruction(iclass=InstrClass.BRANCH_IND),
                  Instruction(iclass=InstrClass.FX, address=0)]
        cols = TraceColumns.pack(instrs)
        assert cols.target.tolist() == [0, -1, -1]
        assert cols.address.tolist() == [-1, -1, 0]
        assert_same_instructions(cols.instructions(), instrs)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            TraceColumns.pack([Instruction(iclass=InstrClass.LOAD,
                                           address=-8, size=8)])

    @_SETTINGS
    @given(instruction_lists(), st.integers(0, 90), st.integers(0, 90))
    def test_slice_and_take_match_lists(self, instrs, a, b):
        cols = TraceColumns.pack(instrs)
        assert_same_instructions(cols[a:b].instructions(), instrs[a:b])
        rows = np.arange(len(instrs), dtype=np.int64)[::-1][a % 3::2]
        assert_same_instructions(cols.take(rows).instructions(),
                                 [instrs[i] for i in rows.tolist()])


# --- transforms -----------------------------------------------------------

class TestTransforms:
    @_SETTINGS
    @given(instruction_lists(), st.integers(1, 4), st.integers(1, 40))
    def test_repeated_and_windows(self, instrs, times, size):
        trace = Trace(name="t", instructions=instrs, suite="s",
                      weight=0.5, metadata={"k": 1})
        rep = trace.repeated(times)
        assert (rep.name, rep.suite, rep.weight, rep.metadata) == \
            (f"tx{times}", "s", 0.5, {"k": 1})
        assert rep.metadata is not trace.metadata
        assert_same_instructions(rep.instructions,
                                 ref_repeated(instrs, times))
        want = ref_windows(rep, size) if len(rep) >= size // 2 else []
        try:
            got = rep.windows(size)
        except TraceError:
            got = []
        assert [w.name for w in got] == [name for name, _ in want]
        for window, (_name, chunk) in zip(got, want):
            assert (window.suite, window.weight, window.metadata) == \
                ("s", 0.5, {"k": 1})
            assert_same_instructions(window.instructions, chunk)

    @_SETTINGS
    @given(st.lists(instruction_lists(), min_size=1, max_size=4))
    def test_merge_smt(self, streams):
        traces = [Trace(name=f"t{i}", instructions=s, suite="s")
                  for i, s in enumerate(streams)]
        merged = merge_smt(traces, name="m")
        assert (merged.name, merged.suite, merged.weight,
                merged.metadata) == ("m", "s", 1.0,
                                     {"threads": len(traces)})
        assert_same_instructions(merged.instructions,
                                 ref_merge_smt(traces))
        # the inputs are untouched
        for trace, stream in zip(traces, streams):
            assert_same_instructions(trace.instructions, stream)

    @_SETTINGS
    @given(instruction_lists())
    def test_rebase_snippet(self, instrs):
        got = _rebase_snippet(TraceColumns.pack(instrs)).instructions()
        assert_same_instructions(got, ref_rebase_snippet(instrs))

    def test_transforms_on_specint(self, apps):
        for app in apps[:3]:
            assert_same_instructions(app.repeated(3).instructions,
                                     ref_repeated(app.instructions, 3))
            got, want = app.windows(700), ref_windows(app, 700)
            assert [w.name for w in got] == [name for name, _ in want]
            for window, (_name, chunk) in zip(got, want):
                assert_same_instructions(window.instructions, chunk)
            assert_same_instructions(
                merge_smt([app, app.repeated(2)]).instructions,
                ref_merge_smt([app, app.repeated(2)]))
            snippet = app.instructions[100:1600]
            assert_same_instructions(
                _rebase_snippet(app.columns[100:1600]).instructions(),
                ref_rebase_snippet(snippet))

    def test_extract_proxies_on_specint(self, apps):
        for app in apps:
            coverage = PROXY_COVERAGE[app.name]
            got = extract_proxies(app, coverage=coverage)
            want = ref_extract_proxies(app, coverage=coverage)
            assert len(got) == len(want)
            for proxy, (name, suite, weight, metadata, body) in \
                    zip(got, want):
                assert (proxy.name, proxy.suite, proxy.weight,
                        proxy.metadata) == (name, suite, weight, metadata)
                assert type(proxy.weight) is float
                assert_same_instructions(proxy.instructions, body)


# --- trace files ----------------------------------------------------------

class TestTraceFiles:
    @_SETTINGS
    @given(instruction_lists())
    def test_save_load_round_trips(self, instrs):
        trace = Trace(name="io", instructions=instrs, suite="s",
                      weight=0.25, metadata={"k": "v"})
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.trace"
            save_trace(trace, path)
            loaded = load_trace(path)
        assert (loaded.name, loaded.suite, loaded.weight,
                loaded.metadata) == ("io", "s", 0.25, {"k": "v"})
        assert_same_instructions(loaded.instructions, instrs)
