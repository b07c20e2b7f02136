"""Unit tests for the Trace container."""

import pytest

from repro.core.isa import Instruction, InstrClass
from repro.errors import TraceError
from repro.exec.cache import fingerprint_trace
from repro.workloads.trace import Trace, merge_smt


def _trace(n=100, name="t"):
    return Trace(name=name, instructions=[
        Instruction(iclass=InstrClass.FX, dests=(3,), pc=0x4000 + 4 * i)
        for i in range(n)])


class TestTrace:
    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="empty", instructions=[])

    def test_bad_weight_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="w", instructions=_trace().instructions, weight=0)

    def test_len_and_iter(self):
        trace = _trace(10)
        assert len(trace) == 10
        assert sum(1 for _ in trace) == 10

    def test_class_mix_sums_to_one(self, small_trace):
        mix = small_trace.class_mix()
        assert abs(sum(mix.values()) - 1.0) < 1e-9

    def test_total_flops(self):
        instrs = [Instruction(iclass=InstrClass.VSX, flops=4)
                  for _ in range(5)]
        assert Trace(name="f", instructions=instrs).total_flops() == 20


class TestWindows:
    def test_window_count(self):
        windows = _trace(100).windows(30)
        # 30+30+30 and a 10-instruction leftover (< half) dropped
        assert [len(w) for w in windows] == [30, 30, 30]

    def test_keeps_large_partial(self):
        windows = _trace(50).windows(30)
        assert [len(w) for w in windows] == [30, 20]

    def test_bad_size(self):
        with pytest.raises(TraceError):
            _trace().windows(0)

    def test_too_short(self):
        with pytest.raises(TraceError):
            _trace(5).windows(100)


class TestRepeated:
    def test_repeats_body(self):
        rep = _trace(10).repeated(3)
        assert len(rep) == 30

    def test_copies_are_independent(self):
        rep = _trace(2).repeated(2)
        key = fingerprint_trace(rep)
        built = rep.instructions
        built[0].pc = 0x9000
        built[0].srcs = (7,)
        assert built[2].pc == 0x4000 and built[2].srcs == ()
        assert rep.instructions[0].pc == 0x4000
        assert rep.instructions[0].srcs == ()
        assert fingerprint_trace(rep) == key

    def test_bad_times(self):
        with pytest.raises(TraceError):
            _trace().repeated(0)


class TestMergeSmt:
    def test_round_robin_and_thread_ids(self):
        merged = merge_smt([_trace(4, "a"), _trace(4, "b")])
        threads = [i.thread for i in merged.instructions[:4]]
        assert threads == [0, 1, 0, 1]
        assert len(merged) == 8

    def test_unequal_lengths(self):
        merged = merge_smt([_trace(3), _trace(1)])
        assert len(merged) == 4

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            merge_smt([])

    def test_originals_untouched(self):
        a = _trace(4)
        merge_smt([a, a])
        assert all(i.thread == 0 for i in a.instructions)
