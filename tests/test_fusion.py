"""Unit tests for instruction fusion.

The columnar classifier (:func:`repro.core.fusion.fuse`) is checked
against ``classify_pair`` below, the object-at-a-time predicate it
replaced, run under the same greedy decode-group rule.
"""

from typing import Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.fusion import (FUSION_EFFECTS, KIND_ORDER, FusionKind,
                               concrete_pairs, fuse, pair_kinds,
                               registry_size)
from repro.core.isa import Instruction, InstrClass, TraceColumns
from repro.workloads import merge_smt, resolve_workload, specint_proxies


# --- the object-level reference -------------------------------------------

def _writes_read_by(first: Instruction, second: Instruction) -> bool:
    return any(dest in second.srcs for dest in first.dests)


def _consecutive_addresses(first: Instruction, second: Instruction) -> bool:
    if first.address is None or second.address is None:
        return False
    return second.address == first.address + first.size


def classify_pair(first: Instruction,
                  second: Instruction) -> Optional[FusionKind]:
    """Return the fusion kind for an adjacent pair, or None."""
    if first.thread != second.thread:
        return None
    a, b = first.iclass, second.iclass
    if a is InstrClass.FX and b is InstrClass.FX:
        if (_writes_read_by(first, second) and len(first.srcs) <= 1
                and len(second.srcs) <= 1):
            return FusionKind.DEP_ALU
        return None
    if a is InstrClass.FX and b is InstrClass.CR:
        return FusionKind.OP_CR
    if a is InstrClass.CR and b.is_branch:
        return FusionKind.CMP_BRANCH
    if a is InstrClass.FX and b.is_branch and _writes_read_by(first, second):
        return FusionKind.CMP_BRANCH
    if a is InstrClass.FX and b is InstrClass.LOAD \
            and _writes_read_by(first, second):
        return FusionKind.ADDI_LOAD
    if a is InstrClass.FX and b is InstrClass.STORE \
            and _writes_read_by(first, second):
        return FusionKind.ADDI_STORE
    if a.is_store and b.is_store and _consecutive_addresses(first, second):
        if first.size <= 16 and second.size <= 16:
            return FusionKind.STORE_PAIR
        return None
    if a is InstrClass.LOAD and b is InstrClass.LOAD \
            and _consecutive_addresses(first, second):
        return FusionKind.LOAD_PAIR
    return None


def reference_fusion(instructions, decode_width):
    """Greedy per-group pairing on objects: (kinds, candidates, by_kind)."""
    kinds = [None] * len(instructions)
    candidates = 0
    by_kind = {kind: 0 for kind in FusionKind}
    for s in range(0, len(instructions), decode_width):
        group = instructions[s:s + decode_width]
        i = 0
        while i + 1 < len(group):
            candidates += 1
            kind = classify_pair(group[i], group[i + 1])
            if kind is not None:
                kinds[s + i + 1] = kind
                by_kind[kind] += 1
                i += 2          # a fused instruction cannot fuse again
            else:
                i += 1
    return kinds, candidates, by_kind


def _kind(first, second):
    """The columnar classifier's verdict on one pair (which must be the
    reference's)."""
    code = int(pair_kinds(TraceColumns.pack([first, second]))[0])
    kind = KIND_ORDER[code] if code >= 0 else None
    assert kind is classify_pair(first, second)
    return kind


def _fx(dest, *srcs):
    return Instruction(iclass=InstrClass.FX, dests=(dest,), srcs=srcs)


def _store(addr, size=8):
    return Instruction(iclass=InstrClass.STORE, address=addr, size=size,
                       srcs=(9,))


def _fuse(group, enabled=True, decode_width=8):
    return fuse(TraceColumns.pack(group), enabled, decode_width)


class TestClassify:
    def test_dependent_alu_pair(self):
        assert _kind(_fx(3, 4), _fx(5, 3)) is FusionKind.DEP_ALU

    def test_independent_alu_pair_not_fused(self):
        assert _kind(_fx(3, 4), _fx(5, 6)) is None

    def test_complex_alu_pair_not_fused(self):
        # two-source producers/consumers are not simple fusable forms
        assert _kind(_fx(3, 4, 5), _fx(6, 3, 7)) is None

    def test_cmp_branch(self):
        cmp_i = Instruction(iclass=InstrClass.CR, dests=(300,), srcs=(3,))
        br = Instruction(iclass=InstrClass.BRANCH, srcs=(300,),
                         taken=True, pc=0x4000, target=0x4100)
        assert _kind(cmp_i, br) is FusionKind.CMP_BRANCH

    def test_addi_load(self):
        load = Instruction(iclass=InstrClass.LOAD, dests=(7,), srcs=(3,),
                           address=0x1000, size=8)
        assert _kind(_fx(3, 1), load) is FusionKind.ADDI_LOAD

    def test_store_pair_consecutive(self):
        kind = _kind(_store(0x1000), _store(0x1008))
        assert kind is FusionKind.STORE_PAIR

    def test_pair_at_address_zero(self):
        assert _kind(_store(0), _store(8)) is FusionKind.STORE_PAIR

    def test_store_pair_nonconsecutive(self):
        assert _kind(_store(0x1000), _store(0x1040)) is None

    def test_store_pair_too_wide(self):
        a = Instruction(iclass=InstrClass.VSX_STORE, address=0x1000,
                        size=32, srcs=(64,))
        b = Instruction(iclass=InstrClass.VSX_STORE, address=0x1020,
                        size=32, srcs=(65,))
        assert _kind(a, b) is None

    def test_load_pair(self):
        a = Instruction(iclass=InstrClass.LOAD, dests=(3,), srcs=(1,),
                        address=0x2000, size=8)
        b = Instruction(iclass=InstrClass.LOAD, dests=(4,), srcs=(1,),
                        address=0x2008, size=8)
        assert _kind(a, b) is FusionKind.LOAD_PAIR

    def test_cross_thread_never_fuses(self):
        a, b = _fx(3, 4), _fx(5, 3)
        b.thread = 1
        assert _kind(a, b) is None


class TestRegistry:
    def test_over_200_pairs(self):
        # the paper: "Over 200 different pairs of instruction types"
        assert registry_size() > 200

    def test_every_kind_has_pairs_and_effect(self):
        for kind in FusionKind:
            assert concrete_pairs(kind)
            assert kind in FUSION_EFFECTS

    def test_store_pair_effect_saves_agen_and_queue(self):
        effect = FUSION_EFFECTS[FusionKind.STORE_PAIR]
        assert effect.single_agen and effect.single_storeq_entry


class TestEngine:
    def test_disabled_engine_never_fuses(self):
        outcome = _fuse([_fx(3, 4), _fx(5, 3)], enabled=False)
        assert outcome.kind.tolist() == [-1, -1]
        assert outcome.stats.fused == 0

    def test_fusion_marks_second_instruction(self):
        outcome = _fuse([_fx(3, 4), _fx(5, 3)])
        assert outcome.fused.tolist() == [False, True]
        assert KIND_ORDER[outcome.kind[1]] is FusionKind.DEP_ALU
        assert outcome.stats.by_kind[FusionKind.DEP_ALU] == 1

    def test_fused_instruction_cannot_refuse(self):
        outcome = _fuse([_fx(3, 4), _fx(5, 3), _fx(6, 5)])
        # the third may not fuse with the already-fused second
        assert outcome.fused.tolist() == [False, True, False]

    def test_fusion_rate(self):
        assert _fuse([_fx(3, 4), _fx(5, 3)]).stats.fusion_rate == 1.0

    def test_pairs_never_cross_decode_groups(self):
        chain = [_fx(3 + i, 2 + i) for i in range(6)]
        assert _fuse(chain, decode_width=3).fused.tolist() == \
            [False, True, False, False, True, False]


# --- the columnar classifier against the reference ------------------------

_GROUP_CLASSES = (InstrClass.FX, InstrClass.CR, InstrClass.BRANCH,
                  InstrClass.BRANCH_IND, InstrClass.LOAD, InstrClass.STORE,
                  InstrClass.VSX_STORE, InstrClass.VSX)


@st.composite
def fusion_runs(draw):
    """Short instruction runs dense in fusable shapes: shared registers,
    consecutive addresses of every width, mixed threads."""
    out = []
    address = 0
    for pc in range(0, 4 * draw(st.integers(2, 60)), 4):
        cls = draw(st.sampled_from(_GROUP_CLASSES))
        regs = st.lists(st.integers(0, 5), max_size=3)
        fields = dict(iclass=cls, dests=tuple(draw(regs)),
                      srcs=tuple(draw(regs)), pc=pc,
                      thread=draw(st.sampled_from((0, 0, 0, 1))))
        if cls.is_memory:
            fields["size"] = draw(st.sampled_from((4, 8, 16, 32)))
            if draw(st.booleans()):
                address = draw(st.one_of(st.just(0),
                                         st.integers(0, 1 << 12)))
            fields["address"] = address
            address += fields["size"]
        if cls.is_branch:
            fields["taken"] = draw(st.booleans())
            fields["target"] = draw(st.sampled_from((None, 0, pc + 64)))
        out.append(Instruction(**fields))
    return out


def assert_fusion_matches_reference(instructions, decode_width):
    outcome = fuse(TraceColumns.pack(instructions), True, decode_width)
    kinds, candidates, by_kind = reference_fusion(instructions,
                                                  decode_width)
    got = [KIND_ORDER[k] if k >= 0 else None
           for k in outcome.kind.tolist()]
    assert got == kinds
    assert outcome.stats.candidates == candidates
    assert outcome.stats.fused == sum(by_kind.values())
    assert outcome.stats.by_kind == by_kind
    rate = sum(by_kind.values()) / candidates if candidates else 0.0
    assert outcome.stats.fusion_rate == rate


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fusion_runs(), st.sampled_from((2, 3, 4, 6, 8)))
def test_columnar_fusion_matches_reference(instructions, decode_width):
    assert_fusion_matches_reference(instructions, decode_width)


@pytest.mark.parametrize("decode_width", (4, 6, 8))
def test_columnar_fusion_matches_reference_on_workloads(decode_width):
    traces = specint_proxies(instructions=1500, names=["gcc", "xz"])
    traces.append(merge_smt(traces[:2], name="smt"))
    traces.append(resolve_workload("dgemm-mma", 1500))
    for trace in traces:
        assert_fusion_matches_reference(trace.instructions, decode_width)
