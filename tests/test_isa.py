"""Unit tests for the ISA model."""

import pytest

from repro.errors import TraceError
from repro.core.isa import BASE_LATENCY, Instruction, InstrClass


class TestInstrClass:
    def test_memory_classification(self):
        assert InstrClass.LOAD.is_memory
        assert InstrClass.VSX_STORE.is_memory
        assert not InstrClass.FX.is_memory
        assert not InstrClass.MMA.is_memory

    def test_load_store_split(self):
        assert InstrClass.LOAD.is_load and not InstrClass.LOAD.is_store
        assert InstrClass.STORE.is_store and not InstrClass.STORE.is_load
        assert InstrClass.VSX_LOAD.is_load
        assert InstrClass.VSX_STORE.is_store

    def test_branch_classification(self):
        assert InstrClass.BRANCH.is_branch
        assert InstrClass.BRANCH_IND.is_branch
        assert not InstrClass.CR.is_branch

    def test_vector_and_mma(self):
        assert InstrClass.VSX.is_vector
        assert InstrClass.MMA.is_mma
        assert InstrClass.MMA_MOVE.is_mma
        assert not InstrClass.MMA.is_vector

    def test_every_class_has_latency(self):
        for iclass in InstrClass:
            assert BASE_LATENCY[iclass] >= 1


class TestInstruction:
    def test_memory_requires_address(self):
        with pytest.raises(TraceError):
            Instruction(iclass=InstrClass.LOAD)

    def test_memory_requires_positive_size(self):
        with pytest.raises(TraceError):
            Instruction(iclass=InstrClass.STORE, address=0x1000, size=0)

    def test_plain_instruction(self):
        instr = Instruction(iclass=InstrClass.FX, dests=(3,), srcs=(4, 5))
        assert instr.dests == (3,)

    def test_branch_carries_direction(self):
        instr = Instruction(iclass=InstrClass.BRANCH, taken=True,
                            pc=0x4000, target=0x4100)
        assert instr.taken and instr.target == 0x4100

