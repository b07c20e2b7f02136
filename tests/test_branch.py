"""Unit tests for the branch predictors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.branch import (BimodalPredictor, BranchUnit,
                               GSharePredictor, HybridPredictor,
                               IndirectPredictor, TagePredictor,
                               make_branch_unit)
from repro.core.isa import Instruction, InstrClass
from repro.errors import ConfigError, SimulationError
from tests.walk_oracle import process


def _run(pred, seq):
    wrong = 0
    for pc, taken in seq:
        if pred.predict(pc) != taken:
            wrong += 1
        pred.update(pc, taken)
    return wrong / len(seq)


def _biased_stream(n=4000, bias=0.95, sites=16, seed=3):
    rng = np.random.default_rng(seed)
    return [(0x4000 + 64 * int(rng.integers(0, sites)),
             bool(rng.random() < bias)) for _ in range(n)]


def _loop_stream(trip=7, n=4200):
    seq = []
    for i in range(n):
        seq.append((0x5000, (i % trip) != trip - 1))
    return seq


class TestBimodal:
    def test_learns_bias(self):
        assert _run(BimodalPredictor(), _biased_stream()) < 0.10

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            BimodalPredictor(entries=1000)

    def test_loop_exit_mispredicted(self):
        # bimodal must miss roughly one branch per loop trip
        rate = _run(BimodalPredictor(), _loop_stream(trip=7))
        assert 0.10 < rate < 0.25


class TestGShare:
    def test_learns_short_pattern(self):
        # alternating pattern is perfectly predictable from history
        seq = [(0x6000, i % 2 == 0) for i in range(4000)]
        assert _run(GSharePredictor(), seq) < 0.05

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            GSharePredictor(entries=3)


class TestTage:
    def test_learns_loop_exits(self):
        rate = _run(TagePredictor(), _loop_stream(trip=7))
        assert rate < 0.05

    def test_beats_hybrid_on_loops(self):
        seq = _loop_stream(trip=11, n=6000)
        tage = _run(TagePredictor(), seq)
        hybrid = _run(HybridPredictor(), seq)
        assert tage <= hybrid

    def test_biased_branches_fine(self):
        assert _run(TagePredictor(), _biased_stream()) < 0.12


class TestIndirect:
    def test_btb_learns_monomorphic(self):
        pred = IndirectPredictor(entries=64, use_history=False)
        for _ in range(20):
            pred.update(0x4000, 0x8000)
        assert pred.predict(0x4000) == 0x8000

    def test_btb_fails_on_alternation(self):
        pred = IndirectPredictor(entries=64, use_history=False)
        wrong = 0
        for i in range(200):
            target = 0x8000 if i % 2 == 0 else 0x9000
            if pred.predict(0x4000) != target:
                wrong += 1
            pred.update(0x4000, target)
        assert wrong > 150

    def test_local_history_learns_alternation(self):
        pred = IndirectPredictor(entries=1024, use_history=True)
        wrong = 0
        for i in range(400):
            target = 0x8000 if i % 2 == 0 else 0x9000
            if i >= 50 and pred.predict(0x4000) != target:
                wrong += 1
            pred.update(0x4000, target)
        assert wrong < 40


class TestBranchUnit:
    def test_factory_kinds(self):
        assert isinstance(make_branch_unit("power9").direction,
                          HybridPredictor)
        assert isinstance(make_branch_unit("power10").direction,
                          TagePredictor)
        with pytest.raises(ConfigError):
            make_branch_unit("power11")

    def test_process_counts_stats(self):
        unit = make_branch_unit("power10")
        instr = Instruction(iclass=InstrClass.BRANCH, taken=True,
                            pc=0x4000, target=0x4040)
        process(unit, instr)
        assert unit.stats.lookups == 1

    def test_process_rejects_non_branch(self):
        unit = make_branch_unit("power9")
        with pytest.raises(SimulationError):
            process(unit, Instruction(iclass=InstrClass.FX))

    def test_indirect_path(self):
        unit = make_branch_unit("power9")
        instr = Instruction(iclass=InstrClass.BRANCH_IND, taken=True,
                            pc=0x4800, target=0x9000)
        process(unit, instr)
        assert unit.stats.indirect_lookups == 1

    def test_mispredict_rate_definition(self):
        unit = make_branch_unit("power9")
        assert unit.stats.mispredict_rate == 0.0


# Training returns the prediction it replaced, so a resolved branch looks
# its predictor up once; it must equal ``predict`` before ``update``.
_PREDICTORS = {
    "bimodal": lambda: BimodalPredictor(64),
    "gshare": lambda: GSharePredictor(64, history_bits=4),
    "hybrid": lambda: HybridPredictor(64, history_bits=4),
    "tage": lambda: TagePredictor(64, 16, histories=(2, 4, 8)),
}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PREDICTORS)),
       st.lists(st.tuples(st.sampled_from((0x4000, 0x4004, 0x4100,
                                           0x8040)),
                          st.booleans(), st.sampled_from((0, 1))),
                max_size=300))
def test_update_returns_the_prediction(kind, stream):
    asked, trained = _PREDICTORS[kind](), _PREDICTORS[kind]()
    for pc, taken, thread in stream:
        predicted = asked.predict(pc, thread)
        asked.update(pc, taken, thread)
        assert trained.update(pc, taken, thread) == predicted
    for pc in (0x4000, 0x4004, 0x4100, 0x8040):
        for thread in (0, 1):
            assert trained.predict(pc, thread) == asked.predict(pc, thread)


# --- TAGE against the version that looked each table up twice -------------

class RefTageTable:
    def __init__(self, entries, history_bits, tag_bits=10):
        self._mask = entries - 1
        self._hist_mask = (1 << history_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        self.history_bits = history_bits
        self._tags = [0] * entries
        self._ctrs = [0] * entries
        self._useful = [0] * entries

    def _index(self, pc, history):
        folded = history & self._hist_mask
        folded ^= (history >> self.history_bits) & self._hist_mask
        return ((pc >> 2) ^ folded) & self._mask

    def _tag(self, pc, history):
        return ((pc >> 6) ^ (history * 2654435761)) & self._tag_mask

    def lookup(self, pc, history):
        idx = self._index(pc, history)
        if self._tags[idx] == self._tag(pc, history):
            return self._ctrs[idx] >= 0
        return None

    def update(self, pc, history, taken, allocate):
        idx = self._index(pc, history)
        tag = self._tag(pc, history)
        if self._tags[idx] == tag:
            ctr = self._ctrs[idx]
            self._ctrs[idx] = min(3, ctr + 1) if taken else max(-4, ctr - 1)
            self._useful[idx] = min(3, self._useful[idx] + 1)
        elif allocate:
            if self._useful[idx] == 0:
                self._tags[idx] = tag
                self._ctrs[idx] = 0 if taken else -1
            else:
                self._useful[idx] -= 1


class RefTage:
    def __init__(self, base_entries, table_entries, histories):
        self.base = BimodalPredictor(base_entries)
        self.tables = [RefTageTable(table_entries, h) for h in histories]
        self._history = {}

    def _provider(self, pc, thread):
        hist = self._history.get(thread, 0)
        for idx in range(len(self.tables) - 1, -1, -1):
            pred = self.tables[idx].lookup(pc, hist)
            if pred is not None:
                return pred, idx
        return None, None

    def predict(self, pc, thread=0):
        pred, _ = self._provider(pc, thread)
        if pred is not None:
            return pred
        return self.base.predict(pc, thread)

    def update(self, pc, taken, thread=0):
        hist = self._history.get(thread, 0)
        pred, idx = self._provider(pc, thread)
        if idx is None:
            pred = self.base.update(pc, taken, thread)
            if pred != taken:
                self.tables[0].update(pc, hist, taken, allocate=True)
        else:
            self.tables[idx].update(pc, hist, taken, allocate=False)
            if pred != taken and idx + 1 < len(self.tables):
                self.tables[idx + 1].update(pc, hist, taken, allocate=True)
        self._history[thread] = ((hist << 1) | int(taken)) & ((1 << 64) - 1)
        return pred


#: small tables, so a few hundred branches alias, allocate and age entries
_TAGE_SHAPES = [(64, 16, (2, 4, 8)), (64, 8, (1, 3)), (32, 32, (4, 8, 16, 32)),
                (16, 4, (6,))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(_TAGE_SHAPES),
       st.lists(st.tuples(st.sampled_from((0x4000, 0x4004, 0x4100, 0x8040,
                                           0x8844, 0xC010)),
                          st.booleans(), st.integers(0, 3)),
                max_size=400))
def test_tage_single_lookup_equals_reference(shape, stream):
    """Predictions, trained tables and histories match the version that
    recomputed the provider's and the next table's index and tag; the
    stream interleaves up to four SMT threads."""
    tage, ref = TagePredictor(*shape), RefTage(*shape)
    for pc, taken, thread in stream:
        assert tage.predict(pc, thread) == ref.predict(pc, thread)
        assert tage.update(pc, taken, thread) == ref.update(pc, taken,
                                                            thread)
    for table, want in zip(tage.tables, ref.tables):
        assert (table.tags, table.ctrs, table._useful) == \
            (want._tags, want._ctrs, want._useful)
    assert tage.base._table == ref.base._table
    assert tage._history == ref._history
