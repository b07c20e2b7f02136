"""Branch direction and target predictors.

POWER9 is modeled with a bimodal + short-history gshare hybrid; POWER10
adds the paper's "new predictors for direction and indirect targets along
with the doubling of selective prediction resources": a TAGE-style tagged
multi-table direction predictor, a loop-exit predictor and a larger
indirect target predictor (ITTAGE-lite).  The accuracy gap between the
two stacks is what produces the ~25% reduction in flushed instructions
reported in Section II-B.

Predictors are trained online during simulation: ``predict`` returns the
guess, ``update`` trains with the resolved outcome and returns the guess
it replaced, so a resolved branch looks its predictor up once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .isa import Instruction, InstrClass
from ..errors import ConfigError, SimulationError


class DirectionPredictor:
    """Interface for conditional-branch direction predictors."""

    def predict(self, pc: int, thread: int = 0) -> bool:
        raise NotImplementedError

    def update(self, pc: int, taken: bool, thread: int = 0) -> bool:
        """Train with the resolved direction; returns what
        :meth:`predict` would have said before the update."""
        raise NotImplementedError


class BimodalPredictor(DirectionPredictor):
    """Classic 2-bit saturating-counter table indexed by PC."""

    def __init__(self, entries: int = 16384):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("entries must be a positive power of two")
        self._mask = entries - 1
        self._table = [2] * entries     # weakly taken

    def predict(self, pc: int, thread: int = 0) -> bool:
        return self._table[(pc >> 2) & self._mask] >= 2

    def update(self, pc: int, taken: bool, thread: int = 0) -> bool:
        idx = (pc >> 2) & self._mask
        ctr = self._table[idx]
        self._table[idx] = min(3, ctr + 1) if taken else max(0, ctr - 1)
        return ctr >= 2


class GSharePredictor(DirectionPredictor):
    """Global-history XOR predictor with 2-bit counters."""

    def __init__(self, entries: int = 16384, history_bits: int = 12):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("entries must be a positive power of two")
        self._mask = entries - 1
        self._table = [2] * entries
        self._hist_mask = (1 << history_bits) - 1
        self._history: Dict[int, int] = {}

    def _index(self, pc: int, thread: int) -> int:
        hist = self._history.get(thread, 0)
        return ((pc >> 2) ^ hist) & self._mask

    def predict(self, pc: int, thread: int = 0) -> bool:
        return self._table[self._index(pc, thread)] >= 2

    def update(self, pc: int, taken: bool, thread: int = 0) -> bool:
        idx = self._index(pc, thread)
        ctr = self._table[idx]
        self._table[idx] = min(3, ctr + 1) if taken else max(0, ctr - 1)
        hist = self._history.get(thread, 0)
        self._history[thread] = ((hist << 1) | int(taken)) & self._hist_mask
        return ctr >= 2


class HybridPredictor(DirectionPredictor):
    """POWER9-style tournament of bimodal and gshare with a chooser."""

    def __init__(self, entries: int = 16384, history_bits: int = 12):
        self.bimodal = BimodalPredictor(entries)
        self.gshare = GSharePredictor(entries, history_bits)
        self._chooser = [2] * entries   # >=2 -> use gshare
        self._mask = entries - 1

    def predict(self, pc: int, thread: int = 0) -> bool:
        if self._chooser[(pc >> 2) & self._mask] >= 2:
            return self.gshare.predict(pc, thread)
        return self.bimodal.predict(pc, thread)

    def update(self, pc: int, taken: bool, thread: int = 0) -> bool:
        idx = (pc >> 2) & self._mask
        ctr = self._chooser[idx]
        b_pred = self.bimodal.update(pc, taken, thread)
        g_pred = self.gshare.update(pc, taken, thread)
        if b_pred != g_pred:
            if g_pred == taken:
                self._chooser[idx] = min(3, ctr + 1)
            else:
                self._chooser[idx] = max(0, ctr - 1)
        return g_pred if ctr >= 2 else b_pred


class _TageTable:
    def __init__(self, entries: int, history_bits: int, tag_bits: int = 10):
        self.mask = entries - 1
        self.hist_mask = (1 << history_bits) - 1
        self.tag_mask = (1 << tag_bits) - 1
        self.history_bits = history_bits
        self.tags = [0] * entries
        self.ctrs = [0] * entries       # signed -4..3, >=0 -> taken
        self._useful = [0] * entries

    def train(self, idx: int, taken: bool) -> None:
        """Train the entry a branch hit."""
        ctr = self.ctrs[idx]
        self.ctrs[idx] = min(3, ctr + 1) if taken else max(-4, ctr - 1)
        self._useful[idx] = min(3, self._useful[idx] + 1)

    def allocate(self, idx: int, tag: int, taken: bool) -> None:
        """Claim the entry a branch missed, unless it is still useful
        (then age it instead)."""
        if self._useful[idx] == 0:
            self.tags[idx] = tag
            self.ctrs[idx] = 0 if taken else -1
        else:
            self._useful[idx] -= 1


class TagePredictor(DirectionPredictor):
    """A compact TAGE: bimodal base plus geometric-history tagged tables.

    This is the POWER10 direction predictor stand-in.  Long-history
    tables catch loop exits and correlated patterns that defeat the
    POWER9 hybrid, which is the mechanism behind the paper's reduction
    in flushed instructions.
    """

    def __init__(self, base_entries: int = 16384,
                 table_entries: int = 2048,
                 histories: tuple = (4, 8, 16, 32)):
        self.base = BimodalPredictor(base_entries)
        self.tables = [_TageTable(table_entries, h) for h in histories]
        self._history: Dict[int, int] = {}

    def _lookup(self, pc: int, hist: int):
        """``(prediction, slots)``: ``slots`` holds ``(table, index,
        tag)`` from the longest-history table down to the provider (the
        longest that hits), or every table when none hits; the
        prediction is the provider's, or None.  Each table's index and
        tag are computed once per branch."""
        slots = []
        line, hashed = pc >> 2, (pc >> 6) ^ (hist * 2654435761)
        for table in reversed(self.tables):
            # the pc xor the history folded to the table's length picks
            # the entry; the tag is the same pc/history hash in every table
            fold = table.hist_mask
            idx = (line ^ (hist & fold)
                   ^ ((hist >> table.history_bits) & fold)) & table.mask
            tag = hashed & table.tag_mask
            slots.append((table, idx, tag))
            if table.tags[idx] == tag:
                return table.ctrs[idx] >= 0, slots
        return None, slots

    def predict(self, pc: int, thread: int = 0) -> bool:
        pred, _ = self._lookup(pc, self._history.get(thread, 0))
        if pred is not None:
            return pred
        return self.base.predict(pc, thread)

    def update(self, pc: int, taken: bool, thread: int = 0) -> bool:
        hist = self._history.get(thread, 0)
        pred, slots = self._lookup(pc, hist)
        if pred is None:
            pred = self.base.update(pc, taken, thread)
            if pred != taken:
                table, idx, tag = slots[-1]     # the shortest history
                table.allocate(idx, tag, taken)
        else:
            table, idx, _ = slots[-1]
            table.train(idx, taken)
            if pred != taken and len(slots) > 1:
                # the next longer history gets a chance at this branch
                table, idx, tag = slots[-2]
                table.allocate(idx, tag, taken)
        self._history[thread] = ((hist << 1) | int(taken)) & ((1 << 64) - 1)
        return pred


class IndirectPredictor:
    """Indirect branch target predictor.

    POWER9 mode (``use_history=False``) is a plain BTB: last target seen
    at the PC.  POWER10 mode hashes a *per-site* history of recent
    targets into the index — the mechanism of POWER's count-cache-style
    predictors — which learns sites that alternate between a small set
    of targets in a repeating pattern (polymorphic calls, interpreter
    dispatch), the paper's "new predictor for indirect targets".
    """

    def __init__(self, entries: int = 512, use_history: bool = False,
                 history_bits: int = 8):
        if entries <= 0 or entries & (entries - 1):
            raise ConfigError("entries must be a positive power of two")
        self._mask = entries - 1
        self._targets: List[Optional[int]] = [None] * entries
        self._use_history = use_history
        self._hist_mask = (1 << history_bits) - 1
        self._local_history: Dict[int, int] = {}

    def _index(self, pc: int, thread: int) -> int:
        idx = pc >> 2
        if self._use_history:
            idx ^= self._local_history.get((thread, pc), 0)
        return idx & self._mask

    def predict(self, pc: int, thread: int = 0) -> Optional[int]:
        return self._targets[self._index(pc, thread)]

    def update(self, pc: int, target: int, thread: int = 0) -> None:
        self._targets[self._index(pc, thread)] = target
        if self._use_history:
            key = (thread, pc)
            hist = self._local_history.get(key, 0)
            self._local_history[key] = (
                (hist << 3) ^ (target >> 6)) & self._hist_mask


@dataclass
class BranchStats:
    lookups: int = 0
    mispredicts: int = 0
    indirect_lookups: int = 0
    indirect_mispredicts: int = 0

    @property
    def mispredict_rate(self) -> float:
        total = self.lookups + self.indirect_lookups
        if total == 0:
            return 0.0
        return (self.mispredicts + self.indirect_mispredicts) / total


class BranchUnit:
    """Front-end branch prediction stack: direction + indirect target."""

    def __init__(self, direction: DirectionPredictor,
                 indirect: IndirectPredictor):
        self.direction = direction
        self.indirect = indirect
        self.stats = BranchStats()

    def process(self, instr: Instruction) -> bool:
        """Predict and train on one branch; returns True on mispredict."""
        if not instr.iclass.is_branch:
            raise SimulationError("process() requires a branch instruction")
        return self.resolve(instr.iclass is InstrClass.BRANCH_IND,
                            instr.pc, instr.taken, instr.target,
                            instr.thread)

    def resolve(self, indirect: bool, pc: int, taken: bool,
                target: Optional[int], thread: int) -> bool:
        """:meth:`process` on a branch given by its fields (``indirect``
        for ``BRANCH_IND``; ``target`` may be None)."""
        if indirect:
            self.stats.indirect_lookups += 1
            predicted = self.indirect.predict(pc, thread)
            self.indirect.update(pc, target or 0, thread)
            wrong = predicted != target
            if wrong:
                self.stats.indirect_mispredicts += 1
            return wrong
        self.stats.lookups += 1
        wrong = self.direction.update(pc, taken, thread) != taken
        if wrong:
            self.stats.mispredicts += 1
        return wrong


def make_branch_unit(kind: str, scale: int = 1) -> BranchUnit:
    """Build a predictor stack by generation name.

    ``kind`` is ``"power9"`` (hybrid + plain BTB) or ``"power10"``
    (TAGE + history-hashed indirect with doubled resources).  ``scale``
    multiplies table sizes, used by the Fig. 4 feature ladder.
    """
    if kind == "power9":
        return BranchUnit(
            HybridPredictor(entries=16384 * scale, history_bits=12),
            IndirectPredictor(entries=512 * scale, use_history=False))
    if kind == "power10":
        return BranchUnit(
            TagePredictor(base_entries=16384 * scale,
                          table_entries=2048 * scale),
            IndirectPredictor(entries=1024 * scale, use_history=True))
    raise ConfigError(f"unknown branch unit kind: {kind!r}")
