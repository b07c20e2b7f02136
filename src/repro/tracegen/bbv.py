"""Basic Block Vectors — the SimPoint feature space (Section III-A).

A BBV counts, per fixed-size execution interval, how many instructions
were executed in each static basic block.  Blocks are delimited by
branch instructions (a branch ends a block; its target starts one).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from ..core.isa import CLASS_CODE, InstrClass, TraceColumns
from ..errors import TraceError
from ..workloads.trace import columns_of

_BRANCH_CODES = [CLASS_CODE[InstrClass.BRANCH],
                 CLASS_CODE[InstrClass.BRANCH_IND]]


def split_intervals(trace, interval: int) -> List[TraceColumns]:
    """The trace's columns in windows of ``interval`` rows; a short last
    window is kept only if it holds at least ``interval // 2``."""
    if interval <= 0:
        raise TraceError("interval must be positive")
    columns = columns_of(trace)
    n = len(columns)
    return [columns[i:i + interval] for i in range(0, n, interval)
            if min(interval, n - i) >= interval // 2]


def basic_block_vectors(trace, *, interval: int = 1000,
                        ) -> Tuple[np.ndarray, List[TraceColumns]]:
    """Compute normalized BBVs; returns (matrix, intervals).

    Block identity is the PC of the block's leader (the instruction
    after the previous branch; -1 after a taken branch without a
    target).
    """
    intervals = split_intervals(trace, interval)
    if not intervals:
        raise TraceError("trace too short for the chosen interval")
    block_ids: Dict[int, int] = {}
    rows: List[Dict[int, int]] = []
    for chunk in intervals:
        counts: Dict[int, int] = {}
        at = np.flatnonzero(np.isin(chunk.codes, _BRANCH_CODES))
        # a taken branch leads to its target, a fall-through to pc + 4
        leaders = np.where(chunk.taken[at], chunk.target[at],
                           chunk.pc[at] + 4).tolist()
        leader = int(chunk.pc[0])
        block_end = -1
        for pos, after in zip(at.tolist(), leaders):
            bid = block_ids.setdefault(leader, len(block_ids))
            counts[bid] = counts.get(bid, 0) + pos - block_end
            leader, block_end = after, pos
        if block_end < len(chunk) - 1:
            bid = block_ids.setdefault(leader, len(block_ids))
            counts[bid] = counts.get(bid, 0) + len(chunk) - 1 - block_end
        rows.append(counts)
    matrix = np.zeros((len(rows), len(block_ids)))
    for i, counts in enumerate(rows):
        for bid, count in counts.items():
            matrix[i, bid] = count
        total = matrix[i].sum()
        if total > 0:
            matrix[i] /= total
    return matrix, intervals


def project_bbvs(matrix: np.ndarray, dimensions: int = 15,
                 seed: int = 42) -> np.ndarray:
    """Random projection to a low dimension (the SimPoint recipe)."""
    if matrix.shape[1] <= dimensions:
        return matrix.copy()
    rng = np.random.default_rng(seed)
    projection = rng.standard_normal((matrix.shape[1], dimensions))
    projection /= np.sqrt(dimensions)
    return matrix @ projection
