"""Workload traces: the unit of work every simulator run consumes.

A :class:`Trace` is an ordered run of dynamic instructions plus metadata
(name, suite, weight for suite-level aggregation).  It stores the
instructions as one :class:`~repro.core.isa.TraceColumns`: a class code,
pc, address, size, taken, target, FLOPs and thread array, and the
registers in CSR form.  Generators write those columns directly:
fixed-body kernels (GEMM, daxpy, stressmarks) tile one loop body with
:func:`loop_columns` and compute their addresses as arrays, and the
synthetic generator fills one list per column.  Every transform —
windows for the 5K-cycle measurement methodology of Fig. 5, loop
unrolling, SMT interleaving — is an array operation on the columns;
``trace.instructions`` builds fresh records only for the code that reads
them one at a time.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.isa import (CLASS_CODE, CLASS_ORDER, Instruction, InstrClass,
                        TraceColumns)
from ..errors import TraceError


class Trace:
    """An instruction trace with provenance metadata."""

    def __init__(self, name: str,
                 instructions: Optional[Sequence[Instruction]] = None,
                 suite: str = "", weight: float = 1.0,
                 metadata: Optional[Dict[str, object]] = None, *,
                 columns: Optional[TraceColumns] = None) -> None:
        if columns is None:
            columns = TraceColumns.pack(instructions or ())
        elif instructions is not None:
            raise TraceError("give a trace instructions or columns, "
                             "not both")
        if not len(columns):
            raise TraceError(f"trace {name!r} is empty")
        if weight <= 0:
            raise TraceError("trace weight must be positive")
        self.name = name
        self.columns = columns
        self.suite = suite
        self.weight = weight
        self.metadata: Dict[str, object] = \
            {} if metadata is None else metadata

    def __repr__(self) -> str:
        return (f"Trace(name={self.name!r}, instructions={len(self)}, "
                f"suite={self.suite!r}, weight={self.weight!r})")

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    @property
    def instructions(self) -> List[Instruction]:
        """Fresh records for every instruction (built on each access)."""
        return self.columns.instructions()

    def _derive(self, name: str, columns: TraceColumns) -> "Trace":
        return Trace(name=name, columns=columns, suite=self.suite,
                     weight=self.weight, metadata=dict(self.metadata))

    def class_mix(self) -> Dict[InstrClass, float]:
        """Fraction of instructions per class."""
        counts = np.bincount(self.columns.codes.astype(np.int64),
                             minlength=len(CLASS_ORDER))
        total = len(self)
        return {cls: cnt / total
                for cls, cnt in zip(CLASS_ORDER, counts.tolist()) if cnt}

    def total_flops(self) -> int:
        return int(self.columns.flops.sum(dtype=np.int64))

    def windows(self, size: int) -> List["Trace"]:
        """Split into fixed-size instruction windows (last partial kept
        if it is at least half a window)."""
        if size <= 0:
            raise TraceError("window size must be positive")
        n = len(self)
        out = [self._derive(f"{self.name}@{start}",
                            self.columns[start:start + size])
               for start in range(0, n, size)
               if min(n, start + size) - start >= size // 2]
        if not out:
            raise TraceError("trace shorter than half a window")
        return out

    def repeated(self, times: int) -> "Trace":
        """The trace unrolled ``times`` times (L1-contained endless-loop
        proxies are built this way)."""
        if times <= 0:
            raise TraceError("times must be positive")
        return self._derive(f"{self.name}x{times}",
                            TraceColumns.concat([self.columns] * times))


def merge_smt(traces: Sequence[Trace], name: str = "smt") -> Trace:
    """Interleave per-thread traces round-robin into one SMT trace.

    Thread ids are (re)assigned by position.  The simulator uses the
    ``thread`` field for dependence tracking and predictor history.
    """
    if not traces:
        raise TraceError("need at least one thread trace")
    lengths = [len(t) for t in traces]
    merged = TraceColumns.concat([t.columns for t in traces])
    tid = np.repeat(np.arange(len(traces), dtype=np.int32), lengths)
    # round-robin: row j of thread t lands at (j, t) in sort order
    row = np.concatenate([np.arange(n, dtype=np.int64) for n in lengths])
    order = np.argsort(row * len(traces) + tid, kind="stable")
    merged = dataclasses.replace(merged, thread=tid).take(order)
    return Trace(name=name, columns=merged, suite=traces[0].suite,
                 metadata={"threads": len(traces)})


def loop_columns(body: Sequence[Instruction], iterations: int, *,
                 period: int = 1) -> Tuple[TraceColumns, np.ndarray]:
    """``iterations`` iterations of a loop, tiled from ``body``: the rows
    of ``period`` consecutive iterations (more than one when registers
    rotate).  Returns the columns and each row's iteration number.  The
    body's one branch per iteration closes the loop: taken, except on
    the last iteration."""
    columns = TraceColumns.pack(body)
    per_iteration = len(body) // period
    row = np.arange(iterations * per_iteration, dtype=np.int64)
    columns = columns.take(row % len(body))
    taken = columns.taken.copy()
    taken[np.flatnonzero(columns.codes == _BRANCH)[-1]] = False
    return dataclasses.replace(columns, taken=taken), row // per_iteration


def shift_addresses(columns: TraceColumns,
                    offset: np.ndarray) -> TraceColumns:
    """``columns`` with every address moved by ``offset`` (one entry per
    row); rows without an address keep none."""
    address = np.where(columns.address < 0, -1, columns.address + offset)
    return dataclasses.replace(columns, address=address)


_BRANCH = CLASS_CODE[InstrClass.BRANCH]


def columns_of(trace) -> TraceColumns:
    """The columns of a :class:`Trace`, or of any object carrying an
    ``instructions`` sequence (packed on the spot)."""
    columns = getattr(trace, "columns", None)
    if columns is None:
        columns = TraceColumns.pack(trace.instructions)
    return columns
