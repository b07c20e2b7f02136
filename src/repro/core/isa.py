"""A compact model of the Power ISA subset relevant to this reproduction.

The paper's evaluation depends on *classes* of instructions (fixed-point,
load, store, branch, 128-bit VSX vector ops, 512-bit MMA outer products and
accumulator moves) rather than on exact opcode semantics, so instructions
are represented as lightweight records carrying:

* an :class:`InstrClass` deciding which execution resource is used,
* register dependencies (integer source/dest names as small ints),
* an optional effective address and access size for memory operations,
* branch metadata (taken/target) for control-flow instructions,
* FLOP counts so kernels can report FLOPs/cycle the way Fig. 5 does.

A trace keeps its instructions as :class:`TraceColumns`, one array per
field.  Generators write those columns directly: fixed-body kernels tile
one loop body, the synthetic generator appends each field to a list.
``Instruction`` records are built only for the code that reads them one
at a time (the per-instruction walk, the fault injector, trace files,
BBVs) and for the few rows of a loop body.  The timing model never writes
to an instruction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import TraceError


class InstrClass(enum.Enum):
    """Execution class of an instruction.

    The classes map one-to-one onto the issue resources of the modeled
    cores (see :mod:`repro.core.config`).
    """

    FX = "fx"              # fixed point ALU (add, logical, rotate...)
    FX_MULDIV = "fxmd"     # long-latency fixed point (mul/div)
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    BRANCH_IND = "branch_ind"   # indirect branch (bclr/bcctr style)
    FP = "fp"              # scalar floating point
    VSX = "vsx"            # 128-bit vector-scalar SIMD op
    VSX_LOAD = "vsx_load"  # vector load (up to 32B on POWER10)
    VSX_STORE = "vsx_store"
    MMA = "mma"            # outer-product op targeting an accumulator
    MMA_MOVE = "mma_move"  # xxmtacc/xxmfacc style accumulator moves
    CR = "cr"              # condition register logic
    SYSTEM = "system"      # sync, isync, mtspr ... rarely modeled

    @property
    def is_memory(self) -> bool:
        return self in _MEMORY_CLASSES

    @property
    def is_load(self) -> bool:
        return self in (InstrClass.LOAD, InstrClass.VSX_LOAD)

    @property
    def is_store(self) -> bool:
        return self in (InstrClass.STORE, InstrClass.VSX_STORE)

    @property
    def is_branch(self) -> bool:
        return self in (InstrClass.BRANCH, InstrClass.BRANCH_IND)

    @property
    def is_vector(self) -> bool:
        return self in (InstrClass.VSX, InstrClass.VSX_LOAD,
                        InstrClass.VSX_STORE)

    @property
    def is_mma(self) -> bool:
        return self in (InstrClass.MMA, InstrClass.MMA_MOVE)


_MEMORY_CLASSES = frozenset({
    InstrClass.LOAD, InstrClass.STORE,
    InstrClass.VSX_LOAD, InstrClass.VSX_STORE,
})


# Register-name spaces.  The unified POWER10 register file holds GPR and
# FPR/VSR data in one sliced structure; we keep distinct name ranges so
# dependence tracking stays simple while the *power* model can still charge
# accesses to the unified structure.
GPR_BASE = 0          # r0..r31        -> names [0, 32)
VSR_BASE = 64         # vs0..vs63      -> names [64, 128)
ACC_BASE = 256        # acc0..acc7     -> names [256, 264)
CR_BASE = 300         # cr fields      -> names [300, 308)
LR_NAME = 320
CTR_NAME = 321

NUM_GPRS = 32
NUM_VSRS = 64
NUM_ACCS = 8


@dataclass
class Instruction:
    """One dynamic instruction in a workload trace.

    Attributes
    ----------
    iclass:
        Execution class (decides the issue resource and base latency).
    dests / srcs:
        Register names written / read.  Names use the bases defined in
        this module (``GPR_BASE``, ``VSR_BASE``, ``ACC_BASE``...).
    address / size:
        Effective address and byte count for memory operations.
    taken / target:
        For branches: resolved direction and target address.
    flops:
        Floating point operations performed (for FLOPs/cycle reporting).
        An MMA ``xvf64ger`` style op on a 4x2 fp64 grid performs
        16 FLOPs (8 MACs); a 128-bit fp64 FMA performs 4.
    pc:
        Instruction address, used for I-cache and branch predictor
        indexing and BBV construction.
    thread:
        Hardware thread id (SMT).
    """

    iclass: InstrClass
    dests: Tuple[int, ...] = ()
    srcs: Tuple[int, ...] = ()
    address: Optional[int] = None
    size: int = 0
    taken: bool = False
    target: Optional[int] = None
    flops: int = 0
    pc: int = 0
    thread: int = 0

    def __post_init__(self) -> None:
        if self.iclass.is_memory and self.address is None:
            raise TraceError(
                f"memory instruction {self.iclass} requires an address")
        if self.iclass.is_memory and self.size <= 0:
            raise TraceError("memory instruction requires a positive size")

    @property
    def is_memory(self) -> bool:
        return self.iclass.is_memory


# Base execution latencies (cycles), shared by POWER9/POWER10 models.
# POWER10-specific deltas (e.g. reduced L2/L3 latency, extra RF stage)
# live in :mod:`repro.core.config`.
BASE_LATENCY = {
    InstrClass.FX: 1,
    InstrClass.FX_MULDIV: 5,
    InstrClass.LOAD: 4,          # L1 hit load-to-use
    InstrClass.STORE: 1,
    InstrClass.BRANCH: 1,
    InstrClass.BRANCH_IND: 1,
    InstrClass.FP: 6,
    InstrClass.VSX: 6,
    InstrClass.VSX_LOAD: 5,
    InstrClass.VSX_STORE: 1,
    InstrClass.MMA: 4,           # back-to-back capable via accumulators
    InstrClass.MMA_MOVE: 3,
    InstrClass.CR: 1,
    InstrClass.SYSTEM: 10,
}


# --------------------------------------------------------------------------
# Columnar form.
# --------------------------------------------------------------------------

#: Fixed class order: an instruction's class code is its index here.
CLASS_ORDER: Tuple[InstrClass, ...] = tuple(InstrClass)
CLASS_CODE: Dict[InstrClass, int] = {
    cls: code for code, cls in enumerate(CLASS_ORDER)}
_CODE_BY_ID = {id(cls): code for cls, code in CLASS_CODE.items()}


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """A run of instructions as parallel arrays, one row per instruction.

    ``address`` and ``target`` hold -1 for ``None`` (real values are
    non-negative, and 0 stays distinct from ``None``).  Registers are in
    CSR form: the srcs of row *i* are ``src_reg[src_off[i]:src_off[i+1]]``
    and likewise for dests; offsets always start at 0.  Slices share
    memory with their parent; no operation writes into a column.
    """

    codes: np.ndarray      # int8, index into CLASS_ORDER
    pc: np.ndarray         # int64
    address: np.ndarray    # int64, -1 for None
    size: np.ndarray       # int32
    taken: np.ndarray      # bool
    target: np.ndarray     # int64, -1 for None
    flops: np.ndarray      # int32
    thread: np.ndarray     # int32
    src_off: np.ndarray    # int64, length n + 1
    src_reg: np.ndarray    # int32
    dest_off: np.ndarray   # int64, length n + 1
    dest_reg: np.ndarray   # int32

    #: the columns with one entry per row
    ROWS = ("codes", "pc", "address", "size", "taken", "target", "flops",
            "thread")

    def __len__(self) -> int:
        return len(self.codes)

    @classmethod
    def pack(cls, instructions: Sequence[Instruction]) -> "TraceColumns":
        """The columns of ``instructions``, one pass per field (no
        per-row temporaries, so packing adds little to peak memory)."""
        n = len(instructions)

        def column(name):
            return np.fromiter(map(attrgetter(name), instructions),
                               dtype=_ROW_DTYPE[name], count=n)

        code = _CODE_BY_ID
        src_off, src_reg = _pack_csr(list(map(attrgetter("srcs"),
                                              instructions)))
        dest_off, dest_reg = _pack_csr(list(map(attrgetter("dests"),
                                                instructions)))
        return cls(
            codes=np.fromiter(
                map(code.__getitem__,
                    map(id, map(attrgetter("iclass"), instructions))),
                dtype=np.int8, count=n),
            pc=column("pc"),
            address=_pack_optional(instructions, "address"),
            size=column("size"),
            taken=column("taken"),
            target=_pack_optional(instructions, "target"),
            flops=column("flops"),
            thread=column("thread"),
            src_off=src_off, src_reg=src_reg,
            dest_off=dest_off, dest_reg=dest_reg)

    @classmethod
    def build(cls, *, srcs: Sequence[Tuple[int, ...]],
              dests: Sequence[Tuple[int, ...]],
              **rows: Sequence) -> "TraceColumns":
        """Columns from one sequence per field of ``ROWS`` (``address``
        and ``target`` already -1 for None) and the register tuples of
        every row."""
        return _assemble({f: np.asarray(rows[f], dtype=_ROW_DTYPE[f])
                          for f in cls.ROWS},
                         _pack_csr(srcs), _pack_csr(dests))

    def instructions(self) -> List[Instruction]:
        """Fresh ``Instruction`` records for every row."""
        classes = [CLASS_ORDER[c] for c in self.codes.tolist()]
        addrs = [None if a < 0 else a for a in self.address.tolist()]
        targets = [None if t < 0 else t for t in self.target.tolist()]
        return [Instruction(*row) for row in zip(
            classes, _unpack_csr(self.dest_off, self.dest_reg),
            _unpack_csr(self.src_off, self.src_reg), addrs,
            self.size.tolist(), self.taken.tolist(), targets,
            self.flops.tolist(), self.pc.tolist(), self.thread.tolist())]

    def __getitem__(self, rows: slice) -> "TraceColumns":
        """Rows ``start:stop`` as views of these columns."""
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise TraceError("trace columns slice with step 1 only")
        stop = max(start, stop)

        def csr(off, reg):
            off = off[start:stop + 1]
            return off - off[0], reg[off[0]:off[-1]]

        return _assemble({f: getattr(self, f)[start:stop] for f in self.ROWS},
                         csr(self.src_off, self.src_reg),
                         csr(self.dest_off, self.dest_reg))

    def take(self, rows: np.ndarray) -> "TraceColumns":
        """The given rows, in the given order (a gather)."""
        return _assemble({f: getattr(self, f)[rows] for f in self.ROWS},
                         _take_csr(self.src_off, self.src_reg, rows),
                         _take_csr(self.dest_off, self.dest_reg, rows))

    @staticmethod
    def concat(parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """The rows of ``parts`` one after another."""
        def csr(offs, regs):
            shift = 0
            pieces = []
            for off in offs:
                pieces.append(off[:-1] + shift)
                shift += int(off[-1])
            pieces.append(np.array([shift], dtype=np.int64))
            return np.concatenate(pieces), np.concatenate(regs)

        return _assemble({f: np.concatenate([getattr(p, f) for p in parts])
                          for f in TraceColumns.ROWS},
                         csr([p.src_off for p in parts],
                             [p.src_reg for p in parts]),
                         csr([p.dest_off for p in parts],
                             [p.dest_reg for p in parts]))


_ROW_DTYPE = {"codes": np.int8, "pc": np.int64, "address": np.int64,
              "size": np.int32, "taken": bool, "target": np.int64,
              "flops": np.int32, "thread": np.int32}


def _assemble(rows, src, dest) -> TraceColumns:
    """Columns from the per-row arrays and two (offsets, registers)."""
    return TraceColumns(**rows, src_off=src[0], src_reg=src[1],
                        dest_off=dest[0], dest_reg=dest[1])


def _pack_optional(instructions: Sequence[Instruction],
                   name: str) -> np.ndarray:
    values = list(map(attrgetter(name), instructions))
    out = np.fromiter((-1 if v is None else v for v in values),
                      dtype=np.int64, count=len(values))
    if np.count_nonzero(out < 0) != values.count(None):
        raise TraceError(f"an instruction {name} must be non-negative")
    return out


def _pack_csr(regs: Sequence[Tuple[int, ...]]):
    off = np.zeros(len(regs) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, regs), dtype=np.int64,
                          count=len(regs)), out=off[1:])
    flat = np.fromiter(chain.from_iterable(regs), dtype=np.int32,
                       count=int(off[-1]))
    return off, flat


def _unpack_csr(off: np.ndarray, reg: np.ndarray) -> List[Tuple[int, ...]]:
    bounds = off.tolist()
    flat = reg.tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


def _take_csr(off: np.ndarray, reg: np.ndarray, rows: np.ndarray):
    starts = off[rows]
    lens = off[rows + 1] - starts
    new_off = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lens, out=new_off[1:])
    # position in ``reg`` of every gathered register
    index = np.repeat(starts - new_off[:-1], lens) \
        + np.arange(new_off[-1], dtype=np.int64)
    return new_off, reg[index]
