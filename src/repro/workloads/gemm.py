"""GEMM kernel trace generators: VSU (vector) vs MMA code.

These produce the OpenBLAS-micro-kernel-shaped instruction streams the
Fig. 5 experiment measures.  Both variants compute the same panel of a
DGEMM/SGEMM; the difference is the code generation target:

* **VSU** code follows the classic BLAS1 decomposition: per k step it
  loads A and B vectors, *splats* each B element across lanes (splats
  compete with FMAs for VSX issue slots — the paper's "extra load or
  splat instructions" point) and issues one 128-bit FMA per C tile
  register.
* **MMA** code issues one ``ger`` outer product per accumulator per k
  step.  No splats, and C never leaves the accumulators during the k
  loop — the data-movement saving the paper highlights.

The paper measures "multiple 5K cycle windows" of the kernel steady
state; :func:`repro.workloads.trace.Trace.windows` provides the
slicing.  Each kernel is one k-step body tiled over its iterations, with
the panel addresses computed as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.isa import (ACC_BASE, GPR_BASE, Instruction, InstrClass,
                        VSR_BASE)
from ..errors import TraceError
from .trace import Trace, loop_columns, shift_addresses

#: the A and B panels wrap within this many bytes
_PANEL_BYTES = 32 * 1024

_FLOPS_PER_FMA = {"fp64": 4, "fp32": 8}       # 128-bit FMA, 2 FLOPs/lane
_FLOPS_PER_GER = {"fp64": 16, "fp32": 32}     # 4x2 / 4x4 rank-1 tiles


@dataclass
class VsuKernelShape:
    """Register-blocking of the vector micro-kernel."""

    mr: int = 4        # C rows held in registers
    nr: int = 8        # C columns held in registers
    dtype: str = "fp64"

    @property
    def lanes(self) -> int:
        return 2 if self.dtype == "fp64" else 4

    @property
    def c_regs(self) -> int:
        return self.mr * self.nr // self.lanes


@dataclass
class MmaKernelShape:
    """Accumulator-blocking of the MMA micro-kernel."""

    accumulators: int = 8
    dtype: str = "fp64"

    @property
    def tile_rows(self) -> int:
        return 4

    @property
    def tile_cols(self) -> int:
        return 2 if self.dtype == "fp64" else 4


def dgemm_vsu_trace(k_iterations: int, shape: VsuKernelShape = None,
                    *, max_load_bytes: int = 16,
                    name: str = "dgemm-vsu") -> Trace:
    """Vector-code GEMM micro-kernel trace (POWER9-tuned, per Fig. 5
    the same binary is run unmodified on POWER10)."""
    shape = shape or VsuKernelShape()
    if k_iterations <= 0:
        raise TraceError("k_iterations must be positive")
    lanes = shape.lanes
    elem = 8 if shape.dtype == "fp64" else 4
    flops = _FLOPS_PER_FMA[shape.dtype]

    c_regs = [VSR_BASE + i for i in range(shape.c_regs)]
    a_regs = [VSR_BASE + 40 + i for i in range(shape.mr // lanes)]
    b_load_regs = [VSR_BASE + 48 + i for i in range(shape.nr // lanes)]
    b_splat_regs = [VSR_BASE + 52 + i for i in range(shape.nr)]
    ptr_a, ptr_b = GPR_BASE + 3, GPR_BASE + 4
    a_base, b_base = 0x3000000, 0x3800000

    vec_bytes = min(16, max_load_bytes)
    pc = 0x5000
    body = []
    for i, reg in enumerate(a_regs):
        body.append(Instruction(
            iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_a,),
            address=a_base + i * vec_bytes, size=vec_bytes, pc=pc + 4 * i))
    for i, reg in enumerate(b_load_regs):
        body.append(Instruction(
            iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_b,),
            address=b_base + i * vec_bytes, size=vec_bytes,
            pc=pc + 0x20 + 4 * i))
    # splat each B element across lanes (consumes a VSX slot)
    for j in range(shape.nr):
        src = b_load_regs[j // lanes]
        body.append(Instruction(
            iclass=InstrClass.VSX, dests=(b_splat_regs[j],),
            srcs=(src,), pc=pc + 0x40 + 4 * j))
    # FMAs: C[i,j] += A[i] * Bsplat[j]
    reg_idx = 0
    for j in range(shape.nr):
        for i in range(shape.mr // lanes):
            c = c_regs[reg_idx]
            body.append(Instruction(
                iclass=InstrClass.VSX, dests=(c,),
                srcs=(c, a_regs[i], b_splat_regs[j]),
                pc=pc + 0x80 + 4 * reg_idx, flops=flops))
            reg_idx += 1
    # loop overhead: pointer bumps + count + branch
    body.append(Instruction(
        iclass=InstrClass.FX, dests=(ptr_a,), srcs=(ptr_a,),
        pc=pc + 0x140))
    body.append(Instruction(
        iclass=InstrClass.FX, dests=(ptr_b,), srcs=(ptr_b,),
        pc=pc + 0x144))
    body.append(Instruction(
        iclass=InstrClass.BRANCH, pc=pc + 0x148, taken=True, target=pc))
    columns, k = loop_columns(body, k_iterations)
    # per k step the A panel advances mr elements, the B panel nr
    panel_step = _panel_step(len(body), [shape.mr * elem] * len(a_regs)
                             + [shape.nr * elem] * len(b_load_regs))
    step = np.arange(len(k)) % len(body)
    columns = shift_addresses(columns,
                              k * panel_step[step] % _PANEL_BYTES)
    return Trace(name=name, columns=columns, suite="gemm",
                 metadata={"kernel": "vsu", "dtype": shape.dtype,
                           "k": k_iterations,
                           "flops_per_iter": shape.mr * shape.nr * 2})


def dgemm_mma_trace(k_iterations: int, shape: MmaKernelShape = None,
                    *, max_load_bytes: int = 32, store_period: int = 128,
                    name: str = "dgemm-mma") -> Trace:
    """MMA-code GEMM micro-kernel trace (POWER10 only)."""
    shape = shape or MmaKernelShape()
    if k_iterations <= 0:
        raise TraceError("k_iterations must be positive")
    elem = 8 if shape.dtype == "fp64" else 4
    flops = _FLOPS_PER_GER[shape.dtype]
    rows = shape.tile_rows * shape.accumulators // 2
    cols = shape.tile_cols * 2

    accs = [ACC_BASE + i for i in range(shape.accumulators)]
    a_bytes = rows * elem
    b_bytes = cols * elem
    n_a_loads = max(1, a_bytes // max_load_bytes)
    n_b_loads = max(1, b_bytes // max_load_bytes)
    a_regs = [VSR_BASE + 32 + i for i in range(n_a_loads)]
    b_regs = [VSR_BASE + 40 + i for i in range(n_b_loads)]
    ptr_a, ptr_b = GPR_BASE + 3, GPR_BASE + 4
    a_base, b_base = 0x3000000, 0x3800000

    pc = 0x6000
    loop = []
    for i, reg in enumerate(a_regs):
        loop.append(Instruction(
            iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_a,),
            address=a_base + i * max_load_bytes,
            size=max_load_bytes, pc=pc + 4 * i))
    for i, reg in enumerate(b_regs):
        loop.append(Instruction(
            iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_b,),
            address=b_base + i * max_load_bytes,
            size=max_load_bytes, pc=pc + 0x20 + 4 * i))
    for n, acc in enumerate(accs):
        a_src = a_regs[n % len(a_regs)]
        b_src = b_regs[n % len(b_regs)]
        loop.append(Instruction(
            iclass=InstrClass.MMA, dests=(acc,),
            srcs=(acc, a_src, b_src),
            pc=pc + 0x40 + 4 * n, flops=flops))
    loop.append(Instruction(
        iclass=InstrClass.FX, dests=(ptr_a,), srcs=(ptr_a,),
        pc=pc + 0x80))
    loop.append(Instruction(
        iclass=InstrClass.FX, dests=(ptr_b,), srcs=(ptr_b,),
        pc=pc + 0x84))
    loop.append(Instruction(
        iclass=InstrClass.BRANCH, pc=pc + 0x88, taken=True, target=pc))
    # drain accumulators to memory at panel boundaries
    drain = []
    for n, acc in enumerate(accs):
        vsr = VSR_BASE + n
        drain.append(Instruction(
            iclass=InstrClass.MMA_MOVE, dests=(vsr,), srcs=(acc,),
            pc=pc + 0x100 + 8 * n))
        drain.append(Instruction(
            iclass=InstrClass.VSX_STORE, srcs=(vsr,),
            address=0x4000000 + n * 64, size=32,
            pc=pc + 0x104 + 8 * n))
    body = loop + drain
    columns, k = loop_columns(body, k_iterations)
    step = np.arange(len(k)) % len(body)
    drained = ((k + 1) % store_period == 0) | (k == k_iterations - 1)
    keep = np.flatnonzero((step < len(loop)) | drained)
    panel_step = _panel_step(len(body), [a_bytes] * len(a_regs)
                             + [b_bytes] * len(b_regs))
    columns = shift_addresses(
        columns.take(keep),
        k[keep] * panel_step[step[keep]] % _PANEL_BYTES)
    return Trace(name=name, columns=columns, suite="gemm",
                 metadata={"kernel": "mma", "dtype": shape.dtype,
                           "k": k_iterations,
                           "flops_per_iter": (shape.accumulators
                                              * flops)})


def _panel_step(body_len: int, load_steps) -> np.ndarray:
    """How far each row of a body moves its address per k step: the body
    opens with its panel loads (``load_steps``); no other row moves."""
    out = np.zeros(body_len, dtype=np.int64)
    out[:len(load_steps)] = load_steps
    return out


def gemm_instruction_estimate(m: int, n: int, k: int, *, dtype: str,
                              kernel: str) -> int:
    """Analytic dynamic-instruction estimate for a full ``m x n x k``
    GEMM under either code generation target.

    Used by the end-to-end AI model (Fig. 6), where simulating the full
    batch is infeasible; validated against the generated kernel traces
    in the test suite.
    """
    if kernel == "vsu":
        shape = VsuKernelShape(dtype=dtype)
        lanes = shape.lanes
        fmas = m * n * k // (lanes * 1)
        per_iter = (shape.mr // lanes + shape.nr // lanes   # loads
                    + shape.nr                              # splats
                    + shape.mr * shape.nr // lanes          # FMAs
                    + 3)                                    # overhead
        iters = max(1, m * n * k // (shape.mr * shape.nr))
        return per_iter * iters
    if kernel == "mma":
        shape = MmaKernelShape(dtype=dtype)
        rows = shape.tile_rows * shape.accumulators // 2
        cols = shape.tile_cols * 2
        per_iter = (2 + 1 + shape.accumulators + 3)
        iters = max(1, m * n * k // (rows * cols))
        return per_iter * iters
    raise TraceError(f"unknown kernel target: {kernel!r}")
