"""Well-known code kernels (Section III-A mentions e.g. ``daxpy``).

Small, steady-state loops with exactly known instruction patterns —
useful as sanity anchors for the timing model and as additional proxy
coverage alongside the synthetic workloads.  Each is one loop body tiled
over its iterations, with the addresses computed as arrays.
"""

from __future__ import annotations

from ..core.isa import GPR_BASE, Instruction, InstrClass, VSR_BASE
from ..errors import TraceError
from .trace import Trace, loop_columns, shift_addresses


def daxpy_trace(iterations: int, *, vectorized: bool = True,
                name: str = "daxpy") -> Trace:
    """``y[i] += a * x[i]`` over a streaming footprint."""
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    ptr_x, ptr_y = GPR_BASE + 3, GPR_BASE + 4
    x_base, y_base = 0x3000000, 0x3400000
    if vectorized:
        pc, step = 0x5000, 16
        x, y, a = VSR_BASE + 1, VSR_BASE + 2, VSR_BASE + 0
        load, fma, store = (InstrClass.VSX_LOAD, InstrClass.VSX,
                            InstrClass.VSX_STORE)
        fma_srcs, fma_flops = (y, a, x), 4
    else:
        pc, step = 0x5100, 8
        x, y = GPR_BASE + 10, GPR_BASE + 11
        load, fma, store = InstrClass.LOAD, InstrClass.FP, InstrClass.STORE
        fma_srcs, fma_flops = (y, x), 2
    body = [
        Instruction(iclass=load, dests=(x,), srcs=(ptr_x,),
                    address=x_base, size=step, pc=pc),
        Instruction(iclass=load, dests=(y,), srcs=(ptr_y,),
                    address=y_base, size=step, pc=pc + 4),
        Instruction(iclass=fma, dests=(y,), srcs=fma_srcs, pc=pc + 8,
                    flops=fma_flops),
        Instruction(iclass=store, srcs=(y,), address=y_base, size=step,
                    pc=pc + 12),
        Instruction(iclass=InstrClass.FX, dests=(ptr_x,), srcs=(ptr_x,),
                    pc=pc + 16),
        Instruction(iclass=InstrClass.BRANCH, pc=pc + 20, taken=True,
                    target=pc),
    ]
    columns, it = loop_columns(body, iterations)
    return Trace(name=name, columns=shift_addresses(columns, it * step),
                 suite="kernels",
                 metadata={"kernel": "daxpy", "vectorized": vectorized})


def stream_triad_trace(iterations: int,
                       name: str = "stream-triad") -> Trace:
    """``a[i] = b[i] + s * c[i]`` — memory-bandwidth bound."""
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    ptr = GPR_BASE + 3
    vb, vc, va = VSR_BASE + 1, VSR_BASE + 2, VSR_BASE + 3
    pc = 0x5200
    body = [
        Instruction(iclass=InstrClass.VSX_LOAD, dests=(vb,), srcs=(ptr,),
                    address=0x8000000, size=16, pc=pc),
        Instruction(iclass=InstrClass.VSX_LOAD, dests=(vc,), srcs=(ptr,),
                    address=0xA000000, size=16, pc=pc + 4),
        Instruction(iclass=InstrClass.VSX, dests=(va,), srcs=(vb, vc),
                    pc=pc + 8, flops=4),
        Instruction(iclass=InstrClass.VSX_STORE, srcs=(va,),
                    address=0xC000000, size=16, pc=pc + 12),
        Instruction(iclass=InstrClass.FX, dests=(ptr,), srcs=(ptr,),
                    pc=pc + 16),
        Instruction(iclass=InstrClass.BRANCH, pc=pc + 20, taken=True,
                    target=pc),
    ]
    columns, it = loop_columns(body, iterations)
    # long strides defeat the L1/L2 on purpose
    return Trace(name=name, columns=shift_addresses(columns, it * 128),
                 suite="kernels", metadata={"kernel": "stream-triad"})


def pointer_chase_trace(iterations: int, *, working_set: int = 8 << 20,
                        name: str = "pointer-chase") -> Trace:
    """Serial dependent loads over a large footprint (latency bound)."""
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    reg = GPR_BASE + 5
    base, pc = 0x9000000, 0x5300
    step = 64 * 1021            # co-prime walk over the working set
    body = [
        Instruction(iclass=InstrClass.LOAD, dests=(reg,), srcs=(reg,),
                    address=base, size=8, pc=pc),
        Instruction(iclass=InstrClass.BRANCH, pc=pc + 4, taken=True,
                    target=pc),
    ]
    columns, it = loop_columns(body, iterations)
    # address_i = base + (address_{i-1} + step) % working_set, starting
    # from address_{-1} = base, is base + (i + 1) * stride % working_set
    # (stride <= base + step, so the product fits in int64)
    stride = (base + step) % working_set
    offset = (it + 1) * stride % working_set
    return Trace(name=name, columns=shift_addresses(columns, offset),
                 suite="kernels", metadata={"kernel": "pointer-chase"})
