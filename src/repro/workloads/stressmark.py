"""Maximum-power stressmarks (Section III-B: "well-known workloads of
interest, including maximum power stressmarks").

A stressmark saturates every issue port simultaneously with independent
work so that unit utilization — and therefore switching and clock
activity — is maximal.  Used for the power-envelope end of the WOF
analysis and for SERMiner's high-utilization corner.
"""

from __future__ import annotations

from ..core.isa import ACC_BASE, GPR_BASE, Instruction, InstrClass, VSR_BASE
from ..errors import TraceError
from .trace import Trace, loop_columns, shift_addresses


def max_power_stressmark(iterations: int, *, include_mma: bool = False,
                         name: str = "maxpower") -> Trace:
    """Issue-port-saturating loop: FX + VSX + loads + stores (+ MMA).

    Every chain is independent (DD > port latency) so all ports stay
    busy every cycle.
    """
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    fx_regs = [GPR_BASE + 8 + i for i in range(8)]
    vsx_regs = [VSR_BASE + i for i in range(16)]
    # registers rotate with a period of 4 iterations (8 with the MMA
    # accumulators); the body holds one period
    period = 8 if include_mma else 4
    pc = 0x7000
    body = []
    for i in range(period):
        for j in range(4):
            reg = fx_regs[(i * 4 + j) % len(fx_regs)]
            body.append(Instruction(
                iclass=InstrClass.FX, dests=(reg,), srcs=(reg,),
                pc=pc + 4 * j))
        for j in range(4):
            reg = vsx_regs[(i * 4 + j) % len(vsx_regs)]
            body.append(Instruction(
                iclass=InstrClass.VSX, dests=(reg,), srcs=(reg,),
                pc=pc + 0x10 + 4 * j, flops=4))
        # iteration i touches line i % 256 of each buffer (added below)
        body.append(Instruction(
            iclass=InstrClass.LOAD, dests=(GPR_BASE + 20,),
            srcs=(GPR_BASE + 3,), address=0x2000000, size=8,
            pc=pc + 0x20))
        body.append(Instruction(
            iclass=InstrClass.STORE, srcs=(GPR_BASE + 20,),
            address=0x2100000, size=8, pc=pc + 0x24))
        if include_mma:
            acc = ACC_BASE + (i % 8)
            body.append(Instruction(
                iclass=InstrClass.MMA, dests=(acc,),
                srcs=(acc, vsx_regs[0], vsx_regs[1]),
                pc=pc + 0x28, flops=32))
        body.append(Instruction(
            iclass=InstrClass.BRANCH, pc=pc + 0x30, taken=True, target=pc))
    columns, it = loop_columns(body, iterations, period=period)
    return Trace(name=name,
                 columns=shift_addresses(columns, it % 256 * 64),
                 suite="stressmark", metadata={"include_mma": include_mma})
