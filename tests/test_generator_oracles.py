"""Trace generators against the record-building versions they replaced.

The generators write trace columns directly (fixed-body kernels tile one
loop body; the synthetic generator appends each field to a list).  The
``ref_*`` functions below are the loops that built one ``Instruction``
per row and packed them; every generator must produce the same columns,
dtypes, fingerprint, name, suite, weight and metadata for every size and
option.
"""

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isa import (ACC_BASE, GPR_BASE, Instruction, InstrClass,
                            NUM_GPRS, VSR_BASE)
from repro.errors import TraceError
from repro.exec.cache import fingerprint_trace
from repro.workloads import (SPECINT_NAMES, SPECINT_PROFILES, WorkloadSpec,
                             daxpy_trace, dgemm_mma_trace, dgemm_vsu_trace,
                             generate, max_power_stressmark, microbenchmark,
                             pointer_chase_trace, stream_triad_trace)
from repro.workloads.gemm import (_FLOPS_PER_FMA, _FLOPS_PER_GER,
                                  MmaKernelShape, VsuKernelShape)
from repro.workloads.synthetic import _AddressEngine, _BranchEngine
from repro.workloads.trace import Trace


# --- the record-building reference ----------------------------------------

def ref_daxpy_trace(iterations: int, *, vectorized: bool = True,
                    name: str = "daxpy") -> Trace:
    """``y[i] += a * x[i]`` over a streaming footprint."""
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    instrs: List[Instruction] = []
    ptr_x, ptr_y = GPR_BASE + 3, GPR_BASE + 4
    x_base, y_base = 0x3000000, 0x3400000
    if vectorized:
        vx, vy, va = VSR_BASE + 1, VSR_BASE + 2, VSR_BASE + 0
        for i in range(iterations):
            pc = 0x5000
            addr_x = x_base + i * 16
            addr_y = y_base + i * 16
            instrs.append(Instruction(
                iclass=InstrClass.VSX_LOAD, dests=(vx,), srcs=(ptr_x,),
                address=addr_x, size=16, pc=pc))
            instrs.append(Instruction(
                iclass=InstrClass.VSX_LOAD, dests=(vy,), srcs=(ptr_y,),
                address=addr_y, size=16, pc=pc + 4))
            instrs.append(Instruction(
                iclass=InstrClass.VSX, dests=(vy,), srcs=(vy, va, vx),
                pc=pc + 8, flops=4))
            instrs.append(Instruction(
                iclass=InstrClass.VSX_STORE, srcs=(vy,),
                address=addr_y, size=16, pc=pc + 12))
            instrs.append(Instruction(
                iclass=InstrClass.FX, dests=(ptr_x,), srcs=(ptr_x,),
                pc=pc + 16))
            instrs.append(Instruction(
                iclass=InstrClass.BRANCH, pc=pc + 20,
                taken=i != iterations - 1, target=pc))
    else:
        fx, fy = GPR_BASE + 10, GPR_BASE + 11
        for i in range(iterations):
            pc = 0x5100
            instrs.append(Instruction(
                iclass=InstrClass.LOAD, dests=(fx,), srcs=(ptr_x,),
                address=x_base + i * 8, size=8, pc=pc))
            instrs.append(Instruction(
                iclass=InstrClass.LOAD, dests=(fy,), srcs=(ptr_y,),
                address=y_base + i * 8, size=8, pc=pc + 4))
            instrs.append(Instruction(
                iclass=InstrClass.FP, dests=(fy,), srcs=(fy, fx),
                pc=pc + 8, flops=2))
            instrs.append(Instruction(
                iclass=InstrClass.STORE, srcs=(fy,),
                address=y_base + i * 8, size=8, pc=pc + 12))
            instrs.append(Instruction(
                iclass=InstrClass.FX, dests=(ptr_x,), srcs=(ptr_x,),
                pc=pc + 16))
            instrs.append(Instruction(
                iclass=InstrClass.BRANCH, pc=pc + 20,
                taken=i != iterations - 1, target=pc))
    return Trace(name=name, instructions=instrs, suite="kernels",
                 metadata={"kernel": "daxpy", "vectorized": vectorized})


def ref_stream_triad_trace(iterations: int,
                           name: str = "stream-triad") -> Trace:
    """``a[i] = b[i] + s * c[i]`` — memory-bandwidth bound."""
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    instrs: List[Instruction] = []
    ptr = GPR_BASE + 3
    vb, vc, va = VSR_BASE + 1, VSR_BASE + 2, VSR_BASE + 3
    for i in range(iterations):
        pc = 0x5200
        # long strides defeat the L1/L2 on purpose
        stride = i * 128
        instrs.append(Instruction(
            iclass=InstrClass.VSX_LOAD, dests=(vb,), srcs=(ptr,),
            address=0x8000000 + stride, size=16, pc=pc))
        instrs.append(Instruction(
            iclass=InstrClass.VSX_LOAD, dests=(vc,), srcs=(ptr,),
            address=0xA000000 + stride, size=16, pc=pc + 4))
        instrs.append(Instruction(
            iclass=InstrClass.VSX, dests=(va,), srcs=(vb, vc),
            pc=pc + 8, flops=4))
        instrs.append(Instruction(
            iclass=InstrClass.VSX_STORE, srcs=(va,),
            address=0xC000000 + stride, size=16, pc=pc + 12))
        instrs.append(Instruction(
            iclass=InstrClass.FX, dests=(ptr,), srcs=(ptr,), pc=pc + 16))
        instrs.append(Instruction(
            iclass=InstrClass.BRANCH, pc=pc + 20,
            taken=i != iterations - 1, target=pc))
    return Trace(name=name, instructions=instrs, suite="kernels",
                 metadata={"kernel": "stream-triad"})


def ref_pointer_chase_trace(iterations: int, *, working_set: int = 8 << 20,
                            name: str = "pointer-chase") -> Trace:
    """Serial dependent loads over a large footprint (latency bound)."""
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    instrs: List[Instruction] = []
    reg = GPR_BASE + 5
    addr = 0x9000000
    step = 64 * 1021            # co-prime walk over the working set
    for i in range(iterations):
        pc = 0x5300
        addr = 0x9000000 + (addr + step) % working_set
        instrs.append(Instruction(
            iclass=InstrClass.LOAD, dests=(reg,), srcs=(reg,),
            address=addr, size=8, pc=pc))
        instrs.append(Instruction(
            iclass=InstrClass.BRANCH, pc=pc + 4,
            taken=i != iterations - 1, target=pc))
    return Trace(name=name, instructions=instrs, suite="kernels",
                 metadata={"kernel": "pointer-chase"})


def ref_max_power_stressmark(iterations: int, *, include_mma: bool = False,
                             name: str = "maxpower") -> Trace:
    """Issue-port-saturating loop: FX + VSX + loads + stores (+ MMA).

    Every chain is independent (DD > port latency) so all ports stay
    busy every cycle.
    """
    if iterations <= 0:
        raise TraceError("iterations must be positive")
    instrs: List[Instruction] = []
    fx_regs = [GPR_BASE + 8 + i for i in range(8)]
    vsx_regs = [VSR_BASE + i for i in range(16)]
    for i in range(iterations):
        pc = 0x7000
        for j in range(4):
            reg = fx_regs[(i * 4 + j) % len(fx_regs)]
            instrs.append(Instruction(
                iclass=InstrClass.FX, dests=(reg,), srcs=(reg,),
                pc=pc + 4 * j))
        for j in range(4):
            reg = vsx_regs[(i * 4 + j) % len(vsx_regs)]
            instrs.append(Instruction(
                iclass=InstrClass.VSX, dests=(reg,), srcs=(reg,),
                pc=pc + 0x10 + 4 * j, flops=4))
        instrs.append(Instruction(
            iclass=InstrClass.LOAD, dests=(GPR_BASE + 20,),
            srcs=(GPR_BASE + 3,),
            address=0x2000000 + (i % 256) * 64, size=8,
            pc=pc + 0x20))
        instrs.append(Instruction(
            iclass=InstrClass.STORE, srcs=(GPR_BASE + 20,),
            address=0x2100000 + (i % 256) * 64, size=8,
            pc=pc + 0x24))
        if include_mma:
            acc = ACC_BASE + (i % 8)
            instrs.append(Instruction(
                iclass=InstrClass.MMA, dests=(acc,),
                srcs=(acc, vsx_regs[0], vsx_regs[1]),
                pc=pc + 0x28, flops=32))
        instrs.append(Instruction(
            iclass=InstrClass.BRANCH, pc=pc + 0x30,
            taken=i != iterations - 1, target=pc))
    return Trace(name=name, instructions=instrs, suite="stressmark",
                 metadata={"include_mma": include_mma})


def ref_dgemm_vsu_trace(k_iterations: int, shape: VsuKernelShape = None,
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

    instrs: List[Instruction] = []
    vec_bytes = min(16, max_load_bytes)
    for k in range(k_iterations):
        pc = 0x5000
        a_addr = a_base + (k * shape.mr * elem) % (32 * 1024)
        b_addr = b_base + (k * shape.nr * elem) % (32 * 1024)
        for i, reg in enumerate(a_regs):
            instrs.append(Instruction(
                iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_a,),
                address=a_addr + i * vec_bytes, size=vec_bytes,
                pc=pc + 4 * i))
        for i, reg in enumerate(b_load_regs):
            instrs.append(Instruction(
                iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_b,),
                address=b_addr + i * vec_bytes, size=vec_bytes,
                pc=pc + 0x20 + 4 * i))
        # splat each B element across lanes (consumes a VSX slot)
        for j in range(shape.nr):
            src = b_load_regs[j // lanes]
            instrs.append(Instruction(
                iclass=InstrClass.VSX, dests=(b_splat_regs[j],),
                srcs=(src,), pc=pc + 0x40 + 4 * j))
        # FMAs: C[i,j] += A[i] * Bsplat[j]
        reg_idx = 0
        for j in range(shape.nr):
            for i in range(shape.mr // lanes):
                c = c_regs[reg_idx]
                instrs.append(Instruction(
                    iclass=InstrClass.VSX, dests=(c,),
                    srcs=(c, a_regs[i], b_splat_regs[j]),
                    pc=pc + 0x80 + 4 * reg_idx, flops=flops))
                reg_idx += 1
        # loop overhead: pointer bumps + count + branch
        instrs.append(Instruction(
            iclass=InstrClass.FX, dests=(ptr_a,), srcs=(ptr_a,),
            pc=pc + 0x140))
        instrs.append(Instruction(
            iclass=InstrClass.FX, dests=(ptr_b,), srcs=(ptr_b,),
            pc=pc + 0x144))
        instrs.append(Instruction(
            iclass=InstrClass.BRANCH, pc=pc + 0x148,
            taken=k != k_iterations - 1, target=pc))
    return Trace(name=name, instructions=instrs, suite="gemm",
                 metadata={"kernel": "vsu", "dtype": shape.dtype,
                           "k": k_iterations,
                           "flops_per_iter": shape.mr * shape.nr * 2})


def ref_dgemm_mma_trace(k_iterations: int, shape: MmaKernelShape = None,
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

    instrs: List[Instruction] = []
    for k in range(k_iterations):
        pc = 0x6000
        a_addr = a_base + (k * a_bytes) % (32 * 1024)
        b_addr = b_base + (k * b_bytes) % (32 * 1024)
        for i, reg in enumerate(a_regs):
            instrs.append(Instruction(
                iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_a,),
                address=a_addr + i * max_load_bytes,
                size=max_load_bytes, pc=pc + 4 * i))
        for i, reg in enumerate(b_regs):
            instrs.append(Instruction(
                iclass=InstrClass.VSX_LOAD, dests=(reg,), srcs=(ptr_b,),
                address=b_addr + i * max_load_bytes,
                size=max_load_bytes, pc=pc + 0x20 + 4 * i))
        for n, acc in enumerate(accs):
            a_src = a_regs[n % len(a_regs)]
            b_src = b_regs[n % len(b_regs)]
            instrs.append(Instruction(
                iclass=InstrClass.MMA, dests=(acc,),
                srcs=(acc, a_src, b_src),
                pc=pc + 0x40 + 4 * n, flops=flops))
        instrs.append(Instruction(
            iclass=InstrClass.FX, dests=(ptr_a,), srcs=(ptr_a,),
            pc=pc + 0x80))
        instrs.append(Instruction(
            iclass=InstrClass.FX, dests=(ptr_b,), srcs=(ptr_b,),
            pc=pc + 0x84))
        instrs.append(Instruction(
            iclass=InstrClass.BRANCH, pc=pc + 0x88,
            taken=k != k_iterations - 1, target=pc))
        # drain accumulators to memory at panel boundaries
        if (k + 1) % store_period == 0 or k == k_iterations - 1:
            for n, acc in enumerate(accs):
                vsr = VSR_BASE + n
                instrs.append(Instruction(
                    iclass=InstrClass.MMA_MOVE, dests=(vsr,), srcs=(acc,),
                    pc=pc + 0x100 + 8 * n))
                instrs.append(Instruction(
                    iclass=InstrClass.VSX_STORE, srcs=(vsr,),
                    address=0x4000000 + n * 64, size=32,
                    pc=pc + 0x104 + 8 * n))
    return Trace(name=name, instructions=instrs, suite="gemm",
                 metadata={"kernel": "mma", "dtype": shape.dtype,
                           "k": k_iterations,
                           "flops_per_iter": (shape.accumulators
                                              * flops)})


def ref_microbenchmark(name: str, *, dependency_distance: int = 0,
                       data_init: str = "random", instructions: int = 4000,
                       iclass: InstrClass = InstrClass.FX,
                       seed: int = 7) -> Trace:
    """A directed microbenchmark with fixed dependency distance.

    ``dependency_distance=0`` (DD0) makes every instruction depend on the
    immediately preceding one (a serial chain, low IPC, low switching
    breadth); ``DD1`` leaves one instruction of slack (two independent
    chains).  ``data_init`` selects operand values: ``"zero"`` keeps
    data switching minimal, ``"random"`` maximizes it — the distinction
    matters for the SERMiner derating study, which reads the metadata.
    """
    if dependency_distance not in (0, 1):
        raise TraceError("dependency distance must be 0 or 1 (DD0/DD1)")
    if data_init not in ("zero", "random"):
        raise TraceError("data_init must be 'zero' or 'random'")
    rng = np.random.default_rng(seed)
    chains = dependency_distance + 1
    regs = [GPR_BASE + 2 + c for c in range(chains)]
    instrs: List[Instruction] = []
    for i in range(instructions):
        reg = regs[i % chains]
        pc = 0x4000 + (i % 64) * 4
        if iclass is InstrClass.LOAD:
            instrs.append(Instruction(
                iclass=iclass, dests=(reg,), srcs=(reg,),
                address=0x2000000 + (i % 512) * 8, size=8, pc=pc))
        else:
            instrs.append(Instruction(
                iclass=iclass, dests=(reg,), srcs=(reg,), pc=pc))
    return Trace(name=name, instructions=instrs, suite="microprobe",
                 metadata={"dd": dependency_distance,
                           "data_init": data_init,
                           "iclass": iclass.value})


def ref_generate(spec: WorkloadSpec) -> Trace:
    """Generate a synthetic trace from a workload specification."""
    rng = np.random.default_rng(spec.seed)
    addr = _AddressEngine(spec, rng)
    branches = _BranchEngine(spec, rng)

    classes = list(spec.mix.keys())
    probs = np.array([spec.mix[c] for c in classes], dtype=float)
    probs /= probs.sum()
    draws = rng.choice(len(classes), size=spec.instructions, p=probs)

    code_lines = max(1, spec.code_bytes // 32)
    hot_lines = max(1, min(code_lines, spec.code_hot_bytes // 32))
    instrs: List[Instruction] = []
    pc_line = 0
    # long-lived base registers (stack/frame/loop-invariant pointers):
    # roots of most dependence chains in compiled code
    base_regs = [GPR_BASE + 1, GPR_BASE + 2, GPR_BASE + 13, GPR_BASE + 31]
    # independent dependence strands; each tracks its newest value
    strands = max(1, spec.ilp_strands)
    strand_last: List[int] = [base_regs[s % len(base_regs)]
                              for s in range(strands)]
    # Indirect sites: most are dominated by one target (monomorphic call
    # sites) and mispredict rarely; a minority alternate between targets
    # in a pattern only a history-based predictor (POWER10) can follow.
    indirect_sites = []
    for s in range(max(2, spec.branch_sites // 20)):
        targets = [0x8000 + 4096 * s + 256 * t
                   for t in range(2 + int(rng.integers(0, 3)))]
        alternating = bool(rng.random() < 0.35)
        site_pc = 0x4000 + 32 * int(rng.integers(0, hot_lines)) + 20
        indirect_sites.append((site_pc, targets, alternating))
    indirect_counters = [0] * len(indirect_sites)

    for i in range(spec.instructions):
        iclass = classes[draws[i]]
        # walk the code footprint; branches jump within it
        pc_line = (pc_line + (1 if i % 4 == 0 else 0)) % code_lines
        pc = 0x4000 + pc_line * 32 + (i % 4) * 4

        strand = int(rng.integers(0, strands))
        # distinct architectural register per strand slot, cycled so
        # renaming pressure is realistic
        dest = GPR_BASE + 3 + (strand * 3 + (i // strands) % 3) % (
            NUM_GPRS - 3)
        srcs: List[int] = []
        if rng.random() < spec.chain_break_fraction:
            srcs.append(base_regs[int(rng.integers(0, len(base_regs)))])
        else:
            srcs.append(strand_last[strand])
            if rng.random() < 0.25:      # occasional cross-strand use
                other = int(rng.integers(0, strands))
                srcs.append(strand_last[other])

        if iclass is InstrClass.BRANCH:
            bpc, taken = branches.next()
            instr = Instruction(iclass=iclass, srcs=tuple(srcs[:1]),
                                taken=taken, pc=bpc,
                                target=bpc + (64 if taken else 4))
            if taken:
                # control transfers land in the hot code region most of
                # the time; occasional cold transfers touch the rest
                if rng.random() < 0.88:
                    pc_line = int(rng.integers(0, hot_lines))
                else:
                    pc_line = int(rng.integers(0, code_lines))
        elif iclass is InstrClass.BRANCH_IND:
            site = int(rng.integers(0, len(indirect_sites)))
            site_pc, targets, alternating = indirect_sites[site]
            indirect_counters[site] += 1
            if alternating:
                tgt = targets[indirect_counters[site] % len(targets)]
            elif rng.random() < 0.9:
                tgt = targets[0]
            else:
                tgt = targets[int(rng.integers(1, len(targets)))]
            instr = Instruction(iclass=iclass, srcs=tuple(srcs[:1]),
                                taken=True, pc=site_pc, target=tgt)
        elif iclass in (InstrClass.LOAD, InstrClass.VSX_LOAD):
            size = 16 if iclass is InstrClass.VSX_LOAD else 8
            if rng.random() < spec.pointer_chase_fraction:
                addr_src = strand_last[strand]  # address from a result
            else:
                addr_src = base_regs[int(rng.integers(0, len(base_regs)))]
            instr = Instruction(iclass=iclass, dests=(dest,),
                                srcs=(addr_src,),
                                address=addr.next(size), size=size, pc=pc)
        elif iclass in (InstrClass.STORE, InstrClass.VSX_STORE):
            size = 16 if iclass is InstrClass.VSX_STORE else 8
            instr = Instruction(iclass=iclass, srcs=tuple(srcs),
                                address=addr.next(size), size=size, pc=pc)
        elif iclass is InstrClass.VSX:
            vdest = VSR_BASE + int(rng.integers(0, 32))
            instr = Instruction(iclass=iclass, dests=(vdest,),
                                srcs=tuple(srcs), pc=pc, flops=4)
        elif iclass is InstrClass.FP:
            instr = Instruction(iclass=iclass, dests=(dest,),
                                srcs=tuple(srcs), pc=pc, flops=2)
        else:
            instr = Instruction(iclass=iclass, dests=(dest,),
                                srcs=tuple(srcs), pc=pc)
        if instr.dests:
            strand_last[strand] = instr.dests[0]
        instrs.append(instr)

    return Trace(name=spec.name, instructions=instrs, suite=spec.suite,
                 weight=spec.weight,
                 metadata={"spec": spec.name, "seed": spec.seed})


# --- the comparison -------------------------------------------------------

def assert_same_trace(got, want):
    assert (got.name, got.suite, got.weight, got.metadata) == \
        (want.name, want.suite, want.weight, want.metadata)
    for field in ("codes", "pc", "address", "size", "taken", "target",
                  "flops", "thread", "src_off", "src_reg", "dest_off",
                  "dest_reg"):
        a, b = getattr(got.columns, field), getattr(want.columns, field)
        assert a.dtype == b.dtype, field
        assert np.array_equal(a, b), field
    assert fingerprint_trace(got) == fingerprint_trace(want)


SIZES = (1, 2, 3, 7, 129, 1000)
DTYPES = ("fp64", "fp32")


class TestKernels:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("vectorized", (True, False))
    def test_daxpy(self, n, vectorized):
        assert_same_trace(daxpy_trace(n, vectorized=vectorized),
                          ref_daxpy_trace(n, vectorized=vectorized))

    @pytest.mark.parametrize("n", SIZES)
    def test_stream_triad(self, n):
        assert_same_trace(stream_triad_trace(n), ref_stream_triad_trace(n))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("working_set", (8 << 20, 4096, 65 * 1021,
                                             1 << 40))
    def test_pointer_chase(self, n, working_set):
        assert_same_trace(
            pointer_chase_trace(n, working_set=working_set),
            ref_pointer_chase_trace(n, working_set=working_set))

    @pytest.mark.parametrize("n", SIZES + (300,))
    @pytest.mark.parametrize("include_mma", (False, True))
    def test_stressmark(self, n, include_mma):
        assert_same_trace(
            max_power_stressmark(n, include_mma=include_mma),
            ref_max_power_stressmark(n, include_mma=include_mma))

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dgemm_vsu(self, n, dtype):
        for shape, load in ((VsuKernelShape(dtype=dtype), 16),
                            (VsuKernelShape(mr=8, nr=8, dtype=dtype), 32),
                            (VsuKernelShape(mr=4, nr=4, dtype=dtype), 8)):
            assert_same_trace(
                dgemm_vsu_trace(n, shape, max_load_bytes=load),
                ref_dgemm_vsu_trace(n, shape, max_load_bytes=load))

    @pytest.mark.parametrize("n", SIZES + (256, 300))
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_dgemm_mma(self, n, dtype):
        for shape, load, period in (
                (MmaKernelShape(dtype=dtype), 32, 128),
                (MmaKernelShape(dtype=dtype), 16, 1),
                (MmaKernelShape(accumulators=4, dtype=dtype), 64, 3)):
            assert_same_trace(
                dgemm_mma_trace(n, shape, max_load_bytes=load,
                                store_period=period),
                ref_dgemm_mma_trace(n, shape, max_load_bytes=load,
                                    store_period=period))

    @pytest.mark.parametrize("n", SIZES + (4000,))
    @pytest.mark.parametrize("dd", (0, 1))
    @pytest.mark.parametrize("iclass", (InstrClass.FX, InstrClass.LOAD,
                                        InstrClass.FP))
    def test_microbenchmark(self, n, dd, iclass):
        assert_same_trace(
            microbenchmark("m", dependency_distance=dd, instructions=n,
                           iclass=iclass, data_init="zero"),
            ref_microbenchmark("m", dependency_distance=dd,
                               instructions=n, iclass=iclass,
                               data_init="zero"))

    def test_refusals_unchanged(self):
        for build in (lambda: daxpy_trace(0), lambda: dgemm_mma_trace(-1),
                      lambda: microbenchmark("m", instructions=0),
                      lambda: microbenchmark("m", iclass=InstrClass.STORE)):
            with pytest.raises(TraceError):
                build()


class TestSynthetic:
    @pytest.mark.parametrize("name", SPECINT_NAMES)
    def test_specint_profiles(self, name):
        spec = WorkloadSpec(**{**SPECINT_PROFILES[name].__dict__,
                               "instructions": 3001})
        assert_same_trace(generate(spec), ref_generate(spec))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 2 ** 31),
           st.sampled_from([4096, 65536]), st.integers(1, 12),
           st.floats(0.0, 0.3), st.booleans())
    def test_drawn_specs(self, n, seed, code_bytes, strands, chase,
                         with_vector):
        mix = {InstrClass.FX: 0.3, InstrClass.LOAD: 0.2,
               InstrClass.STORE: 0.1, InstrClass.BRANCH: 0.2,
               InstrClass.BRANCH_IND: 0.05, InstrClass.FP: 0.05}
        if with_vector:
            mix.update({InstrClass.VSX: 0.04, InstrClass.VSX_LOAD: 0.03,
                        InstrClass.VSX_STORE: 0.03})
        else:
            mix[InstrClass.CR] = 0.1
        spec = WorkloadSpec(name="drawn", mix=mix, instructions=n,
                            seed=seed, code_bytes=code_bytes,
                            ilp_strands=strands,
                            pointer_chase_fraction=chase,
                            warm_fraction=0.1, hot_fraction=0.35)
        assert_same_trace(generate(spec), ref_generate(spec))
