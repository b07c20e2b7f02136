"""Synthetic workload generation.

Two roles, mirroring the paper's workload machinery:

* :class:`WorkloadSpec` + :func:`generate` — a parametric trace
  generator (instruction mix, code/data footprints, branch behaviour,
  dependency distances).  The SPECint benchmark profiles in
  :mod:`repro.workloads.spec` are instances of this.
* :func:`microbenchmark` — Microprobe-style directed testcases
  (Section III-E evaluates derating on ``st/smt2/smt4 x dd0/dd1 x
  zero/random`` suites): fixed dependency distance (DD), chosen data
  values, single instruction class emphasis.

Generation is deterministic given the seed.  Both write trace columns
directly; :func:`microbenchmark` tiles one 64-instruction body.
:func:`generate` draws in a fixed order: the branch-site tables and the
class of every row in bulk from ``np.random.default_rng(spec.seed)``,
then every per-row value through :class:`_RawStream`, which reads the
same generator's raw stream in blocks and reproduces numpy's scalar
``random()`` and ``integers(lo, hi)`` bit for bit without a numpy call
per draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.isa import (CLASS_CODE, GPR_BASE, Instruction, InstrClass,
                        NUM_GPRS, TraceColumns, VSR_BASE)
from ..errors import TraceError
from .trace import Trace, merge_smt, shift_addresses

# Default instruction mix loosely matching SPECint averages.
DEFAULT_MIX: Dict[InstrClass, float] = {
    InstrClass.FX: 0.42,
    InstrClass.FX_MULDIV: 0.02,
    InstrClass.LOAD: 0.25,
    InstrClass.STORE: 0.12,
    InstrClass.BRANCH: 0.15,
    InstrClass.BRANCH_IND: 0.01,
    InstrClass.CR: 0.02,
    InstrClass.FP: 0.01,
}


@dataclass(frozen=True)
class WorkloadSpec:
    """Parametric description of a synthetic workload."""

    name: str
    mix: Dict[InstrClass, float] = field(
        default_factory=lambda: dict(DEFAULT_MIX))
    instructions: int = 20000
    code_bytes: int = 16 * 1024          # static code footprint
    code_hot_bytes: int = 12 * 1024      # hot code region (jump locality)
    data_bytes: int = 256 * 1024         # data working set
    stream_fraction: float = 0.35        # sequential-walk accesses
    hot_fraction: float = 0.45           # accesses to a small hot set
    hot_bytes: int = 8 * 1024
    warm_fraction: float = 0.0           # mid-size working-set accesses
    # The warm tier is a strided cyclic walk whose cache footprint
    # (one line per stride) sits between the two generations' L2
    # capacities — the access pattern that makes L2 size matter.
    warm_bytes: int = 3 * 1024 * 1024
    branch_sites: int = 120
    branch_bias: float = 0.85            # mean per-site taken probability
    loop_branch_fraction: float = 0.35   # sites that behave like loops
    mean_loop_trip: int = 12
    dep_distance_mean: float = 4.0       # geometric dependency distance
    # fraction of instructions that start a fresh dependence chain
    # (immediates, loop-invariant bases) — keeps chains realistically short
    chain_break_fraction: float = 0.30
    # fraction of loads whose *address* depends on a recent load result
    # (pointer chasing; high for mcf/omnetpp)
    pointer_chase_fraction: float = 0.05
    # number of independent dependence strands (unrolled iterations /
    # independent expressions in flight); bounds achievable ILP and MLP
    ilp_strands: int = 8
    seed: int = 1234
    suite: str = "synthetic"
    weight: float = 1.0

    def __post_init__(self) -> None:
        total = sum(self.mix.values())
        if not 0.99 <= total <= 1.01:
            raise TraceError(
                f"{self.name}: instruction mix sums to {total:.3f}")
        if self.instructions <= 0:
            raise TraceError("need a positive instruction count")


class _RawStream:
    """numpy's scalar ``random()`` and ``integers(lo, hi)``, read from a
    PCG64 bit generator's raw 64-bit stream in blocks.

    A scalar ``Generator`` call is a numpy round trip that costs many
    times the arithmetic behind it; this reproduces the same values, bit
    for bit, from ``random_raw(block)``.  It takes the stream over from the
    generator's current state, so nothing may draw from the generator
    afterwards.  The rules are numpy's (``distributions.c``):

    * ``random()`` is the top 53 bits of a raw value times 2**-53;
    * ``integers(lo, hi)`` returns ``lo`` without a draw when
      ``hi - lo == 1``; otherwise it runs Lemire's multiply-and-reject
      on a 32-bit value when the range fits 32 bits, else on a raw value;
    * a 32-bit value is the low half of a raw value, and the high half
      is kept for the next one (the state's ``has_uint32``/``uinteger``).
    """

    __slots__ = ("_raw", "_half")

    def __init__(self, rng: np.random.Generator, block: int = 1024):
        bitgen = rng.bit_generator
        state = bitgen.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        # the next raw value; a new block is drawn when one runs out
        self._raw = chain.from_iterable(iter(
            lambda: bitgen.random_raw(block).tolist(), None)).__next__

    def random(self) -> float:
        return (self._raw() >> 11) * 2.0 ** -53

    def _next32(self) -> int:
        half = self._half
        if half is None:
            raw = self._raw()
            self._half = raw >> 32
            return raw & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if n == 1:
            return lo
        if n > 1 << 32:
            m = self._raw() * n
            if m & 0xFFFFFFFFFFFFFFFF < n:
                m = self._reject(self._raw, 64, n, m)
            return lo + (m >> 64)
        half = self._half       # _next32, inlined: the common case
        if half is None:
            raw = self._raw()
            self._half, half = raw >> 32, raw & 0xFFFFFFFF
        else:
            self._half = None
        m = half * n
        if m & 0xFFFFFFFF < n:
            m = self._reject(self._next32, 32, n, m)
        return lo + (m >> 32)

    @staticmethod
    def _reject(draw, bits: int, n: int, m: int) -> int:
        """Lemire's rejection: redraw while the product's low ``bits``
        fall below the threshold that would bias the result."""
        threshold = ((1 << bits) - n) % n
        while m & ((1 << bits) - 1) < threshold:
            m = draw() * n
        return m


class _AddressEngine:
    """Produces data addresses with stream/hot/random locality classes.

    ``rng`` is the per-call draw source (``random()``,
    ``integers(lo, hi)``).
    """

    def __init__(self, spec: WorkloadSpec, rng):
        self._spec = spec
        self.rng = rng
        self._stream_pos = 0
        base = 0x10000000
        self._base = base
        self._hot_base = base + spec.data_bytes
        self._warm_base = self._hot_base + spec.hot_bytes + 4096
        self._warm_pos = 0
        self._warm_stride = 192     # 3 lines: defeats next-line prefetch

    def next(self, size: int) -> int:
        rng = self.rng
        r = rng.random()
        spec = self._spec
        if r < spec.stream_fraction:
            self._stream_pos = (self._stream_pos + size) % spec.data_bytes
            return self._base + self._stream_pos
        r -= spec.stream_fraction
        if r < spec.hot_fraction:
            off = int(rng.integers(0, max(1, spec.hot_bytes // 8)))
            return self._hot_base + off * 8
        r -= spec.hot_fraction
        if r < spec.warm_fraction:
            self._warm_pos = (self._warm_pos
                              + self._warm_stride) % spec.warm_bytes
            return self._warm_base + self._warm_pos
        off = int(rng.integers(0, max(1, spec.data_bytes // 8)))
        return self._base + off * 8


class _BranchEngine:
    """Static branch sites visited in program order.

    Sites are walked cyclically (like the control flow of a real
    program's hot loop nest) with occasional random transfers.  Loop
    sites follow a taken-(trip-1)-times-then-fall-through pattern that
    long-history predictors can learn; plain sites are biased coin
    flips.  Site predictability is bimodal: most branches in compiled
    code are highly biased, a minority are data-dependent.

    The site tables are drawn from ``rng`` in bulk; :meth:`next` draws
    from ``self.rng``, which starts as ``rng``.
    """

    def __init__(self, spec: WorkloadSpec, rng: np.random.Generator):
        self.rng = rng
        count = max(1, spec.branch_sites)
        # branch sites live inside the hot code region (offset +16 within
        # their 32-byte line, interleaved with straight-line code)
        hot_lines = max(count, spec.code_hot_bytes // 32)
        # plain lists: next() indexes them once per dynamic branch
        self._pcs = (0x4000 + 32 * rng.permutation(hot_lines)[:count]
                     + 16).tolist()
        strongly_biased = rng.random(count) < 0.85
        self._bias = np.where(
            strongly_biased,
            np.clip(rng.normal(0.985, 0.010, count), 0.95, 0.999),
            np.clip(rng.normal(spec.branch_bias, 0.10, count), 0.55, 0.95)
        ).tolist()
        self._is_loop = (rng.random(count)
                         < spec.loop_branch_fraction).tolist()
        trips = rng.geometric(1.0 / max(2, spec.mean_loop_trip), count)
        self._trip = np.maximum(3, trips).tolist()
        self._cursor = 0
        self._jump_prob = 0.05
        self._streak_left = 0       # remaining iterations at a loop site

    def next(self) -> tuple:
        """Returns (pc, taken) for the next dynamic branch."""
        rng = self.rng
        if self._streak_left == 0:
            if rng.random() < self._jump_prob:
                self._cursor = int(rng.integers(0, len(self._pcs)))
            else:
                self._cursor = (self._cursor + 1) % len(self._pcs)
            if self._is_loop[self._cursor]:
                self._streak_left = self._trip[self._cursor]
        site = self._cursor
        pc = self._pcs[site]
        if self._is_loop[site]:
            # loop backedge: taken trip-1 times, then falls through
            self._streak_left -= 1
            taken = self._streak_left > 0
        else:
            taken = bool(rng.random() < self._bias[site])
        return pc, taken


#: what a row of :func:`generate` draws after its sources, by class
#: (``_PLAIN`` for the classes not listed)
_PLAIN, _LOAD, _STORE, _BRANCH, _INDIRECT, _VSX = range(6)
_KIND = {InstrClass.LOAD: _LOAD, InstrClass.VSX_LOAD: _LOAD,
         InstrClass.STORE: _STORE, InstrClass.VSX_STORE: _STORE,
         InstrClass.BRANCH: _BRANCH, InstrClass.BRANCH_IND: _INDIRECT,
         InstrClass.VSX: _VSX}
#: the fields a row's class alone fixes (0 for the classes not listed)
_SIZE = {InstrClass.LOAD: 8, InstrClass.STORE: 8,
         InstrClass.VSX_LOAD: 16, InstrClass.VSX_STORE: 16}
_FLOPS = {InstrClass.VSX: 4, InstrClass.FP: 2}


def generate(spec: WorkloadSpec) -> Trace:
    """Generate a synthetic trace from a workload specification."""
    rng = np.random.default_rng(spec.seed)
    branches = _BranchEngine(spec, rng)

    classes = list(spec.mix.keys())
    probs = np.array([spec.mix[c] for c in classes], dtype=float)
    probs /= probs.sum()
    draws = rng.choice(len(classes), size=spec.instructions, p=probs)
    # the bulk draws are done: every later draw is a scalar one, read
    # from the raw stream
    rng = branches.rng = _RawStream(rng)
    addr = _AddressEngine(spec, rng)

    code_lines = max(1, spec.code_bytes // 32)
    hot_lines = max(1, min(code_lines, spec.code_hot_bytes // 32))
    pc_line = 0
    # long-lived base registers (stack/frame/loop-invariant pointers):
    # roots of most dependence chains in compiled code
    base_regs = [GPR_BASE + 1, GPR_BASE + 2, GPR_BASE + 13, GPR_BASE + 31]
    roots = len(base_regs)
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
                   for t in range(2 + rng.integers(0, 3))]
        alternating = rng.random() < 0.35
        site_pc = 0x4000 + 32 * rng.integers(0, hot_lines) + 20
        indirect_sites.append((site_pc, targets, alternating))
    indirect_counters = [0] * len(indirect_sites)

    def by_class(table: Dict[InstrClass, int], default: int = 0):
        """``table``'s entry for the class of every row."""
        return np.array([table.get(c, default) for c in classes])[draws]

    n = spec.instructions
    sizes = by_class(_SIZE)
    size_of = sizes.tolist()
    pcs = [0] * n
    src_regs = [()] * n
    dest_regs = [()] * n
    # only the rows that have an address or a branch outcome write one;
    # address and target stay -1 (none) elsewhere
    addresses = [-1] * n
    takens = [False] * n
    branch_targets = [-1] * n
    random, integers, next_address = rng.random, rng.integers, addr.next
    chain_break = spec.chain_break_fraction
    chase = spec.pointer_chase_fraction
    for i, kind in enumerate(by_class(_KIND, _PLAIN).tolist()):
        # walk the code footprint; branches jump within it
        slot = i & 3
        if not slot:
            pc_line += 1
            if pc_line == code_lines:
                pc_line = 0
        pc = 0x4000 + pc_line * 32 + slot * 4

        strand = integers(0, strands)
        # distinct architectural register per strand slot, cycled so
        # renaming pressure is realistic
        dest = GPR_BASE + 3 + (strand * 3 + (i // strands) % 3) % (
            NUM_GPRS - 3)
        if random() < chain_break:
            srcs = (base_regs[integers(0, roots)],)
        elif random() < 0.25:            # occasional cross-strand use
            srcs = (strand_last[strand], strand_last[integers(0, strands)])
        else:
            srcs = (strand_last[strand],)

        if kind == _PLAIN:
            dests = (dest,)
        elif kind == _LOAD:
            if random() < chase:
                srcs = (strand_last[strand],)  # address from a result
            else:
                srcs = (base_regs[integers(0, roots)],)
            addresses[i] = next_address(size_of[i])
            dests = (dest,)
        elif kind == _STORE:
            addresses[i] = next_address(size_of[i])
            dests = ()
        elif kind == _BRANCH:
            pc, taken = branches.next()
            srcs, dests = srcs[:1], ()
            takens[i] = taken
            branch_targets[i] = pc + (64 if taken else 4)
            if taken:
                # control transfers land in the hot code region most of
                # the time; occasional cold transfers touch the rest
                if random() < 0.88:
                    pc_line = integers(0, hot_lines)
                else:
                    pc_line = integers(0, code_lines)
        elif kind == _INDIRECT:
            site = integers(0, len(indirect_sites))
            pc, targets, alternating = indirect_sites[site]
            indirect_counters[site] += 1
            if alternating:
                target = targets[indirect_counters[site] % len(targets)]
            elif random() < 0.9:
                target = targets[0]
            else:
                target = targets[integers(1, len(targets))]
            srcs, dests = srcs[:1], ()
            takens[i], branch_targets[i] = True, target
        else:                           # _VSX
            dests = (VSR_BASE + integers(0, 32),)
        if dests:
            strand_last[strand] = dests[0]
        pcs[i], src_regs[i], dest_regs[i] = pc, srcs, dests

    columns = TraceColumns.build(
        codes=by_class(CLASS_CODE), pc=pcs, address=addresses, size=sizes,
        taken=takens, target=branch_targets, flops=by_class(_FLOPS),
        thread=np.zeros(n, dtype=np.int32), srcs=src_regs, dests=dest_regs)
    return Trace(name=spec.name, columns=columns, suite=spec.suite,
                 weight=spec.weight,
                 metadata={"spec": spec.name, "seed": spec.seed})


# ---------------------------------------------------------------------------
# Microprobe-style directed testcases (derating suites of Fig. 13).
# ---------------------------------------------------------------------------

def microbenchmark(name: str, *, dependency_distance: int = 0,
                   data_init: str = "random", instructions: int = 4000,
                   iclass: InstrClass = InstrClass.FX) -> Trace:
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
    chains = dependency_distance + 1
    regs = [GPR_BASE + 2 + c for c in range(chains)]
    # pcs cycle every 64 instructions and the chains divide that, so one
    # 64-row body tiles the test; loads walk 512 doublewords
    base = 0x2000000 if iclass is InstrClass.LOAD else None
    size = 8 if iclass is InstrClass.LOAD else 0
    body = [Instruction(iclass=iclass, dests=(regs[i % chains],),
                        srcs=(regs[i % chains],), address=base, size=size,
                        pc=0x4000 + i * 4)
            for i in range(64)]
    row = np.arange(instructions, dtype=np.int64)
    columns = shift_addresses(TraceColumns.pack(body).take(row % 64),
                              row % 512 * 8)
    return Trace(name=name, columns=columns, suite="microprobe",
                 metadata={"dd": dependency_distance,
                           "data_init": data_init,
                           "iclass": iclass.value})


def derating_suites(smt_levels: Sequence[int] = (1, 2, 4),
                    instructions: int = 3000) -> List[Trace]:
    """The Fig. 13 testcase grid: SMT x DD x data-init."""
    suites: List[Trace] = []
    for smt in smt_levels:
        prefix = "st" if smt == 1 else f"smt{smt}"
        for dd in (0, 1):
            for init in ("random", "zero"):
                name = f"{prefix}_dd{dd}_{init}"
                thread = microbenchmark(
                    name, dependency_distance=dd, data_init=init,
                    instructions=instructions)
                if smt == 1:
                    trace = thread
                else:
                    trace = merge_smt([thread] * smt, name=name)
                    trace.metadata.update(thread.metadata)
                trace.metadata["smt"] = smt
                suites.append(trace)
    return suites
