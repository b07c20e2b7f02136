"""Instruction fusion, as expanded dramatically in POWER10.

The paper: "Over 200 different pairs of instruction types are detected in
the instruction cache pre-decode stage and can be fused at decode
resulting in reduced work (one operation instead of two), as well as
reduced or zero latency for dependent operations", with two highlighted
cases: dependent ALU pairs (single op or shared issue-queue entry with
optimized latency) and consecutive-address store pairs (single AGEN, and
a single store-queue entry when each store is <= 8 bytes).

We model fusion as *semantic kinds*.  Each kind carries a predicate over
an adjacent instruction pair plus the effect fusion has on the pipeline
(iop elision, latency reduction, shared queue entry, single AGEN).
:func:`fuse` classifies every pair of a run of instructions at once, on
its columns, and resolves the decode groups' greedy pairing; the replay
and the per-instruction walk both take their fusion outcome from it.  A
registry expands each kind into the concrete opcode pairs it covers on
the real machine, which is what the "200 pairs" headline counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .isa import CLASS_CODE, InstrClass, TraceColumns
from ..errors import ConfigError


class FusionKind(enum.Enum):
    DEP_ALU = "dep_alu"              # producer FX -> dependent consumer FX
    CMP_BRANCH = "cmp_branch"        # compare + conditional branch
    ADDI_LOAD = "addi_load"          # address form + dependent load
    ADDI_STORE = "addi_store"        # address form + dependent store
    STORE_PAIR = "store_pair"        # stores to consecutive addresses
    LOAD_PAIR = "load_pair"          # loads from consecutive addresses
    LOGICAL_PAIR = "logical_pair"    # independent logical ops, shared slot
    OP_CR = "op_cr"                  # record-form op + CR consumer


@dataclass(frozen=True)
class FusionEffect:
    """What a fused pair costs relative to two separate instructions."""

    single_iop: bool          # True: one issue-queue entry & one issue
    latency_delta: int        # change to consumer latency (negative=better)
    single_agen: bool = False
    single_storeq_entry: bool = False


FUSION_EFFECTS = {
    FusionKind.DEP_ALU: FusionEffect(single_iop=True, latency_delta=-1),
    FusionKind.CMP_BRANCH: FusionEffect(single_iop=True, latency_delta=-1),
    FusionKind.ADDI_LOAD: FusionEffect(single_iop=True, latency_delta=-1),
    FusionKind.ADDI_STORE: FusionEffect(single_iop=True, latency_delta=0),
    FusionKind.STORE_PAIR: FusionEffect(single_iop=True, latency_delta=0,
                                        single_agen=True,
                                        single_storeq_entry=True),
    FusionKind.LOAD_PAIR: FusionEffect(single_iop=True, latency_delta=0,
                                       single_agen=True),
    FusionKind.LOGICAL_PAIR: FusionEffect(single_iop=True, latency_delta=0),
    FusionKind.OP_CR: FusionEffect(single_iop=True, latency_delta=-1),
}


#: Fixed kind order: a fused pair's kind code is its index here.
KIND_ORDER: Tuple[FusionKind, ...] = tuple(FusionKind)
#: effect per kind code
EFFECT_BY_CODE: Tuple[FusionEffect, ...] = tuple(
    FUSION_EFFECTS[kind] for kind in KIND_ORDER)
_KIND_CODE = {kind: code for code, kind in enumerate(KIND_ORDER)}


def _writes_read_by(columns: TraceColumns) -> np.ndarray:
    """Per adjacent pair (i, i+1): does i write a register i+1 reads?"""
    n = len(columns)
    out = np.zeros(max(n - 1, 0), dtype=bool)
    src_off, dest_off = columns.src_off, columns.dest_off
    # every register read by rows 1.., against its predecessor's dests
    reader = np.repeat(np.arange(1, n, dtype=np.int64),
                       np.diff(src_off[1:]))
    src = columns.src_reg[src_off[1]:src_off[-1]]
    first = dest_off[reader - 1]
    count = dest_off[reader] - first
    hit = np.zeros(len(src), dtype=bool)
    for k in range(int(count.max(initial=0))):
        has = count > k
        hit |= has & (columns.dest_reg[np.where(has, first + k, 0)] == src)
    out[reader[hit] - 1] = True
    return out


def pair_kinds(columns: TraceColumns) -> np.ndarray:
    """The fusion kind code of every adjacent pair (i, i+1), -1 for none.

    The hardware recognizes specific opcode pairs, so only same-thread
    pairs of these class shapes fuse: dependent simple FX->FX (at most
    one source each), FX->CR, CR->branch or dependent FX->branch,
    dependent FX->load/store, consecutive-address stores of at most 16
    bytes each, and consecutive-address loads.
    """
    c = CLASS_CODE
    codes = columns.codes
    a, b = codes[:-1], codes[1:]
    writes = _writes_read_by(columns)
    n_srcs = np.diff(columns.src_off)
    address, size = columns.address, columns.size
    consecutive = (address[:-1] >= 0) & (address[1:] >= 0) \
        & (address[1:] == address[:-1] + size[:-1])
    a_fx = a == c[InstrClass.FX]
    b_branch = (b == c[InstrClass.BRANCH]) | (b == c[InstrClass.BRANCH_IND])
    stores = (c[InstrClass.STORE], c[InstrClass.VSX_STORE])
    narrow = (size[:-1] <= 16) & (size[1:] <= 16)
    kinds = np.select(
        [a_fx & (b == c[InstrClass.FX]) & writes
         & (n_srcs[:-1] <= 1) & (n_srcs[1:] <= 1),
         a_fx & (b == c[InstrClass.CR]),
         ((a == c[InstrClass.CR]) & b_branch) | (a_fx & b_branch & writes),
         a_fx & (b == c[InstrClass.LOAD]) & writes,
         a_fx & (b == c[InstrClass.STORE]) & writes,
         np.isin(a, stores) & np.isin(b, stores) & consecutive & narrow,
         (a == c[InstrClass.LOAD]) & (b == c[InstrClass.LOAD])
         & consecutive],
        [_KIND_CODE[kind] for kind in (
            FusionKind.DEP_ALU, FusionKind.OP_CR, FusionKind.CMP_BRANCH,
            FusionKind.ADDI_LOAD, FusionKind.ADDI_STORE,
            FusionKind.STORE_PAIR, FusionKind.LOAD_PAIR)],
        default=-1).astype(np.int8)
    kinds[columns.thread[:-1] != columns.thread[1:]] = -1
    return kinds


# --- registry of concrete opcode pairs per kind ---------------------------
#
# The counts below enumerate representative Power ISA mnemonics per slot of
# each fusable pattern; their cross products are the concrete "pairs of
# instruction types" the pre-decode stage recognizes.  The registry is what
# backs the paper's "over 200 pairs" statement and is exercised by tests.

_ALU_PRODUCERS = ("addi", "addis", "add", "subf", "neg", "and", "or", "xor",
                  "andc", "orc", "nand", "nor", "rlwinm", "rldicl", "rldicr",
                  "extsw", "extsh", "extsb")
_ALU_CONSUMERS = ("add", "subf", "and", "or", "xor", "rlwinm", "rldicl",
                  "extsw", "cmpi", "cmpli")
_CMP_OPS = ("cmpi", "cmpli", "cmp", "cmpl", "andi.", "and.", "add.")
_BRANCHES = ("bc", "bc+8", "bclr", "bctar")
_LOADS = ("lbz", "lhz", "lwz", "ld", "lwa", "lxsd", "lxv")
_STORES = ("stb", "sth", "stw", "std", "stxsd", "stxv")
_ADDR_FORMS = ("addi", "addis", "paddi")
_CR_OPS = ("crand", "cror", "crxor", "setbc", "setbcr")


def concrete_pairs(kind: FusionKind) -> List[Tuple[str, str]]:
    """Expand a fusion kind into its concrete opcode pairs."""
    if kind is FusionKind.DEP_ALU:
        return [(p, c) for p in _ALU_PRODUCERS for c in _ALU_CONSUMERS]
    if kind is FusionKind.CMP_BRANCH:
        return [(c, b) for c in _CMP_OPS for b in _BRANCHES]
    if kind is FusionKind.ADDI_LOAD:
        return [(a, l) for a in _ADDR_FORMS for l in _LOADS]
    if kind is FusionKind.ADDI_STORE:
        return [(a, s) for a in _ADDR_FORMS for s in _STORES]
    if kind is FusionKind.STORE_PAIR:
        return [(s, s) for s in _STORES]
    if kind is FusionKind.LOAD_PAIR:
        return [(l, l) for l in _LOADS]
    if kind is FusionKind.LOGICAL_PAIR:
        return [(p, q) for p in _ALU_PRODUCERS[:8] for q in _ALU_PRODUCERS[:8]]
    if kind is FusionKind.OP_CR:
        return [(p, c) for p in _ALU_PRODUCERS[:6] for c in _CR_OPS]
    raise ConfigError(f"unknown kind {kind}")


def registry_size() -> int:
    """Total number of concrete fusable opcode pairs recognized."""
    return sum(len(concrete_pairs(kind)) for kind in FusionKind)


@dataclass
class FusionStats:
    candidates: int = 0
    fused: int = 0
    by_kind: dict = None

    def __post_init__(self):
        if self.by_kind is None:
            self.by_kind = {kind: 0 for kind in FusionKind}

    @property
    def fusion_rate(self) -> float:
        return self.fused / self.candidates if self.candidates else 0.0


@dataclass
class FusionOutcome:
    """Which instructions fused into their predecessor, and how."""

    kind: np.ndarray           # int8 per instruction: kind code, -1: none
    stats: FusionStats

    @property
    def fused(self) -> np.ndarray:
        return self.kind >= 0


def fuse(columns: TraceColumns, enabled: bool,
         decode_width: int) -> FusionOutcome:
    """Fusion at decode over a whole run of instructions.

    Decode groups are fixed ``decode_width`` chunks from row 0.  Within
    a group, pairs are considered in order and a fused instruction
    cannot fuse again, so in a run of consecutive fusable pairs the
    1st, 3rd, 5th... fuse.  ``stats.candidates`` counts the pairs that
    greedy rule considers (the pair after a fused one is skipped).
    """
    n = len(columns)
    kind = np.full(n, -1, dtype=np.int8)
    stats = FusionStats()
    if not enabled or n < 2:
        return FusionOutcome(kind=kind, stats=stats)
    pairs = pair_kinds(columns)
    # pair i joins rows i and i+1, so it is inside a group unless i+1
    # starts the next one
    in_group = np.arange(1, n, dtype=np.int64) % decode_width != 0
    fusable = (pairs >= 0) & in_group
    index = np.arange(n - 1, dtype=np.int64)
    run_start = np.maximum.accumulate(np.where(
        fusable & ~np.concatenate(([False], fusable[:-1])), index, 0))
    fused = fusable & ((index - run_start) % 2 == 0)
    kind[1:][fused] = pairs[fused]
    per_kind = np.bincount(pairs[fused].astype(np.int64),
                           minlength=len(KIND_ORDER)).tolist()
    stats.fused = sum(per_kind)
    stats.candidates = int(np.count_nonzero(in_group)) \
        - int(np.count_nonzero(fused[:-1] & in_group[1:]))
    stats.by_kind = dict(zip(KIND_ORDER, per_kind))
    return FusionOutcome(kind=kind, stats=stats)
