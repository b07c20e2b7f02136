"""Set-associative cache models and the POWER cache hierarchy.

Two properties matter for the paper's results and are modeled here:

* geometry (size/associativity/latency) per level — POWER10 grows the
  L1I to 48 KB 6-way, the private L2 to 2 MB, and trims latencies;
* the tagging scheme of the L1s — POWER9 L1s are real-address (RA)
  tagged so *every* access pays an ERAT translation, while POWER10 L1s
  are effective-address (EA) tagged so translation is only needed on an
  L1 miss.  The tagging flag lives here; the energy consequence is
  applied by the LSU model.

Caches are LRU, write-allocate, with 64-byte lines.  A simple stream
prefetcher (16 streams on POWER10) can be attached in front of the L2.

Each structure takes its accesses in batches (:meth:`Cache.access_lines`,
:meth:`StreamPrefetcher.train_lines`, :meth:`CacheHierarchy.lower_walk`),
which the activity extraction calls once per run; the per-instruction
walk makes one-element calls of the same per-structure rules.  Batching
is exact because the structures share no state: an L1 sees only its own
stream, and the L2, its prefetcher and the L3 see only L1 misses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple
import numpy as np

from ..errors import ConfigError

LINE_BYTES = 64


@dataclass
class CacheGeometry:
    """Static shape of one cache level."""

    size_bytes: int
    associativity: int
    latency: int                 # load-to-use cycles on hit at this level
    ea_tagged: bool = False      # True: indexed+tagged by effective address
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size_bytes % (self.associativity * self.line_bytes):
            raise ConfigError("cache size must be a whole number of sets")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.associativity * self.line_bytes)


class Cache:
    """One LRU set-associative cache level."""

    def __init__(self, geometry: CacheGeometry, name: str = "cache"):
        self.geometry = geometry
        self.name = name
        self._sets: Dict[int, OrderedDict] = {}
        self.accesses = 0
        self.misses = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.geometry.line_bytes
        return line % self.geometry.num_sets, line

    def probe(self, address: int) -> bool:
        """Check presence without updating LRU or counters."""
        set_idx, tag = self._locate(address)
        cache_set = self._sets.get(set_idx)
        return cache_set is not None and tag in cache_set

    def access(self, address: int) -> bool:
        """Access a line; returns True on hit.  Misses allocate."""
        return not self.access_lines((address // self.geometry.line_bytes,))

    def access_lines(self, lines: Sequence[int]) -> List[int]:
        """Demand-access ``lines`` (line numbers) in order; returns the
        positions in ``lines`` of the misses."""
        missed = self.touch_lines(lines)
        self.accesses += len(lines)
        self.misses += len(missed)
        return missed

    def fill(self, address: int) -> None:
        """Install a line (prefetch path) without counting an access."""
        self.touch_lines((address // self.geometry.line_bytes,))

    def touch_lines(self, lines: Sequence[int]) -> List[int]:
        """The LRU rule, counting nothing: make each of ``lines`` the most
        recent entry of its set, in order, allocating (and evicting the
        least recent entry) where it is absent; returns the positions in
        ``lines`` that were absent.

        A line equal to the one before it is already the most recent
        entry of its set, so it is skipped.
        """
        sets = self._sets
        num_sets = self.geometry.num_sets
        ways = self.geometry.associativity
        missed: List[int] = []
        last = -1
        for pos, line in enumerate(lines):
            if line == last:
                continue
            last = line
            cache_set = sets.get(line % num_sets)
            if cache_set is None:
                cache_set = sets[line % num_sets] = OrderedDict()
            if line in cache_set:
                cache_set.move_to_end(line)
                continue
            missed.append(pos)
            cache_set[line] = True
            if len(cache_set) > ways:
                cache_set.popitem(last=False)
        return missed

    def invalidate_all(self) -> None:
        self._sets.clear()

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class StreamPrefetcher:
    """Stride-1 stream prefetcher in front of the L2/L3.

    Tracks up to ``max_streams`` ascending-line streams; once a stream is
    confirmed it prefetches ``depth`` lines ahead into the target cache.
    POWER10 supports 16 streams with L3 prefetch extension (48 entries).
    The live streams are indexed by the line each expects next, so a
    miss finds its stream without scanning them.
    """

    def __init__(self, max_streams: int = 16, depth: int = 4):
        self.max_streams = max_streams
        self.depth = depth
        self._streams: OrderedDict = OrderedDict()   # start line -> next
        # next line -> start lines of the streams expecting it
        self._waiting: Dict[int, List[int]] = {}
        self.issued = 0
        self.useful = 0

    def train(self, address: int) -> list:
        """Observe a demand miss; returns line addresses to prefetch."""
        line = address // LINE_BYTES
        if not self.train_lines((line,)):
            return []
        return [(line + 1 + i) * LINE_BYTES for i in range(self.depth)]

    def train_lines(self, lines: Sequence[int]) -> List[int]:
        """Observe demand misses (line numbers) in order; returns the
        positions in ``lines`` that continue a stream.  Each of those
        prefetches the ``depth`` lines that follow it."""
        streams, waiting = self._streams, self._waiting
        max_streams = self.max_streams
        fired: List[int] = []
        for pos, line in enumerate(lines):
            keys = waiting.pop(line, None)
            if keys is None:
                # a new stream goes last in LRU order; a restarted one
                # keeps its place
                key, old = line, streams.get(line)
                if old is not None:
                    _unwait(waiting, key, old)
            else:
                # the least recently used stream expecting the line wins
                key = keys[0]
                if len(keys) > 1:
                    key = next(k for k in streams if k in keys)
                    keys.remove(key)
                    waiting[line] = keys
                streams.move_to_end(key)
                fired.append(pos)
            streams[key] = line + 1
            waiting.setdefault(line + 1, []).append(key)
            if len(streams) > max_streams:
                _unwait(waiting, *streams.popitem(last=False))
        self.issued += self.depth * len(fired)
        return fired


def _unwait(waiting: Dict[int, List[int]], key: int, line: int) -> None:
    """Stream ``key`` no longer expects ``line``."""
    keys = waiting[line]
    if len(keys) == 1:
        del waiting[line]
    else:
        keys.remove(key)


@dataclass
class AccessResult:
    """Outcome of a hierarchy access: service level and latency."""

    level: str                   # "l1" | "l2" | "l3" | "mem"
    latency: int
    l1_hit: bool


#: where :meth:`CacheHierarchy.lower_walk` serves an L1 miss, by code
LOWER_LEVELS = ("l2", "l3", "mem")


@dataclass
class HierarchyGeometry:
    """Cache-hierarchy shape for one core configuration."""

    l1i: CacheGeometry
    l1d: CacheGeometry
    l2: CacheGeometry
    l3: CacheGeometry
    memory_latency: int
    prefetch_streams: int = 8
    prefetch_depth: int = 4
    # Chip-model vs core-model switch (Fig. 10): the core model idealizes
    # everything past the L2 ("infinite L2" in the paper's terms).
    infinite_l2: bool = False


class CacheHierarchy:
    """L1D/L1I + shared-path L2/L3 + memory, with stream prefetch."""

    def __init__(self, geometry: HierarchyGeometry):
        self.geometry = geometry
        self.l1i = Cache(geometry.l1i, "l1i")
        self.l1d = Cache(geometry.l1d, "l1d")
        self.l2 = Cache(geometry.l2, "l2")
        self.l3 = Cache(geometry.l3, "l3")
        self.prefetcher = StreamPrefetcher(geometry.prefetch_streams,
                                           geometry.prefetch_depth)

    @property
    def lower_latency(self) -> Tuple[int, int, int]:
        """Latency of an L1 miss served at each of ``LOWER_LEVELS``."""
        g = self.geometry
        return g.l2.latency, g.l3.latency, g.memory_latency

    def access_instruction(self, address: int) -> AccessResult:
        return self._access(self.l1i, address)

    def access_data(self, address: int) -> AccessResult:
        return self._access(self.l1d, address)

    def _access(self, l1: Cache, address: int) -> AccessResult:
        """One access, with :meth:`lower_walk` on a miss spelled out for
        a single address (the array set-up would cost the walk more than
        the access itself)."""
        if l1.access(address):
            return AccessResult("l1", l1.geometry.latency, True)
        g = self.geometry
        if g.infinite_l2:
            return AccessResult("l2", g.l2.latency, False)
        hit = self.l2.access(address)
        ahead = self.prefetcher.train(address)
        for line_addr in ahead:
            self.l2.fill(line_addr)
        if hit:
            self.prefetcher.useful += len(ahead)
            return AccessResult("l2", g.l2.latency, False)
        if self.l3.access(address):
            return AccessResult("l3", g.l3.latency, False)
        return AccessResult("mem", g.memory_latency, False)

    def lower_walk(self, addresses: Sequence[int]) -> List[int]:
        """Serve L1 misses (byte addresses) in order; returns the level
        that serves each, as an index into ``LOWER_LEVELS``.

        The prefetcher trains on every miss and depends on nothing else,
        so it runs first.  The L2 then sees each demand access followed
        by the prefetches it triggered, and the L3 only the L2 misses.
        Past the core model's infinite L2 nothing is touched.
        """
        n = len(addresses)
        if self.geometry.infinite_l2 or not n:
            return [0] * n
        address = np.asarray(addresses, dtype=np.int64)
        line = address // LINE_BYTES
        depth = self.prefetcher.depth
        fired = np.zeros(n, dtype=bool)
        fired[self.prefetcher.train_lines(line.tolist())] = True
        # one L2 operation per demand access (step 0) and per prefetch
        # (step 1..depth, the lines after the one that fired)
        ops = 1 + depth * fired.astype(np.int64)
        first = np.cumsum(ops) - ops
        step = np.arange(int(ops.sum())) - np.repeat(first, ops)
        op_address = np.where(step == 0, np.repeat(address, ops),
                              (np.repeat(line, ops) + step) * LINE_BYTES)
        absent = np.zeros(len(step), dtype=bool)
        absent[self.l2.touch_lines(
            (op_address // self.l2.geometry.line_bytes).tolist())] = True
        l2_miss = absent[first]
        self.l2.accesses += n
        self.l2.misses += int(l2_miss.sum())
        # prefetches that follow an L2 hit keep a confirmed stream ahead
        self.prefetcher.useful += depth * int(np.sum(fired & ~l2_miss))
        l2_missed = np.flatnonzero(l2_miss)
        code = np.zeros(n, dtype=np.int64)
        code[l2_missed] = 1
        l3_missed = self.l3.access_lines(
            (address[l2_missed] // self.l3.geometry.line_bytes).tolist())
        code[l2_missed[l3_missed]] = 2
        return code.tolist()
