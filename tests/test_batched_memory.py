"""Batched cache, prefetcher and MMU walks against one access at a time.

The activity extraction walks each structure in one batched call
(:meth:`Cache.access_lines`, :meth:`CacheHierarchy.lower_walk`,
:meth:`MMU.translate_pages`); the per-instruction walk makes one call per
access.  Both must leave every structure in the same state — outputs,
LRU order and counters — and both must match the ``Ref*`` classes below,
the per-access code the batched walks replaced.
"""

from collections import OrderedDict

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro.core.caches import (LINE_BYTES, LOWER_LEVELS, Cache,
                               CacheGeometry, CacheHierarchy,
                               HierarchyGeometry, StreamPrefetcher)
from repro.core.tlb import MMU, PAGE_BYTES


# --- the per-access reference ----------------------------------------------

class RefCache:
    def __init__(self, geometry):
        self.geometry = geometry
        self._sets = {}
        self.accesses = 0
        self.misses = 0

    def _locate(self, address):
        line = address // self.geometry.line_bytes
        return line % self.geometry.num_sets, line

    def probe(self, address):
        set_idx, tag = self._locate(address)
        cache_set = self._sets.get(set_idx)
        return cache_set is not None and tag in cache_set

    def access(self, address):
        self.accesses += 1
        set_idx, tag = self._locate(address)
        cache_set = self._sets.setdefault(set_idx, OrderedDict())
        if tag in cache_set:
            cache_set.move_to_end(tag)
            return True
        self.misses += 1
        cache_set[tag] = True
        if len(cache_set) > self.geometry.associativity:
            cache_set.popitem(last=False)
        return False

    def fill(self, address):
        set_idx, tag = self._locate(address)
        cache_set = self._sets.setdefault(set_idx, OrderedDict())
        cache_set[tag] = True
        cache_set.move_to_end(tag)
        if len(cache_set) > self.geometry.associativity:
            cache_set.popitem(last=False)


class RefPrefetcher:
    def __init__(self, max_streams, depth):
        self.max_streams = max_streams
        self.depth = depth
        self._streams = OrderedDict()
        self.issued = 0
        self.useful = 0

    def train(self, address):
        line = address // LINE_BYTES
        for key, expected in list(self._streams.items()):
            if line == expected:
                self._streams[key] = line + 1
                self._streams.move_to_end(key)
                self.issued += self.depth
                return [(line + 1 + i) * LINE_BYTES
                        for i in range(self.depth)]
        self._streams[line] = line + 1
        if len(self._streams) > self.max_streams:
            self._streams.popitem(last=False)
        return []


class RefHierarchy:
    def __init__(self, geometry):
        self.geometry = geometry
        self.l1i = RefCache(geometry.l1i)
        self.l1d = RefCache(geometry.l1d)
        self.l2 = RefCache(geometry.l2)
        self.l3 = RefCache(geometry.l3)
        self.prefetcher = RefPrefetcher(geometry.prefetch_streams,
                                        geometry.prefetch_depth)

    def access(self, side, address):
        if (self.l1i if side == "i" else self.l1d).access(address):
            return "l1"
        if self.geometry.infinite_l2:
            return "l2"
        prefetched = self.l2.probe(address)
        if self.l2.access(address):
            if prefetched:
                for line_addr in self.prefetcher.train(address):
                    self.l2.fill(line_addr)
                    self.prefetcher.useful += 1
            return "l2"
        for line_addr in self.prefetcher.train(address):
            self.l2.fill(line_addr)
        if self.l3.access(address):
            return "l3"
        return "mem"


class RefLruTable:
    def __init__(self, entries):
        self.entries = entries
        self._table = OrderedDict()
        self.lookups = 0
        self.misses = 0

    def access(self, page):
        self.lookups += 1
        if page in self._table:
            self._table.move_to_end(page)
            return True
        self.misses += 1
        self._table[page] = True
        if len(self._table) > self.entries:
            self._table.popitem(last=False)
        return False


class RefMMU:
    def __init__(self, erat_entries, tlb_entries):
        self.erat = RefLruTable(erat_entries)
        self.tlb = RefLruTable(tlb_entries)
        self.tablewalks = 0

    def translate(self, address):
        page = address // PAGE_BYTES
        if self.erat.access(page):
            return "erat"
        if self.tlb.access(page):
            return "tlb"
        self.tablewalks += 1
        return "walk"


# --- state -----------------------------------------------------------------

def cache_state(cache):
    sets = {k: list(v) for k, v in cache._sets.items() if v}
    return sets, cache.accesses, cache.misses


def hierarchy_state(hier):
    pf = hier.prefetcher
    return ([cache_state(c) for c in (hier.l1i, hier.l1d, hier.l2,
                                      hier.l3)],
            list(pf._streams.items()), pf.issued, pf.useful)


def mmu_state(mmu):
    return [(list(t._table), t.lookups, t.misses)
            for t in (mmu.erat, mmu.tlb)] + [mmu.tablewalks]


# --- inputs ----------------------------------------------------------------

def _geometry(size, ways, latency):
    return CacheGeometry(size, ways, latency)


def hierarchy_geometry(infinite_l2=False, streams=2, depth=3):
    """Tiny caches, so a short run evicts at every level."""
    return HierarchyGeometry(
        l1i=_geometry(256, 2, 3), l1d=_geometry(512, 2, 4),
        l2=_geometry(1024, 4, 12), l3=_geometry(2048, 2, 30),
        memory_latency=200, prefetch_streams=streams,
        prefetch_depth=depth, infinite_l2=infinite_l2)


#: addresses over a few dozen lines: repeats, sequential streams (which
#: the prefetcher confirms) and set conflicts are all likely
address = st.one_of(st.integers(0, 40).map(lambda line: line * LINE_BYTES),
                    st.integers(0, 40 * LINE_BYTES - 1))
addresses = st.lists(address, max_size=120)

#: short ascending runs of misses over a dozen lines: streams often
#: advance onto a line another stream already expects, and misses restart
#: a stream at its start line
miss_lines = st.lists(st.tuples(st.integers(0, 12), st.integers(1, 4)),
                      max_size=40).map(
    lambda runs: [line for start, n in runs
                  for line in range(start, start + n)])


def scan_cases(ref, lines):
    """Train ``ref`` (the scan) on ``lines``; for each miss, whether it
    continues a stream (``shared`` when another stream expected the line
    too), restarts a stream at its own start line, or starts one."""
    cases = []
    for line in lines:
        expecting = [k for k, e in ref._streams.items() if e == line]
        if len(expecting) > 1:
            cases.append("continues, shared")
        elif expecting:
            cases.append("continues")
        else:
            cases.append("restarts" if line in ref._streams else "starts")
        ref.train(line * LINE_BYTES)
    return cases


_SETTINGS = settings(max_examples=80, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# --- the tests -------------------------------------------------------------

class TestCache:
    @_SETTINGS
    @given(addresses, st.sampled_from([(256, 1), (512, 2), (1024, 4)]))
    def test_batched_equals_scalar(self, addrs, shape):
        geometry = _geometry(shape[0], shape[1], 4)
        batched, scalar, ref = (Cache(geometry), Cache(geometry),
                                RefCache(geometry))
        lines = [a // LINE_BYTES for a in addrs]
        missed = batched.access_lines(lines)
        assert missed == [i for i, a in enumerate(addrs)
                          if not scalar.access(a)]
        assert missed == [i for i, a in enumerate(addrs)
                          if not ref.access(a)]
        assert cache_state(batched) == cache_state(scalar) \
            == cache_state(ref)

    @_SETTINGS
    @given(addresses)
    def test_prefetcher_batched_equals_scalar(self, addrs):
        batched, scalar, ref = (StreamPrefetcher(3, 2),
                                StreamPrefetcher(3, 2), RefPrefetcher(3, 2))
        fired = batched.train_lines([a // LINE_BYTES for a in addrs])
        want = [ref.train(a) for a in addrs]
        assert [scalar.train(a) for a in addrs] == want
        assert fired == [i for i, ahead in enumerate(want) if ahead]
        for pf in (batched, scalar):
            assert list(pf._streams.items()) == list(ref._streams.items())
            assert pf.issued == ref.issued

    @_SETTINGS
    @example([5, 3, 4, 5, 6, 6], 2)
    @example([5, 6, 9, 5, 20, 10], 2)
    @given(miss_lines, st.integers(1, 4))
    def test_prefetcher_index_equals_scan(self, lines, max_streams):
        """The stream index against the scan it replaced, on miss
        streams that meet both cases an index can get wrong."""
        indexed = StreamPrefetcher(max_streams, 2)
        ref = RefPrefetcher(max_streams, 2)
        want = []
        for pos, case in enumerate(scan_cases(ref, lines)):
            event(case)
            if case.startswith("continues"):
                want.append(pos)
        assert indexed.train_lines(lines) == want
        assert list(indexed._streams.items()) == list(ref._streams.items())
        assert indexed.issued == ref.issued
        waiting = {}
        for key, expected in ref._streams.items():
            waiting.setdefault(expected, set()).add(key)
        assert {line: set(keys) for line, keys
                in indexed._waiting.items()} == waiting

    def test_prefetcher_examples_meet_both_cases(self):
        """The explicit examples above: streams 5 and 3 both expect
        line 6, and a miss on line 5 restarts stream 5 in its LRU
        place (so the miss on 20 evicts it and stream 9 still fires)."""
        cases = scan_cases(RefPrefetcher(2, 2), [5, 3, 4, 5, 6, 6])
        assert cases[4] == "continues, shared"
        cases = scan_cases(RefPrefetcher(2, 2), [5, 6, 9, 5, 20, 10])
        assert cases[3] == "restarts" and cases[5] == "continues"


class TestHierarchy:
    @_SETTINGS
    @given(st.lists(st.tuples(st.sampled_from("id"), address),
                    max_size=150),
           st.booleans(), st.integers(1, 4), st.integers(1, 4))
    def test_one_walk_per_structure_equals_interleaved(
            self, ops, infinite_l2, streams, depth):
        """The extraction's split: each L1 on its own stream, then the
        L1 misses in order through one lower walk."""
        geometry = hierarchy_geometry(infinite_l2, streams, depth)
        batched, scalar = CacheHierarchy(geometry), CacheHierarchy(geometry)
        ref = RefHierarchy(geometry)
        want = [ref.access(side, a) for side, a in ops]
        got = []
        for side, a in ops:
            access = scalar.access_instruction if side == "i" \
                else scalar.access_data
            res = access(a)
            assert res.l1_hit == (res.level == "l1")
            assert res.latency == {
                "l1": (geometry.l1i if side == "i" else geometry.l1d)
                .latency, "l2": 12, "l3": 30, "mem": 200}[res.level]
            got.append(res.level)
        assert got == want

        levels = ["l1"] * len(ops)
        misses = []
        for side, l1 in (("i", batched.l1i), ("d", batched.l1d)):
            at = [k for k, (s, _a) in enumerate(ops) if s == side]
            misses += [at[pos] for pos in l1.access_lines(
                [ops[k][1] // LINE_BYTES for k in at])]
        misses.sort()
        for k, code in zip(misses, batched.lower_walk(
                [ops[k][1] for k in misses])):
            levels[k] = LOWER_LEVELS[code]
        assert levels == want
        state = hierarchy_state(ref)
        assert hierarchy_state(batched) == state
        assert hierarchy_state(scalar) == state


class TestMMU:
    @_SETTINGS
    @given(st.lists(st.integers(0, 24).map(lambda p: p * PAGE_BYTES + 8),
                    max_size=150),
           st.integers(1, 6), st.integers(1, 10))
    def test_batched_equals_scalar(self, addrs, erat, tlb):
        batched, scalar = MMU(erat, tlb, 10, 60), MMU(erat, tlb, 10, 60)
        ref = RefMMU(erat, tlb)
        want = [ref.translate(a) for a in addrs]
        erat_missed, walked = batched.translate_pages(
            [a // PAGE_BYTES for a in addrs])
        assert erat_missed == [i for i, w in enumerate(want)
                               if w != "erat"]
        assert walked == [i for i, w in enumerate(want) if w == "walk"]
        got = []
        for a in addrs:
            res = scalar.translate(a)
            got.append("erat" if res.erat_hit
                       else "tlb" if res.tlb_hit else "walk")
            assert res.extra_latency == {"erat": 0, "tlb": 10,
                                         "walk": 70}[got[-1]]
        assert got == want
        assert mmu_state(batched) == mmu_state(scalar) == mmu_state(ref)
