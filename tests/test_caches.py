"""Unit tests for caches, prefetcher and the hierarchy, driven one
access at a time through the walk oracle's scalar methods."""

import pytest

from repro.errors import ConfigError
from repro.core.caches import CacheGeometry, HierarchyGeometry
from tests.walk_oracle import (AccessResult, Cache, CacheHierarchy,
                               StreamPrefetcher)


def _geometry(size=4096, assoc=4, latency=3, **kw):
    return CacheGeometry(size, assoc, latency, **kw)


class TestGeometry:
    def test_num_sets(self):
        assert _geometry(8192, 4).num_sets == 32

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigError):
            CacheGeometry(1000, 3, 2)


class TestCache:
    def test_cold_miss_then_hit(self):
        cache = Cache(_geometry())
        assert not cache.access(0x1000)
        assert cache.access(0x1000)
        assert cache.accesses == 2 and cache.misses == 1

    def test_same_line_different_bytes(self):
        cache = Cache(_geometry())
        cache.access(0x1000)
        assert cache.access(0x103F)     # same 64B line

    def test_lru_eviction(self):
        cache = Cache(_geometry(size=4 * 64 * 2, assoc=4))  # 2 sets
        lines = [0x0 + i * 2 * 64 for i in range(5)]        # same set
        for addr in lines:
            cache.access(addr)
        assert not cache.probe(lines[0])       # evicted
        assert cache.probe(lines[1])

    def test_access_refreshes_lru(self):
        cache = Cache(_geometry(size=4 * 64, assoc=4))      # 1 set
        for i in range(4):
            cache.access(i * 64)
        cache.access(0)                 # refresh line 0
        cache.access(4 * 64)            # evicts line 1, not 0
        assert cache.probe(0)
        assert not cache.probe(64)

    def test_fill_does_not_count_access(self):
        cache = Cache(_geometry())
        cache.fill(0x2000)
        assert cache.accesses == 0
        assert cache.probe(0x2000)

    def test_invalidate_all(self):
        cache = Cache(_geometry())
        cache.access(0x1000)
        cache.invalidate_all()
        assert not cache.probe(0x1000)

    def test_miss_rate(self):
        cache = Cache(_geometry())
        assert cache.miss_rate == 0.0
        cache.access(0)
        assert cache.miss_rate == 1.0


class TestPrefetcher:
    def test_stream_detection(self):
        pf = StreamPrefetcher(max_streams=4, depth=4)
        assert pf.train(0) == []
        lines = pf.train(64)            # second sequential miss
        assert len(lines) == 4
        assert lines[0] == 2 * 64

    def test_random_misses_never_prefetch(self):
        pf = StreamPrefetcher()
        assert pf.train(0) == []
        assert pf.train(64 * 100) == []
        assert pf.train(64 * 7) == []

    def test_stream_table_bounded(self):
        pf = StreamPrefetcher(max_streams=2)
        for i in range(10):
            pf.train(i * 64 * 50)
        assert len(pf._streams) <= 2


class TestHierarchy:
    def _hier(self, infinite_l2=False):
        return CacheHierarchy(HierarchyGeometry(
            l1i=_geometry(), l1d=_geometry(),
            l2=_geometry(16384, 8, 12),
            l3=_geometry(65536, 8, 30),
            memory_latency=200, infinite_l2=infinite_l2))

    def test_levels_and_latency(self):
        hier = self._hier()
        first = hier.access_data(0x100000)
        assert first.level == "mem" and first.latency == 200
        second = hier.access_data(0x100000)
        assert second.level == "l1" and second.l1_hit

    def test_l2_hit_after_l1_eviction(self):
        hier = self._hier()
        hier.access_data(0x0)
        # blow out the small L1D but stay within the L2
        for i in range(1, 200):
            hier.access_data(i * 64)
        res = hier.access_data(0x0)
        assert res.level == "l2"

    def test_infinite_l2_never_reaches_memory(self):
        hier = self._hier(infinite_l2=True)
        for i in range(500):
            res = hier.access_data(i * 64 * 97)
            assert res.level in ("l1", "l2")

    def test_instruction_side(self):
        hier = self._hier()
        res = hier.access_instruction(0x4000)
        assert isinstance(res, AccessResult)
        assert hier.l1i.accesses == 1

    def test_stream_gets_prefetched(self):
        hier = self._hier()
        mem_hits = 0
        for i in range(256):
            if hier.access_data(0x200000 + i * 64).level == "mem":
                mem_hits += 1
        # after the stream is confirmed, misses are covered by prefetch
        assert mem_hits < 10
