"""Unit tests for the MMU (ERAT/TLB/table walker), driven one address
at a time through the walk oracle's scalar methods."""

import pytest

from repro.errors import ConfigError
from repro.core.tlb import PAGE_BYTES
from tests.walk_oracle import MMU, _LruTable


class TestLruTable:
    def test_positive_capacity(self):
        with pytest.raises(ConfigError):
            _LruTable(0)

    def test_capacity_eviction(self):
        table = _LruTable(2)
        table.access(1)
        table.access(2)
        table.access(3)
        assert not table.access(1)      # 1 was evicted

    def test_miss_rate(self):
        table = _LruTable(4)
        table.access(1)
        table.access(1)
        assert table.miss_rate == 0.5


class TestMMU:
    def test_erat_hit_costs_nothing(self):
        mmu = MMU()
        mmu.translate(0x1000)
        result = mmu.translate(0x1010)      # same page
        assert result.erat_hit and result.extra_latency == 0

    def test_erat_miss_tlb_hit(self):
        mmu = MMU(erat_entries=1, tlb_entries=64, tlb_latency=9)
        mmu.translate(0)
        mmu.translate(PAGE_BYTES)           # evicts page 0 from ERAT
        result = mmu.translate(0)
        assert not result.erat_hit and result.tlb_hit
        assert result.extra_latency == 9

    def test_full_walk(self):
        mmu = MMU(tlb_latency=10, walk_latency=50)
        result = mmu.translate(0x5000000)
        assert not result.erat_hit and not result.tlb_hit
        assert result.extra_latency == 60
        assert mmu.tablewalks == 1

    def test_bigger_tlb_fewer_walks(self):
        pages = [i * PAGE_BYTES for i in range(600)] * 2
        small = MMU(tlb_entries=128)
        big = MMU(tlb_entries=4096)
        for addr in pages:
            small.translate(addr)
            big.translate(addr)
        assert big.tablewalks < small.tablewalks
