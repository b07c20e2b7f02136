"""Address-translation structures: ERAT, TLB and the table walker.

POWER10 quadruples MMU resources relative to POWER9 (Table I / Fig. 1):
the modeled TLB grows from 1K to 4K entries.  More important for energy
is *when* translation happens: with POWER9's RA-tagged L1s, the ERAT is
looked up on every L1 access; with POWER10's EA-tagged L1s it is looked
up only on an L1 miss.  That policy is applied by the LSU/pipeline —
this module just provides the structures and their hit/miss behaviour.

Translations come in batches (:meth:`MMU.translate_pages`): the
activity extraction makes one call for the whole run.  The TLB sees
only ERAT misses, so each table is walked in one loop of its own.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Sequence, Tuple
from ..errors import ConfigError

PAGE_BYTES = 4096


class _LruTable:
    def __init__(self, entries: int):
        if entries <= 0:
            raise ConfigError("entries must be positive")
        self.entries = entries
        self._table: OrderedDict = OrderedDict()
        self.lookups = 0
        self.misses = 0

    def access_pages(self, pages: Sequence[int]) -> List[int]:
        """Look ``pages`` up in order; returns the positions in ``pages``
        of the misses, which allocate.

        A page equal to the one before it is the most recent entry: a
        hit that changes no LRU order, so it is only counted.
        """
        table = self._table
        entries = self.entries
        missed: List[int] = []
        last = -1
        for pos, page in enumerate(pages):
            if page == last:
                continue
            last = page
            if page in table:
                table.move_to_end(page)
                continue
            missed.append(pos)
            table[page] = True
            if len(table) > entries:
                table.popitem(last=False)
        self.lookups += len(pages)
        self.misses += len(missed)
        return missed

    @property
    def miss_rate(self) -> float:
        return self.misses / self.lookups if self.lookups else 0.0


class MMU:
    """ERAT backed by a TLB backed by a (fixed-latency) table walker."""

    def __init__(self, erat_entries: int = 64, tlb_entries: int = 1024,
                 tlb_latency: int = 10, walk_latency: int = 60):
        self.erat = _LruTable(erat_entries)
        self.tlb = _LruTable(tlb_entries)
        self.tlb_latency = tlb_latency
        self.walk_latency = walk_latency
        self.tablewalks = 0

    def translate_pages(self, pages: Sequence[int],
                        ) -> Tuple[List[int], List[int]]:
        """Translate ``pages`` in order; returns the positions in
        ``pages`` of the ERAT misses (each a TLB lookup) and, among
        them, of the TLB misses (each a table walk)."""
        erat_missed = self.erat.access_pages(pages)
        walked = [erat_missed[k] for k in self.tlb.access_pages(
            [pages[pos] for pos in erat_missed])]
        self.tablewalks += len(walked)
        return erat_missed, walked
