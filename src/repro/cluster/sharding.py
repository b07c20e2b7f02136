"""Fingerprint sharding: which worker owns which request.

The router keys every ``/v1/*`` request with the same content-
addressed machinery the result cache uses
(:func:`repro.exec.cache.task_fingerprint`): canonical-JSON the
decoded body, fold in the route and the deadline header, salt with the
model-source hash.  Two consequences fall out for free:

* identical concurrent requests land on the *same* shard, whose
  micro-batcher single-flights them — cross-process dedupe without
  leases, locks or a router-side map;
* a shard's working set is exactly a stable slice of the shared
  result-cache keyspace, so its warm entries stay relevant across
  restarts.

Placement is highest-random-weight-flavored but deliberately simple:
primary = ``int(key, 16) % n``, failover walks the ring to the next
healthy worker.  Pure functions of (key, health vector) — the
router's failover decisions replay deterministically in tests.
"""

from __future__ import annotations

import hashlib
import json
from typing import List, Optional, Sequence

from ..errors import ClusterError
from ..exec.cache import task_fingerprint


def shard_key(route: str, body: bytes,
              deadline_header: Optional[str] = None) -> str:
    """The content-addressed key for one routed request.

    The *decoded* body is hashed (canonical JSON), so key order and
    whitespace in the wire bytes do not split identical requests; a
    body that cannot be decoded is hashed raw (it will 400 at the
    worker, but it still needs a stable shard).  The deadline header
    participates because it changes the answer a worker may produce
    (degraded-by-deadline vs full fidelity).
    """
    try:
        decoded = json.loads(body.decode("utf-8")) if body else {}
        return task_fingerprint("cluster", route, decoded,
                                deadline_header or "")
    except (UnicodeDecodeError, ValueError, RecursionError):
        # not JSON, or nested past what decoding and canonical
        # re-encoding can walk
        return task_fingerprint("cluster-raw", route,
                                hashlib.sha256(body).hexdigest(),
                                deadline_header or "")


class ShardMap:
    """Maps keys to worker indices with deterministic failover order."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ClusterError(
                f"cluster needs >= 1 worker, got {workers}")
        self.workers = workers

    def primary(self, key: str) -> int:
        return int(key, 16) % self.workers

    def chain(self, key: str) -> List[int]:
        """Every worker index in failover order (primary first)."""
        first = self.primary(key)
        return [(first + i) % self.workers
                for i in range(self.workers)]

    def assign(self, key: str, eligible: Sequence[bool]) -> int:
        """The first eligible worker on the key's failover chain."""
        if len(eligible) != self.workers:
            raise ClusterError(
                f"eligibility vector has {len(eligible)} entries for "
                f"{self.workers} workers")
        for index in self.chain(key):
            if eligible[index]:
                return index
        raise ClusterError("no eligible worker for any shard")
