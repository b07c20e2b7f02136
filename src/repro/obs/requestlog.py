"""Structured JSON-lines access log for the simulation service.

One line per served request, written at response time::

    {"id": "req-...", "route": "/v1/simulate", "method": "POST",
     "status": 200, "ok": true, "outcome": "ok", "degraded": false,
     "source": "engine", "cache_hit": false, "queue_ms": 0.2,
     "batch_ms": 1.1, "exec_ms": 8.4, "finalize_ms": 0.1,
     "total_ms": 9.8, "seq": 17}

``batch_ms`` is the wait for the batch the engine was already running
when the request was submitted (the batcher keeps no timer, so it is
about zero on an idle server).  ``queue_ms + batch_ms + exec_ms +
finalize_ms`` tiles ``total_ms`` exactly (the segments come from one
:class:`~repro.obs.context.RequestContext`), so the log is also the
ground truth the acceptance check sums against.  Lines are append-only, flushed per record, and
keyed by the same request id the trace and the client log carry.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union


class AccessLog:
    """Append-only JSON-lines sink; safe to share across threads."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._seq = 0

    def write(self, record: Dict[str, object]) -> None:
        with self._lock:
            if self._fh.closed:
                return
            self._seq += 1
            record = dict(record, seq=self._seq)
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "AccessLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_access_log(path: Union[str, Path],
                    ) -> List[Dict[str, object]]:
    """Parse an access log back into records (blank lines skipped)."""
    records: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def open_access_log(path: Optional[Union[str, Path]],
                    ) -> Optional[AccessLog]:
    """An :class:`AccessLog` for ``path``, or None when unset."""
    return AccessLog(path) if path else None
