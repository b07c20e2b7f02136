"""Content-addressed result cache for deterministic simulation tasks.

The paper's methodology exists because pre-silicon power/performance
evaluation must be *fast enough to iterate* (Section III-C: APEX trades
per-cycle integration for interval extraction at ~5000x).  This module
attacks the same cost from the other side: a deterministic model never
needs to run the same (configuration, workload, seed) twice.  A run is
fingerprinted as::

    key = sha256(config fingerprint, trace fingerprint, seed/params,
                 code-version salt)

and its canonical JSON text is kept in two tiers: a bounded
in-memory LRU per cache instance (at most :data:`MEMORY_BYTES` of
text), in front of an optional on-disk store with atomic writes.  A
lookup tries memory, then disk (or memory alone, when the caller
must not wait on a file).  The code-version salt hashes the
model's own source tree, so *any* model change invalidates every
cached result — a cache hit is by construction bit-identical to a
rerun.

Hits (from either tier) and misses are reported through
:mod:`repro.obs.metrics` (``repro_exec_cache_hits_total`` /
``repro_exec_cache_misses_total``); entries can be explicitly
invalidated per key or cleared wholesale.  The default store location
is taken from ``$REPRO_CACHE_DIR``; with the variable unset and no
path passed explicitly, the cache is memory only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from ..core.activity import ActivityCounters
from ..core.config import CoreConfig
from ..core.pipeline import SimResult
from ..errors import ExecError
from ..obs.metrics import get_registry
from ..workloads.trace import columns_of

ENV_CACHE_DIR = "REPRO_CACHE_DIR"

_KEY_RE = re.compile(r"^[0-9a-f]{16,64}$")

#: Byte cap on one cache instance's memory tier (the JSON text it
#: holds).  A golden-scale figures run stores about 1.5 MB.
MEMORY_BYTES = 8 << 20

# Packages whose source participates in the code-version salt: the
# model layers whose behavior determines any cacheable result.  The
# observability/lint layers are deliberately excluded — they carry the
# "telemetry off => bit-identical results" guarantee, so their changes
# cannot change model output.
_SALT_PACKAGES = ("core", "power", "pm", "workloads", "reliability",
                  "resilience", "tracegen", "exec", "fastsim")

_code_salt: Optional[str] = None


def code_salt() -> str:
    """Hash of the model source tree (cached per process).

    Fingerprints every ``.py`` file under the model packages, so a
    cached result can never survive a model change.
    """
    global _code_salt
    if _code_salt is None:
        package_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for pkg in _SALT_PACKAGES:
            root = package_root / pkg
            if not root.is_dir():
                continue
            for path in sorted(root.rglob("*.py")):
                digest.update(str(path.relative_to(package_root)).encode())
                digest.update(path.read_bytes())
        _code_salt = digest.hexdigest()[:16]
    return _code_salt


def _canonical(value: object) -> object:
    """Reduce a value to canonical JSON-able form for hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def fingerprint_config(config: CoreConfig) -> str:
    """Stable fingerprint of every field of a core configuration."""
    payload = json.dumps(_canonical(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


#: (column, little-endian dtype) in fingerprint order
_TRACE_COLUMNS = (("codes", "<i1"), ("pc", "<i8"), ("address", "<i8"),
                  ("size", "<i4"), ("taken", "|b1"), ("target", "<i8"),
                  ("flops", "<i4"), ("thread", "<i4"),
                  ("src_off", "<i8"), ("src_reg", "<i4"),
                  ("dest_off", "<i8"), ("dest_reg", "<i4"))


def fingerprint_trace(trace) -> str:
    """Stable fingerprint of a workload trace's instruction stream.

    One sha256 over the trace identity/weight used for suite
    aggregation, the column lengths, and the bytes of every column the
    timing model consumes (class, pc, address, size, branch outcome,
    FLOPs, thread, registers), each in an explicit little-endian dtype.
    """
    columns = columns_of(trace)
    digest = hashlib.sha256()
    digest.update(repr((getattr(trace, "name", "?"),
                        getattr(trace, "suite", ""),
                        getattr(trace, "weight", 1.0), len(columns),
                        len(columns.src_reg),
                        len(columns.dest_reg))).encode())
    for name, dtype in _TRACE_COLUMNS:
        digest.update(np.ascontiguousarray(getattr(columns, name),
                                           dtype=dtype))
    return digest.hexdigest()[:16]


def task_fingerprint(*parts: object) -> str:
    """Combine fingerprints/parameters (+ the code salt) into one key."""
    payload = json.dumps([_canonical(p) for p in parts] + [code_salt()],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


# --------------------------------------------------------------------------
# SimResult <-> JSON codec.
#
# The store keeps results as JSON.  Python's JSON float round-trip is
# exact (repr-based), so a decoded result is bit-identical to the
# encoded one — the property the engine's cached-vs-uncached guarantee
# rests on.
# --------------------------------------------------------------------------

def activity_to_json(act: ActivityCounters) -> Dict[str, object]:
    return {"cycles": act.cycles,
            "instructions": act.instructions,
            "events": dict(act.events),
            "unit_busy_cycles": dict(act.unit_busy_cycles)}


def activity_from_json(data: Dict[str, object]) -> ActivityCounters:
    try:
        act = ActivityCounters(cycles=int(data["cycles"]),
                               instructions=int(data["instructions"]))
        act.events = {str(k): int(v)
                      for k, v in dict(data["events"]).items()}
        act.unit_busy_cycles = {
            str(k): int(v)
            for k, v in dict(data["unit_busy_cycles"]).items()}
        return act
    except (KeyError, TypeError, ValueError) as exc:
        raise ExecError(f"malformed cached activity: {exc}") from exc


def sim_result_to_json(result: SimResult) -> Dict[str, object]:
    return {
        "config_name": result.config_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "activity": activity_to_json(result.activity),
        "flushed_instructions": result.flushed_instructions,
        "mispredicts": result.mispredicts,
        "flops": result.flops,
        "l1d_miss_rate": result.l1d_miss_rate,
        "l2_miss_rate": result.l2_miss_rate,
        "fusion_rate": result.fusion_rate,
        "branch_mpki": result.branch_mpki,
        "metadata": dict(result.metadata),
    }


def sim_result_from_json(data: Dict[str, object]) -> SimResult:
    try:
        return SimResult(
            config_name=str(data["config_name"]),
            cycles=int(data["cycles"]),
            instructions=int(data["instructions"]),
            activity=activity_from_json(dict(data["activity"])),
            flushed_instructions=int(data["flushed_instructions"]),
            mispredicts=int(data["mispredicts"]),
            flops=int(data["flops"]),
            l1d_miss_rate=float(data["l1d_miss_rate"]),
            l2_miss_rate=float(data["l2_miss_rate"]),
            fusion_rate=float(data["fusion_rate"]),
            branch_mpki=float(data["branch_mpki"]),
            metadata=dict(data["metadata"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ExecError(f"malformed cached result: {exc}") from exc


# --------------------------------------------------------------------------
# The store: a memory tier in front of an optional directory.
# --------------------------------------------------------------------------

class ResultCache:
    """Payloads by key: an in-memory LRU in front of a directory of
    ``<key>.json`` files, written atomically.

    Keys are hex fingerprints from :func:`task_fingerprint`; payloads
    are JSON-serializable dicts.  Both tiers hold the same canonical
    JSON text, and every hit decodes it afresh, so a memory hit is
    bit-identical to a disk replay and no caller can alter a later
    answer.  The memory tier belongs to this instance (two instances
    on one directory share only the disk) and holds at most
    :data:`MEMORY_BYTES`, dropping the least recently used entries
    first.  ``ResultCache(None)`` is memory only.

    Disk writes go through a temp file + ``os.replace`` so a killed
    process can never leave a torn entry, and a corrupt entry reads as
    a miss (and is dropped), never as an error — a cache can always be
    regenerated.
    """

    def __init__(self, root: Union[str, os.PathLike, None] = None):
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        # key -> canonical JSON bytes, least recently used first
        self._memory: "OrderedDict[str, bytes]" = OrderedDict()
        self._memory_bytes = 0
        self._memory_lock = threading.Lock()

    @classmethod
    def from_env(cls) -> "ResultCache":
        """The ``$REPRO_CACHE_DIR`` store; memory only when unset/empty."""
        root = os.environ.get(ENV_CACHE_DIR, "").strip()
        return cls(root or None)

    @staticmethod
    def _check_key(key: str) -> str:
        if not _KEY_RE.match(key):
            raise ExecError(f"invalid cache key: {key!r}")
        return key

    def _path(self, key: str) -> Path:
        key = self._check_key(key)
        return self.root / key[:2] / f"{key}.json"

    def _remember(self, key: str, data: bytes) -> None:
        """Keep ``data`` as the most recent entry, then drop the least
        recent ones until the tier fits its cap.  An entry larger than
        the cap is not kept at all."""
        if len(data) > MEMORY_BYTES:
            return
        with self._memory_lock:
            old = self._memory.pop(key, None)
            if old is not None:
                self._memory_bytes -= len(old)
            self._memory[key] = data
            self._memory_bytes += len(data)
            while self._memory_bytes > MEMORY_BYTES:
                _key, dropped = self._memory.popitem(last=False)
                self._memory_bytes -= len(dropped)

    def _recall(self, key: str) -> Optional[bytes]:
        with self._memory_lock:
            data = self._memory.get(self._check_key(key))
            if data is not None:
                self._memory.move_to_end(key)
        return data

    def _read_disk(self, key: str, kind: str) -> Optional[Dict]:
        if self.root is None:
            return None
        path = self._path(key)
        if os.environ.get("REPRO_CHAOS_DIR"):  # resilience.chaos.ENV_CHAOS_DIR
            from ..resilience.chaos import chaos_point
            chaos_point("cache_get", path=str(path))
        try:
            data = path.read_bytes()
            payload = json.loads(data)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            # torn/corrupt entry: count it, treat as a miss, and drop
            # it so the recompute's put() rewrites a clean entry
            # (otherwise a permanently corrupt file would be re-read
            # and dropped on every subsequent hit)
            self.corrupt += 1
            get_registry().counter(
                "repro_exec_cache_corrupt_total",
                "cache entries dropped as unreadable or corrupt",
                ).inc(kind=kind)
            self.invalidate(key)
            return None
        self._remember(key, data)
        return payload

    def get(self, key: str, *, kind: str = "task",
            memory_only: bool = False) -> Optional[Dict]:
        """The payload stored under ``key``, or None.

        ``memory_only`` asks the memory tier alone, a lookup cheap
        enough for an event loop: it never touches the disk, and a
        miss counts nothing, since the caller goes on to a full lookup
        that counts it.
        """
        data = self._recall(key)
        if data is not None:
            payload = json.loads(data)
        elif memory_only:
            return None
        else:
            payload = self._read_disk(key, kind)
        registry = get_registry()
        if payload is None:
            with self._memory_lock:
                self.misses += 1
            registry.counter(
                "repro_exec_cache_misses_total",
                "result-cache lookups that missed").inc(kind=kind)
            return None
        # the engine thread and a server's event loop both look up
        with self._memory_lock:
            self.hits += 1
        registry.counter(
            "repro_exec_cache_hits_total",
            "result-cache lookups served from memory or disk",
            ).inc(kind=kind)
        return payload

    def put(self, key: str, payload: Dict) -> None:
        """Store one entry in memory and, best-effort, on disk: a cache
        that cannot persist (full disk, permission loss) must never
        fail the already-computed result it was asked to remember."""
        data = json.dumps(payload, sort_keys=True).encode()
        self._remember(self._check_key(key), data)
        if self.root is None:
            return
        path = self._path(key)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink()
            except OSError:
                pass

    def stats(self) -> Dict[str, object]:
        """This instance's lookup counters, shaped for ``/healthz``.

        Per-instance, not per-directory: when several workers share one
        cache tier each reports its own traffic, and the cluster router
        sums them into the tier-wide aggregate.
        """
        lookups = self.hits + self.misses
        return {"hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
                "hit_rate": self.hits / lookups if lookups else 0.0}

    def invalidate(self, key: str) -> bool:
        """Drop one entry from both tiers; True when something was
        removed."""
        with self._memory_lock:
            data = self._memory.pop(self._check_key(key), None)
            if data is not None:
                self._memory_bytes -= len(data)
        removed = data is not None
        if self.root is None:
            return removed
        try:
            self._path(key).unlink()
            return True
        except OSError:
            # absent, or e.g. a permission-dropped directory: the
            # caller already treats the entry as a miss
            return removed

    def clear(self) -> int:
        """Drop every entry from both tiers; returns the number of keys
        removed."""
        with self._memory_lock:
            removed = set(self._memory)
            self._memory.clear()
            self._memory_bytes = 0
        if self.root is not None:
            for path in sorted(self.root.rglob("*.json")):
                path.unlink()
                removed.add(path.stem)
        return len(removed)

    def keys(self) -> List[str]:
        with self._memory_lock:
            keys = set(self._memory)
        if self.root is not None:
            keys.update(p.stem for p in self.root.rglob("*.json"))
        return sorted(keys)

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        with self._memory_lock:
            if self._check_key(key) in self._memory:
                return True
        return self.root is not None and self._path(key).is_file()


def resolve_cache(cache: Union["ResultCache", str, os.PathLike, None],
                  ) -> ResultCache:
    """Normalize a cache argument: pass-through, path, or the
    ``$REPRO_CACHE_DIR`` default (memory only when that is unset)."""
    if cache is None:
        return ResultCache.from_env()
    if isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
