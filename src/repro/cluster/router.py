"""The cluster front door: an asyncio router over N serve workers.

One ``asyncio`` process accepts the same JSON-over-HTTP protocol the
single server speaks and proxies every ``/v1/*`` request to a worker
picked by content-addressed shard key (:mod:`.sharding`).  The
contract that makes the whole topology honest: **the router forwards
upstream body bytes verbatim** — it never decodes and re-encodes a
worker's answer — so cluster responses are bit-identical to the
single-process server by construction (and test-enforced).  Shard
attribution travels in an ``X-Shard`` response header, headers being
the only place metadata may live (PR 7's rule for ``X-Request-Id``).

Reliability model:

* *Health*: a background loop scrapes every worker's ``/healthz`` on
  an interval; ``fail_threshold`` consecutive scrape failures mark a
  worker down, one success marks it back up.  A transport error
  during dispatch marks it down immediately — the next request must
  not pay the probe interval to find out.
* *Failover*: dispatch walks the key's failover chain past unhealthy
  and draining workers; a dead-mid-request worker surfaces as a
  transport error and the request is retried on the next shard
  (workers are deterministic and idempotent, so a re-execution is
  bit-identical — the reason failover needs no at-most-once fencing).
* *Dedupe*: the router keeps none of its own.  Fingerprint sharding
  sends identical requests to the same worker, whose micro-batcher
  joins them onto one computation whatever window they arrive in (and
  the shared cache tier answers stragglers), so a burst of N
  duplicates executes exactly once cluster-wide while each request is
  exactly one dispatch down its failover chain.
* *Draining*: the supervisor marks a worker admin-draining before a
  rolling restart; the router stops routing to it and exposes its
  remaining ``inflight`` so the supervisor knows when the worker can
  be bounced without dropping anything.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ClusterError, ReproError, ServeError
from ..obs.context import clean_request_id
from ..obs.metrics import get_registry
from ..serve import protocol
from ..serve.http import FrontEnd, Response, fetch
from .sharding import ShardMap, shard_key

#: upstream failure shapes that trigger shard failover (torn response,
#: refused/reset connection, timeout, malformed wire data)
_TRANSPORT_ERRORS = (OSError, asyncio.TimeoutError,
                     asyncio.IncompleteReadError, ServeError)


@dataclass(frozen=True)
class RouterConfig:
    """Everything that shapes one router instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral
    upstream_timeout_s: float = 60.0   # per proxied request
    health_interval_s: float = 0.25    # probe cadence
    health_timeout_s: float = 2.0      # per probe
    fail_threshold: int = 2            # consecutive probe failures


class BackendState:
    """Router-side view of one worker (mutated only on the loop)."""

    def __init__(self, index: int, host: str, port: int):
        self.index = index
        self.host = host
        self.port = port
        self.healthy = True            # optimistic: workers start first
        self.draining = False          # observed (worker said so)
        self.admin_draining = False    # commanded (rolling restart)
        self.consecutive_failures = 0
        self.inflight = 0
        self.last_healthz: Optional[Dict[str, object]] = None

    @property
    def eligible(self) -> bool:
        return self.healthy and not self.draining \
            and not self.admin_draining

    def snapshot(self) -> Dict[str, object]:
        last = self.last_healthz or {}
        return {"index": self.index,
                "url": f"http://{self.host}:{self.port}",
                "healthy": self.healthy,
                "draining": self.draining or self.admin_draining,
                "inflight": self.inflight,
                "consecutive_failures": self.consecutive_failures,
                "status": last.get("status"),
                "cache": last.get("cache")}


def _shutting_down(body: bytes) -> bool:
    """Is this 503 a worker-side drain (failover-able)?"""
    try:
        doc = json.loads(body.decode("utf-8"))
        return doc.get("error", {}).get("code") == "shutting_down"
    except (UnicodeDecodeError, json.JSONDecodeError, AttributeError):
        return False


class ClusterRouter(FrontEnd):
    """One router instance; create, ``await start()``, ``await stop()``."""

    def __init__(self, config: RouterConfig,
                 backends: Sequence[Tuple[str, int]],
                 tick_hook: Optional[Callable[[], None]] = None):
        if not backends:
            raise ClusterError("router needs at least one backend")
        super().__init__()
        self.config = config
        self.backends = [BackendState(i, host, port)
                         for i, (host, port) in enumerate(backends)]
        self.shards = ShardMap(len(self.backends))
        #: quick supervisor callback run once per health sweep (chaos
        #: ticks, dead-worker checks); must not block the loop
        self._tick_hook = tick_hook
        #: requests this router moved past a dead or draining shard
        self.failovers = 0
        self._health_task: Optional[asyncio.Task] = None

    # ---- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        await self._listen(self.config.host, self.config.port)
        self._health_task = asyncio.create_task(self._health_loop())

    async def stop(self) -> bool:
        """Graceful drain; True when every connection flushed."""
        await self._close_listener()
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
            self._health_task = None
        return await self._settle_connections(5.0)

    # ---- control plane (supervisor calls these via its loop) ----------

    async def set_admin_draining(self, index: int, flag: bool) -> None:
        self.backends[index].admin_draining = flag

    async def update_backend(self, index: int, host: str,
                             port: int) -> None:
        """Republish a restarted worker's address and reset its state."""
        backend = self.backends[index]
        backend.host = host
        backend.port = port
        backend.healthy = True
        backend.draining = False
        backend.consecutive_failures = 0
        backend.last_healthz = None

    async def mark_down(self, index: int) -> None:
        self.backends[index].healthy = False

    async def backend_snapshot(self) -> List[Dict[str, object]]:
        return [b.snapshot() for b in self.backends]

    # ---- health -------------------------------------------------------

    async def _health_loop(self) -> None:
        while True:
            if self._tick_hook is not None:
                try:
                    self._tick_hook()
                except Exception:       # noqa: BLE001 - a supervisor
                    # tick error must not kill the health loop
                    get_registry().counter(
                        "repro_cluster_tick_errors_total",
                        "supervisor tick-hook failures").inc()
            for backend in self.backends:
                await self._probe(backend)
            await asyncio.sleep(self.config.health_interval_s)

    async def _probe(self, backend: BackendState) -> None:
        try:
            status, _headers, payload = await fetch(
                backend.host, backend.port, "GET", "/healthz",
                timeout_s=self.config.health_timeout_s)
            doc = json.loads(payload.decode("utf-8"))
        except _TRANSPORT_ERRORS + (ValueError,):
            backend.consecutive_failures += 1
            if backend.consecutive_failures \
                    >= self.config.fail_threshold:
                backend.healthy = False
            return
        backend.consecutive_failures = 0
        backend.healthy = status == 200
        backend.draining = doc.get("status") == "draining"
        backend.last_healthz = doc

    # ---- dispatch -----------------------------------------------------

    async def _post(self, path: str, headers: Dict[str, str],
                    body: bytes) -> Response:
        """Route one ``/v1/*`` request; returns raw upstream bytes."""
        registry = get_registry()
        start_ns = time.perf_counter_ns()
        key = shard_key(path, body,
                        headers.get(protocol.DEADLINE_HEADER))
        index, status, up_headers, up_body = await self._dispatch(
            key, path, headers, body)
        extra = {"X-Shard": str(index)}
        ctype = up_headers.get("content-type")
        if ctype:
            extra["Content-Type"] = ctype
        retry_after = up_headers.get("retry-after")
        if retry_after:
            extra["Retry-After"] = retry_after
        # correlation stays in headers; the body is upstream's bytes
        rid = clean_request_id(headers.get("x-request-id")) \
            or up_headers.get("x-request-id")
        if rid:
            extra["X-Request-Id"] = rid
        registry.counter(
            "repro_cluster_requests_total",
            "requests routed, by route/shard/status").inc(
                route=path, shard=index, status=status)
        registry.histogram(
            "repro_cluster_request_seconds",
            "routed request latency").observe(
                max(0, time.perf_counter_ns() - start_ns) / 1e9,
                route=path)
        return status, up_body, extra

    async def _dispatch(self, key: str, path: str,
                        headers: Dict[str, str], body: bytes,
                        ) -> Tuple[int, int, Dict[str, str], bytes]:
        """Try the key's failover chain; returns
        ``(shard, status, headers, raw body)``."""
        fwd = {"Content-Type": headers.get("content-type",
                                           "application/json")}
        rid = headers.get("x-request-id")
        if rid:
            fwd["X-Request-Id"] = rid
        deadline = headers.get(protocol.DEADLINE_HEADER)
        if deadline:
            fwd["X-Deadline-Ms"] = deadline
        attempts = 0
        last_error: Optional[BaseException] = None
        for index in self.shards.chain(key):
            backend = self.backends[index]
            if not backend.eligible:
                continue
            attempts += 1
            backend.inflight += 1
            try:
                status, up_headers, up_body = await fetch(
                    backend.host, backend.port, "POST", path,
                    body=body, headers=fwd,
                    timeout_s=self.config.upstream_timeout_s)
            except _TRANSPORT_ERRORS as exc:
                # the worker died (or tore the response) mid-request:
                # mark it down now and re-execute on the next shard —
                # deterministic workers make the retry bit-identical
                backend.healthy = False
                self._failover("transport")
                last_error = exc
                continue
            finally:
                backend.inflight -= 1
            if status == 503 and _shutting_down(up_body):
                backend.draining = True
                self._failover("draining")
                last_error = None
                continue
            return index, status, up_headers, up_body
        raise ClusterError(
            f"no healthy shard answered {path} after {attempts} "
            f"attempt(s) across {len(self.backends)} worker(s)"
            + (f": {last_error}" if last_error is not None else ""))

    def _failover(self, reason: str) -> None:
        self.failovers += 1
        get_registry().counter(
            "repro_cluster_failovers_total",
            "requests moved to another shard").inc(reason=reason)

    # ---- front-door HTTP ----------------------------------------------

    def _draining_error(self) -> ReproError:
        return ClusterError("router is draining")

    def _healthz_doc(self) -> Dict[str, object]:
        from .. import __version__
        shards = [b.snapshot() for b in self.backends]
        eligible = sum(1 for b in self.backends if b.eligible)
        cache = {"hits": 0, "misses": 0, "corrupt": 0}
        cache_seen = False
        for row in shards:
            stats = row.get("cache")
            if isinstance(stats, dict):
                cache_seen = True
                for field in ("hits", "misses", "corrupt"):
                    cache[field] += int(stats.get(field, 0))
        if cache_seen:
            lookups = cache["hits"] + cache["misses"]
            cache["hit_rate"] = (cache["hits"] / lookups
                                 if lookups else 0.0)
        if self._draining:
            status = "draining"
        elif eligible == len(shards):
            status = "ok"
        elif eligible:
            status = "degraded"
        else:
            status = "down"
        return {
            "status": status,
            "role": "router",
            "version": __version__,
            "shards": shards,
            "healthy_shards": eligible,
            "cache": cache if cache_seen else None,
            "failovers": self.failovers,
        }
