"""``repro serve``: the simulation service front door.

A hand-rolled JSON-over-HTTP/1.1 server (stdlib only — no aiohttp, no
http.server) built on the front end in :mod:`repro.serve.http`, which
it shares with the cluster router.  Routes:

* ``POST /v1/simulate`` — one full-fidelity timing-model run;
* ``POST /v1/compare``  — P9 vs P10 over a workload list;
* ``POST /v1/estimate`` — the explicit power-proxy fast path;
* ``POST /v1/inject``   — one seeded fault-injection run;
* ``GET /healthz``      — liveness + drain state;
* ``GET /metrics``      — the obs metrics-registry dump.

Request flow: the route's circuit breaker → admission control (token
bucket + bounded in-flight) → micro-batcher (single-flight dedupe into
one Engine plan) → the PR 4 execution engine with its
content-addressed cache.  Every engine-backed route runs that chain
through one guarded path (``ReproServer._guarded``).  A request that
meets an open breaker, cannot be admitted or misses its deadline
degrades to the power-proxy fast path (``"degraded": true``) when a
proxy answer exists, and is refused (503 + ``Retry-After``, or 504
for a missed deadline) only when it does not.  Shutdown drains: the listener closes, in-flight work gets
``drain_timeout_s`` to finish, and whatever remains is answered with a
well-formed ``shutting_down`` error body — never a hang.

Responses produced through the batcher are bit-identical to direct
serial :class:`~repro.exec.executor.Engine` runs (test-guarded):
batching only changes *when* a task runs, never what it computes, and
power is recomputed in this process from exact cached activity.
"""

from __future__ import annotations

import asyncio
import functools
import json
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

from ..core.simulator import measurement_from_result, weighted_comparison
from ..errors import DeadlineError, DrainingError, OverloadError, ReproError
from ..exec.cache import (fingerprint_config, fingerprint_trace,
                          sim_result_from_json)
from ..exec.executor import Engine, campaign_task, sim_task
from ..obs.context import (RequestContext, activate, clean_request_id,
                           current_request_id, deactivate,
                           new_request_id)
from ..obs.metrics import get_registry
from ..obs.requestlog import open_access_log
from ..obs.tracing import get_tracer
from ..obs.tracing import span as _obs_span
from . import protocol
from .admission import (AdmissionController, CircuitBreaker,
                        ProxyFastPath, TokenBucket)
from .batcher import MicroBatcher, mark_retrieved
from .http import (MAX_BODY_BYTES, MAX_HEADERS, FrontEnd, Response,
                   ThreadHost)
from .slo import SloTracker

__all__ = ["MAX_BODY_BYTES", "MAX_HEADERS", "ServeConfig",
           "ReproServer", "run_server", "run_worker", "start_in_thread"]

#: distinct (workload, instructions) traces a server keeps in memory
_TRACE_MEMO_SIZE = 128


def _publish_port(port_file: str, port: int) -> None:
    """Atomically write the bound port: a reader polling for the file
    must never observe a torn entry."""
    tmp = Path(f"{port_file}.tmp{os.getpid()}")
    tmp.write_text(str(port))
    os.replace(tmp, port_file)


def _task_tags() -> Tuple[str, ...]:
    """The active request's id as an engine-task tag (or nothing), so
    spans the task produces — wherever it executes — carry the id."""
    rid = current_request_id()
    return (rid,) if rid is not None else ()


@dataclass(frozen=True)
class ServeConfig:
    """Everything that shapes one server instance."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral (reported after start)
    port_file: Optional[str] = None    # write the bound port here (the
    #                                    cluster supervisor reads it to
    #                                    learn a subprocess's ephemeral
    #                                    port)
    workers: Optional[int] = None      # None = $REPRO_WORKERS or 1
    cache_dir: Optional[str] = None    # None = $REPRO_CACHE_DIR or
    #                                    memory only
    window_ms: float = 2.0
    max_batch: int = 64
    max_inflight: int = 32
    rate_per_s: Optional[float] = None   # None = no rate limit
    burst: int = 16
    default_deadline_ms: int = 30_000
    drain_timeout_s: float = 5.0
    breaker_threshold: int = 5         # consecutive failures to trip
    breaker_reset_s: float = 10.0      # open -> half-open probe delay
    max_pool_restarts: int = 2         # engine pool rebuilds per batch
    calibration_instructions: int = 384
    warm_fast_path: bool = False
    access_log: Optional[str] = None     # JSON-lines path; None = off
    slo_target_p99_ms: float = 2000.0


class ReproServer(FrontEnd):
    """One service instance; create, ``await start()``, ``await stop()``."""

    def __init__(self, config: Optional[ServeConfig] = None):
        super().__init__()
        self.config = config if config is not None else ServeConfig()
        self.engine: Optional[Engine] = None
        self.batcher: Optional[MicroBatcher] = None
        self.admission: Optional[AdmissionController] = None
        self.fastpath: Optional[ProxyFastPath] = None
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.slo = SloTracker(
            target_p99_s=self.config.slo_target_p99_ms / 1000.0)
        self._access_log = None
        self._configs: Dict[str, object] = {}
        self._config_fingerprints: Dict[str, str] = {}
        # (workload, instructions) -> (trace, fingerprint), LRU order
        self._traces: OrderedDict = OrderedDict()
        self._trace_lock = threading.Lock()
        self._handlers = {
            protocol.SimulateRequest.ROUTE: self._handle_simulate,
            protocol.CompareRequest.ROUTE: self._handle_compare,
            protocol.EstimateRequest.ROUTE: self._handle_estimate,
            protocol.InjectRequest.ROUTE: self._handle_inject,
        }

    # ---- lifecycle ----------------------------------------------------

    async def start(self) -> None:
        from ..core import power9_config, power10_config
        cfg = self.config
        self._configs = {"power9": power9_config(),
                         "power10": power10_config()}
        # taken once here, not once per task
        self._config_fingerprints = {
            g: fingerprint_config(c) for g, c in self._configs.items()}
        self.engine = Engine(workers=cfg.workers, cache=cfg.cache_dir,
                             max_restarts=cfg.max_pool_restarts)
        self.batcher = MicroBatcher(self.engine,
                                    window_s=cfg.window_ms / 1000.0,
                                    max_batch=cfg.max_batch)
        bucket = (TokenBucket(cfg.rate_per_s, cfg.burst)
                  if cfg.rate_per_s is not None else None)
        self.admission = AdmissionController(
            max_inflight=cfg.max_inflight, bucket=bucket)
        # one breaker per engine-backed route (/v1/estimate never
        # touches the engine, so it needs none)
        self.breakers = {
            route: CircuitBreaker(
                route, failure_threshold=cfg.breaker_threshold,
                reset_s=cfg.breaker_reset_s)
            for route in (protocol.SimulateRequest.ROUTE,
                          protocol.CompareRequest.ROUTE,
                          protocol.InjectRequest.ROUTE)}
        self.fastpath = ProxyFastPath(
            calibration_instructions=cfg.calibration_instructions)
        if cfg.warm_fast_path:
            await asyncio.to_thread(self.fastpath.warm)
        self._access_log = open_access_log(cfg.access_log)
        await self.batcher.start()
        # when the concurrency sanitizer is active, route loop-level
        # failures (never-retrieved futures, destroyed pending tasks)
        # through its classifier (lazy import: lint is optional here)
        from ..lint.sanitizer import get_sanitizer
        sanitizer = get_sanitizer()
        if sanitizer is not None:
            asyncio.get_running_loop().set_exception_handler(
                sanitizer.loop_exception_handler)
        await self._listen(cfg.host, cfg.port)
        if cfg.port_file:
            await asyncio.to_thread(_publish_port, cfg.port_file,
                                    self.port)

    async def stop(self) -> bool:
        """Graceful drain; returns True when everything finished in
        budget (False = remaining work was answered with errors)."""
        await self._close_listener()
        clean = True
        if self.batcher is not None:
            clean = await self.batcher.drain(self.config.drain_timeout_s)
        # let connection handlers flush their (possibly error) responses
        await self._settle_connections(2.0)
        if self.engine is not None:
            self.engine.close(wait=clean)
        if self._access_log is not None:
            self._access_log.close()
        return clean

    async def abort(self) -> None:
        await super().abort()
        if self.batcher is not None:
            # zero budget: settle leftover futures immediately so no
            # waiter (there should be none — their conns are dead)
            # hangs on an abandoned batch
            await self.batcher.drain(0.0)
        if self.engine is not None:
            self.engine.close(wait=False)
        if self._access_log is not None:
            self._access_log.close()

    # ---- shared helpers ----------------------------------------------

    def _build_trace(self, workload: str,
                     instructions: int) -> Tuple[object, str]:
        """Resolve-and-memoize a workload trace with its fingerprint.

        The memo is an LRU bounded at ``_TRACE_MEMO_SIZE`` entries.  The
        fingerprint is taken once, when the trace is built, so a warm
        hit never walks the trace again; callers run this through
        ``asyncio.to_thread``, so no trace is hashed on the event loop.
        """
        from ..workloads.resolve import resolve_workload
        key = (workload, instructions)
        with self._trace_lock:
            entry = self._traces.get(key)
            if entry is not None:
                self._traces.move_to_end(key)
                return entry
            if len(self._traces) >= _TRACE_MEMO_SIZE:
                self._traces.popitem(last=False)
            trace = resolve_workload(workload, instructions)
            entry = self._traces[key] = (trace, fingerprint_trace(trace))
        return entry

    def _deadline_s(self, deadline_ms: Optional[int]) -> float:
        return (deadline_ms if deadline_ms is not None
                else self.config.default_deadline_ms) / 1000.0

    async def _proxy_answer(self, generation: str, workload: str,
                            instructions: int,
                            reason: str = "") -> Dict[str, object]:
        """The proxy body; a shed ``reason`` marks it degraded."""
        est = await asyncio.to_thread(
            self.fastpath.estimate, generation, workload, instructions)
        body = protocol.ok_body(est, degraded=bool(reason),
                                source="proxy")
        if reason:
            body["shed_reason"] = reason
        return body

    @staticmethod
    def _overloaded(why: str, retry_after_s: float) -> Response:
        """The 503 + ``Retry-After`` of a request with no proxy answer."""
        exc = OverloadError(f"{why}; retry after {retry_after_s:.1f}s")
        retry = str(max(1, int(round(retry_after_s))))
        return 503, protocol.error_body(exc), {"Retry-After": retry}

    def _measure(self, generation: str, payload: Dict) -> Dict[str, object]:
        """Decode an engine sim payload into response fields; power is
        recomputed here from exact activity, like every engine caller."""
        result = sim_result_from_json(payload)
        m = measurement_from_result(self._configs[generation], result)
        return {"config": generation,
                "workload": result.metadata.get("trace", ""),
                "instructions": result.instructions,
                "cycles": result.cycles,
                "ipc": m.ipc,
                "power_w": m.power_w,
                "flops_per_cycle": m.flops_per_cycle}

    async def _guarded(self, route: str, deadline_ms: Optional[int],
                       build: Callable[[], Awaitable[List]],
                       answer: Callable[[List], Dict[str, object]],
                       degrade: Optional[Callable[[str], Awaitable[Dict]]],
                       ) -> Response:
        """Run one engine-backed request under its route's breaker,
        admission control and deadline.

        ``build()`` makes the request's engine tasks once it is
        admitted (a shed request never builds a trace), and
        ``answer(payloads)`` shapes their results.  ``degrade(reason)``
        is the proxy body served instead when the breaker is open,
        admission sheds or the deadline passes.  A route without one
        (inject) is refused instead: a 503 with a retry hint, or a 504
        when its deadline passes.
        """
        breaker = self.breakers[route]
        if not breaker.allow():
            if degrade is None:
                # the breaker's own retry hint instead of feeding a
                # sick engine
                return self._overloaded(
                    f"circuit breaker open for {route}",
                    breaker.retry_after_s())
            return 200, await degrade("breaker"), {}
        decision = self.admission.decide(degradable=degrade is not None)
        if not decision.admitted:
            if degrade is None:
                return self._overloaded(
                    f"server overloaded ({decision.reason})",
                    decision.retry_after_s)
            return 200, await degrade(decision.reason), {}
        try:
            deadline_s = self._deadline_s(deadline_ms)
            tasks = await build()
            gathered = asyncio.gather(*[
                self.batcher.submit(t, deadline_s=deadline_s)
                for t in tasks])
            # wait_for cancels the gather when the deadline fires or
            # this handler is cancelled, and in the latter case never
            # reads the CancelledError the gather then holds
            gathered.add_done_callback(mark_retrieved)
            try:
                payloads = await asyncio.wait_for(gathered,
                                                  timeout=deadline_s)
            except (asyncio.TimeoutError, DeadlineError):
                breaker.record_failure()
                if degrade is None:
                    raise DeadlineError(
                        "fault-injection run missed its deadline (no "
                        f"proxy fast path exists for {route})") from None
                return 200, await degrade("deadline"), {}
            except DrainingError:
                raise                   # shutdown, not engine health
            except ReproError:
                breaker.record_failure()
                raise
            body = protocol.ok_body(answer(payloads))
            breaker.record_success()
            return 200, body, {}
        finally:
            self.admission.release()

    # ---- route handlers ----------------------------------------------

    async def _handle_simulate(self, req: protocol.SimulateRequest):
        async def build():
            trace, fingerprint = await asyncio.to_thread(
                self._build_trace, req.workload, req.instructions)
            return [sim_task(
                self._configs[req.config], trace,
                warmup_fraction=req.warmup_fraction, tags=_task_tags(),
                trace_fingerprint=fingerprint,
                config_fingerprint=self._config_fingerprints[req.config])]

        def answer(payloads):
            fields = self._measure(req.config, payloads[0])
            fields["workload"] = req.workload
            return fields

        return await self._guarded(
            req.ROUTE, req.deadline_ms, build, answer,
            functools.partial(self._proxy_answer, req.config,
                              req.workload, req.instructions))

    async def _handle_compare(self, req: protocol.CompareRequest):
        weights: List[float] = []

        async def build():
            built = [await asyncio.to_thread(self._build_trace, w,
                                             req.instructions)
                     for w in req.workloads]
            weights.extend(float(getattr(trace, "weight", 1.0))
                           for trace, _ in built)
            return [sim_task(self._configs[g], trace, tags=_task_tags(),
                             trace_fingerprint=fp,
                             config_fingerprint=self._config_fingerprints[g])
                    for g in protocol.GENERATIONS for trace, fp in built]

        def answer(payloads):
            n = len(weights)
            rows = []
            for name, weight, p9, p10 in zip(
                    req.workloads, weights, payloads[:n], payloads[n:]):
                m9 = self._measure("power9", p9)
                m10 = self._measure("power10", p10)
                rows.append((name, weight, m9["ipc"], m9["power_w"],
                             m10["ipc"], m10["power_w"]))
            return weighted_comparison(rows)

        return await self._guarded(
            req.ROUTE, req.deadline_ms, build, answer,
            functools.partial(self._degraded_compare, req))

    async def _degraded_compare(self, req: protocol.CompareRequest,
                                reason: str) -> Dict[str, object]:
        rows = []
        for name in req.workloads:
            e9 = await asyncio.to_thread(
                self.fastpath.estimate, "power9", name,
                req.instructions)
            e10 = await asyncio.to_thread(
                self.fastpath.estimate, "power10", name,
                req.instructions)
            rows.append((name, 1.0, e9["ipc"], e9["power_w"],
                         e10["ipc"], e10["power_w"]))
        body = protocol.ok_body(weighted_comparison(rows), degraded=True,
                                source="proxy")
        body["shed_reason"] = reason
        return body

    async def _handle_estimate(self, req: protocol.EstimateRequest):
        # the explicit fast path: never batched, never sheds further
        body = await self._proxy_answer(req.config, req.workload,
                                        req.instructions)
        return 200, body, {}

    async def _handle_inject(self, req: protocol.InjectRequest):
        from ..resilience.campaign import CampaignConfig

        async def build():
            cconfig = CampaignConfig(
                seed=req.seed, runs=1, workload=req.workload,
                instructions=req.instructions,
                faults_per_run=req.faults, generation=req.config)
            return [campaign_task(cconfig, 0, tags=_task_tags())]

        return await self._guarded(req.ROUTE, req.deadline_ms, build,
                                   lambda payloads: {"run": payloads[0]},
                                   None)

    # ---- HTTP ---------------------------------------------------------

    async def _post(self, path: str, headers: Dict[str, str],
                    body: bytes) -> Response:
        cls = protocol.REQUEST_TYPES[path]
        data = protocol.decode_json(body)
        deadline_hdr = headers.get(protocol.DEADLINE_HEADER)
        if deadline_hdr is not None:
            data = protocol.apply_deadline_header(cls, data, deadline_hdr)
        return await self._handlers[path](cls.from_json(data))

    async def _respond(self, method: str, path: str,
                       headers: Dict[str, str],
                       body: bytes) -> Optional[Response]:
        if path in protocol.REQUEST_TYPES \
                and os.environ.get("REPRO_CHAOS_DIR"):
            # resilience.chaos.ENV_CHAOS_DIR; gating on API routes keeps
            # health/metrics scrapes from consuming a conn_drop token
            from ..resilience.chaos import chaos_point
            if chaos_point("conn") is not None:
                return None             # abrupt drop: no response
        return await self._dispatch(method, path, headers, body)

    async def _dispatch(self, method: str, path: str,
                        req_headers: Dict[str, str],
                        body: bytes) -> Response:
        rid = clean_request_id(req_headers.get("x-request-id")) \
            or new_request_id()
        ctx = RequestContext(rid, route=path, method=method)
        token = activate(ctx)
        try:
            with _obs_span("serve.request", "serve", route=path,
                           method=method) as sp:
                status, doc, out_headers = await self._route(
                    method, path, req_headers, body)
                sp.set(status=status)
        finally:
            deactivate(token)
        end_ns = time.perf_counter_ns()
        self._observe_request(ctx, path, status, doc, end_ns)
        # correlation lives in the header, never the body: single-flight
        # joiners of one batch entry must still see byte-identical
        # bodies, and v1 response payloads stay bit-identical
        out_headers.setdefault("X-Request-Id", rid)
        return status, doc, out_headers

    def _observe_request(self, ctx: RequestContext, path: str,
                         status: int, doc, end_ns: int) -> None:
        """Post-response bookkeeping: metrics, SLO window, per-request
        trace segments, access-log line."""
        registry = get_registry()
        total_s = max(0, end_ns - ctx.started_ns) / 1e9
        degraded = bool(isinstance(doc, dict) and doc.get("degraded"))
        registry.counter(
            "repro_serve_requests_total",
            "requests served, by route and status").inc(
                route=path, status=status)
        registry.histogram(
            "repro_serve_request_seconds",
            "request handling latency").observe(total_s, route=path)
        segs = ctx.segments_ns(end_ns)
        stage_hist = registry.histogram(
            "repro_serve_request_stage_seconds",
            "per-request latency breakdown, by stage")
        for stage in ("queue", "batch", "exec", "finalize"):
            stage_hist.observe(segs[stage] / 1e9, route=path,
                               stage=stage)
        if path in protocol.REQUEST_TYPES:
            self.slo.observe(total_s, error=status >= 500,
                             degraded=degraded)
        tracer = get_tracer()
        if tracer.enabled:
            for name, seg_start, dur in ctx.segment_spans(end_ns):
                tracer.record_complete(
                    f"serve.{name}", "serve", start_ns=seg_start,
                    dur_ns=dur,
                    args={"request_id": ctx.request_id},
                    track=f"req:{ctx.request_id}", depth=1)
        if self._access_log is not None:
            if status >= 400:
                outcome = "error"
            elif degraded:
                outcome = "degraded"
            else:
                outcome = "ok"
            source = (doc.get("source")
                      if isinstance(doc, dict) else None)
            self._access_log.write({
                "id": ctx.request_id,
                "route": path,
                "method": ctx.method,
                "status": status,
                "ok": status < 400,
                "outcome": outcome,
                "degraded": degraded,
                "source": source,
                "cache_hit": ctx.cache_hit,
                "queue_ms": round(segs["queue"] / 1e6, 3),
                "batch_ms": round(segs["batch"] / 1e6, 3),
                "exec_ms": round(segs["exec"] / 1e6, 3),
                "finalize_ms": round(segs["finalize"] / 1e6, 3),
                "total_ms": round(total_s * 1e3, 3),
            })

    def _healthz_doc(self) -> Dict[str, object]:
        from .. import __version__
        return {"status": "draining" if self._draining else "ok",
                "version": __version__,
                "workers": self.engine.workers,
                "inflight": self.batcher.inflight,
                "admitted": self.admission.inflight,
                "breakers": {route: b.state
                             for route, b in self.breakers.items()},
                "cache": self.engine.cache.stats(),
                "slo": self.slo.snapshot()}


# ---- entry points --------------------------------------------------------

async def _serve_main(config: ServeConfig) -> bool:
    server = ReproServer(config)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):
            pass
    print(f"repro serve listening on http://{config.host}:{server.port} "
          f"(workers={server.engine.workers}, "
          f"cache_dir={server.engine.cache.root or 'none (memory only)'})",
          flush=True)
    await stop.wait()
    print("draining ...", flush=True)
    clean = await server.stop()
    label = ("clean" if clean else
             "forced (in-flight work answered with shutting_down errors)")
    print(f"shutdown {label}", flush=True)
    return clean


def run_server(config: ServeConfig) -> int:
    """Blocking entry point behind ``repro serve``: 0 after a clean
    drain, 1 after a forced one (or an interrupt that skipped it)."""
    try:
        return 0 if asyncio.run(_serve_main(config)) else 1
    except KeyboardInterrupt:
        return 1


def run_worker(config_json: str) -> int:
    """Entry point of a cluster process worker: :func:`run_server` on
    the ``ServeConfig`` serialized as one JSON object."""
    return run_server(ServeConfig(**json.loads(config_json)))


def start_in_thread(config: Optional[ServeConfig] = None) -> ThreadHost:
    """Start a server on a background thread; returns once it listens."""
    config = config if config is not None else ServeConfig()
    host = ThreadHost("repro-serve")
    host.start(lambda: ReproServer(config))
    return host
