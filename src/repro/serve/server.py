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

Request flow: admission control (token bucket + bounded in-flight)
→ micro-batcher (single-flight dedupe into one Engine plan) → the
PR 4 execution engine with its content-addressed cache.  A request
that cannot be admitted or misses its deadline degrades to the
power-proxy fast path (``"degraded": true``) when a proxy answer
exists, and is rejected with 503 + ``Retry-After`` only when it does
not.  Shutdown drains: the listener closes, in-flight work gets
``drain_timeout_s`` to finish, and whatever remains is answered with a
well-formed ``shutting_down`` error body — never a hang.

Responses produced through the batcher are bit-identical to direct
serial :class:`~repro.exec.executor.Engine` runs (test-guarded):
batching only changes *when* a task runs, never what it computes, and
power is recomputed in this process from exact cached activity.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import DeadlineError, DrainingError, OverloadError, ReproError
from ..exec.cache import fingerprint_trace, sim_result_from_json
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
from .batcher import MicroBatcher
from .http import (MAX_BODY_BYTES, MAX_HEADERS, FrontEnd, Response,
                   ThreadHost)
from .slo import SloTracker

__all__ = ["MAX_BODY_BYTES", "MAX_HEADERS", "ServeConfig",
           "ReproServer", "run_server", "start_in_thread"]

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
    cache_dir: Optional[str] = None    # None = $REPRO_CACHE_DIR or off
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
    slo_window_s: float = 60.0
    slo_target_p99_ms: float = 2000.0
    slo_target_error_rate: float = 0.05


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
            window_s=self.config.slo_window_s,
            target_p99_s=self.config.slo_target_p99_ms / 1000.0,
            target_error_rate=self.config.slo_target_error_rate)
        self._access_log = None
        self._configs: Dict[str, object] = {}
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
                            instructions: int, *, degraded: bool,
                            reason: str = "") -> Dict[str, object]:
        est = await asyncio.to_thread(
            self.fastpath.estimate, generation, workload, instructions)
        body = protocol.ok_body(est, degraded=degraded, source="proxy")
        if reason:
            body["shed_reason"] = reason
        return body

    @staticmethod
    def _reject(decision) -> Tuple[int, Dict, Dict[str, str]]:
        exc = OverloadError(
            f"server overloaded ({decision.reason}); retry after "
            f"{decision.retry_after_s:.1f}s")
        retry = str(max(1, int(round(decision.retry_after_s))))
        return 503, protocol.error_body(exc), {"Retry-After": retry}

    def _measure(self, generation: str, payload: Dict) -> Dict[str, object]:
        """Decode an engine sim payload into response fields; power is
        recomputed here from exact activity, like every engine caller."""
        from ..core.simulator import measurement_from_result
        result = sim_result_from_json(payload)
        m = measurement_from_result(self._configs[generation], result)
        return {"config": generation,
                "workload": result.metadata.get("trace", ""),
                "instructions": result.instructions,
                "cycles": result.cycles,
                "ipc": m.ipc,
                "power_w": m.power_w,
                "flops_per_cycle": m.flops_per_cycle}

    # ---- route handlers ----------------------------------------------

    async def _handle_simulate(self, req: protocol.SimulateRequest):
        breaker = self.breakers[protocol.SimulateRequest.ROUTE]
        if not breaker.allow():
            body = await self._proxy_answer(
                req.config, req.workload, req.instructions,
                degraded=True, reason="breaker")
            return 200, body, {}
        decision = self.admission.decide(degradable=True)
        if not decision.admitted:
            body = await self._proxy_answer(
                req.config, req.workload, req.instructions,
                degraded=True, reason=decision.reason)
            return 200, body, {}
        try:
            deadline_s = self._deadline_s(req.deadline_ms)
            trace, fingerprint = await asyncio.to_thread(
                self._build_trace, req.workload, req.instructions)
            task = sim_task(self._configs[req.config], trace,
                            warmup_fraction=req.warmup_fraction,
                            tags=_task_tags(),
                            trace_fingerprint=fingerprint)
            try:
                payload = await asyncio.wait_for(
                    self.batcher.submit(task, deadline_s=deadline_s),
                    timeout=deadline_s)
            except (asyncio.TimeoutError, DeadlineError):
                breaker.record_failure()
                body = await self._proxy_answer(
                    req.config, req.workload, req.instructions,
                    degraded=True, reason="deadline")
                return 200, body, {}
            except DrainingError:
                raise                   # shutdown, not engine health
            except ReproError:
                breaker.record_failure()
                raise
            fields = self._measure(req.config, payload)
            fields["workload"] = req.workload
            breaker.record_success()
            return 200, protocol.ok_body(fields), {}
        finally:
            self.admission.release()

    async def _handle_compare(self, req: protocol.CompareRequest):
        breaker = self.breakers[protocol.CompareRequest.ROUTE]
        if not breaker.allow():
            body = await self._degraded_compare(req, "breaker")
            return 200, body, {}
        decision = self.admission.decide(degradable=True)
        if not decision.admitted:
            body = await self._degraded_compare(req, decision.reason)
            return 200, body, {}
        try:
            deadline_s = self._deadline_s(req.deadline_ms)
            built = [await asyncio.to_thread(self._build_trace, w,
                                             req.instructions)
                     for w in req.workloads]
            traces = [trace for trace, _ in built]
            generations = ("power9", "power10")
            tasks = [sim_task(self._configs[g], t, tags=_task_tags(),
                              trace_fingerprint=fp)
                     for g in generations for t, fp in built]
            try:
                payloads = await asyncio.wait_for(
                    asyncio.gather(*[
                        self.batcher.submit(t, deadline_s=deadline_s)
                        for t in tasks]),
                    timeout=deadline_s)
            except (asyncio.TimeoutError, DeadlineError):
                breaker.record_failure()
                body = await self._degraded_compare(req, "deadline")
                return 200, body, {}
            except DrainingError:
                raise
            except ReproError:
                breaker.record_failure()
                raise
            n = len(traces)
            rows = []
            perf = power = wsum = 0.0
            for i, trace in enumerate(traces):
                m9 = self._measure("power9", payloads[i])
                m10 = self._measure("power10", payloads[n + i])
                weight = float(getattr(trace, "weight", 1.0))
                wsum += weight
                perf += weight * m10["ipc"] / m9["ipc"]
                power += weight * m10["power_w"] / m9["power_w"]
                rows.append({
                    "workload": req.workloads[i], "weight": weight,
                    "p9_ipc": m9["ipc"], "p10_ipc": m10["ipc"],
                    "p9_power_w": m9["power_w"],
                    "p10_power_w": m10["power_w"],
                    "perf_ratio": m10["ipc"] / m9["ipc"],
                    "power_ratio": m10["power_w"] / m9["power_w"]})
            result = {"workloads": rows,
                      "aggregate": {
                          "perf_ratio": perf / wsum,
                          "power_ratio": power / wsum,
                          "perf_per_watt_ratio": perf / power}}
            breaker.record_success()
            return 200, protocol.ok_body(result), {}
        finally:
            self.admission.release()

    async def _degraded_compare(self, req: protocol.CompareRequest,
                                reason: str) -> Dict[str, object]:
        rows = []
        perf = power = wsum = 0.0
        for name in req.workloads:
            e9 = await asyncio.to_thread(
                self.fastpath.estimate, "power9", name,
                req.instructions)
            e10 = await asyncio.to_thread(
                self.fastpath.estimate, "power10", name,
                req.instructions)
            wsum += 1.0
            perf += e10["ipc"] / e9["ipc"]
            power += e10["power_w"] / e9["power_w"]
            rows.append({
                "workload": name, "weight": 1.0,
                "p9_ipc": e9["ipc"], "p10_ipc": e10["ipc"],
                "p9_power_w": e9["power_w"],
                "p10_power_w": e10["power_w"],
                "perf_ratio": e10["ipc"] / e9["ipc"],
                "power_ratio": e10["power_w"] / e9["power_w"]})
        result = {"workloads": rows,
                  "aggregate": {
                      "perf_ratio": perf / wsum,
                      "power_ratio": power / wsum,
                      "perf_per_watt_ratio": perf / power}}
        body = protocol.ok_body(result, degraded=True, source="proxy")
        body["shed_reason"] = reason
        return body

    async def _handle_estimate(self, req: protocol.EstimateRequest):
        # the explicit fast path: never batched, never sheds further
        body = await self._proxy_answer(req.config, req.workload,
                                        req.instructions, degraded=False)
        return 200, body, {}

    async def _handle_inject(self, req: protocol.InjectRequest):
        from ..resilience.campaign import CampaignConfig
        breaker = self.breakers[protocol.InjectRequest.ROUTE]
        if not breaker.allow():
            # no proxy equivalent exists: reject with the breaker's
            # own retry hint instead of feeding a sick engine
            exc = OverloadError(
                f"circuit breaker open for {req.ROUTE}; retry after "
                f"{breaker.retry_after_s():.1f}s")
            retry = str(max(1, int(round(breaker.retry_after_s()))))
            return 503, protocol.error_body(exc), {"Retry-After": retry}
        decision = self.admission.decide(degradable=False)
        if not decision.admitted:
            return self._reject(decision)
        try:
            deadline_s = self._deadline_s(req.deadline_ms)
            cconfig = CampaignConfig(
                seed=req.seed, runs=1, workload=req.workload,
                instructions=req.instructions,
                faults_per_run=req.faults, generation=req.config)
            task = campaign_task(cconfig, 0, tags=_task_tags())
            try:
                payload = await asyncio.wait_for(
                    self.batcher.submit(task, deadline_s=deadline_s),
                    timeout=deadline_s)
            except (asyncio.TimeoutError, DeadlineError):
                breaker.record_failure()
                raise DeadlineError(
                    "fault-injection run missed its deadline (no "
                    "proxy fast path exists for /v1/inject)") from None
            except DrainingError:
                raise
            except ReproError:
                breaker.record_failure()
                raise
            breaker.record_success()
            return 200, protocol.ok_body({"run": payload}), {}
        finally:
            self.admission.release()

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
        cache = self.engine.cache if self.engine is not None else None
        return {"status": "draining" if self._draining else "ok",
                "version": __version__,
                "workers": self.engine.workers,
                "inflight": self.batcher.inflight,
                "admitted": self.admission.inflight,
                "breakers": {route: b.state
                             for route, b in self.breakers.items()},
                "cache": (cache.stats() if cache is not None else None),
                "slo": self.slo.snapshot()}


# ---- entry points --------------------------------------------------------

async def _serve_main(config: ServeConfig) -> None:
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
          f"cache={'on' if server.engine.cache is not None else 'off'})",
          flush=True)
    await stop.wait()
    print("draining ...", flush=True)
    clean = await server.stop()
    label = ("clean" if clean else
             "forced (in-flight work answered with shutting_down errors)")
    print(f"shutdown {label}", flush=True)


def run_server(config: ServeConfig) -> int:
    """Blocking entry point behind ``repro serve``."""
    try:
        asyncio.run(_serve_main(config))
    except KeyboardInterrupt:
        pass
    return 0


def start_in_thread(config: Optional[ServeConfig] = None) -> ThreadHost:
    """Start a server on a background thread; returns once it listens."""
    config = config if config is not None else ServeConfig()
    host = ThreadHost("repro-serve")
    host.start(lambda: ReproServer(config))
    return host
