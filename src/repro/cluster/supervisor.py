"""Cluster supervisor: N serve workers, one router, one cache tier.

:class:`Cluster` owns the whole topology.  ``start()`` brings up the
workers (threads in-process or ``repro serve`` child processes),
points them all at one **shared result-cache directory** — the
cross-worker tier that turns PR 5's per-process cache into cluster
infrastructure; the cache's atomic ``os.replace`` publish makes
concurrent writers safe without locks — then starts the router and a
supervisor thread.

The supervisor thread is the control loop the router must not run
itself (its event loop can never block):

* **chaos tick** — when ``$REPRO_CHAOS_DIR`` is armed, claim a
  ``worker_down`` token via the cluster hook and SIGKILL/abort a
  victim worker after the fault's scheduled delay, so the kill lands
  mid-burst and the router's failover path is exercised for real;
* **revival** — with ``restart_dead=True``, a dead worker is
  restarted and its new port republished to the router (the
  self-healing mode ``repro cluster`` runs with).

``rolling_restart()`` is the zero-downtime path: drain one worker at
a time through the router (stop routing, wait for its in-flight count
to reach zero), bounce it, republish, wait healthy, move on — at
least one worker serves at every instant, so a cluster of two or more
never drops a request during the roll.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, List, Optional, Union

from ..errors import ClusterError, ServeError
from ..obs.metrics import get_registry
from ..serve.http import ThreadHost
from ..serve.server import ServeConfig
from .router import ClusterRouter, RouterConfig
from .workers import ProcessWorker, ThreadWorker, serve_argv

Worker = Union[ThreadWorker, ProcessWorker]

_WORKER_MODES = ("thread", "process")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything that shapes one cluster instance."""

    shards: int = 2                    # worker count
    worker_mode: str = "thread"        # "thread" | "process"
    host: str = "127.0.0.1"
    port: int = 0                      # router port; 0 = ephemeral
    #: per-worker engine pool width (``ServeConfig.workers``); the
    #: cluster's parallelism is ``shards * engine_workers``
    engine_workers: Optional[int] = None
    #: the shared cache tier; None = a managed tempdir for the
    #: cluster's lifetime
    cache_dir: Optional[str] = None
    window_ms: float = 2.0
    max_inflight: int = 32
    rate_per_s: Optional[float] = None
    default_deadline_ms: int = 30_000
    drain_timeout_s: float = 5.0
    max_pool_restarts: int = 2
    warm_fast_path: bool = False
    upstream_timeout_s: float = 60.0
    health_interval_s: float = 0.25
    health_timeout_s: float = 2.0
    fail_threshold: int = 2
    tick_s: float = 0.05               # supervisor loop cadence
    restart_dead: bool = False         # revive killed workers
    worker_start_timeout_s: float = 60.0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ClusterError(
                f"shards must be >= 1, got {self.shards}")
        if self.worker_mode not in _WORKER_MODES:
            raise ClusterError(
                f"worker_mode must be one of {_WORKER_MODES}, "
                f"got {self.worker_mode!r}")


class Cluster:
    """One running cluster; ``start()`` / ``stop()`` or context-manage."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config if config is not None else ClusterConfig()
        self.workers: List[Worker] = []
        self.router = ThreadHost("repro-cluster-router")
        self.cache_dir: Optional[str] = None
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        #: serializes kill/restart/roll against the chaos tick
        self._lock = threading.Lock()

    # ---- lifecycle ----------------------------------------------------

    @property
    def port(self) -> Optional[int]:
        """The router's bound port (the cluster's front door)."""
        return self.router.port

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _serve_config(self) -> ServeConfig:
        cfg = self.config
        return ServeConfig(
            host="127.0.0.1", port=0,
            workers=cfg.engine_workers,
            cache_dir=self.cache_dir,
            window_ms=cfg.window_ms,
            max_inflight=cfg.max_inflight,
            rate_per_s=cfg.rate_per_s,
            default_deadline_ms=cfg.default_deadline_ms,
            drain_timeout_s=cfg.drain_timeout_s,
            max_pool_restarts=cfg.max_pool_restarts,
            warm_fast_path=cfg.warm_fast_path)

    def _build_worker(self, index: int,
                      serve_cfg: ServeConfig) -> Worker:
        if self.config.worker_mode == "thread":
            return ThreadWorker(index, lambda cfg=serve_cfg: cfg)
        port_file = Path(self._tmp.name) / f"worker-{index}.port"
        child_cfg = replace(serve_cfg, port_file=str(port_file))
        return ProcessWorker(
            index, lambda cfg=child_cfg, pf=port_file:
            serve_argv(cfg, pf), port_file)

    def start(self) -> "Cluster":
        if self.workers:
            raise ClusterError("cluster is already started")
        cfg = self.config
        self._tmp = tempfile.TemporaryDirectory(prefix="repro-cluster-")
        self.cache_dir = cfg.cache_dir \
            or str(Path(self._tmp.name) / "cache")
        serve_cfg = self._serve_config()
        try:
            for index in range(cfg.shards):
                worker = self._build_worker(index, serve_cfg)
                worker.start(timeout_s=cfg.worker_start_timeout_s)
                self.workers.append(worker)
            router_cfg = RouterConfig(
                host=cfg.host, port=cfg.port,
                upstream_timeout_s=cfg.upstream_timeout_s,
                health_interval_s=cfg.health_interval_s,
                health_timeout_s=cfg.health_timeout_s,
                fail_threshold=cfg.fail_threshold)
            backends = [(w.host, w.port) for w in self.workers]
            self.router.start(
                lambda: ClusterRouter(router_cfg, backends),
                timeout_s=30.0)
        except BaseException:
            self._teardown()
            raise
        self._stop.clear()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-cluster-supervisor",
            daemon=True)
        self._supervisor.start()
        return self

    def stop(self) -> bool:
        """Graceful teardown; True when every worker drained clean."""
        self._stop.set()
        if self._supervisor is not None:
            self._supervisor.join(timeout=30.0)
            self._supervisor = None
        return self._teardown()

    def _teardown(self) -> bool:
        clean = True
        try:
            if self.router.port is not None:
                self.router.stop()
        except ServeError:
            clean = False
        for worker in self.workers:
            try:
                clean = worker.stop() and clean
            except ClusterError:
                clean = False
        self.workers = []
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None
        return clean

    def __enter__(self) -> "Cluster":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ---- worker operations --------------------------------------------

    def kill_worker(self, index: int) -> None:
        """Abrupt worker death (the ``worker_down`` chaos effect)."""
        with self._lock:
            self.workers[index].kill()
            self.router.call(ClusterRouter.mark_down, index)
        get_registry().counter(
            "repro_cluster_worker_kills_total",
            "workers killed (chaos or operator)").inc()

    def restart_worker(self, index: int) -> None:
        """(Re)start a worker and republish its address."""
        with self._lock:
            worker = self.workers[index]
            if worker.alive():
                worker.stop()
            worker.start(
                timeout_s=self.config.worker_start_timeout_s)
            self.router.call(ClusterRouter.update_backend, index,
                             worker.host, worker.port)
        get_registry().counter(
            "repro_cluster_worker_restarts_total",
            "worker (re)starts after the initial bring-up").inc()

    def rolling_restart(self, settle_timeout_s: float = 60.0) -> None:
        """Bounce every worker, one at a time, dropping nothing.

        Per worker: stop routing to it, wait for its router-side
        in-flight count to hit zero, drain-stop it, start it again,
        republish the (new) port, wait until the router marks it
        healthy.  The rest of the fleet keeps serving throughout.
        """
        for index in range(len(self.workers)):
            self.router.call(ClusterRouter.set_admin_draining, index, True)
            try:
                self._await(
                    lambda i=index: self.router.call(
                        ClusterRouter.backend_snapshot)[i]["inflight"] == 0,
                    settle_timeout_s,
                    f"worker {index} in-flight requests to drain")
                with self._lock:
                    worker = self.workers[index]
                    worker.stop()
                    worker.start(
                        timeout_s=self.config.worker_start_timeout_s)
                    self.router.call(ClusterRouter.update_backend, index,
                                     worker.host, worker.port)
            finally:
                self.router.call(ClusterRouter.set_admin_draining, index,
                                 False)
            self._await(
                lambda i=index: self.router.call(
                    ClusterRouter.backend_snapshot)[i]["healthy"],
                settle_timeout_s,
                f"worker {index} to report healthy")
            get_registry().counter(
                "repro_cluster_worker_restarts_total",
                "worker (re)starts after the initial bring-up").inc()

    def _await(self, predicate: Callable[[], bool], timeout_s: float,
               what: str) -> None:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if predicate():
                return
            time.sleep(0.02)
        raise ClusterError(f"timed out waiting for {what}")

    # ---- the supervisor loop ------------------------------------------

    def _supervise(self) -> None:
        while not self._stop.wait(self.config.tick_s):
            try:
                self._chaos_tick()
                if self.config.restart_dead:
                    self._revive_dead()
            except ServeError:
                # a failed revive/kill must not end supervision; the
                # next tick (or the operator) retries
                continue

    def _chaos_tick(self) -> None:
        # literal env check mirrors the other hook sites so chaos-off
        # runs never import the chaos module
        if not os.environ.get("REPRO_CHAOS_DIR"):
            return
        from ..resilience.chaos import chaos_point
        fault = chaos_point("cluster")
        if fault is None:
            return
        if fault.delay_s > 0:          # land the kill mid-burst
            time.sleep(fault.delay_s)
        victim = self._pick_victim()
        if victim is not None:
            self.kill_worker(victim)

    def _pick_victim(self) -> Optional[int]:
        """Deterministic choice: the highest-index live worker."""
        for index in range(len(self.workers) - 1, -1, -1):
            if self.workers[index].alive():
                return index
        return None

    def _revive_dead(self) -> None:
        for index, worker in enumerate(self.workers):
            if not worker.alive():
                self.restart_worker(index)
