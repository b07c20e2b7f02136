"""The cluster benchmark behind ``repro loadgen --cluster``.

Two phases, one seeded schedule (so every number is reproducible):

* **burst** — a fault-free loadgen burst at ≥10× the single-server
  default rate against a fresh cluster with a cold shared cache.  The
  report keeps the usual loadgen aggregates plus what only a cluster
  can show: per-shard latency tables (from the ``X-Shard`` column),
  the aggregate cache-tier hit-rate and the failover count scraped
  from the router's ``/healthz``.
* **chaos** (optional, on by default) — the same schedule against a
  second cluster with a ``worker_down`` fault armed: the supervisor
  kills a worker mid-burst and the burst-phase rows serve as the
  bit-identity reference.  The phase is classified with the chaos
  campaign's availability taxonomy; any OK row whose body digest
  differs from the fault-free run is an SDC and fails the benchmark.

``BENCH_cluster.json`` (schema 2) is the artifact ``repro perfwatch``
tracks for the ``cluster:availability`` row.
"""

from __future__ import annotations

import contextlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

from ..errors import ChaosError, ClusterError, ServeError
from ..resilience.chaos import (WORKER_DOWN, ChaosCampaign,
                                generate_service_schedule,
                                service_chaos)
from ..serve.client import ServeClient
from ..serve.loadgen import LoadgenConfig, latency_doc, run_loadgen
from .supervisor import Cluster, ClusterConfig

CLUSTER_BENCH_SCHEMA = 2


@dataclass(frozen=True)
class ClusterBenchConfig:
    """One cluster benchmark run, fully determined by these fields."""

    seed: int = 0
    requests: int = 240
    rate_per_s: float = 250.0          # 10x the loadgen default
    shards: int = 2
    worker_mode: str = "thread"
    engine_workers: Optional[int] = None
    window_ms: float = 2.0
    deadline_ms: Optional[int] = None
    timeout_s: float = 60.0
    slo_p99_ms: float = 2000.0
    chaos: bool = True                 # run the worker_down phase
    #: scale for the seeded kill delay (drawn in [0.5, 1.5] * this),
    #: sized so the kill lands inside the burst
    kill_delay_s: float = 0.4

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ClusterError(
                f"requests must be >= 1, got {self.requests}")
        if self.rate_per_s <= 0:
            raise ClusterError(
                f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.chaos and self.shards < 2:
            raise ClusterError(
                "the worker_down chaos phase needs shards >= 2 (a "
                "surviving shard must absorb the traffic), got "
                f"{self.shards}")


def _per_shard(report: Dict[str, object]) -> Dict[str, object]:
    """Per-shard request counts and latency tables from the loadgen
    rows' ``X-Shard`` column."""
    shards: Dict[str, Dict[str, object]] = {}
    for row in report["per_request"]:
        shard = row.get("shard")
        if shard is None:
            continue
        entry = shards.setdefault(
            str(shard), {"count": 0, "latencies": []})
        entry["count"] += 1
        if "latency_s" in row:
            entry["latencies"].append(float(row["latency_s"]))
    return {shard: {"count": entry["count"],
                    "latency_s": latency_doc(entry["latencies"])}
            for shard, entry in sorted(shards.items())}


class ClusterBench:
    """Runs the two phases and assembles ``BENCH_cluster.json``."""

    def __init__(self, config: Optional[ClusterBenchConfig] = None):
        self.config = config if config is not None \
            else ClusterBenchConfig()

    def _cluster_config(self, cache_dir: str) -> ClusterConfig:
        cfg = self.config
        return ClusterConfig(
            shards=cfg.shards, worker_mode=cfg.worker_mode,
            engine_workers=cfg.engine_workers,
            cache_dir=cache_dir, window_ms=cfg.window_ms)

    def _phase(self, cache_dir: str, faults, chaos_root,
               ) -> Dict[str, object]:
        """One cluster + one seeded burst (+ optional armed chaos)."""
        cfg = self.config
        with contextlib.ExitStack() as stack:
            controller = None
            if faults:
                controller = stack.enter_context(
                    service_chaos(faults, chaos_root))
            cluster = stack.enter_context(
                Cluster(self._cluster_config(cache_dir)))
            report = run_loadgen(LoadgenConfig(
                seed=cfg.seed, requests=cfg.requests,
                rate_per_s=cfg.rate_per_s, host="127.0.0.1",
                port=cluster.port, timeout_s=cfg.timeout_s,
                deadline_ms=cfg.deadline_ms,
                slo_p99_ms=cfg.slo_p99_ms))
            try:
                healthz = ServeClient(
                    port=cluster.port,
                    timeout_s=cfg.timeout_s).healthz()
            except ServeError:
                healthz = {}
            chaos = (controller.summary() if controller is not None
                     else {"armed_left": 0, "fired": []})
        return {"report": report, "healthz": healthz, "chaos": chaos,
                "clean_drain": True, "faults_armed": len(faults)}

    def run(self) -> Dict[str, object]:
        cfg = self.config
        with tempfile.TemporaryDirectory(
                prefix="repro-cluster-bench-") as td:
            root = Path(td)
            burst = self._phase(str(root / "cache-burst"), [], None)
            ref_rows = {str(r["id"]): r
                        for r in burst["report"]["per_request"]}
            chaos_doc: Optional[Dict[str, object]] = None
            if cfg.chaos:
                faults = generate_service_schedule(
                    cfg.seed, (WORKER_DOWN,), per_class=1,
                    slow_s=cfg.kill_delay_s)
                phase = self._phase(str(root / "cache-chaos"), faults,
                                    root / "chaos")
                classified = ChaosCampaign._classify(
                    WORKER_DOWN, phase, ref_rows)
                chaos_doc = {
                    **classified,
                    "per_shard": _per_shard(phase["report"]),
                    "availability_rate":
                        phase["report"]["availability"]["rate"],
                    "healthy_shards_after":
                        phase["healthz"].get("healthy_shards"),
                }
                if not classified["faults_fired"]:
                    raise ChaosError(
                        "the worker_down fault never fired — the "
                        "chaos phase exercised nothing")
        healthz = burst["healthz"]
        report: Dict[str, object] = {
            "schema": CLUSTER_BENCH_SCHEMA,
            "mode": cfg.worker_mode,
            "seed": cfg.seed,
            "shards": cfg.shards,
            "requests": cfg.requests,
            "offered_rate_per_s": cfg.rate_per_s,
            "throughput_per_s": burst["report"]["throughput_per_s"],
            "latency_s": burst["report"]["latency_s"],
            "availability": burst["report"]["availability"],
            "slo": burst["report"]["slo"],
            "per_shard": _per_shard(burst["report"]),
            "cache": healthz.get("cache"),
            "failovers": healthz.get("failovers"),
            "chaos": chaos_doc,
            "per_request": burst["report"]["per_request"],
        }
        report["sdc_total"] = (len(chaos_doc["sdc"])
                               if chaos_doc is not None else 0)
        report["ok"] = (report["sdc_total"] == 0
                        and report["availability"]["rate"] > 0.0)
        return report


def run_cluster_bench(config: Optional[ClusterBenchConfig] = None,
                      ) -> Dict[str, object]:
    """Convenience wrapper behind ``repro loadgen --cluster``."""
    return ClusterBench(config).run()
