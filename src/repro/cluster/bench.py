"""The cluster benchmark behind ``repro loadgen --cluster``.

Two phases, one seeded schedule (so every number is reproducible),
each a :func:`repro.resilience.chaos.chaos_phase` against a fresh
cluster — the chaos campaign's phase, run through the one loadgen
runner (:func:`repro.serve.loadgen.run_phase`):

* **burst** — a fault-free loadgen burst at ≥10× the single-server
  default rate against a cluster with a cold shared cache.  The
  report keeps the usual loadgen aggregates plus what only a cluster
  can show: per-shard latency tables (from the ``X-Shard`` column),
  and the aggregate cache-tier hit-rate and failover count from the
  router's ``/healthz`` as the runner read it after the burst.
* **chaos** (optional, on by default) — the same schedule against a
  second cluster with a ``worker_down`` fault armed: the supervisor
  kills a worker mid-burst and the burst-phase rows serve as the
  bit-identity reference.  :func:`repro.resilience.chaos.classify`
  judges the phase with the chaos campaign's availability taxonomy;
  any OK row whose body digest differs from the fault-free run is an
  SDC and fails the benchmark, and a forced drain shows as
  ``clean_drain: false``.

``BENCH_cluster.json`` (schema 2) is the artifact ``repro perfwatch``
tracks for the ``cluster:availability`` row.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional

from ..errors import ChaosError, ClusterError
from ..resilience.chaos import (WORKER_DOWN, chaos_phase, classify,
                                generate_service_schedule)
from ..serve.loadgen import LoadgenConfig, latency_doc
from .supervisor import Cluster, ClusterConfig

CLUSTER_BENCH_SCHEMA = 2


@dataclass(frozen=True)
class ClusterBenchConfig:
    """One cluster benchmark run, fully determined by these fields."""

    #: the seeded schedule both phases fire (10x the loadgen default
    #: rate); the runner points it at each phase's cluster
    load: LoadgenConfig = LoadgenConfig(requests=240, rate_per_s=250.0)
    #: the cluster each phase starts; every phase gets its own cold
    #: shared cache, so ``cache_dir`` must stay unset
    cluster: ClusterConfig = ClusterConfig()
    chaos: bool = True                 # run the worker_down phase
    #: scale for the seeded kill delay (drawn in [0.5, 1.5] * this),
    #: sized so the kill lands inside the burst
    kill_delay_s: float = 0.4

    def __post_init__(self) -> None:
        if self.cluster.cache_dir is not None:
            raise ClusterError(
                "the cluster benchmark gives each phase its own cold "
                "cache; cluster.cache_dir must be None, got "
                f"{self.cluster.cache_dir!r}")
        if self.chaos and self.cluster.shards < 2:
            raise ClusterError(
                "the worker_down chaos phase needs shards >= 2 (a "
                "surviving shard must absorb the traffic), got "
                f"{self.cluster.shards}")


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

    def run(self) -> Dict[str, object]:
        cfg = self.config

        def cluster(cache_dir: Path):
            return lambda: Cluster(replace(
                cfg.cluster, cache_dir=str(cache_dir))).start()

        with tempfile.TemporaryDirectory(
                prefix="repro-cluster-bench-") as td:
            root = Path(td)
            burst = chaos_phase(cluster(root / "cache-burst"), cfg.load)
            chaos_doc: Optional[Dict[str, object]] = None
            if cfg.chaos:
                faults = generate_service_schedule(
                    cfg.load.seed, (WORKER_DOWN,), per_class=1,
                    slow_s=cfg.kill_delay_s)
                phase = chaos_phase(cluster(root / "cache-chaos"),
                                    cfg.load, faults, root / "chaos")
                classified = classify(WORKER_DOWN, phase,
                                      burst["report"])
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
            "mode": cfg.cluster.worker_mode,
            "seed": cfg.load.seed,
            "shards": cfg.cluster.shards,
            "requests": cfg.load.requests,
            "offered_rate_per_s": cfg.load.rate_per_s,
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
