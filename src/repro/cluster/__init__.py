"""Sharded multi-worker serving with a shared result-cache tier.

The single ``repro serve`` process (PR 6) maps one simulated chip;
this package is the chip-level view the paper's energy-management
story is really about — many cores behind one power envelope, §III's
telemetry loop deciding where work lands.  Here: N serve workers
behind one router, requests sharded by the same content-addressed
fingerprints the result cache uses, one shared cache tier so any
worker's computation is every worker's hit, and failover/rolling
restarts so the envelope survives any single worker.

Layout:

* :mod:`.sharding` — fingerprint → shard placement (pure functions);
* :mod:`.workers` — thread- and subprocess-hosted worker lifecycles,
  each running the cluster's one ``ServeConfig``;
* :mod:`.router` — the asyncio front door: health checks, failover,
  verbatim byte forwarding;
* :mod:`.supervisor` — :class:`Cluster`: bring-up, chaos tick,
  revival, rolling restarts;
* :mod:`.bench` — the two-phase benchmark behind
  ``repro loadgen --cluster`` (``BENCH_cluster.json``): a fault-free
  burst, then a ``worker_down`` burst whose kill the supervisor's
  chaos tick performs; both phases are the chaos campaign's
  :func:`repro.resilience.chaos.chaos_phase`.
"""

from .bench import (CLUSTER_BENCH_SCHEMA, ClusterBench,
                    ClusterBenchConfig, run_cluster_bench)
from .router import BackendState, ClusterRouter, RouterConfig
from .sharding import ShardMap, shard_key
from .supervisor import Cluster, ClusterConfig
from .workers import ProcessWorker, ThreadWorker

__all__ = [
    "BackendState", "CLUSTER_BENCH_SCHEMA", "Cluster", "ClusterBench",
    "ClusterBenchConfig", "ClusterConfig", "ClusterRouter",
    "ProcessWorker", "RouterConfig", "ShardMap",
    "ThreadWorker", "run_cluster_bench", "shard_key",
]
