"""The cluster tier's contracts: sharding, failover, dedupe, identity.

The acceptance bar extends the serving layer's: response bodies
produced through the router must be **byte-identical** to the
single-process server's — sharding, failover, and the shared cache
tier may change *where* work runs, never what it answers.  On top of
that: identical concurrent requests execute exactly once cluster-wide;
killing a shard mid-burst loses nothing, duplicates nothing, and
corrupts nothing; and a rolling restart drops no requests.
"""

import http.client
import json
import threading
import time

import pytest

from repro.cluster import (Cluster, ClusterBenchConfig, ClusterConfig,
                           ShardMap, ThreadWorker, run_cluster_bench,
                           shard_key)
from repro.errors import ClusterError, ServeError
from repro.obs.metrics import get_registry
from repro.serve import (LoadgenConfig, ServeClient, ServeConfig,
                         run_loadgen, start_in_thread)
from repro.serve.client import parse_target


@pytest.fixture(autouse=True)
def _no_ambient_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_DIR", raising=False)
    monkeypatch.delenv("REPRO_CHAOS_PARENT", raising=False)


def _cluster_config(tmp_path, **kw):
    kw.setdefault("shards", 2)
    kw.setdefault("worker_mode", "thread")
    kw.setdefault("window_ms", 1.0)
    kw.setdefault("cache_dir", str(tmp_path / "cache"))
    return ClusterConfig(**kw)


def _client(port, **kw):
    kw.setdefault("retries", 0)
    return ServeClient(host="127.0.0.1", port=port, **kw)


def _wait_healthy_shards(client, n, timeout_s=5.0):
    """Poll the router until its probe loop reflects ``n`` healthy
    shards (probe cadence makes the healthz doc eventually
    consistent)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        doc = client.healthz()
        if doc["healthy_shards"] == n:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"router never reported {n} healthy shards")


def _exec_executed():
    return get_registry().counter("repro_exec_tasks_total").value(
        kind="sim", source="executed")


# ---- sharding ------------------------------------------------------------

class TestShardKey:
    def test_key_order_and_whitespace_do_not_split_requests(self):
        a = shard_key("/v1/simulate", b'{"a": 1, "b": 2}')
        b = shard_key("/v1/simulate", b'{"b":2,"a":1}')
        assert a == b

    def test_route_and_deadline_participate(self):
        body = b'{"instructions": 500}'
        assert shard_key("/v1/simulate", body) \
            != shard_key("/v1/estimate", body)
        assert shard_key("/v1/simulate", body) \
            != shard_key("/v1/simulate", body, "2500")

    def test_non_json_body_still_gets_a_stable_shard(self):
        key = shard_key("/v1/simulate", b"\xff\xfenot json")
        assert key == shard_key("/v1/simulate", b"\xff\xfenot json")
        assert key != shard_key("/v1/simulate", b"other junk")


class TestShardMap:
    def test_primary_is_deterministic_and_in_range(self):
        smap = ShardMap(3)
        keys = [shard_key("/v1/simulate",
                          json.dumps({"instructions": n}).encode())
                for n in range(200, 230)]
        for key in keys:
            assert 0 <= smap.primary(key) < 3
            assert smap.primary(key) == smap.primary(key)
        # the keyspace actually spreads over the shards
        assert len({smap.primary(k) for k in keys}) > 1

    def test_chain_is_a_rotation_starting_at_primary(self):
        smap = ShardMap(4)
        key = shard_key("/v1/simulate", b"{}")
        chain = smap.chain(key)
        assert chain[0] == smap.primary(key)
        assert sorted(chain) == [0, 1, 2, 3]

    def test_assign_walks_past_ineligible_workers(self):
        smap = ShardMap(3)
        key = shard_key("/v1/simulate", b"{}")
        first = smap.primary(key)
        eligible = [True] * 3
        eligible[first] = False
        assert smap.assign(key, eligible) == smap.chain(key)[1]

    def test_assign_with_no_eligible_worker_raises(self):
        with pytest.raises(ClusterError, match="no eligible"):
            ShardMap(2).assign(shard_key("/v1/simulate", b"{}"),
                               [False, False])

    def test_eligibility_vector_must_match_width(self):
        with pytest.raises(ClusterError, match="entries"):
            ShardMap(2).assign(shard_key("/v1/simulate", b"{}"),
                               [True])

    def test_zero_workers_rejected(self):
        with pytest.raises(ClusterError, match=">= 1"):
            ShardMap(0)


# ---- worker lifecycle ----------------------------------------------------

class TestThreadWorker:
    def test_start_stop_bumps_generation(self):
        worker = ThreadWorker(0, lambda: ServeConfig(
            port=0, window_ms=1.0))
        worker.start()
        try:
            assert worker.alive()
            assert worker.generation == 1
            first_port = worker.port
            assert first_port
        finally:
            assert worker.stop() is True
        assert not worker.alive()
        worker.start()
        try:
            assert worker.generation == 2
        finally:
            worker.stop()

    def test_double_start_rejected(self):
        worker = ThreadWorker(0, lambda: ServeConfig(
            port=0, window_ms=1.0))
        worker.start()
        try:
            with pytest.raises(ClusterError, match="already running"):
                worker.start()
        finally:
            worker.stop()


# ---- cluster topology ----------------------------------------------------

class TestClusterTopology:
    def test_healthz_aggregates_shards_and_cache(self, tmp_path):
        with Cluster(_cluster_config(tmp_path)) as cluster:
            client = _client(cluster.port)
            doc = _wait_healthy_shards(client, 2)
            assert doc["status"] == "ok"
            assert doc["role"] == "router"
            assert len(doc["shards"]) == 2
            # warm the tier, then wait for a probe to pick up stats
            for _ in range(3):
                client.simulate(workload="daxpy", instructions=500,
                                config="power10")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                cache = client.healthz()["cache"]
                if cache and cache["hits"] >= 2:
                    break
                time.sleep(0.05)
            assert cache["misses"] == 1
            assert cache["hits"] >= 2
            assert cache["hit_rate"] > 0.5

    def test_identical_bodies_land_on_one_shard(self, tmp_path):
        with Cluster(_cluster_config(tmp_path)) as cluster:
            client = _client(cluster.port)
            shards = {client.simulate(workload="xz", instructions=500,
                                      config="power10").shard
                      for _ in range(3)}
            assert len(shards) == 1
            assert shards.pop() in ("0", "1")

    def test_unknown_route_404s_and_draining_router_503s(self, tmp_path):
        with Cluster(_cluster_config(tmp_path)) as cluster:
            client = _client(cluster.port)
            resp = client.request("/v1/nope", {})
            assert resp.status == 404
            assert resp.body["error"]["code"] == "not_found"


class TestSingleFlight:
    def test_identical_concurrent_requests_execute_once(self, tmp_path):
        """The acceptance criterion: N identical concurrent requests
        through the router run exactly one backend simulation, and
        every caller receives the same answer."""
        fanout = 6
        joins = get_registry().counter(
            "repro_serve_singleflight_joins_total")
        joins_before = joins.total
        executed_before = _exec_executed()
        with Cluster(_cluster_config(tmp_path)) as cluster:
            barrier = threading.Barrier(fanout)
            results, errors = [], []

            def _fire():
                client = _client(cluster.port, timeout_s=60.0)
                barrier.wait()
                try:
                    results.append(client.simulate(
                        workload="dgemm-vsu", instructions=2000,
                        config="power9"))
                except ServeError as exc:   # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=_fire)
                       for _ in range(fanout)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert not errors
        assert len(results) == fanout
        bodies = {json.dumps(r.body, sort_keys=True) for r in results}
        assert len(bodies) == 1
        # exactly one simulation executed cluster-wide
        assert _exec_executed() - executed_before == 1
        # and at least some callers joined the in-flight computation
        # at the shard's batcher (the rest were absorbed by the cache
        # tier)
        assert joins.total - joins_before >= 1


# ---- bit-identity vs the single-process server ---------------------------

def _raw_post(port, path, payload):
    """Raw response bytes (status, body) bypassing client decoding."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60.0)
    try:
        conn.request("POST", path, body=json.dumps(payload).encode(),
                     headers={"Content-Type": "application/json",
                              "Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


class TestBitIdentity:
    def test_router_forwards_bodies_byte_identical(self, tmp_path):
        """Raw wire bytes, not a canonicalized digest: the router
        must forward worker bodies verbatim."""
        payloads = [
            ("/v1/simulate", {"workload": "daxpy",
                              "instructions": 500,
                              "config": "power10"}),
            ("/v1/estimate", {"workload": "stream-triad",
                              "instructions": 1000,
                              "config": "power9"}),
            ("/v1/simulate", {"workload": "no-such-kernel"}),  # 400
        ]
        single = start_in_thread(ServeConfig(
            port=0, window_ms=1.0,
            cache_dir=str(tmp_path / "single-cache")))
        try:
            with Cluster(_cluster_config(tmp_path)) as cluster:
                for path, payload in payloads:
                    s_status, s_body = _raw_post(single.port, path,
                                                 payload)
                    c_status, c_body = _raw_post(cluster.port, path,
                                                 payload)
                    assert c_status == s_status
                    assert c_body == s_body
        finally:
            single.stop()

    def test_loadgen_schedule_matches_single_server(self, tmp_path):
        """The same seeded schedule answered through the cluster is
        row-for-row bit-identical to the single-process run."""
        lg = dict(seed=7, requests=12, rate_per_s=30.0,
                  timeout_s=60.0)
        single = start_in_thread(ServeConfig(
            port=0, window_ms=1.0,
            cache_dir=str(tmp_path / "single-cache")))
        try:
            ref = run_loadgen(LoadgenConfig(port=single.port, **lg))
        finally:
            single.stop()
        with Cluster(_cluster_config(tmp_path)) as cluster:
            cur = run_loadgen(LoadgenConfig(port=cluster.port, **lg))
        ref_rows = {r["id"]: r for r in ref["per_request"]}
        cur_rows = {r["id"]: r for r in cur["per_request"]}
        assert set(ref_rows) == set(cur_rows)
        compared = 0
        for rid, row in cur_rows.items():
            # cluster rows carry shard attribution; single-server
            # rows must not
            assert "shard" in row
            assert "shard" not in ref_rows[rid]
            if row["outcome"] == "ok" \
                    and ref_rows[rid]["outcome"] == "ok":
                assert row["body_sha"] == ref_rows[rid]["body_sha"]
                compared += 1
        assert compared > 0


# ---- failover ------------------------------------------------------------

class TestShardKill:
    def test_kill_a_shard_mid_burst_loses_nothing(self, tmp_path):
        """The satellite acceptance test: kill a worker while a burst
        is in flight.  The router must re-route; no request may be
        lost or answered twice; surviving-shard bodies must be
        bit-identical to a fault-free run."""
        lg = dict(seed=3, requests=16, rate_per_s=40.0,
                  timeout_s=60.0)
        # fault-free reference on a fresh cluster
        with Cluster(_cluster_config(tmp_path,
                                     cache_dir=str(tmp_path / "c-ref"),
                                     )) as cluster:
            ref = run_loadgen(LoadgenConfig(port=cluster.port, **lg))
        assert ref["availability"]["rate"] == 1.0
        ref_rows = {r["id"]: r for r in ref["per_request"]}

        # same schedule, one worker killed mid-burst
        with Cluster(_cluster_config(tmp_path,
                                     cache_dir=str(tmp_path / "c-kill"),
                                     )) as cluster:
            report = {}

            def _burst():
                report.update(run_loadgen(
                    LoadgenConfig(port=cluster.port, **lg)))

            t = threading.Thread(target=_burst)
            t.start()
            time.sleep(0.25)            # let the burst get going
            cluster.kill_worker(1)
            t.join()
            doc = _wait_healthy_shards(_client(cluster.port), 1)
            assert doc["status"] == "degraded"

        rows = report["per_request"]
        # nothing lost, nothing answered twice
        assert len(rows) == lg["requests"]
        assert len({r["id"] for r in rows}) == lg["requests"]
        assert set(r["id"] for r in rows) == set(ref_rows)
        # nothing failed: the router absorbed the death
        assert report["availability"]["rate"] == 1.0
        # zero SDC: every body identical to the fault-free run
        for row in rows:
            assert row["outcome"] == "ok"
            assert row["body_sha"] == ref_rows[row["id"]]["body_sha"]

    def test_chaos_token_kills_a_worker(self, tmp_path):
        """The worker_down taxonomy class end-to-end: an armed token
        is claimed by the supervisor tick and a worker dies."""
        from repro.resilience.chaos import (ServiceFault, WORKER_DOWN,
                                            service_chaos)
        faults = [ServiceFault(kind=WORKER_DOWN, delay_s=0.0)]
        with service_chaos(faults, tmp_path / "chaos") as controller:
            with Cluster(_cluster_config(tmp_path)) as cluster:
                client = _client(cluster.port)
                _wait_healthy_shards(client, 2)
                doc = _wait_healthy_shards(client, 1, timeout_s=10.0)
                assert doc["status"] == "degraded"
                # the survivor still answers
                resp = client.simulate(workload="daxpy",
                                       instructions=500,
                                       config="power10")
                assert resp.ok
            assert len(controller.fired()) == 1
            assert controller.fired()[0].kind == WORKER_DOWN


class TestRollingRestart:
    def test_rolling_restart_drops_nothing(self, tmp_path):
        with Cluster(_cluster_config(tmp_path)) as cluster:
            client = _client(cluster.port, retries=2, jitter_seed=0)
            stop = threading.Event()
            outcomes, failures = [], []

            def _traffic():
                while not stop.is_set():
                    try:
                        resp = client.simulate(
                            workload="daxpy", instructions=500,
                            config="power10")
                        outcomes.append(resp.ok)
                    except ServeError as exc:
                        failures.append(str(exc))

            t = threading.Thread(target=_traffic)
            t.start()
            try:
                cluster.rolling_restart(settle_timeout_s=60.0)
            finally:
                stop.set()
                t.join()
            # every worker was bounced exactly once
            assert [w.generation for w in cluster.workers] == [2, 2]
            assert not failures
            assert outcomes and all(outcomes)
            doc = _wait_healthy_shards(_client(cluster.port), 2)
            assert doc["status"] == "ok"


# ---- client multi-target failover ---------------------------------------

class TestClientTargets:
    def test_parse_target_shapes(self):
        assert parse_target("127.0.0.1:8419") == ("127.0.0.1", 8419)
        assert parse_target("http://h:1/") == ("h", 1)
        with pytest.raises(ServeError, match="host:port"):
            parse_target("no-port")
        with pytest.raises(ServeError, match="non-numeric"):
            parse_target("h:eight")

    def test_dead_target_fails_over_to_live_one(self, tmp_path):
        handle = start_in_thread(ServeConfig(port=0, window_ms=1.0))
        try:
            # a port nothing listens on, then the live server
            dead = f"127.0.0.1:1"
            client = ServeClient(
                targets=[dead, f"127.0.0.1:{handle.port}"],
                retries=1, jitter_seed=0, backoff_base_s=0.01)
            resp = client.simulate(workload="daxpy",
                                   instructions=500,
                                   config="power10")
            assert resp.ok
            assert resp.attempts == 2
        finally:
            handle.stop()

    def test_single_target_default_unchanged(self):
        client = ServeClient(host="127.0.0.1", port=1234)
        assert client.target == ("127.0.0.1", 1234)
        client._rotate_target()          # no-op with one target
        assert client.target == ("127.0.0.1", 1234)


# ---- the benchmark -------------------------------------------------------

class TestClusterBench:
    def test_quick_bench_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = run_cluster_bench(ClusterBenchConfig(
            seed=1, requests=12, rate_per_s=60.0, chaos=False))
        assert report["schema"] == 2
        assert report["shards"] == 2
        assert report["requests"] == 12
        assert report["offered_rate_per_s"] == 60.0
        assert report["availability"]["rate"] == 1.0
        assert report["per_shard"]          # at least one shard hit
        for entry in report["per_shard"].values():
            assert entry["count"] > 0
            assert entry["latency_s"]["p99"] > 0
        assert report["cache"] is not None
        assert report["failovers"] == 0
        assert report["chaos"] is None
        assert report["sdc_total"] == 0
        assert report["ok"] is True

    def test_config_validation(self):
        with pytest.raises(ClusterError, match="requests"):
            ClusterBenchConfig(requests=0)
        with pytest.raises(ClusterError, match="positive"):
            ClusterBenchConfig(rate_per_s=0.0)
        with pytest.raises(ClusterError, match="shards >= 2"):
            ClusterBenchConfig(shards=1, chaos=True)
        # single shard is fine without the chaos phase
        assert ClusterBenchConfig(shards=1, chaos=False).shards == 1


class TestClusterConfigValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ClusterError, match="shards"):
            ClusterConfig(shards=0)
        with pytest.raises(ClusterError, match="worker_mode"):
            ClusterConfig(worker_mode="coroutine")

    def test_double_start_rejected(self, tmp_path):
        cluster = Cluster(_cluster_config(tmp_path))
        cluster.start()
        try:
            with pytest.raises(ClusterError, match="already started"):
                cluster.start()
        finally:
            cluster.stop()
