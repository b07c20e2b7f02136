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
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import (Cluster, ClusterBenchConfig, ClusterConfig,
                           ProcessWorker, RouterConfig, ShardMap,
                           ThreadWorker, run_cluster_bench, shard_key)
from repro.errors import ClusterError, ServeError
from repro.obs.metrics import get_registry
from repro.serve import (LoadgenConfig, ServeClient, ServeConfig,
                         run_phase, start_in_thread)
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
    kw.setdefault("serve", ServeConfig())
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
        worker = ThreadWorker(0, ServeConfig(port=0))
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
        worker = ThreadWorker(0, ServeConfig(port=0))
        worker.start()
        try:
            with pytest.raises(ClusterError, match="already running"):
                worker.start()
        finally:
            worker.stop()


class _FakeChild:
    """Stands in for ``subprocess.Popen`` of a process worker: runs the
    child's own entry code in this process (with ``run_server``
    patched to record what it was given), then publishes a port."""

    def __init__(self, argv, **_kwargs):
        assert argv[:2] == [sys.executable, "-c"]
        saved = sys.argv
        sys.argv = ["-c", *argv[3:]]
        try:
            exec(compile(argv[2], "<worker>", "exec"), {})
        except SystemExit as exc:
            assert exc.code == 0
        finally:
            sys.argv = saved
        self.returncode = None
        Path(_FakeChild.decoded[-1].port_file).write_text("1")

    def poll(self):
        return self.returncode

    def send_signal(self, _signum):
        self.returncode = 0

    def wait(self, timeout=None):
        return self.returncode

    kill = send_signal


class TestProcessWorker:
    """The production topology: each worker is a child process that
    runs the cluster's ``ServeConfig`` intact."""

    def test_child_decodes_the_template_whole(self, tmp_path,
                                              monkeypatch):
        import repro.serve.server as server_mod
        template = ServeConfig(
            default_deadline_ms=1234,
            max_pool_restarts=5, drain_timeout_s=9.0, max_batch=8,
            warm_fast_path=True, slo_target_p99_ms=777.0)
        _FakeChild.decoded = []
        monkeypatch.setattr(
            server_mod, "run_server",
            lambda config: _FakeChild.decoded.append(config) or 0)
        monkeypatch.setattr("repro.cluster.workers.subprocess.Popen",
                            _FakeChild)
        cache = str(tmp_path / "cache")
        cluster = Cluster(ClusterConfig(shards=2, worker_mode="process",
                                        serve=template, cache_dir=cache))
        cluster.start()
        try:
            decoded = list(_FakeChild.decoded)
        finally:
            assert cluster.stop() is True
        assert [Path(c.port_file).name for c in decoded] \
            == ["worker-0.port", "worker-1.port"]
        assert decoded == [
            replace(template, host="127.0.0.1", port=0,
                    port_file=c.port_file, cache_dir=cache)
            for c in decoded]

    @staticmethod
    def _fake_children(monkeypatch, events, fail_index=None):
        """Fake child processes; ``events`` records each worker's spawn
        and port wait in order, and ``fail_index``'s wait fails."""
        import repro.serve.server as server_mod
        _FakeChild.decoded = []
        monkeypatch.setattr(
            server_mod, "run_server",
            lambda config: _FakeChild.decoded.append(config) or 0)
        monkeypatch.setattr("repro.cluster.workers.subprocess.Popen",
                            _FakeChild)
        real_spawn = ProcessWorker.spawn
        real_await = ProcessWorker.await_port

        def spawn(worker):
            events.append(("spawn", worker.index, worker))
            real_spawn(worker)

        def await_port(worker, timeout_s=60.0):
            events.append(("await", worker.index, worker))
            if worker.index == fail_index:
                raise ClusterError(f"worker {worker.index} failed")
            real_await(worker, timeout_s)

        monkeypatch.setattr(ProcessWorker, "spawn", spawn)
        monkeypatch.setattr(ProcessWorker, "await_port", await_port)

    def test_every_child_spawns_before_any_port_is_awaited(
            self, tmp_path, monkeypatch):
        events = []
        self._fake_children(monkeypatch, events)
        cluster = Cluster(ClusterConfig(shards=3, worker_mode="process",
                                        cache_dir=str(tmp_path / "c")))
        cluster.start()
        try:
            assert [w.port for w in cluster.workers] == [1, 1, 1]
            assert [w.generation for w in cluster.workers] == [1, 1, 1]
        finally:
            assert cluster.stop() is True
        assert [e[:2] for e in events] == [
            ("spawn", 0), ("spawn", 1), ("spawn", 2),
            ("await", 0), ("await", 1), ("await", 2)]

    def test_a_failed_start_stops_every_child(self, tmp_path,
                                              monkeypatch):
        events = []
        self._fake_children(monkeypatch, events, fail_index=1)
        cluster = Cluster(ClusterConfig(shards=3, worker_mode="process",
                                        cache_dir=str(tmp_path / "c")))
        with pytest.raises(ClusterError, match="worker 1 failed"):
            cluster.start()
        spawned = [w for kind, _, w in events if kind == "spawn"]
        assert len(spawned) == 3
        assert not any(w.alive() for w in spawned)
        assert cluster.workers == [] and cluster.router.port is None

    def test_process_cluster_runs_its_config(self, tmp_path):
        """Two child workers report the template's SLO target, answer
        byte-identically to the in-process server, and drain clean."""
        payload = {"workload": "daxpy", "instructions": 500,
                   "config": "power10"}
        single = start_in_thread(ServeConfig(
            cache_dir=str(tmp_path / "single-cache")))
        try:
            cluster = Cluster(ClusterConfig(
                shards=2, worker_mode="process",
                cache_dir=str(tmp_path / "cache"),
                serve=ServeConfig(slo_target_p99_ms=1234.0)))
            cluster.start()
            try:
                for worker in cluster.workers:
                    doc = _client(worker.port).healthz()
                    assert doc["slo"]["target_p99_s"] == 1.234
                assert _raw_post(cluster.port, "/v1/simulate", payload) \
                    == _raw_post(single.port, "/v1/simulate", payload)
            finally:
                assert cluster.stop() is True
        finally:
            single.stop()

    def test_forced_drain_is_reported(self, tmp_path):
        """A child whose drain runs out of budget exits 1, so
        ``stop()`` reports the drain as forced."""
        from repro.resilience.chaos import ServiceFault, service_chaos
        worker = ProcessWorker(0, ServeConfig(
            drain_timeout_s=0.2,
            port_file=str(tmp_path / "worker.port")))
        # the child inherits the armed fault: its first batch sleeps
        # far past the drain budget
        with service_chaos([ServiceFault("slow_batch", delay_s=3.0)],
                           tmp_path / "chaos"):
            worker.start()
        answered = threading.Thread(
            target=_raw_post, daemon=True,
            args=(worker.port, "/v1/simulate", {"instructions": 500}))
        try:
            answered.start()
            deadline = time.monotonic() + 20.0
            while _client(worker.port).healthz()["inflight"] < 1:
                assert time.monotonic() < deadline, "never in flight"
                time.sleep(0.02)
        finally:
            clean = worker.stop()
        answered.join(timeout=30.0)
        assert not answered.is_alive()
        assert clean is False


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
            port=0, cache_dir=str(tmp_path / "single-cache")))
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
        ref = run_phase(LoadgenConfig(**lg), lambda: start_in_thread(
            ServeConfig(port=0,
                        cache_dir=str(tmp_path / "single-cache")))).report
        cur = run_phase(LoadgenConfig(**lg), lambda: Cluster(
            _cluster_config(tmp_path)).start()).report
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
        ref = run_phase(LoadgenConfig(**lg), lambda: Cluster(
            _cluster_config(tmp_path, cache_dir=str(tmp_path / "c-ref"),
                            )).start()).report
        assert ref["availability"]["rate"] == 1.0
        ref_rows = {r["id"]: r for r in ref["per_request"]}

        # same schedule, one worker killed mid-burst
        with Cluster(_cluster_config(tmp_path,
                                     cache_dir=str(tmp_path / "c-kill"),
                                     )) as cluster:
            report = {}

            def _burst():
                report.update(run_phase(
                    LoadgenConfig(port=cluster.port, **lg)).report)

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
        handle = start_in_thread(ServeConfig(port=0))
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

def _fake_bench(seen):
    """A ``run_cluster_bench`` stand-in that records its config."""
    def fake_bench(config):
        seen.append(config)
        return {"schema": 2, "seed": config.load.seed,
                "shards": config.cluster.shards,
                "requests": config.load.requests,
                "offered_rate_per_s": config.load.rate_per_s,
                "throughput_per_s": 1.0,
                "latency_s": {"p50": 0.1, "p95": 0.1, "p99": 0.1},
                "availability": {"rate": 1.0}, "per_shard": {},
                "cache": None, "failovers": 0, "chaos": None,
                "sdc_total": 0, "ok": True}
    return fake_bench


class TestClusterBench:
    def test_quick_bench_schema(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        report = run_cluster_bench(ClusterBenchConfig(
            load=LoadgenConfig(seed=1, requests=12, rate_per_s=60.0),
            chaos=False))
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

    def test_forced_drain_is_reported(self, tmp_path, monkeypatch):
        """The worker_down phase reports the cluster's real drain
        status, not a constant."""
        monkeypatch.chdir(tmp_path)
        real_stop = Cluster.stop

        def forced_stop(self):
            real_stop(self)
            return False

        monkeypatch.setattr(Cluster, "stop", forced_stop)
        report = run_cluster_bench(ClusterBenchConfig(
            load=LoadgenConfig(seed=1, requests=12, rate_per_s=60.0)))
        assert report["chaos"]["faults_fired"] == 1
        assert report["chaos"]["clean_drain"] is False

    @pytest.mark.parametrize("argv, requests, rate, out", [
        # explicit values win, even the single-server defaults
        (["--requests", "50", "--rate", "25", "--out",
          "BENCH_serve.json"], 50, 25.0, "BENCH_serve.json"),
        ([], 240, 250.0, "BENCH_cluster.json"),
    ], ids=["explicit", "defaults"])
    def test_cli_resolves_shape_per_mode(self, tmp_path, monkeypatch,
                                         argv, requests, rate, out):
        import repro.cluster
        from repro.cli import main
        seen = []
        monkeypatch.setattr(repro.cluster, "run_cluster_bench",
                            _fake_bench(seen))
        monkeypatch.chdir(tmp_path)
        assert main(["loadgen", "--cluster", "--no-kill-shard",
                     *argv]) == 0
        assert (seen[0].load.requests, seen[0].load.rate_per_s) \
            == (requests, rate)
        assert [p.name for p in tmp_path.iterdir()] == [out]

    def test_config_validation(self):
        # the schedule's own checks live in LoadgenConfig
        with pytest.raises(ServeError, match="requests"):
            ClusterBenchConfig(load=LoadgenConfig(requests=0))
        with pytest.raises(ServeError, match="positive"):
            ClusterBenchConfig(load=LoadgenConfig(rate_per_s=0.0))
        with pytest.raises(ClusterError, match="shards >= 2"):
            ClusterBenchConfig(cluster=ClusterConfig(shards=1),
                               chaos=True)
        with pytest.raises(ClusterError, match="cold cache"):
            ClusterBenchConfig(cluster=ClusterConfig(cache_dir="/tmp/c"))
        # single shard is fine without the chaos phase
        assert ClusterBenchConfig(cluster=ClusterConfig(shards=1),
                                  chaos=False).cluster.shards == 1


class TestCliServeFlags:
    """Every serve flag reaches every server the command starts, or
    the command refuses it with a usage error (exit 2)."""

    _SERVE_FLAGS = ["--workers", "3", "--max-inflight", "7",
                    "--rate-limit", "50", "--drain-timeout", "9", "--warm",
                    "--slo-p99-ms", "900"]
    _TEMPLATE = ServeConfig(workers=3, max_inflight=7,
                            rate_per_s=50.0, drain_timeout_s=9.0,
                            warm_fast_path=True, slo_target_p99_ms=900.0)

    def test_loadgen_cluster_workers_get_every_serve_flag(
            self, tmp_path, monkeypatch):
        import repro.cluster
        from repro.cli import main
        seen = []
        monkeypatch.setattr(repro.cluster, "run_cluster_bench",
                            _fake_bench(seen))
        monkeypatch.chdir(tmp_path)
        assert main(["loadgen", "--cluster", "--no-kill-shard",
                     "--shards", "3", *self._SERVE_FLAGS]) == 0
        assert seen[0].cluster == ClusterConfig(shards=3,
                                                serve=self._TEMPLATE)
        assert seen[0].load.slo_p99_ms == 900.0

    def test_cluster_command_splits_flags_by_owner(self, monkeypatch):
        import repro.cluster
        from repro.cli import main
        seen = []

        class NoStart:
            def __init__(self, config):
                seen.append(config)

            def start(self):
                raise ClusterError("not started in this test")

        monkeypatch.setattr(repro.cluster, "Cluster", NoStart)
        assert main(["cluster", "--shards", "3", "--host", "0.0.0.0",
                     "--port", "0", "--cache-dir", "tier",
                     *self._SERVE_FLAGS]) == 2
        assert seen == [ClusterConfig(
            shards=3, worker_mode="process", cache_dir="tier",
            serve=self._TEMPLATE,
            router=RouterConfig(host="0.0.0.0", port=0),
            restart_dead=True)]

    @pytest.mark.parametrize("argv", [
        ["cluster", "--sanitize"],
        ["cluster", "--access-log", "access.jsonl"],
        ["loadgen", "--cluster", "--sanitize"],
        ["loadgen", "--cluster", "--access-log", "access.jsonl"],
        ["loadgen", "--cluster", "--cache-dir", "tier"],
        # no server started at all: nothing would take the flag
        ["loadgen", "--port", "1", "--workers", "2"],
        # the started servers bind ephemeral ports
        ["loadgen", "--cluster", "--port", "8419"],
        ["loadgen", "--self-serve", "--port", "9000"],
    ], ids=["cluster-sanitize", "cluster-access-log",
            "loadgen-sanitize", "loadgen-access-log",
            "loadgen-cache-dir", "loadgen-external-workers",
            "loadgen-cluster-port", "loadgen-self-serve-port"])
    def test_flags_a_cluster_cannot_honor_are_refused(
            self, tmp_path, monkeypatch, argv):
        import repro.cluster
        from repro.cli import main

        def must_not_start(*_args, **_kwargs):
            raise AssertionError("a refused flag started a cluster")

        monkeypatch.setattr(repro.cluster, "run_cluster_bench",
                            must_not_start)
        monkeypatch.setattr(Cluster, "start", must_not_start)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert list(tmp_path.iterdir()) == []


class TestClusterConfigValidation:
    def test_bad_shapes_rejected(self):
        with pytest.raises(ClusterError, match="shards"):
            ClusterConfig(shards=0)
        with pytest.raises(ClusterError, match="worker_mode"):
            ClusterConfig(worker_mode="coroutine")

    @pytest.mark.parametrize("field, value", [
        ("host", "0.0.0.0"), ("port", 8419), ("port_file", "w.port"),
        ("cache_dir", "tier"), ("access_log", "access.jsonl")])
    def test_per_worker_fields_rejected_in_the_template(self, field,
                                                        value):
        with pytest.raises(ClusterError, match=field):
            ClusterConfig(serve=replace(ServeConfig(), **{field: value}))

    def test_double_start_rejected(self, tmp_path):
        cluster = Cluster(_cluster_config(tmp_path))
        cluster.start()
        try:
            with pytest.raises(ClusterError, match="already started"):
                cluster.start()
        finally:
            cluster.stop()
