"""The serving layer's contracts: protocol, batching, admission, drain.

The acceptance bar mirrors the execution engine's: answers produced
through the batcher must be *bit-identical* to direct serial runs —
batching and single-flight may change when work runs, never what it
computes.  The service-specific contracts stack on top: N concurrent
identical requests cost exactly one backend simulation; overload
degrades to power-proxy answers (``"degraded": true``) before 503;
and shutdown mid-request produces well-formed ``shutting_down`` error
bodies, never hangs.
"""

import asyncio
import gc
import json
import threading
import time
from pathlib import Path

import pytest

from repro.core import power9_config, power10_config
from repro.core.pipeline import simulate
from repro.core.simulator import measurement_from_result
from repro.errors import (ConfigError, DrainingError, OverloadError,
                          ServeError)
from repro.obs.metrics import get_registry
from repro.serve import (EstimateRequest, LoadgenConfig, ReproServer,
                         ServeClient, ServeConfig, SimulateRequest,
                         TokenBucket,
                         build_schedule, error_body, error_status,
                         run_phase, start_in_thread)
from repro.serve import protocol
from repro.serve.admission import AdmissionController, CircuitBreaker
from repro.workloads import resolve_workload


@pytest.fixture(autouse=True)
def _no_ambient_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def _exec_counts():
    counter = get_registry().counter("repro_exec_tasks_total")
    return (counter.value(kind="sim", source="executed"),
            counter.value(kind="sim", source="cache"))


def _client(handle, **kw):
    kw.setdefault("retries", 0)
    return ServeClient(host="127.0.0.1", port=handle.port, **kw)


# ---- protocol ------------------------------------------------------------

class TestProtocol:
    def test_defaults_validate(self):
        req = SimulateRequest()
        assert req.config == "power10" and req.instructions == 2000

    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            SimulateRequest(workload="no-such-kernel")

    def test_unknown_config_rejected(self):
        with pytest.raises(ConfigError, match="unknown config"):
            SimulateRequest(config="power11")

    def test_instruction_ceiling(self):
        with pytest.raises(ConfigError, match="instructions"):
            SimulateRequest(instructions=50_000_000)

    def test_unknown_field_rejected(self):
        # a typo'd key must not silently fall back to a default —
        # {"generation": ...} would otherwise answer for power10
        with pytest.raises(ConfigError, match="unknown field"):
            EstimateRequest.from_json({"generation": "power9"})
        with pytest.raises(ConfigError, match="unknown field"):
            SimulateRequest.from_json({"instructions": 100,
                                       "warmup": 0.5})

    def test_from_json_type_coercion_error(self):
        with pytest.raises(ConfigError, match="instructions"):
            SimulateRequest.from_json({"instructions": "lots"})

    def test_round_trip(self):
        req = SimulateRequest(workload="daxpy", instructions=512)
        assert SimulateRequest.from_json(req.to_json()) == req

    def test_error_table_subclass_order(self):
        # DrainingError is a ServeError; it must map to shutting_down,
        # not fall through to the generic bad_request entry
        assert error_status(DrainingError("x")) == ("shutting_down", 503)
        assert error_status(OverloadError("x")) == ("overloaded", 503)
        assert error_status(ServeError("x")) == ("bad_request", 400)
        assert error_status(KeyError("x")) == ("internal", 500)

    def test_error_body_shape(self):
        body = error_body(ConfigError("bad thing"))
        assert body == {"ok": False,
                        "error": {"code": "bad_request",
                                  "type": "ConfigError",
                                  "message": "bad thing"}}


# ---- the wire reader ------------------------------------------------------

def _read(raw: bytes):
    """``read_request`` over ``raw`` followed by EOF."""
    from repro.serve.http import read_request

    async def _go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)
    return asyncio.run(_go())


class TestWireReader:
    @pytest.mark.parametrize("value", [b"1_0", b"+3", b"-1", b" ", b"",
                                       b"0x10", b"3 4", b"\xb2"])
    def test_content_length_must_be_digits(self, value):
        raw = (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: " + value
               + b"\r\n\r\n" + b"x" * 16)
        with pytest.raises(ServeError, match="bad Content-Length"):
            _read(raw)

    def test_conflicting_content_lengths_rejected(self):
        raw = (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n"
               b"Content-Length: 3\r\n\r\n{}x")
        with pytest.raises(ServeError, match="conflicting"):
            _read(raw)

    def test_repeated_equal_content_length_accepted(self):
        raw = (b"POST /v1/simulate HTTP/1.1\r\nContent-Length: 2\r\n"
               b"content-length: 2\r\n\r\n{}")
        assert _read(raw) == ("POST", "/v1/simulate",
                              {"content-length": "2"}, b"{}")

    def test_leading_zeros_and_oversize(self):
        raw = b"POST /v1/x HTTP/1.1\r\nContent-Length: 0002\r\n\r\n{}"
        assert _read(raw)[3] == b"{}"
        for value in (b"1048577", b"9" * 5000):
            with pytest.raises(ServeError, match="exceeds"):
                _read(b"POST /v1/x HTTP/1.1\r\nContent-Length: " + value
                      + b"\r\n\r\n")

    def test_transfer_encoding_rejected(self):
        raw = (b"POST /v1/simulate HTTP/1.1\r\n"
               b"Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
        with pytest.raises(ServeError, match="Transfer-Encoding"):
            _read(raw)

    @pytest.mark.parametrize("raw", [
        b"POST /v1/simulate HTTP/1.1\r\nHost: x",       # mid-line
        b"POST /v1/simulate HTTP/1.1\r\nHost: x\r\n",   # no blank line
        b"POST /v1/simulate HTTP/1.1",                  # request line
    ])
    def test_truncated_head_is_malformed(self, raw):
        with pytest.raises(ServeError, match="truncated"):
            _read(raw)

    def test_header_count_limit(self):
        head = b"GET /healthz HTTP/1.1\r\n"
        ok = head + b"X-A: 1\r\n" * 100 + b"\r\n"
        assert _read(ok)[0] == "GET"
        with pytest.raises(ServeError, match="more than 100 headers"):
            _read(head + b"X-A: 1\r\n" * 101 + b"\r\n")


# ---- admission -----------------------------------------------------------

class TestAdmission:
    def test_token_bucket_refills_on_fake_clock(self):
        now = [0.0]
        bucket = TokenBucket(2.0, 1, clock=lambda: now[0])
        assert bucket.try_take()
        assert not bucket.try_take()
        assert bucket.retry_after_s() == pytest.approx(0.5)
        now[0] += 0.5
        assert bucket.try_take()

    def test_inflight_bound_degrades_then_rejects(self):
        ctl = AdmissionController(max_inflight=1)
        assert ctl.decide(degradable=True).admitted
        shed = ctl.decide(degradable=True)
        assert shed.action == "degrade" and shed.reason == "queue"
        assert ctl.decide(degradable=False).action == "reject"
        ctl.release()
        assert ctl.decide(degradable=True).admitted

    def test_unmatched_release_raises(self):
        with pytest.raises(ServeError, match="release"):
            AdmissionController().release()


# ---- one shared live server ---------------------------------------------

@pytest.fixture(scope="class")
def server():
    # class-scoped, so it sets up before the function-scoped env
    # monkeypatch: scrub the engine env vars by hand
    import os
    saved = {k: os.environ.pop(k)
             for k in ("REPRO_WORKERS", "REPRO_CACHE_DIR")
             if k in os.environ}
    handle = start_in_thread(ServeConfig(window_ms=1.0))
    yield handle
    handle.stop()
    os.environ.update(saved)


@pytest.mark.usefixtures("server")
class TestLiveServer:
    def test_healthz_and_metrics(self, server):
        client = _client(server)
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 1
        metrics = client.metrics()
        assert "repro_serve_requests_total" in metrics

    def test_simulate_bit_identical_to_direct_run(self, server):
        """The tentpole guarantee: a served answer equals a direct
        in-process run, float-for-float (exact ==, no tolerance)."""
        config = power10_config()
        trace = resolve_workload("daxpy", 900)
        direct = simulate(config, trace)
        m = measurement_from_result(config, direct)
        resp = _client(server).simulate(workload="daxpy",
                                        instructions=900)
        assert resp.ok and not resp.degraded
        assert resp.body["source"] == "engine"
        assert resp.result["cycles"] == direct.cycles
        assert resp.result["ipc"] == m.ipc
        assert resp.result["power_w"] == m.power_w
        assert resp.result["flops_per_cycle"] == m.flops_per_cycle

    def test_concurrent_identical_requests_single_flight(self, server):
        """Six concurrent identical requests -> exactly one backend
        simulation, and six bit-identical response bodies."""
        joins = get_registry().counter(
            "repro_serve_singleflight_joins_total")
        executed0, cached0 = _exec_counts()
        joins0 = joins.total
        barrier = threading.Barrier(6)
        responses = [None] * 6

        def worker(i):
            client = _client(server, timeout_s=120.0)
            barrier.wait()
            responses[i] = client.simulate(workload="pointer-chase",
                                           instructions=20_000)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert all(r is not None and r.ok for r in responses)
        executed1, cached1 = _exec_counts()
        assert executed1 - executed0 == 1      # exactly one simulation
        assert cached1 == cached0              # and not via the cache
        assert joins.total - joins0 == 5       # everyone else joined
        bodies = {json.dumps(r.body, sort_keys=True)
                  for r in responses}
        assert len(bodies) == 1                # bit-identical answers

    def test_estimate_is_proxy_not_engine(self, server):
        executed0, _ = _exec_counts()
        resp = _client(server).estimate(workload="daxpy",
                                        instructions=5000)
        assert resp.ok and not resp.degraded
        assert resp.body["source"] == "proxy"
        assert resp.result["power_w"] > 0
        assert resp.result["cycles"] > 0
        assert resp.result["proxy_counters"]
        executed1, _ = _exec_counts()
        assert executed1 == executed0          # engine never touched

    def test_compare_route_aggregates(self, server):
        resp = _client(server).compare(["daxpy"], instructions=600)
        assert resp.ok
        agg = resp.result["aggregate"]
        row = resp.result["workloads"][0]
        assert row["perf_ratio"] == agg["perf_ratio"]
        assert agg["perf_per_watt_ratio"] == pytest.approx(
            agg["perf_ratio"] / agg["power_ratio"])
        assert row["p10_ipc"] > 0 and row["p9_power_w"] > 0

    def test_inject_route_matches_campaign_runner(self, server):
        from repro.resilience import CampaignConfig, CampaignRunner
        resp = _client(server, timeout_s=120.0).inject(
            seed=7, workload="daxpy", instructions=800, faults=2)
        assert resp.ok
        direct = CampaignRunner(CampaignConfig(
            seed=7, runs=1, workload="daxpy", instructions=800,
            faults_per_run=2, generation="power10")).run_one(0)
        assert resp.result["run"] == json.loads(
            json.dumps(direct.to_json()))

    def test_bad_payload_gets_stable_code(self, server):
        resp = _client(server).request(
            "/v1/simulate", {"workload": "no-such-kernel"})
        assert resp.status == 400
        assert resp.body["error"]["code"] == "bad_request"
        assert "no-such-kernel" in resp.body["error"]["message"]

    def test_malformed_json_gets_400(self, server):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        conn.request("POST", "/v1/simulate", body=b"{nope",
                     headers={"Content-Type": "application/json"})
        raw = conn.getresponse()
        doc = json.loads(raw.read())
        conn.close()
        assert raw.status == 400
        assert doc["error"]["code"] == "bad_request"

    def test_unknown_route_404(self, server):
        resp = _client(server).request("/v1/nope", {})
        assert resp.status == 404
        assert resp.body["error"]["code"] == "not_found"

    def test_wrong_method_400(self, server):
        resp = _client(server).request("/v1/simulate", None,
                                       method="GET")
        assert resp.status == 400

    def test_keep_alive_serves_multiple_requests(self, server):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        for _ in range(3):
            conn.request("GET", "/healthz")
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            assert resp.status == 200 and doc["status"] == "ok"
        conn.close()


# ---- the trace memo: one resolve and one fingerprint per trace -----------

@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Thread id of every ``fingerprint_trace`` call the serving path
    makes, in the server and in ``sim_task`` alike."""
    import repro.exec.executor
    import repro.serve.server
    from repro.exec import cache
    calls = []

    def counted(trace):
        calls.append(threading.get_ident())
        return cache.fingerprint_trace(trace)

    monkeypatch.setattr(repro.serve.server, "fingerprint_trace", counted)
    monkeypatch.setattr(repro.exec.executor, "fingerprint_trace", counted)
    return calls


class TestTraceMemo:
    def test_lru_keeps_the_hot_trace(self, monkeypatch):
        """128 cold keys, each followed by a touch of one hot key, then
        one more cold key: the hot trace survives every eviction."""
        from types import SimpleNamespace
        import repro.workloads.resolve
        resolved = []

        def fake_resolve(workload, instructions):
            resolved.append((workload, instructions))
            return SimpleNamespace(name=workload, instructions=())

        monkeypatch.setattr(repro.workloads.resolve, "resolve_workload",
                            fake_resolve)
        srv = ReproServer()
        hot, _ = srv._build_trace("daxpy", 1)
        for n in range(128):
            srv._build_trace("xz", 1000 + n)
            assert srv._build_trace("daxpy", 1)[0] is hot
        srv._build_trace("xz", 5000)
        assert srv._build_trace("daxpy", 1)[0] is hot
        assert resolved.count(("daxpy", 1)) == 1
        assert len(srv._traces) == 128

    def test_warm_hits_fingerprint_each_trace_once(self, fingerprint_calls):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            client = _client(handle, timeout_s=120.0)
            bodies = {json.dumps(client.simulate(
                workload="daxpy", instructions=700).body, sort_keys=True)
                for _ in range(3)}
            assert len(fingerprint_calls) == 1
            assert len(bodies) == 1
            # one call per trace, not one per (trace, generation)
            fingerprint_calls.clear()
            assert client.compare(["xz", "mcf"],
                                  instructions=500).ok
            assert len(fingerprint_calls) == 2
        finally:
            handle.stop()

    def test_configs_are_fingerprinted_once_per_generation(
            self, monkeypatch):
        import repro.exec.executor
        import repro.serve.server
        from repro.exec import cache
        calls = []

        def counted(config):
            calls.append(config.name)
            return cache.fingerprint_config(config)

        monkeypatch.setattr(repro.serve.server, "fingerprint_config",
                            counted)
        monkeypatch.setattr(repro.exec.executor, "fingerprint_config",
                            counted)
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            client = _client(handle, timeout_s=120.0)
            assert client.simulate(workload="daxpy",
                                   instructions=500).ok
            assert client.compare(["daxpy", "xz"], instructions=500).ok
        finally:
            handle.stop()
        assert sorted(calls) == sorted(
            [power9_config().name, power10_config().name])

    def test_no_trace_is_hashed_on_the_event_loop(self,
                                                   fingerprint_calls):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            client = _client(handle, timeout_s=120.0)
            client.simulate(workload="daxpy", instructions=600)
            client.compare(["daxpy", "xz"], instructions=600)
            loop_thread = handle._thread.ident
        finally:
            handle.stop()
        assert len(fingerprint_calls) == 2
        assert loop_thread not in fingerprint_calls


# ---- overload: degrade before 503 ----------------------------------------

class TestOverload:
    def test_shedding_degrades_then_rejects(self):
        # burst=1 and a glacial refill: the first simulate takes the
        # only token, everything after is shed
        handle = start_in_thread(ServeConfig(
            window_ms=1.0, rate_per_s=0.001, burst=1))
        try:
            client = _client(handle, timeout_s=120.0)
            first = client.simulate(workload="daxpy", instructions=400)
            assert first.ok and not first.degraded

            shed = client.simulate(workload="daxpy", instructions=400)
            assert shed.ok and shed.degraded          # never a 503
            assert shed.body["source"] == "proxy"
            assert shed.body["shed_reason"] == "rate"
            assert shed.result["power_w"] > 0

            shed2 = client.compare(["daxpy"], instructions=400)
            assert shed2.ok and shed2.degraded

            # inject has no proxy equivalent -> 503 + Retry-After
            raw = client.request("/v1/inject",
                                 {"workload": "daxpy",
                                  "instructions": 400})
            assert raw.status == 503
            assert raw.body["error"]["code"] == "overloaded"
            assert raw.body["_retry_after_s"] >= 1.0

            shed_counter = get_registry().counter(
                "repro_serve_shed_total")
            assert shed_counter.value(action="degrade",
                                      reason="rate") >= 2
            assert shed_counter.value(action="reject",
                                      reason="rate") >= 1
        finally:
            handle.stop()

    def test_degraded_answers_are_deterministic(self):
        handle = start_in_thread(ServeConfig(
            window_ms=1.0, rate_per_s=0.001, burst=1))
        try:
            client = _client(handle, timeout_s=120.0)
            client.simulate(workload="daxpy", instructions=400)
            a = client.simulate(workload="daxpy", instructions=400)
            b = client.simulate(workload="daxpy", instructions=400)
            assert a.degraded and b.degraded
            assert a.result == b.result
        finally:
            handle.stop()


# ---- drain: well-formed errors, never hangs ------------------------------

class TestDrain:
    def test_clean_drain_after_idle(self):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        client = _client(handle)
        assert client.simulate(workload="daxpy",
                               instructions=300).ok
        assert handle.stop() is True               # nothing abandoned

    def test_kill_mid_request_returns_wellformed_error(self):
        """Shut the server down while a multi-second simulation is in
        flight: the waiter gets a structured shutting_down body (not a
        hang, not a dropped connection) and stop() reports the forced
        drain."""
        handle = start_in_thread(ServeConfig(window_ms=1.0,
                                             drain_timeout_s=0.3))
        outcome = {}

        def slow_request():
            client = _client(handle, timeout_s=120.0)
            outcome["resp"] = client.request(
                "/v1/simulate", {"workload": "pointer-chase",
                                 "instructions": 50_000})

        worker = threading.Thread(target=slow_request)
        worker.start()
        try:
            # wait until the request is actually inside the batcher
            client = _client(handle)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if client.healthz().get("inflight", 0) >= 1:
                    break
                time.sleep(0.02)
            else:
                pytest.fail("request never reached the batcher")
            clean = handle.stop()
        finally:
            worker.join(timeout=120)
        assert not worker.is_alive()               # no hang
        assert clean is False                      # work was abandoned
        resp = outcome["resp"]
        assert resp.status == 503
        assert resp.body["ok"] is False
        assert resp.body["error"]["code"] == "shutting_down"

    def test_requests_after_drain_start_are_refused(self):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        port = handle.port
        assert handle.stop() is True
        client = ServeClient(host="127.0.0.1", port=port, retries=0)
        with pytest.raises(ServeError):
            client.request("/healthz", method="GET")

    def test_drain_with_chaos_fault_active_never_hangs(self, tmp_path):
        """Kill a pool worker mid-drain: every waiter must still get a
        well-formed structured body (shutting_down / deadline_exceeded
        / a real answer), never a hang."""
        from repro.resilience.chaos import ServiceFault, service_chaos
        with service_chaos([ServiceFault("worker_kill")], tmp_path):
            handle = start_in_thread(ServeConfig(
                window_ms=1.0, workers=2, drain_timeout_s=0.3))
            outcome = {}

            def slow_request():
                client = _client(handle, timeout_s=120.0)
                outcome["resp"] = client.request(
                    "/v1/simulate", {"workload": "pointer-chase",
                                     "instructions": 50_000})

            worker = threading.Thread(target=slow_request)
            worker.start()
            try:
                client = _client(handle)
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    if client.healthz().get("inflight", 0) >= 1:
                        break
                    time.sleep(0.02)
                else:
                    pytest.fail("request never reached the batcher")
                handle.stop()
            finally:
                worker.join(timeout=120)
            assert not worker.is_alive()           # never a hang
            resp = outcome["resp"]
            body = resp.body
            if body.get("ok"):
                assert "result" in body            # finished in budget
            else:
                assert body["error"]["code"] in (
                    "shutting_down", "deadline_exceeded", "model_error")


# ---- deadline propagation ------------------------------------------------

class TestDeadline:
    def test_header_folds_into_the_request(self):
        from repro.serve import protocol
        data = protocol.apply_deadline_header(
            SimulateRequest, {"workload": "daxpy"}, "1500")
        assert data["deadline_ms"] == 1500
        # the body field wins over the header
        data = protocol.apply_deadline_header(
            SimulateRequest, {"deadline_ms": 7}, "1500")
        assert data["deadline_ms"] == 7
        # routes without a deadline field ignore the header
        data = protocol.apply_deadline_header(
            EstimateRequest, {"workload": "daxpy"}, "1500")
        assert "deadline_ms" not in data

    def test_bad_header_is_a_400(self):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            resp = _client(handle).request(
                "/v1/simulate", {"workload": "daxpy",
                                 "instructions": 300},
                deadline_ms=None)
            assert resp.ok
            raw = _client(handle)._once(
                "POST", "/v1/simulate", {"workload": "daxpy"},
                None, "not-a-number")
            assert raw.status == 400
            assert raw.body["error"]["code"] == "bad_request"
        finally:
            handle.stop()

    def test_impossible_deadline_degrades_simulate(self):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            client = _client(handle, timeout_s=120.0)
            resp = client.request(
                "/v1/simulate", {"workload": "pointer-chase",
                                 "instructions": 50_000},
                deadline_ms=1)
            assert resp.status == 200
            assert resp.ok and resp.degraded
            assert resp.body["shed_reason"] == "deadline"
            assert resp.body["source"] == "proxy"
        finally:
            handle.stop()

    def test_impossible_deadline_rejects_inject_with_504(self):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            client = _client(handle, timeout_s=120.0)
            resp = client.request(
                "/v1/inject", {"workload": "xz",
                               "instructions": 5_000,
                               "deadline_ms": 1})
            assert resp.status == 504
            assert resp.body["error"]["code"] == "deadline_exceeded"
        finally:
            handle.stop()


class TestAbandonedCompare:
    """A compare's gathered simulations are abandoned when its deadline
    fires or its handler is cancelled (a drain); the loop must never
    report an exception nobody retrieved."""

    @staticmethod
    def _run(abandon):
        calls = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(
                lambda _loop, ctx: calls.append(ctx.get("message")))
            server = ReproServer(ServeConfig(window_ms=1.0, port=0))
            await server.start()
            submitted = asyncio.Event()
            try:
                async def stalled(task, deadline_s=None):
                    submitted.set()
                    await asyncio.Event().wait()

                server.batcher.submit = stalled
                await abandon(server, submitted)
            finally:
                await server.stop()
            gc.collect()
            await asyncio.sleep(0)

        asyncio.run(main())
        return calls

    def test_deadline(self):
        async def abandon(server, _submitted):
            status, body, _ = await server._handle_compare(
                protocol.CompareRequest(("daxpy", "xz"), 300,
                                        deadline_ms=50))
            assert status == 200 and body["shed_reason"] == "deadline"

        assert self._run(abandon) == []

    def test_cancelled_handler(self):
        async def abandon(server, submitted):
            handler = asyncio.ensure_future(server._handle_compare(
                protocol.CompareRequest(("daxpy", "xz"), 300,
                                        deadline_ms=60_000)))
            await submitted.wait()
            handler.cancel()
            with pytest.raises(asyncio.CancelledError):
                await handler

        assert self._run(abandon) == []


# ---- the per-route circuit breaker ---------------------------------------

class TestBreakerIntegration:
    def test_engine_failures_trip_the_breaker(self, tmp_path):
        """With restarts disabled, one worker kill fails the request
        (500 model_error), trips the one-failure breaker, and every
        later simulate is served degraded without touching the
        engine; inject gets a 503 with the breaker's retry hint."""
        from repro.resilience.chaos import ServiceFault, service_chaos
        faults = [ServiceFault("worker_kill")] * 4
        with service_chaos(faults, tmp_path):
            handle = start_in_thread(ServeConfig(
                window_ms=1.0, workers=2, max_pool_restarts=0,
                breaker_threshold=1, breaker_reset_s=60.0))
            try:
                client = _client(handle, timeout_s=120.0)
                first = client.request(
                    "/v1/simulate", {"workload": "daxpy",
                                     "instructions": 400})
                assert first.status == 500
                assert first.body["error"]["code"] == "model_error"

                health = client.healthz()
                assert health["breakers"]["/v1/simulate"] == "open"

                shed = client.simulate(workload="daxpy",
                                       instructions=400)
                assert shed.ok and shed.degraded
                assert shed.body["shed_reason"] == "breaker"

                # estimate never routes through the engine: no breaker
                est = client.estimate(workload="daxpy",
                                      instructions=400)
                assert est.ok and not est.degraded
            finally:
                handle.stop()

    def test_open_inject_breaker_rejects_with_retry_hint(self):
        handle = start_in_thread(ServeConfig(
            window_ms=1.0, breaker_threshold=1, breaker_reset_s=60.0))
        try:
            # trip the inject breaker via an impossible deadline
            client = _client(handle, timeout_s=120.0)
            resp = client.request(
                "/v1/inject", {"workload": "xz",
                               "instructions": 5_000,
                               "deadline_ms": 1})
            assert resp.status == 504
            resp = client.request(
                "/v1/inject", {"workload": "xz", "instructions": 400})
            assert resp.status == 503
            assert resp.body["error"]["code"] == "overloaded"
            assert "circuit breaker open" in resp.body["error"]["message"]
            assert resp.body["_retry_after_s"] >= 1.0
        finally:
            handle.stop()

    def test_healthz_reports_breaker_states(self):
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        try:
            health = _client(handle).healthz()
            assert health["breakers"] == {
                "/v1/simulate": "closed",
                "/v1/compare": "closed",
                "/v1/inject": "closed"}
        finally:
            handle.stop()


# ---- load generation -----------------------------------------------------

class TestLoadgen:
    def test_schedule_is_seed_deterministic(self):
        config = LoadgenConfig(seed=11, requests=40, rate_per_s=100.0)
        a = build_schedule(config)
        b = build_schedule(config)
        assert a == b
        c = build_schedule(LoadgenConfig(seed=12, requests=40,
                                         rate_per_s=100.0))
        assert a != c
        offsets = [off for off, _r, _p, _i in a]
        assert offsets == sorted(offsets)
        assert all(r in ("/v1/simulate", "/v1/estimate", "/v1/compare")
                   for _o, r, _p, _i in a)
        # deterministic request ids: seed + index
        assert [rid for _o, _r, _p, rid in a] \
            == [f"req-s11-{i:05d}" for i in range(40)]

    def test_loadgen_against_live_server(self):
        phase = run_phase(
            LoadgenConfig(seed=5, requests=8, rate_per_s=50.0),
            lambda: start_in_thread(ServeConfig(window_ms=1.0)))
        assert phase.clean_drain is True
        assert phase.healthz["status"] == "ok"
        report = phase.report
        assert report["malformed"] == 0
        assert report["errors"] == 0
        assert report["ok"] == 8
        assert report["throughput_per_s"] > 0
        lat = report["latency_s"]
        assert 0 < lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        assert sum(report["by_route"].values()) == 8

    def test_cli_self_serve_writes_artifact(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "BENCH_serve.json"
        assert main(["loadgen", "--self-serve", "--requests", "6",
                     "--rate", "40", "--seed", "2",
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["requests"] == 6
        assert doc["malformed"] == 0
        assert {"p50", "p95", "p99"} <= set(doc["latency_s"])
        assert "latency p50" in capsys.readouterr().out

    def test_cli_targets_port_8419_by_default(self, tmp_path,
                                                monkeypatch):
        """Without --self-serve or --cluster the load goes to an
        external server: --port, or 8419 when omitted."""
        import repro.serve
        from repro.cli import main
        seen = []

        def record(config, start=None):
            seen.append((config.host, config.port, start))
            raise ServeError("stop here")

        monkeypatch.setattr(repro.serve, "run_phase", record)
        monkeypatch.chdir(tmp_path)
        assert main(["loadgen"]) == 2
        assert main(["loadgen", "--port", "9000"]) == 2
        assert seen == [("127.0.0.1", 8419, None),
                        ("127.0.0.1", 9000, None)]

    def test_invalid_config_rejected(self):
        with pytest.raises(ServeError):
            LoadgenConfig(requests=0)
        with pytest.raises(ServeError):
            LoadgenConfig(rate_per_s=0)

    def test_report_carries_availability_section(self):
        report = run_phase(
            LoadgenConfig(seed=5, requests=8, rate_per_s=50.0),
            lambda: start_in_thread(ServeConfig(window_ms=1.0))).report
        avail = report["availability"]
        assert avail["good"] == report["ok"] - report["degraded"]
        assert avail["degraded"] == report["degraded"]
        assert (avail["good"] + avail["degraded"] + avail["rejected"]
                + avail["failed"]) == report["requests"]
        assert avail["rate"] == report["ok"] / report["requests"]
        assert 0.0 <= avail["rate"] <= 1.0

    def test_refusals_count_as_rejected_not_failed(self):
        # a drained port refuses connections -> every request is a
        # connection failure, i.e. failed, never rejected
        handle = start_in_thread(ServeConfig(window_ms=1.0))
        port = handle.port
        handle.stop()
        phase = run_phase(LoadgenConfig(
            seed=1, requests=4, rate_per_s=200.0,
            host="127.0.0.1", port=port, timeout_s=5.0))
        assert phase.healthz == {}
        assert phase.clean_drain is None    # not started here
        report = phase.report
        avail = report["availability"]
        assert avail["failed"] == 4
        assert avail["rejected"] == 0
        assert avail["rate"] == 0.0


class TestClientJitter:
    def test_caller_owned_rng_wins_over_jitter_seed(self):
        import random
        shared = random.Random(7)
        client = ServeClient(rng=shared, jitter_seed=99)
        assert client._rng is shared

    def test_backoff_is_deterministic_per_seed(self):
        import random
        a = ServeClient(rng=random.Random(3))
        b = ServeClient(rng=random.Random(3))
        c = ServeClient(jitter_seed=4)
        seq_a = [a._backoff_s(i, None) for i in range(4)]
        seq_b = [b._backoff_s(i, None) for i in range(4)]
        seq_c = [c._backoff_s(i, None) for i in range(4)]
        assert seq_a == seq_b
        assert seq_a != seq_c


# ---- byte-identity pin of every serving outcome --------------------------

#: route × outcome -> status, Retry-After and exact body bytes; the
#: bodies were captured from the server before its guarded request
#: path was shared across routes, so any change to a body shows here
_PINNED = Path(__file__).parent / "fixtures" / "serve_bodies.json"

_SIM = {"workload": "daxpy", "instructions": 300}
_CMP = {"workloads": ["daxpy", "xz"], "instructions": 300}
_INJ = {"seed": 3, "workload": "daxpy", "instructions": 300, "faults": 2}

#: (case id, route, payload, server state)
_PIN_CASES = [
    ("simulate-ok", "/v1/simulate", _SIM, "ok"),
    ("simulate-rate", "/v1/simulate", _SIM, "rate"),
    ("simulate-queue", "/v1/simulate", _SIM, "queue"),
    ("simulate-breaker", "/v1/simulate", _SIM, "breaker"),
    ("simulate-deadline", "/v1/simulate",
     dict(_SIM, deadline_ms=50), "stalled"),
    ("compare-ok", "/v1/compare", _CMP, "ok"),
    ("compare-rate", "/v1/compare", _CMP, "rate"),
    ("compare-queue", "/v1/compare", _CMP, "queue"),
    ("compare-breaker", "/v1/compare", _CMP, "breaker"),
    ("compare-deadline", "/v1/compare",
     dict(_CMP, deadline_ms=50), "stalled"),
    ("estimate-ok", "/v1/estimate", {"workload": "xz",
                                     "instructions": 300}, "ok"),
    ("inject-ok", "/v1/inject", _INJ, "ok"),
    ("inject-rate", "/v1/inject", _INJ, "rate"),
    ("inject-queue", "/v1/inject", _INJ, "queue"),
    ("inject-breaker", "/v1/inject", _INJ, "breaker"),
    ("inject-deadline", "/v1/inject",
     dict(_INJ, deadline_ms=50), "stalled"),
    ("simulate-unknown-field", "/v1/simulate",
     {"generation": "power9"}, "ok"),
    ("inject-unknown-field", "/v1/inject",
     {"seed": 1, "bogus": 2, "alpha": 3}, "ok"),
    ("simulate-wrong-kind", "/v1/simulate",
     {"instructions": "300"}, "ok"),
    ("simulate-null-required", "/v1/simulate",
     {"workload": None}, "ok"),
    ("simulate-float-range", "/v1/simulate",
     {"warmup_fraction": 1.5}, "ok"),
    ("estimate-bool-int", "/v1/estimate",
     {"instructions": True}, "ok"),
    ("inject-float-int", "/v1/inject", {"faults": 2.5}, "ok"),
    ("inject-deadline-range", "/v1/inject",
     {"deadline_ms": 0}, "ok"),
    ("compare-workloads-not-a-list", "/v1/compare",
     {"workloads": "daxpy"}, "ok"),
    ("compare-workloads-not-names", "/v1/compare",
     {"workloads": ["daxpy", 7]}, "ok"),
    ("compare-workloads-null", "/v1/compare",
     {"workloads": None, "instructions": "x"}, "ok"),
    ("compare-workloads-empty", "/v1/compare",
     {"workloads": []}, "ok"),
]


async def _pin_enter(server, state, route):
    """Put the pin server into one admission/breaker/engine state."""
    # closed breakers on a frozen clock: an open one's retry hint is
    # exactly its reset time
    for name in server.breakers:
        server.breakers[name] = CircuitBreaker(
            name, failure_threshold=1, reset_s=60.0, clock=lambda: 0.0)
    server.batcher.__dict__.pop("submit", None)
    server.admission.bucket = None
    if state == "rate":
        # an empty bucket on a frozen clock: the refusal's retry hint
        # is exactly one token's refill time
        server.admission.bucket = TokenBucket(0.001, 1,
                                              clock=lambda: 0.0)
        server.admission.bucket.try_take()
    elif state == "queue":
        server.admission.decide(degradable=False)   # hold the one slot
    elif state == "breaker":
        server.breakers[route].record_failure()
    elif state == "stalled":
        async def stalled(task, deadline_s=None):
            await asyncio.Event().wait()
        server.batcher.submit = stalled


async def _pin_leave(server, state):
    if state == "queue":
        server.admission.release()


def _pin_server():
    return start_in_thread(ServeConfig(window_ms=1.0, max_inflight=1))


def _pin_fetch(handle, case):
    """One pinned case against a running pin server: ``(status,
    Retry-After or None, body text)``."""
    from repro.serve.http import fetch
    _cid, route, payload, state = case
    handle.call(_pin_enter, state, route)
    try:
        status, headers, body = asyncio.run(fetch(
            "127.0.0.1", handle.port, "POST", route,
            body=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"}))
    finally:
        handle.call(_pin_leave, state)
    return status, headers.get("retry-after"), body.decode("utf-8")


@pytest.fixture(scope="module")
def pin_server():
    import os
    saved = {k: os.environ.pop(k)
             for k in ("REPRO_WORKERS", "REPRO_CACHE_DIR",
                       "REPRO_CHAOS_DIR")
             if k in os.environ}
    handle = _pin_server()
    yield handle
    handle.stop()
    os.environ.update(saved)


class TestPinnedBodies:
    """Every route × outcome answers with exactly the pinned status,
    ``Retry-After`` and body bytes: engine answers, the four degraded
    answers of simulate and compare (rate, queue, breaker, deadline),
    inject's 503s and 504, and the protocol's 400 texts."""

    @pytest.mark.parametrize("case", _PIN_CASES,
                             ids=[c[0] for c in _PIN_CASES])
    def test_body_is_pinned(self, pin_server, case):
        expected = json.loads(_PINNED.read_text())[case[0]]
        status, retry_after, body = _pin_fetch(pin_server, case)
        assert (status, retry_after) == (expected["status"],
                                         expected["retry_after"])
        assert body == expected["body"]

    def test_every_case_is_pinned(self):
        assert sorted(json.loads(_PINNED.read_text())) \
            == sorted(c[0] for c in _PIN_CASES)
