"""End-to-end request observability: trace propagation, Prometheus
exposition, SLO tracking, and the access log.

The acceptance bar: a request's spans — HTTP front end, batcher,
engine, *worker process* — all share one request id and land on one
Perfetto track; the access-log latency breakdown tiles the measured
wall time; ``GET /metrics`` speaks Prometheus text under content
negotiation; and turning telemetry on changes no response byte.
"""

import http.client
import json
import threading

import pytest

from repro.errors import TelemetryError
from repro.exec.executor import Engine, ExecPlan, sim_task
from repro.obs import (AccessLog, MetricsRegistry, TelemetrySession,
                       Tracer, get_registry, read_access_log,
                       render_prometheus, set_tracer,
                       validate_manifest)
from repro.obs.context import (RequestContext, clean_request_id,
                               current_request_id, new_request_id,
                               request_scope)
from repro.obs.prometheus import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.serve import ServeClient, ServeConfig, start_in_thread
from repro.serve.loadgen import latency_doc
from repro.serve.slo import SloTracker
from repro.workloads import resolve_workload


@pytest.fixture(autouse=True)
def _no_ambient_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def _client(handle, **kw):
    kw.setdefault("retries", 0)
    return ServeClient(host="127.0.0.1", port=handle.port, **kw)


def _raw_get(port, path, headers=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", path, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


# ---- request context ------------------------------------------------------

class TestRequestContext:
    def test_ids_are_unique_and_clean(self):
        a, b = new_request_id(), new_request_id()
        assert a != b
        assert clean_request_id(a) == a
        assert clean_request_id("  rid-1  ") == "rid-1"
        assert clean_request_id(None) is None
        assert clean_request_id("has space") is None
        assert clean_request_id("-leading-dash") is None
        assert clean_request_id("x" * 100) is None

    def test_scope_activates_and_restores(self):
        assert current_request_id() is None
        with request_scope("rid-9") as ctx:
            assert current_request_id() == "rid-9"
            with request_scope(None):
                # None is a no-op, not a reset
                assert current_request_id() == "rid-9"
            assert ctx.request_id == "rid-9"
        assert current_request_id() is None

    def test_segments_tile_wall_time_exactly(self):
        ctx = RequestContext("r", route="/v1/simulate")
        t0 = ctx.started_ns
        ctx.note_result(t0 + 100, t0 + 250, t0 + 900,
                        "executed")
        segs = ctx.segments_ns(t0 + 1000)
        assert segs == {"queue": 100, "batch": 150, "exec": 650,
                        "finalize": 100}
        assert sum(segs.values()) == 1000

    def test_multiple_results_use_envelope(self):
        # a compare submits several tasks; the breakdown must cover
        # their joint envelope without double counting
        ctx = RequestContext("r")
        t0 = ctx.started_ns
        ctx.note_result(t0 + 200, t0 + 300, t0 + 500, "executed")
        ctx.note_result(t0 + 100, t0 + 400, t0 + 800, "cache")
        segs = ctx.segments_ns(t0 + 1000)
        assert segs["queue"] == 100          # earliest submit
        assert segs["exec"] == 800 - 300     # earliest batch..latest done
        assert sum(segs.values()) == 1000
        assert ctx.cache_hit

    def test_no_engine_request_is_all_queue(self):
        ctx = RequestContext("r")
        segs = ctx.segments_ns(ctx.started_ns + 500)
        assert segs == {"queue": 500, "batch": 0, "exec": 0,
                        "finalize": 0}

    def test_segment_spans_are_contiguous(self):
        ctx = RequestContext("r")
        t0 = ctx.started_ns
        ctx.note_result(t0 + 100, t0 + 250, t0 + 900, "executed")
        spans = ctx.segment_spans(t0 + 1000)
        assert [s[0] for s in spans] == ["queue", "batch", "exec"]
        cursor = t0
        for _name, start, dur in spans:
            assert start == cursor
            cursor += dur


# ---- tracer tracks and cross-process transport ---------------------------

class TestTracerTracks:
    def test_same_named_threads_get_distinct_tracks(self):
        # thread idents are recycled by the OS; two same-named threads
        # must still land on separate Perfetto tracks
        tracer = Tracer(enabled=True)

        def _work():
            with tracer.span("t", "test"):
                pass

        for _ in range(2):
            th = threading.Thread(target=_work, name="worker")
            th.start()
            th.join()
        doc = tracer.to_chrome_trace()
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len({e["tid"] for e in xs}) == 2
        names = {m["args"]["name"] for m in metas}
        assert names == {"worker#1", "worker#2"}

    def test_request_scope_overrides_thread_track(self):
        tracer = Tracer(enabled=True)
        with request_scope("rid-7"):
            with tracer.span("inner", "test"):
                pass
        (sp,) = tracer.spans
        assert sp.track == "req:rid-7"
        assert sp.args["request_id"] == "rid-7"

    def test_wire_round_trip_keeps_request_tracks(self):
        src = Tracer(enabled=True)
        with request_scope("rid-3"):
            with src.span("on-request", "test"):
                pass
        with src.span("background", "test"):
            pass
        dst = Tracer(enabled=True)
        assert dst.merge_wire(src.to_wire(), origin="worker") == 2
        by_name = {sp.name: sp for sp in dst.spans}
        assert by_name["on-request"].track == "req:rid-3"
        assert by_name["background"].track.startswith("worker:")
        # wall-clock anchoring keeps durations exact
        assert by_name["on-request"].duration_ns \
            == src.spans[0].duration_ns

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with request_scope("rid-1"):
            with tracer.span("x") as sp:
                pass
        assert tracer.spans == []
        assert sp.args == {}          # no request id stamped
        assert tracer.record_complete("y", start_ns=0, dur_ns=1) is None
        assert tracer.merge_wire([{"name": "n", "cat": "c",
                                   "wall_start_ns": 0, "dur_ns": 1}]) == 0


class TestWorkerSpanPropagation:
    def test_pool_spans_carry_the_request_id(self):
        tracer = Tracer(enabled=True)
        prev = set_tracer(tracer)
        try:
            with Engine(workers=2) as engine:
                tasks = [
                    sim_task(_p10(), resolve_workload("daxpy", 400),
                             tags=("rid-a",)),
                    sim_task(_p10(), resolve_workload("xz", 400),
                             tags=("rid-b",)),
                ]
                sources = {}
                engine.run(ExecPlan(tasks), sources)
        finally:
            set_tracer(prev)
        assert set(sources.values()) == {"executed"}
        for rid in ("rid-a", "rid-b"):
            spans = [sp for sp in tracer.spans
                     if sp.args.get("request_id") == rid]
            assert spans, f"no spans for {rid}"
            assert {"pipeline.simulate"} <= {sp.name for sp in spans}
            assert all(sp.track == f"req:{rid}" for sp in spans)


def _p10():
    from repro.core import power10_config
    return power10_config()


# ---- prometheus exposition ------------------------------------------------

class TestPrometheusRendering:
    def test_counter_gauge_histogram_shapes(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_runs_total", "total runs")
        c.inc(config="p10")
        c.inc(2, config="p9")
        reg.gauge("repro_temp", "temperature").set(42.5)
        h = reg.histogram("repro_lat_seconds", "latency")
        for v in (0.003, 0.2, 1.5):
            h.observe(v)
        text = render_prometheus(reg)
        lines = text.splitlines()
        assert "# TYPE repro_runs_total counter" in lines
        assert 'repro_runs_total{config="p10"} 1' in lines
        assert 'repro_runs_total{config="p9"} 2' in lines
        assert "repro_temp 42.5" in lines
        assert "# TYPE repro_lat_seconds histogram" in lines
        assert 'repro_lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "repro_lat_seconds_count 3" in lines
        # buckets are cumulative: counts never decrease
        counts = [int(ln.rsplit(" ", 1)[1]) for ln in lines
                  if ln.startswith("repro_lat_seconds_bucket")]
        assert counts == sorted(counts)
        # every line is a comment or `name{...} value`
        for ln in lines:
            if not ln or ln.startswith("#"):
                continue
            name_part, value = ln.rsplit(" ", 1)
            float(value)
            assert name_part[0].isalpha()

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("repro_evil_total", "t").inc(
            path='a\\b"c\nd')
        text = render_prometheus(reg)
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_histogram_quantiles_in_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_q_seconds", "q")
        for v in (0.1, 0.1, 0.1, 0.9):
            h.observe(v)
        (series,) = reg.collect()["repro_q_seconds"]["series"]
        q = series["quantiles"]
        assert set(q) == {"p50", "p90", "p99"}
        # quantiles are clamped into the observed range
        assert 0.1 <= q["p50"] <= q["p90"] <= q["p99"] <= 0.9
        assert h.quantile(0.5) == q["p50"]


# ---- slo tracking ---------------------------------------------------------

class TestSloTracker:
    def test_rolling_window_expiry(self):
        now = [0.0]
        slo = SloTracker(window_s=10.0, target_p99_s=1.0,
                         clock=lambda: now[0])
        slo.observe(5.0)                      # a breach
        assert not slo.snapshot()["p99_ok"]
        now[0] = 11.0                         # breach ages out
        slo.observe(0.1)
        snap = slo.snapshot()
        assert snap["requests"] == 1
        assert snap["p99_ok"] and snap["healthy"]

    def test_error_budget_and_breach_counter(self):
        counter = get_registry().counter("repro_serve_slo_breaches_total")
        before_err = counter.value(reason="error")
        before_lat = counter.value(reason="latency")
        slo = SloTracker(window_s=60.0, target_p99_s=1.0,
                         target_error_rate=0.5, clock=lambda: 0.0)
        slo.observe(0.1)
        slo.observe(0.2, error=True)
        slo.observe(5.0)
        snap = slo.snapshot()
        assert snap["error_rate"] == pytest.approx(1 / 3)
        assert 0.0 < snap["error_budget_remaining"] < 1.0
        assert counter.value(reason="error") == before_err + 1
        assert counter.value(reason="latency") == before_lat + 1

    def test_degraded_rate_reported(self):
        slo = SloTracker(clock=lambda: 0.0)
        slo.observe(0.1, degraded=True)
        slo.observe(0.1)
        assert slo.snapshot()["degraded_rate"] == pytest.approx(0.5)

    def test_window_percentiles_match_loadgen_reports(self):
        # /healthz and BENCH_serve.json rank one latency list alike
        latencies = [float((7 * i) % 37) for i in range(37)]
        slo = SloTracker(clock=lambda: 0.0)
        for value in latencies:
            slo.observe(value)
        doc = latency_doc(latencies)
        snap = slo.snapshot()["latency_s"]
        assert snap == {k: doc[k] for k in ("p50", "p95", "p99")}
        assert (snap["p50"], snap["p95"], snap["p99"]) \
            == (18.0, 35.0, 36.0)


# ---- access log -----------------------------------------------------------

class TestAccessLog:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "logs" / "access.jsonl"
        with AccessLog(path) as log:
            log.write({"id": "a", "total_ms": 1.5})
            log.write({"id": "b", "total_ms": 2.5})
        rows = read_access_log(path)
        assert [r["id"] for r in rows] == ["a", "b"]
        assert [r["seq"] for r in rows] == [1, 2]


# ---- manifest validation --------------------------------------------------

class TestManifestValidation:
    def test_session_manifest_validates(self, tmp_path):
        with TelemetrySession(tmp_path / "t", argv=["x"]) as session:
            session.record_run(_p10(), "daxpy")
        manifest = json.loads(
            (tmp_path / "t" / "manifest.json").read_text())
        validate_manifest(manifest)

    def test_rejections(self):
        with pytest.raises(TelemetryError, match="schema"):
            validate_manifest({"schema": 99})
        with pytest.raises(TelemetryError, match="JSON object"):
            validate_manifest(["not", "a", "dict"])
        good = {"schema": 1, "package": "repro", "version": "1",
                "python": "3", "platform": "x", "argv": [],
                "interval_cycles": 5000, "configs": {}, "runs": [],
                "samples": 0, "spans": 0,
                "timings": {"elapsed_seconds": 0.0}}
        validate_manifest(good)
        for key in ("argv", "runs", "timings"):
            bad = dict(good)
            del bad[key]
            with pytest.raises(TelemetryError, match=key):
                validate_manifest(bad)
        bad = dict(good, samples="three")
        with pytest.raises(TelemetryError, match="samples"):
            validate_manifest(bad)
        bad = dict(good, runs=[{"config": "p10"}])
        with pytest.raises(TelemetryError, match="provenance"):
            validate_manifest(bad)
        bad = dict(good, timings={})
        with pytest.raises(TelemetryError, match="elapsed_seconds"):
            validate_manifest(bad)


# ---- the live server ------------------------------------------------------

class TestServerObservability:
    @pytest.fixture(scope="class")
    def handle(self, tmp_path_factory):
        logdir = tmp_path_factory.mktemp("obs-serve")
        handle = start_in_thread(ServeConfig(
            access_log=str(logdir / "access.jsonl")))
        handle.access_log_path = logdir / "access.jsonl"
        yield handle
        handle.stop()

    def test_request_id_echoed_and_generated(self, handle):
        client = _client(handle)
        resp = client.request("/v1/estimate",
                              {"workload": "daxpy",
                               "instructions": 500},
                              request_id="rid-echo-1")
        assert resp.ok
        assert resp.request_id == "rid-echo-1"
        assert "request_id" not in resp.body   # header-only correlation
        # no id supplied: the server mints one
        resp = client.request("/v1/estimate",
                              {"workload": "daxpy",
                               "instructions": 500})
        assert resp.request_id
        assert clean_request_id(resp.request_id) == resp.request_id
        # unusable id: replaced, not echoed
        resp = client.request("/v1/estimate",
                              {"workload": "daxpy",
                               "instructions": 500},
                              request_id="bad id!")
        assert resp.request_id != "bad id!"

    def test_metrics_content_negotiation(self, handle):
        _client(handle).request(
            "/v1/simulate", {"workload": "daxpy",
                             "instructions": 500},
            request_id="rid-prom-1")
        status, headers, body = _raw_get(handle.port, "/metrics")
        assert status == 200
        assert headers["Content-Type"] == "application/json"
        doc = json.loads(body)
        assert "repro_serve_requests_total" in doc
        status, headers, body = _raw_get(
            handle.port, "/metrics", {"Accept": "text/plain"})
        assert status == 200
        assert headers["Content-Type"] == PROM_CONTENT_TYPE
        text = body.decode("utf-8")
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_request_stage_seconds_bucket" in text

    def test_healthz_carries_slo_snapshot(self, handle):
        slo = _client(handle).healthz()["slo"]
        assert {"requests", "latency_s", "error_rate", "p99_ok",
                "error_budget_remaining", "healthy"} <= set(slo)

    def test_access_log_breakdown_tiles_wall_time(self, handle):
        client = _client(handle)
        for i in range(3):
            resp = client.request(
                "/v1/simulate", {"workload": "stream-triad",
                                 "instructions": 500},
                request_id=f"rid-log-{i}")
            assert resp.ok
        rows = [r for r in read_access_log(handle.access_log_path)
                if str(r["id"]).startswith("rid-log-")]
        assert len(rows) == 3
        for row in rows:
            parts = (row["queue_ms"] + row["batch_ms"]
                     + row["exec_ms"] + row["finalize_ms"])
            assert parts == pytest.approx(row["total_ms"], rel=0.05,
                                          abs=0.01)
            assert row["outcome"] == "ok" and row["status"] == 200
            assert row["exec_ms"] > 0      # it really ran the engine
            assert row["route"] == "/v1/simulate"

    def test_access_log_covers_fast_path_and_errors(self, handle):
        client = _client(handle)
        client.request("/v1/estimate", {"workload": "daxpy",
                                        "instructions": 500},
                       request_id="rid-fast-1")
        client.request("/v1/simulate", {"workload": "no-such"},
                       request_id="rid-err-1")
        rows = {r["id"]: r
                for r in read_access_log(handle.access_log_path)}
        fast = rows["rid-fast-1"]
        assert fast["outcome"] == "ok" and fast["exec_ms"] == 0.0
        err = rows["rid-err-1"]
        assert err["outcome"] == "error" and err["status"] == 400


class TestCacheAttribution:
    def test_second_identical_request_is_a_cache_hit(self, tmp_path):
        handle = start_in_thread(ServeConfig(
            cache_dir=str(tmp_path / "cache"),
            access_log=str(tmp_path / "access.jsonl")))
        try:
            client = _client(handle)
            payload = {"workload": "daxpy", "instructions": 600}
            r1 = client.request("/v1/simulate", payload,
                                request_id="rid-miss")
            r2 = client.request("/v1/simulate", payload,
                                request_id="rid-hit")
            assert r1.body == r2.body      # cache replay, bit-identical
        finally:
            handle.stop()
        rows = {r["id"]: r
                for r in read_access_log(tmp_path / "access.jsonl")}
        assert rows["rid-miss"]["cache_hit"] is False
        assert rows["rid-hit"]["cache_hit"] is True


class TestTelemetryNeutrality:
    def _collect(self, config):
        handle = start_in_thread(config)
        try:
            client = _client(handle)
            bodies = []
            for i, (route, payload) in enumerate((
                    ("/v1/simulate", {"workload": "daxpy",
                                      "instructions": 500}),
                    ("/v1/estimate", {"workload": "xz",
                                      "instructions": 500}),
                    ("/v1/compare", {"workloads": ["daxpy"],
                                     "instructions": 400}))):
                resp = client.request(route, payload,
                                      request_id=f"rid-fix-{i}")
                bodies.append(json.dumps(resp.body, sort_keys=True))
            return bodies
        finally:
            handle.stop()

    def test_responses_identical_with_telemetry_on(self, tmp_path):
        plain = self._collect(ServeConfig())
        with TelemetrySession(tmp_path / "t"):
            traced = self._collect(ServeConfig(
                access_log=str(tmp_path / "t" / "access.jsonl")))
        assert plain == traced


class TestEndToEndTrace:
    def test_one_track_per_request_across_processes(self, tmp_path):
        """The acceptance run: telemetry + worker pool + live server;
        every request's spans share its id, workers included."""
        outdir = tmp_path / "telemetry"
        rids = [f"rid-e2e-{i}" for i in range(2)]
        with TelemetrySession(outdir) as session:
            handle = start_in_thread(ServeConfig(
                workers=2,
                access_log=str(outdir / "access.jsonl")))
            try:
                client = _client(handle)
                # compare fans 2 tasks into the pool in one batch
                resp = client.request(
                    "/v1/compare", {"workloads": ["daxpy"],
                                    "instructions": 400},
                    request_id=rids[0])
                assert resp.ok
                resp = client.request(
                    "/v1/simulate", {"workload": "xz",
                                     "instructions": 500},
                    request_id=rids[1])
                assert resp.ok
            finally:
                handle.stop()
        for rid in rids:
            spans = [sp for sp in session.tracer.spans
                     if sp.args.get("request_id") == rid]
            names = {sp.name for sp in spans}
            # front end + per-request segments + engine-side work
            assert "serve.request" in names
            assert "serve.exec" in names
            assert "pipeline.simulate" in names
            on_track = [sp for sp in spans
                        if sp.track == f"req:{rid}"]
            assert {"serve.request", "pipeline.simulate"} \
                <= {sp.name for sp in on_track}
        # the worker-pool spans really crossed a process boundary
        compare_sims = [sp for sp in session.tracer.spans
                        if sp.name == "pipeline.simulate"
                        and sp.args.get("request_id") == rids[0]]
        assert len(compare_sims) == 2      # power9 + power10
        # exported artifacts: trace opens in Perfetto, manifest valid
        trace = json.loads((outdir / "trace.json").read_text())
        req_events = [e for e in trace["traceEvents"]
                      if e.get("args", {}).get("request_id")
                      in set(rids)]
        assert req_events
        validate_manifest(json.loads(
            (outdir / "manifest.json").read_text()))
        rows = read_access_log(outdir / "access.jsonl")
        assert {r["id"] for r in rows} >= set(rids)
