"""Tests for the observability subsystem (repro.obs) and its wiring
through the simulator, power stack, power management, and CLI."""

import csv
import json

import pytest

from repro.cli import main
from repro.core import power10_config, simulate_trace
from repro.core.pipeline import simulate
from repro.errors import SimulationError, TelemetryError
from repro.obs import (CycleIntervalSampler, MetricsRegistry,
                       TelemetrySession, Tracer, config_fingerprint,
                       get_registry, get_tracer, set_registry,
                       set_tracer)
from repro.pm import (CoreTelemetry, OnChipController, WofDesignPoint,
                      WofGovernor)
from repro.power.apex import Apex
from repro.workloads import daxpy_trace


# ---------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------

class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        runs = reg.counter("runs", "test counter")
        runs.inc(config="p9")
        runs.inc(config="p9")
        runs.inc(3, config="p10")
        assert runs.value(config="p9") == 2
        assert runs.value(config="p10") == 3
        assert runs.value(config="other") == 0
        assert runs.total == 5

    def test_counter_rejects_decrease(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.counter("c").inc(-1)

    def test_registration_is_idempotent_per_kind(self):
        reg = MetricsRegistry()
        a = reg.counter("same")
        assert reg.counter("same") is a
        with pytest.raises(TelemetryError):
            reg.gauge("same")

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("watts")
        g.set(4.5, core=0)
        g.add(0.5, core=0)
        assert g.value(core=0) == 5.0

    def test_histogram_buckets_and_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        summary = h.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.5 and summary["max"] == 100.0
        assert summary["sum"] == pytest.approx(106.2)
        buckets = h.collect()[0]["buckets"]
        assert [b["count"] for b in buckets] == [2, 1, 1]
        assert buckets[-1]["le"] == "+Inf"

    def test_collect_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.counter("c", "desc").inc(config="x")
        reg.histogram("h").observe(0.01)
        reg.gauge("g").set(1.0)
        snapshot = json.loads(json.dumps(reg.collect()))
        assert set(snapshot) == {"c", "h", "g"}
        assert snapshot["c"]["kind"] == "counter"
        assert snapshot["c"]["series"][0]["labels"] == {"config": "x"}

    def test_registry_swap_restores_previous(self):
        mine = MetricsRegistry()
        prev = set_registry(mine)
        try:
            assert get_registry() is mine
        finally:
            set_registry(prev)
        assert get_registry() is prev


# ---------------------------------------------------------------------
# span tracing
# ---------------------------------------------------------------------

class TestTracing:
    def test_nested_spans_recorded_with_containment(self):
        tracer = Tracer()
        with tracer.span("outer", "test") as outer:
            with tracer.span("inner", "test", detail=1) as inner:
                pass
        spans = {s.name: s for s in tracer.spans}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"].depth == 1
        assert spans["outer"].depth == 0
        assert spans["inner"].start_ns >= spans["outer"].start_ns
        assert spans["inner"].end_ns <= spans["outer"].end_ns
        assert spans["inner"].args == {"detail": 1}

    def test_disabled_tracer_times_but_retains_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x") as sp:
            pass
        assert sp.duration_s >= 0.0
        assert sp.end_ns is not None
        assert tracer.spans == []

    def test_chrome_trace_export_round_trip(self):
        tracer = Tracer()
        with tracer.span("a", "cat1", config="P10"):
            with tracer.span("b", "cat2"):
                pass
        doc = json.loads(json.dumps(tracer.to_chrome_trace()))
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        # one thread_name metadata event naming the single track
        assert [m["name"] for m in meta] == ["thread_name"]
        assert meta[0]["tid"] == events[0]["tid"]
        assert len(events) == 2
        # sorted by start: parent first
        assert [e["name"] for e in events] == ["a", "b"]
        for e in events:
            assert e["ph"] == "X"
            assert set(e) >= {"name", "cat", "ts", "dur", "pid", "tid"}
        assert events[0]["args"]["config"] == "P10"
        # child interval inside parent interval (microseconds)
        assert events[0]["ts"] <= events[1]["ts"]
        assert (events[1]["ts"] + events[1]["dur"]
                <= events[0]["ts"] + events[0]["dur"] + 1e-3)

    def test_global_tracer_capture_of_simulator_spans(self, p10):
        tracer = Tracer()
        prev = set_tracer(tracer)
        try:
            simulate(p10, daxpy_trace(500))
        finally:
            set_tracer(prev)
        names = [s.name for s in tracer.spans]
        assert "pipeline.simulate" in names
        assert get_tracer() is prev

    def test_simulate_trace_span_nesting(self, p10):
        tracer = Tracer()
        prev = set_tracer(tracer)
        try:
            simulate_trace(p10, daxpy_trace(500))
        finally:
            set_tracer(prev)
        names = [s.name for s in tracer.spans]
        assert "simulator.simulate_trace" in names
        assert "pipeline.simulate" in names
        assert "einspower.report" in names
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["pipeline.simulate"].depth == 1
        assert by_name["simulator.simulate_trace"].depth == 0


# ---------------------------------------------------------------------
# cycle-interval sampler
# ---------------------------------------------------------------------

class TestSampler:
    def test_requires_positive_interval(self):
        with pytest.raises(TelemetryError):
            CycleIntervalSampler(0)

    def test_sampling_does_not_perturb_results(self, p10, small_trace):
        plain = simulate(p10, small_trace)
        sampler = CycleIntervalSampler(1000)
        sampled = simulate(p10, small_trace, sampler=sampler)
        assert sampled.cycles == plain.cycles
        assert sampled.activity.events == plain.activity.events
        assert sampled.activity.unit_busy_cycles \
            == plain.activity.unit_busy_cycles

    def test_deterministic_series(self, p10, small_trace):
        def run():
            s = CycleIntervalSampler(1000)
            simulate(p10, small_trace, sampler=s)
            return [(x.run, x.index, x.cycle_start, x.cycle_end,
                     x.instructions, x.ipc, x.proxy_w,
                     tuple(sorted(x.unit_activity.items())))
                    for x in s.samples]
        assert run() == run()

    def test_samples_cover_run_contiguously(self, p10, small_trace):
        sampler = CycleIntervalSampler(800)
        result = simulate(p10, small_trace, sampler=sampler)
        samples = sampler.samples
        assert len(samples) >= 2
        assert samples[0].cycle_start == 0
        for prev, cur in zip(samples, samples[1:]):
            assert cur.cycle_start == prev.cycle_end
        assert samples[-1].cycle_end <= result.cycles
        # event deltas sum back to the totals (warmup=0 run)
        total_complete = sum(s.events["complete_instr"] for s in samples)
        assert total_complete == result.activity.events["complete_instr"]

    def test_interval_fields_are_consistent(self, p10):
        sampler = CycleIntervalSampler(500)
        simulate(p10, daxpy_trace(2000), sampler=sampler)
        for s in sampler.samples:
            assert s.cycles == s.cycle_end - s.cycle_start
            assert s.ipc == pytest.approx(s.instructions / s.cycles)
            assert s.proxy_w > 0
            assert 0.0 <= s.unit_activity["lsu"] <= 1.0

    def test_multi_run_segments_keep_labels(self, p9, p10):
        sampler = CycleIntervalSampler(1000)
        trace = daxpy_trace(1500)
        simulate(p9, trace, sampler=sampler)
        simulate(p10, trace, sampler=sampler)
        assert sampler.runs == [f"POWER9:{trace.name}",
                                f"POWER10:{trace.name}"]
        assert all(s.cycle_start == 0
                   for s in sampler.samples if s.index == 0)
        assert sampler.series("proxy_w", run=f"POWER10:{trace.name}")

    def test_series_rejects_unknown_field(self, p10):
        sampler = CycleIntervalSampler(1000)
        simulate(p10, daxpy_trace(800), sampler=sampler)
        with pytest.raises(TelemetryError):
            sampler.series("nope")


# ---------------------------------------------------------------------
# exporters, manifests, session
# ---------------------------------------------------------------------

class TestExport:
    def test_config_fingerprint_stable_and_distinct(self, p9, p10):
        assert config_fingerprint(p9) == config_fingerprint(
            type(p9)(**{f.name: getattr(p9, f.name)
                        for f in p9.__dataclass_fields__.values()}))
        assert config_fingerprint(p9) != config_fingerprint(p10)

    def test_session_writes_all_artifacts(self, tmp_path, p10):
        outdir = tmp_path / "telemetry"
        with TelemetrySession(outdir, interval_cycles=800,
                              argv=["test"]) as session:
            simulate_trace(power10_config(), daxpy_trace(2000),
                           sampler=session.sampler)
            session.record_run(p10, "daxpy")
        for name in ("manifest.json", "metrics.json", "trace.json",
                     "samples.csv"):
            assert (outdir / name).exists(), name
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["schema"] == 1
        assert manifest["argv"] == ["test"]
        assert manifest["interval_cycles"] == 800
        assert manifest["configs"]["POWER10"] \
            == config_fingerprint(p10)
        assert manifest["samples"] > 0
        assert manifest["spans"] > 0
        assert manifest["timings"]["elapsed_seconds"] > 0
        metrics = json.loads((outdir / "metrics.json").read_text())
        assert "repro_simulations_total" in metrics
        trace_doc = json.loads((outdir / "trace.json").read_text())
        assert any(e["name"] == "simulator.simulate_trace"
                   for e in trace_doc["traceEvents"])

    def test_samples_csv_schema(self, tmp_path, p10):
        outdir = tmp_path / "t"
        with TelemetrySession(outdir, interval_cycles=500) as session:
            simulate(p10, daxpy_trace(2000), sampler=session.sampler)
        with (outdir / "samples.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        first = rows[0]
        assert first["run"].startswith("POWER10:")
        assert int(first["cycle_start"]) == 0
        assert float(first["proxy_w"]) > 0
        assert "util_mma" in first

    def test_session_restores_globals(self, tmp_path):
        before_reg, before_tr = get_registry(), get_tracer()
        with TelemetrySession(tmp_path / "x") as session:
            assert get_registry() is session.registry
            assert get_tracer() is session.tracer
        assert get_registry() is before_reg
        assert get_tracer() is before_tr


# ---------------------------------------------------------------------
# wiring: apex timing, perf_per_watt, OCC from samples
# ---------------------------------------------------------------------

class TestWiring:
    def test_apex_elapsed_seconds_still_reported(self, p10):
        run = Apex(p10).run(daxpy_trace(2000),
                            interval_instructions=500)
        assert run.elapsed_seconds > 0.0

    def test_perf_per_watt_without_power_raises(self, p10, daxpy):
        run = simulate_trace(p10, daxpy, with_power=False)
        with pytest.raises(SimulationError, match="without power"):
            run.perf_per_watt

    def test_perf_per_watt_zero_power_distinct_message(self, p10,
                                                       daxpy):
        run = simulate_trace(p10, daxpy, with_power=False)
        run.power_w = 0.0
        with pytest.raises(SimulationError, match="zero"):
            run.perf_per_watt

    def test_perf_per_watt_normal(self, p10, daxpy):
        run = simulate_trace(p10, daxpy)
        assert run.perf_per_watt == pytest.approx(
            run.ipc / run.power_w)

    def test_occ_runs_from_sampler_series(self, p10):
        sampler = CycleIntervalSampler(500)
        simulate(p10, daxpy_trace(4000), sampler=sampler)
        samples = sampler.samples
        assert len(samples) >= 3
        governor = WofGovernor(p10, WofDesignPoint(
            tdp_core_w=8.0, rdp_core_w=9.0))
        occ = OnChipController(governor, cores=2, socket_budget_w=16.0)
        history = occ.run_from_samples({0: samples, 1: samples})
        assert len(history) == len(samples)
        assert history[0].socket_power_w == pytest.approx(
            2 * samples[0].proxy_w)
        assert occ.history == history

    def test_occ_from_samples_requires_all_cores(self, p10):
        sampler = CycleIntervalSampler(500)
        simulate(p10, daxpy_trace(2000), sampler=sampler)
        governor = WofGovernor(p10, WofDesignPoint(
            tdp_core_w=8.0, rdp_core_w=9.0))
        occ = OnChipController(governor, cores=2, socket_budget_w=16.0)
        from repro.errors import ModelError
        with pytest.raises(ModelError):
            occ.run_from_samples({0: sampler.samples})

    def test_core_telemetry_from_sample_flags(self, p10, mma_kernel):
        sampler = CycleIntervalSampler(500)
        simulate(p10, mma_kernel, sampler=sampler)
        busy = [CoreTelemetry.from_sample(s) for s in sampler.samples]
        assert any(t.mma_busy for t in busy)
        assert all(t.proxy_power_w > 0 for t in busy)


# ---------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------

class TestCliTelemetry:
    def test_compare_telemetry_dir_produces_artifacts(self, tmp_path,
                                                      capsys):
        outdir = tmp_path / "out"
        assert main(["compare", "--instructions", "1200",
                     "--telemetry-dir", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert set(manifest["configs"]) == {"POWER9", "POWER10"}
        assert manifest["samples"] > 0
        assert manifest["argv"][0] == "compare"
        trace_doc = json.loads((outdir / "trace.json").read_text())
        names = {e["name"] for e in trace_doc["traceEvents"]}
        assert "cli.compare" in names and "pipeline.simulate" in names
        with (outdir / "samples.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {r["run"].split(":")[0] for r in rows} \
            == {"POWER9", "POWER10"}

    def test_compare_json_output(self, capsys):
        assert main(["compare", "--instructions", "1200",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "compare"
        assert payload["aggregate"]["perf_ratio"] > 0
        assert len(payload["proxies"]) > 0

    def test_compare_json_is_table1(self, capsys):
        # both run the SPEC proxies at 1,200 instructions, warmup 0.3,
        # through the one weighted comparison
        from repro.exec.figs import run_scenario
        assert main(["compare", "--instructions", "1200",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["command", "instructions", "proxies",
                                 "aggregate", "paper"]
        assert list(payload["proxies"][0]) == [
            "workload", "weight", "p9_ipc", "p10_ipc", "p9_power_w",
            "p10_power_w", "perf_ratio", "power_ratio"]
        _rich, scalars = run_scenario("table1", scale=0.15)
        assert payload["aggregate"]["perf_ratio"] == scalars["perf_ratio"]
        assert payload["aggregate"]["power_ratio"] \
            == scalars["power_ratio"]

    def test_gemm_json_output(self, capsys):
        assert main(["gemm", "--k", "300", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [k["kernel"] for k in payload["kernels"]] \
            == ["POWER9 VSU", "POWER10 VSU", "POWER10 MMA"]
        assert payload["kernels"][2]["flops_ratio"] > 1.0

    def test_trace_command_defaults_to_telemetry(self, tmp_path,
                                                 capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--workload", "daxpy",
                     "--instructions", "3000"]) == 0
        out = capsys.readouterr().out
        assert "daxpy" in out and "interval samples" in out
        assert (tmp_path / "telemetry-out" / "manifest.json").exists()

    def test_other_commands_do_not_capture_by_default(self, tmp_path,
                                                      capsys,
                                                      monkeypatch):
        # regression: the trace subcommand's telemetry-dir default must
        # not leak into other subcommands via the shared parent parser
        monkeypatch.chdir(tmp_path)
        assert main(["depth"]) == 0
        assert not (tmp_path / "telemetry-out").exists()
        assert list(tmp_path.iterdir()) == []

    def test_trace_command_custom_dir_and_interval(self, tmp_path):
        outdir = tmp_path / "t"
        assert main(["trace", "--workload", "dgemm-mma",
                     "--instructions", "4000", "--config", "power10",
                     "--telemetry-dir", str(outdir),
                     "--sample-interval", "700"]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["interval_cycles"] == 700
        assert manifest["runs"][0]["config"] == "POWER10"
