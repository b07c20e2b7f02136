"""Tests for ``repro perfwatch`` — the bench regression tripwire."""

import json

import pytest

from repro.errors import ExecError
from repro.cli import main
from repro.exec.perfwatch import (build_baseline, collect_current,
                                  compare, load_baseline, run_perfwatch)


def _write_bench(root, scenarios, serve_p99=None, availability=None,
                 cluster_rate=None):
    root.mkdir(parents=True, exist_ok=True)
    for name, wall in scenarios.items():
        (root / f"BENCH_{name}.json").write_text(json.dumps(
            {"scenario": name, "wall_s": wall}))
    if serve_p99 is not None:
        doc = {"schema": 2, "latency_s": {"p50": serve_p99 / 2.0,
                                          "p99": serve_p99}}
        if availability is not None:
            doc["availability"] = {"rate": availability}
        (root / "BENCH_serve.json").write_text(json.dumps(doc))
    if cluster_rate is not None:
        (root / "BENCH_cluster.json").write_text(json.dumps(
            {"schema": 1, "availability": {"rate": cluster_rate}}))
    return root


class TestCollect:
    def test_collects_scenarios_and_serve_p99(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.5, "fig07": 0.25},
                     serve_p99=0.8)
        cur = collect_current(tmp_path)
        assert cur["scenarios"] == {"fig05": 1.5, "fig07": 0.25}
        assert cur["serve"] == 0.8

    def test_sweep_artifact_is_ignored(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0})
        (tmp_path / "BENCH_sweep.json").write_text(
            json.dumps({"points": []}))
        assert collect_current(tmp_path)["scenarios"] == {"fig05": 1.0}

    def test_empty_dir_is_an_error(self, tmp_path):
        with pytest.raises(ExecError):
            collect_current(tmp_path)
        with pytest.raises(ExecError):
            collect_current(tmp_path / "missing")

    def test_malformed_artifact_is_an_error(self, tmp_path):
        (tmp_path / "BENCH_bad.json").write_text('{"wall_s": "fast"}')
        with pytest.raises(ExecError):
            collect_current(tmp_path)


class TestCompare:
    def test_unchanged_rerun_is_ok(self):
        cur = {"scenarios": {"fig05": 1.0, "fig07": 0.2},
               "serve": 0.5}
        base = build_baseline(cur, tolerance=0.1)
        report = compare(base, cur)
        assert report["ok"]
        assert all(r["status"] == "ok" for r in report["rows"])

    def test_slowdown_beyond_tolerance_regresses(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=0.1)
        # +25% against a 10% budget: regression
        report = compare(base, {"scenarios": {"fig05": 1.25},
                                "serve": None})
        assert not report["ok"]
        (row,) = report["rows"]
        assert row["status"] == "regression"
        assert row["ratio"] == pytest.approx(1.25)

    def test_slowdown_within_tolerance_passes(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=0.5)
        assert compare(base, {"scenarios": {"fig05": 1.25},
                              "serve": None})["ok"]

    def test_speedup_never_fails(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=0.1)
        assert compare(base, {"scenarios": {"fig05": 0.2},
                              "serve": None})["ok"]

    def test_serve_p99_row_judged_like_scenarios(self):
        base = build_baseline({"scenarios": {}, "serve": 0.5},
                              tolerance=0.1)
        report = compare(base, {"scenarios": {}, "serve": 1.0})
        assert not report["ok"]
        (row,) = report["rows"]
        assert row["name"] == "serve:p99"

    def test_missing_and_new_scenarios_never_fail(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=0.1)
        report = compare(base, {"scenarios": {"fig07": 9.9},
                                "serve": None})
        assert report["ok"]
        assert {r["name"]: r["status"] for r in report["rows"]} \
            == {"fig05": "missing", "fig07": "new"}

    def test_tolerance_override_beats_per_scenario(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=5.0)
        assert not compare(base, {"scenarios": {"fig05": 1.5},
                                  "serve": None},
                           tolerance=0.1)["ok"]


class TestAvailability:
    def test_collect_reads_availability_rate(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0}, serve_p99=0.8,
                     availability=0.9)
        cur = collect_current(tmp_path)
        # "serve" must stay a bare float for old consumers;
        # availability is its own top-level key
        assert cur["serve"] == 0.8
        assert cur["availability"] == 0.9

    def test_reports_without_availability_still_collect(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0}, serve_p99=0.8)
        cur = collect_current(tmp_path)
        assert cur["serve"] == 0.8
        assert cur["availability"] is None

    def test_baseline_pins_rate_with_max_drop(self):
        cur = {"scenarios": {"fig05": 1.0}, "serve": 0.5,
               "availability": 1.0}
        base = build_baseline(cur, tolerance=0.1)
        assert base["availability"]["rate"] == 1.0
        assert base["availability"]["max_drop"] > 0

    def test_drop_beyond_budget_regresses(self):
        cur = {"scenarios": {}, "serve": 0.5, "availability": 1.0}
        base = build_baseline(cur, tolerance=0.1)
        base["availability"]["max_drop"] = 0.1
        report = compare(base, {"scenarios": {}, "serve": 0.5,
                                "availability": 0.8})
        assert not report["ok"]
        row = next(r for r in report["rows"]
                   if r["name"] == "serve:availability")
        assert row["status"] == "regression"
        assert row["drop"] == pytest.approx(0.2)

    def test_drop_within_budget_passes(self):
        cur = {"scenarios": {}, "serve": 0.5, "availability": 1.0}
        base = build_baseline(cur, tolerance=0.1)
        base["availability"]["max_drop"] = 0.25
        assert compare(base, {"scenarios": {}, "serve": 0.5,
                              "availability": 0.9})["ok"]

    def test_availability_improvement_never_fails(self):
        base = build_baseline({"scenarios": {}, "serve": 0.5,
                               "availability": 0.7}, tolerance=0.1)
        assert compare(base, {"scenarios": {}, "serve": 0.5,
                              "availability": 1.0})["ok"]

    def test_old_baseline_without_availability_still_works(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=0.1)
        assert "availability" not in base
        report = compare(base, {"scenarios": {"fig05": 1.0},
                                "serve": None, "availability": 0.5})
        assert report["ok"]
        assert all(r["name"] != "serve:availability"
                   for r in report["rows"])

    def test_chaos_artifact_is_ignored(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0})
        (tmp_path / "BENCH_chaos.json").write_text(
            json.dumps({"schema": 1, "phases": []}))
        assert collect_current(tmp_path)["scenarios"] == {"fig05": 1.0}

    def test_availability_watch_end_to_end(self, tmp_path, capsys):
        bench = _write_bench(tmp_path / "bench", {"fig05": 1.0},
                             serve_p99=0.4, availability=1.0)
        baseline = tmp_path / "perf-baseline.json"
        assert run_perfwatch(bench, baseline, tolerance=0.5,
                             update_baseline=True) == 0
        _write_bench(bench, {"fig05": 1.0}, serve_p99=0.4,
                     availability=0.5)
        assert run_perfwatch(bench, baseline, tolerance=0.5) == 1
        out = capsys.readouterr().out
        assert "serve:availability" in out
        assert "FAIL" in out


class TestClusterRow:
    def test_collect_reads_cluster_availability(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0}, cluster_rate=0.95)
        cur = collect_current(tmp_path)
        assert cur["cluster"] == 0.95
        # the cluster artifact is not a per-scenario timing
        assert cur["scenarios"] == {"fig05": 1.0}

    def test_cluster_artifact_absent_is_fine(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0})
        assert collect_current(tmp_path)["cluster"] is None

    def test_cluster_artifact_without_rate_is_an_error(self, tmp_path):
        _write_bench(tmp_path, {"fig05": 1.0})
        (tmp_path / "BENCH_cluster.json").write_text(
            json.dumps({"schema": 1}))
        with pytest.raises(ExecError):
            collect_current(tmp_path)

    def test_baseline_pins_cluster_rate(self):
        cur = {"scenarios": {}, "serve": None, "cluster": 1.0}
        base = build_baseline(cur, tolerance=0.1)
        assert base["cluster"]["rate"] == 1.0
        assert base["cluster"]["max_drop"] > 0

    def test_drop_beyond_budget_regresses(self):
        base = build_baseline(
            {"scenarios": {}, "serve": None, "cluster": 1.0},
            tolerance=0.1)
        base["cluster"]["max_drop"] = 0.1
        report = compare(base, {"scenarios": {}, "serve": None,
                                "cluster": 0.7})
        assert not report["ok"]
        row = next(r for r in report["rows"]
                   if r["name"] == "cluster:availability")
        assert row["status"] == "regression"
        assert row["drop"] == pytest.approx(0.3)

    def test_drop_within_budget_passes(self):
        base = build_baseline(
            {"scenarios": {}, "serve": None, "cluster": 1.0},
            tolerance=0.1)
        base["cluster"]["max_drop"] = 0.25
        assert compare(base, {"scenarios": {}, "serve": None,
                              "cluster": 0.9})["ok"]

    def test_old_baseline_without_cluster_row_still_works(self):
        base = build_baseline({"scenarios": {"fig05": 1.0},
                               "serve": None}, tolerance=0.1)
        assert "cluster" not in base
        report = compare(base, {"scenarios": {"fig05": 1.0},
                                "serve": None, "cluster": 0.5})
        assert report["ok"]
        assert all(r["name"] != "cluster:availability"
                   for r in report["rows"])

    def test_cluster_watch_end_to_end(self, tmp_path, capsys):
        bench = _write_bench(tmp_path / "bench", {"fig05": 1.0},
                             cluster_rate=1.0)
        baseline = tmp_path / "perf-baseline.json"
        assert run_perfwatch(bench, baseline, tolerance=0.5,
                             update_baseline=True) == 0
        _write_bench(bench, {"fig05": 1.0}, cluster_rate=0.4)
        assert run_perfwatch(bench, baseline, tolerance=0.5) == 1
        out = capsys.readouterr().out
        assert "cluster:availability" in out
        assert "FAIL" in out


class TestRunPerfwatch:
    def test_update_then_rerun_roundtrip(self, tmp_path, capsys):
        bench = _write_bench(tmp_path / "bench",
                             {"fig05": 1.0}, serve_p99=0.4)
        baseline = tmp_path / "base" / "perf-baseline.json"
        assert run_perfwatch(bench, baseline, tolerance=0.1,
                             update_baseline=True) == 0
        doc = load_baseline(baseline)
        assert doc["scenarios"]["fig05"]["wall_s"] == 1.0
        assert doc["serve"]["p99_s"] == 0.4
        # unchanged artifacts against the fresh baseline: exit 0
        assert run_perfwatch(bench, baseline, tolerance=0.1) == 0
        out = capsys.readouterr().out
        assert "perfwatch: ok" in out

    def test_synthetic_slowdown_exits_nonzero(self, tmp_path, capsys):
        bench = _write_bench(tmp_path / "bench", {"fig05": 1.0})
        baseline = tmp_path / "perf-baseline.json"
        assert run_perfwatch(bench, baseline, tolerance=0.2,
                             update_baseline=True) == 0
        # inflate wall time 20%+ past the budget
        _write_bench(bench, {"fig05": 1.3})
        assert run_perfwatch(bench, baseline, tolerance=0.2) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bad_baseline_schema_is_an_error(self, tmp_path):
        bench = _write_bench(tmp_path / "bench", {"fig05": 1.0})
        baseline = tmp_path / "perf-baseline.json"
        baseline.write_text(json.dumps({"schema": 99,
                                        "scenarios": {}}))
        with pytest.raises(ExecError):
            run_perfwatch(bench, baseline)

    def test_cli_main_exit_codes(self, tmp_path, capsys):
        bench = _write_bench(tmp_path / "bench", {"fig05": 1.0})
        baseline = tmp_path / "perf-baseline.json"
        argv = ["perfwatch", "--bench-dir", str(bench),
                "--baseline", str(baseline), "--tolerance", "0.1"]
        assert main(argv + ["--update-baseline"]) == 0
        assert main(argv) == 0
        _write_bench(bench, {"fig05": 2.5})
        assert main(argv) == 1
        # unreadable baseline: usage error, exit 2
        baseline.write_text("not json")
        assert main(argv) == 2
        capsys.readouterr()


class TestCommittedBaseline:
    def test_repo_baseline_parses_and_is_generous(self):
        """The committed baseline must load, and its tolerances must be
        wide enough to absorb cross-machine wall-time noise."""
        from pathlib import Path
        path = Path(__file__).resolve().parent.parent \
            / "benchmarks" / "perf-baseline.json"
        doc = load_baseline(path)
        assert doc["scenarios"], "committed baseline has no scenarios"
        assert float(doc.get("default_tolerance", 0.0)) >= 2.0
        avail = doc["availability"]
        assert 0.0 < avail["rate"] <= 1.0
        # generous: cross-machine load variance must not trip it
        assert avail["max_drop"] >= 0.2
        cluster = doc["cluster"]
        assert 0.0 < cluster["rate"] <= 1.0
        assert cluster["max_drop"] >= 0.2
