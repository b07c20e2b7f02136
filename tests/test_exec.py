"""The execution engine's contracts: cache, fan-out, bit-identity.

The acceptance bar for the engine is strict equality, not tolerance:
serial, ``workers=4``, and warm-cache execution must produce
bit-identical results for the hot paths that were rewired through it
(the config x trace sweep and the fault-injection campaign).
"""

import json
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.fastsim.replay
from repro.core import power9_config, power10_config
from repro.core.simulator import measurement_from_result, simulate_trace
from repro.errors import ExecError
from repro.exec import (Engine, ExecPlan, ResultCache, campaign_task,
                        fingerprint_config, fingerprint_trace,
                        resolve_cache, resolve_workers, run_sim_plan,
                        run_traces, sim_result_from_json,
                        sim_result_to_json, sim_task, task_fingerprint)
from repro.exec import cache as cache_module
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience import CampaignConfig, CampaignRunner
from repro.workloads import daxpy_trace, resolve_workload
from tests.walk_oracle import simulate_reference


@pytest.fixture(autouse=True)
def _no_ambient_engine_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


# ---- fingerprints --------------------------------------------------------

class TestFingerprints:
    def test_config_fingerprint_stable(self, p10):
        assert fingerprint_config(p10) \
            == fingerprint_config(power10_config())

    def test_config_change_changes_fingerprint(self, p10, p9):
        assert fingerprint_config(p10) != fingerprint_config(p9)
        assert fingerprint_config(p10) \
            != fingerprint_config(power10_config(smt=4))

    def test_trace_fingerprint_stable(self):
        assert fingerprint_trace(daxpy_trace(400)) \
            == fingerprint_trace(daxpy_trace(400))

    def test_trace_change_changes_fingerprint(self):
        assert fingerprint_trace(daxpy_trace(400)) \
            != fingerprint_trace(daxpy_trace(401))

    def test_trace_fingerprint_pinned(self):
        """The fingerprint format is committed: changing it invalidates
        every on-disk cache entry once, so it must be deliberate."""
        assert fingerprint_trace(daxpy_trace(400)) == "4b272cb731358ca1"

    def test_keys_stable_across_processes(self, p10):
        """Fresh interpreters with different hash seeds compute the same
        trace fingerprint and ``sim_task`` key as this process."""
        trace = daxpy_trace(400)
        want = [fingerprint_trace(trace), sim_task(p10, trace).key]
        script = ("from repro.core import power10_config\n"
                  "from repro.exec import fingerprint_trace, sim_task\n"
                  "from repro.workloads import daxpy_trace\n"
                  "t = daxpy_trace(400)\n"
                  "print(fingerprint_trace(t), "
                  "sim_task(power10_config(), t).key)\n")
        src = str(Path(repro.__file__).resolve().parents[1])
        for hashseed in ("0", "4242"):
            out = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True, timeout=120,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src,
                     "PYTHONHASHSEED": hashseed})
            assert out.stdout.split() == want

    def test_params_distinguish_tasks(self, p10):
        t = daxpy_trace(400)
        assert sim_task(p10, t).key \
            != sim_task(p10, t, warmup_fraction=0.2).key
        assert sim_task(p10, t).key \
            != sim_task(p10, t, max_instructions=100).key

    @pytest.mark.parametrize("path", ["detailed", "fast"])
    def test_precomputed_trace_fingerprint_same_key(self, p10, path,
                                                     monkeypatch):
        """One key however the trace is hashed, and one result behind
        it whether ``simulate`` runs the oracle walk in place of the
        replay ("detailed") or the replay ("fast")."""
        if path == "detailed":
            monkeypatch.setattr(repro.fastsim.replay, "simulate_fast",
                                simulate_reference)
        t = daxpy_trace(400)
        task = sim_task(p10, t, trace_fingerprint=fingerprint_trace(t))
        assert task.key == sim_task(p10, t).key
        (result,) = run_sim_plan(Engine(workers=1), [task])
        assert sim_result_to_json(result) \
            == sim_result_to_json(simulate_reference(p10, t))

    def test_trace_fingerprint_is_keyword_only(self, p10):
        t = daxpy_trace(400)
        with pytest.raises(TypeError):
            sim_task(p10, t, fingerprint_trace(t))

    def test_precomputed_config_fingerprint_same_key(self, p10):
        t = daxpy_trace(300)
        for params in ({}, {"warmup_fraction": 0.3}):
            assert sim_task(power10_config(), t, **params,
                            config_fingerprint=fingerprint_config(p10),
                            ).key == sim_task(p10, t, **params).key
        assert sim_task(p10, t, trace_fingerprint=fingerprint_trace(t),
                        config_fingerprint=fingerprint_config(p10),
                        ).key == sim_task(p10, t).key

    def test_run_traces_fingerprints_its_config_once(self, p10,
                                                     monkeypatch):
        import repro.exec.executor as executor
        calls = []

        def counted(config):
            calls.append(config)
            return fingerprint_config(config)

        monkeypatch.setattr(executor, "fingerprint_config", counted)
        run_traces(p10, [daxpy_trace(300 + 20 * i) for i in range(3)])
        assert len(calls) == 1

    def test_task_fingerprint_is_hex(self):
        key = task_fingerprint("anything", 1, {"a": [2, 3]})
        assert len(key) == 32
        int(key, 16)


# ---- the cache -----------------------------------------------------------

class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = task_fingerprint("k", 1)
        assert cache.get(key) is None
        cache.put(key, {"x": 1.5, "y": [1, 2]})
        assert cache.get(key) == {"x": 1.5, "y": [1, 2]}
        assert key in cache
        assert len(cache) == 1
        assert cache.keys() == [key]
        assert cache.hits == 1 and cache.misses == 1

    def test_invalid_key_rejected(self, tmp_path):
        cache = ResultCache(tmp_path)
        for bad in ("", "short", "../escape", "UPPERCASE" * 4,
                    "zz" * 10):
            with pytest.raises(ExecError):
                cache.get(bad)

    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path):
        writer = ResultCache(tmp_path)
        key = task_fingerprint("k", 2)
        writer.put(key, {"ok": True})
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_text("{not json")
        # the disk tier is read by a cache whose memory lacks the key
        assert ResultCache(tmp_path).get(key) is None
        assert not path.exists()
        # the writer's memory tier still holds the intact text
        assert writer.get(key) == {"ok": True}

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1, k2 = task_fingerprint("a"), task_fingerprint("b")
        cache.put(k1, {}), cache.put(k2, {})
        assert cache.invalidate(k1) is True
        assert cache.invalidate(k1) is False
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_no_tmp_litter(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(task_fingerprint("a"), {"v": 1})
        leftovers = [p for p in tmp_path.rglob("*")
                     if p.is_file() and p.suffix != ".json"]
        assert leftovers == []

    def test_hit_miss_metrics(self, tmp_path):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            cache = ResultCache(tmp_path)
            key = task_fingerprint("m")
            cache.get(key)
            cache.put(key, {})
            cache.get(key)
            snap = registry.collect()
            assert snap["repro_exec_cache_misses_total"][
                "series"][0]["value"] == 1
            assert snap["repro_exec_cache_hits_total"][
                "series"][0]["value"] == 1
        finally:
            set_registry(None)

    def test_sim_result_json_roundtrip(self, p10):
        from repro.core.pipeline import simulate
        result = simulate(p10, daxpy_trace(400))
        decoded = sim_result_from_json(
            json.loads(json.dumps(sim_result_to_json(result))))
        assert sim_result_to_json(decoded) == sim_result_to_json(result)

    def test_malformed_payload_raises(self):
        with pytest.raises(ExecError):
            sim_result_from_json({"cycles": 1})


# ---- the memory tier -----------------------------------------------------

def _held(cache):
    """Bytes in ``cache``'s memory tier, checked against its tally."""
    assert cache._memory_bytes == sum(len(v)
                                      for v in cache._memory.values())
    return cache._memory_bytes


class TestMemoryTier:
    def test_filling_past_the_cap_drops_least_recent_first(
            self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 100)
        cache = ResultCache()
        keys = [task_fingerprint("cap", i) for i in range(8)]
        for key in keys:
            cache.put(key, {"v": "x" * 20})      # 29 bytes of JSON
            assert _held(cache) <= 100
        assert list(cache._memory) == keys[-3:]
        assert cache.get(keys[0]) is None
        cache.get(keys[-3])                      # now the most recent
        cache.put(task_fingerprint("cap", 8), {"v": "y" * 20})
        assert keys[-2] not in cache and keys[-3] in cache
        assert _held(cache) <= 100

    def test_an_entry_over_the_cap_is_not_kept(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 100)
        cache = ResultCache()
        small, big = task_fingerprint("small"), task_fingerprint("big")
        cache.put(small, {"v": 1})
        cache.put(big, {"v": "x" * 200})
        assert cache.get(big) is None
        assert cache.get(small) == {"v": 1}

    def test_invalidate_and_clear_drop_memory(self, tmp_path):
        for root in (None, tmp_path):
            cache = ResultCache(root)
            k1, k2 = task_fingerprint("a"), task_fingerprint("b")
            cache.put(k1, {"v": 1}), cache.put(k2, {"v": 2})
            assert cache.invalidate(k1) is True
            assert cache.invalidate(k1) is False
            assert cache.get(k1) is None
            assert cache.clear() == 1
            assert cache.get(k2) is None
            assert len(cache) == 0 and _held(cache) == 0

    def test_callers_cannot_change_a_later_hit(self):
        cache = ResultCache()
        key = task_fingerprint("mut")
        stored = {"events": {"a": 1}, "xs": [1, 2]}
        cache.put(key, stored)
        stored["xs"].append(3)
        first = cache.get(key)
        first["events"]["a"] = 99
        first["xs"].clear()
        assert cache.get(key) == {"events": {"a": 1}, "xs": [1, 2]}

    def test_memory_hits_count_as_hits(self):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            cache = ResultCache()
            key = task_fingerprint("h")
            assert cache.get(key) is None
            cache.put(key, {"v": 1})
            cache.get(key), cache.get(key)
            assert cache.stats() == {"hits": 2, "misses": 1,
                                     "corrupt": 0, "hit_rate": 2 / 3}
            snap = registry.collect()
            assert snap["repro_exec_cache_hits_total"][
                "series"][0]["value"] == 2
        finally:
            set_registry(None)

    def test_memory_only_lookup_never_reads_the_disk(self, tmp_path,
                                                     monkeypatch):
        key = task_fingerprint("disk-only")
        ResultCache(tmp_path).put(key, {"v": 1})
        cache = ResultCache(tmp_path)
        reads = []
        real_read = cache._read_disk
        monkeypatch.setattr(cache, "_read_disk",
                            lambda *a: reads.append(a) or real_read(*a))
        # a miss counts nothing: the full lookup after it does
        assert cache.get(key, memory_only=True) is None
        assert (cache.hits, cache.misses, reads) == (0, 0, [])
        assert cache.get(key) == {"v": 1}
        assert (cache.hits, cache.misses, len(reads)) == (1, 0, 1)
        assert cache.get(key, memory_only=True) == {"v": 1}
        assert (cache.hits, cache.misses, len(reads)) == (2, 0, 1)

    def test_instances_on_one_directory_do_not_share_memory(
            self, tmp_path):
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        key = task_fingerprint("shared")
        a.put(key, {"v": 1})
        assert b.get(key) == {"v": 1}            # through the disk
        a.invalidate(key)                        # a's memory and disk
        assert a.get(key) is None
        assert b.get(key) == {"v": 1}            # b's own memory
        assert ResultCache(tmp_path).get(key) is None

    def test_memory_only_cache_has_no_directory(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = resolve_cache(None)
        assert cache.root is None
        cache.put(task_fingerprint("m"), {"v": 1})
        assert cache.keys() == [task_fingerprint("m")]
        assert list(tmp_path.iterdir()) == []
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert resolve_cache(None).root == tmp_path / "c"

    def test_threads_keep_the_tally_exact(self, monkeypatch):
        """Eight threads put, get and invalidate overlapping keys with a
        tiny switch interval; the byte tally must still match what the
        tier holds, and stay under the cap.  Half the threads look up
        the memory tier alone, as a server's event loop does beside its
        engine thread; no hit or miss count may be lost."""
        monkeypatch.setattr(cache_module, "MEMORY_BYTES", 2000)
        cache = ResultCache()
        keys = [task_fingerprint("t", i) for i in range(64)]
        errors = []
        hits, misses = [0] * 8, [0] * 8

        def worker(seed):
            try:
                for i in range(1000):
                    key = keys[(seed * 7 + i) % len(keys)]
                    memory_only = seed % 2 == 1
                    if cache.get(key, memory_only=memory_only) is None:
                        misses[seed] += not memory_only
                        cache.put(key, {"v": "x" * (i % 50)})
                    else:
                        hits[seed] += 1
                    if i % 37 == 0:
                        cache.invalidate(key)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,))
                       for n in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert _held(cache) <= 2000
        assert (cache.hits, cache.misses) == (sum(hits), sum(misses))

    def test_engine_runs_a_repeated_task_once(self, p10):
        engine = Engine(workers=1)
        assert engine.cache.root is None
        plan = _plan(p10, 2)
        first, again = {}, {}
        results = engine.run(ExecPlan(list(plan)), first)
        assert engine.run(ExecPlan(list(plan)), again) == results
        assert set(first.values()) == {"executed"}
        assert set(again.values()) == {"cache"}
        assert engine.cache.hits == 2
        # a fresh engine has a fresh tier: it executes everything
        fresh = {}
        Engine(workers=1).run(ExecPlan(list(plan)), fresh)
        assert set(fresh.values()) == {"executed"}


# ---- engine configuration ------------------------------------------------

class TestResolveWorkers:
    def test_default_is_serial(self):
        assert resolve_workers() == 1

    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_bad_values_rejected(self, monkeypatch):
        with pytest.raises(ExecError):
            resolve_workers(0)
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ExecError):
            resolve_workers()


# ---- engine execution ----------------------------------------------------

def _plan(config, n=3):
    return [sim_task(config, daxpy_trace(300 + 50 * i))
            for i in range(n)]


def _boom(payload):
    """Failing task runner (top-level so workers can run it)."""
    raise ValueError(f"task {payload} failed")


class TestEngine:
    def test_unknown_kind_rejected_up_front(self):
        from repro.exec import ExecTask
        plan = ExecPlan([ExecTask(kind="nope",
                                  key=task_fingerprint("x"),
                                  payload=None)])
        with pytest.raises(ExecError):
            Engine(workers=1).run(plan)

    def test_run_sim_plan_rejects_foreign_kinds(self):
        task = campaign_task(
            CampaignConfig(seed=1, runs=1, workload="daxpy",
                           instructions=300, faults_per_run=1,
                           interval_cycles=150), 0)
        with pytest.raises(ExecError):
            run_sim_plan(Engine(workers=1), [task])

    def test_duplicate_keys_execute_once(self, p10, tmp_path):
        cache = ResultCache(tmp_path)
        task = sim_task(p10, daxpy_trace(300))
        results = Engine(workers=1, cache=cache).run(
            ExecPlan([task, task, task]))
        assert len(results) == 3
        assert results[0] == results[1] == results[2]
        assert cache.misses == 1      # looked up once, ran once
        assert len(cache) == 1

    def test_lookup_counts_a_hit_as_run_does(self, p10):
        registry = MetricsRegistry()
        set_registry(registry)
        try:
            engine = Engine(workers=1)
            task = sim_task(p10, daxpy_trace(300))
            assert engine.lookup(task) is None
            executed = engine.run(ExecPlan([task]))[0]

            def counts():
                tasks = registry.counter("repro_exec_tasks_total")
                return (tasks.value(kind="sim", source="cache"),
                        registry.counter(
                            "repro_exec_cache_hits_total").value(
                                kind="sim"),
                        engine.cache.hits, engine.cache.misses)

            assert counts() == (0, 0, 0, 1)
            assert engine.run(ExecPlan([task]))[0] == executed
            assert counts() == (1, 1, 1, 1)
            assert engine.lookup(task) == executed
            assert counts() == (2, 2, 2, 1)
        finally:
            set_registry(None)

    def test_serial_vs_parallel_vs_cached_bit_identical(
            self, p10, tmp_path):
        plan = _plan(p10)
        serial = Engine(workers=1).run(ExecPlan(list(plan)))
        parallel = Engine(workers=4).run(ExecPlan(list(plan)))
        cache = ResultCache(tmp_path)
        cold = Engine(workers=4, cache=cache).run(ExecPlan(list(plan)))
        warm = Engine(workers=1, cache=cache).run(ExecPlan(list(plan)))
        assert serial == parallel == cold == warm
        assert cache.hits == len(plan)

    def test_worker_failure_propagates(self):
        from repro.exec import ExecTask, register_task_kind
        register_task_kind("test-boom", _boom)
        tasks = [ExecTask(kind="test-boom",
                          key=task_fingerprint("boom", i),
                          payload=i) for i in range(3)]
        with pytest.raises(ValueError, match="task 0 failed"):
            Engine(workers=2).run(ExecPlan(tasks))


class TestEngineLifecycle:
    def test_pool_persists_across_runs(self, p10):
        engine = Engine(workers=2)
        assert engine._pool is None          # lazy: no pool until work
        engine.run(ExecPlan(_plan(p10)[:2]))
        pool = engine._pool
        assert pool is not None
        engine.run(ExecPlan(_plan(p10)[:2]))
        assert engine._pool is pool          # reused, not respawned
        engine.close()

    def test_close_is_idempotent_and_engine_stays_usable(self, p10):
        engine = Engine(workers=2)
        first = engine.run(ExecPlan(_plan(p10)[:2]))
        engine.close()
        assert engine._pool is None
        engine.close()                        # second close is a no-op
        again = engine.run(ExecPlan(_plan(p10)[:2]))
        assert again == first                 # fresh pool, same bits
        engine.close()

    def test_context_manager_closes_pool(self, p10):
        with Engine(workers=2) as engine:
            engine.run(ExecPlan(_plan(p10)[:2]))
            assert engine._pool is not None
        assert engine._pool is None

    def test_pool_workers_do_not_keep_parent_sockets_open(self, p10):
        """A listener closed in the parent must refuse connections even
        while pool workers forked after it was opened are alive; a
        worker-held copy would keep it accepting into its backlog."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        with Engine(workers=2) as engine:
            engine.run(ExecPlan(_plan(p10)[:2]))
            assert engine._pool is not None
            listener.close()
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(("127.0.0.1", port),
                                         timeout=2.0).close()

    def test_serial_engine_never_builds_a_pool(self, p10):
        with Engine(workers=1) as engine:
            engine.run(ExecPlan(_plan(p10)[:2]))
            assert engine._pool is None


# ---- acceptance: rewired hot paths --------------------------------------

def _sweep_snapshot(configs, traces, engine):
    """run_sim_plan over the config x trace product, with power."""
    runs = [(c, t) for c in configs for t in traces]
    results = run_sim_plan(engine, [sim_task(c, t) for c, t in runs])
    return json.dumps(
        [(sim_result_to_json(r), measurement_from_result(c, r).power_w)
         for (c, _t), r in zip(runs, results)], sort_keys=True)


class TestHotPathBitIdentity:
    def test_compare_configs(self, p9, p10, tmp_path):
        configs = [p9, p10]
        traces = [resolve_workload("daxpy", 600),
                  resolve_workload("stream-triad", 600)]
        serial = _sweep_snapshot(configs, traces, Engine(workers=1))
        parallel = _sweep_snapshot(configs, traces, Engine(workers=4))
        cache = ResultCache(tmp_path)
        cold = _sweep_snapshot(configs, traces,
                               Engine(workers=4, cache=cache))
        warm = _sweep_snapshot(configs, traces,
                               Engine(workers=1, cache=cache))
        assert serial == parallel == cold == warm
        assert cache.hits == len(configs) * len(traces)

    def test_simulate_suite_matches_direct_path(self, p10):
        traces = [resolve_workload("daxpy", 600),
                  resolve_workload("pointer-chase", 600)]
        via_engine = run_sim_plan(Engine(workers=1),
                                  [sim_task(p10, t) for t in traces])
        direct = [simulate_trace(p10, t) for t in traces]
        for a, b in zip(via_engine, direct):
            assert sim_result_to_json(a) == sim_result_to_json(b.result)
            assert measurement_from_result(p10, a).power_w == b.power_w

    def test_fault_campaign(self, tmp_path):
        def cfg():
            return CampaignConfig(seed=11, runs=4, workload="daxpy",
                                  instructions=600, faults_per_run=3,
                                  interval_cycles=300)
        serial = CampaignRunner(cfg()).run(workers=1)
        parallel = CampaignRunner(cfg()).run(workers=4)
        cache = ResultCache(tmp_path / "c")
        cold = CampaignRunner(cfg()).run(workers=4, cache=cache)
        warm = CampaignRunner(cfg()).run(workers=1, cache=cache)
        snapshots = [json.dumps(r.to_json(), sort_keys=True)
                     for r in (serial, parallel, cold, warm)]
        assert snapshots[0] == snapshots[1] == snapshots[2] \
            == snapshots[3]
        assert cache.hits >= 4        # every run replayed from disk


# ---- the bench runner ----------------------------------------------------

class TestBenchRunner:
    def test_artifacts_and_scenario_cache(self, tmp_path):
        from repro.exec.benchrun import run_bench
        out = tmp_path / "artifacts"
        summary = run_bench(["fig02"], quick=True,
                            cache_dir=tmp_path / "cache",
                            out_dir=out, sweep=False)
        doc = json.loads((out / "BENCH_fig02.json").read_text())
        assert doc["scenario"] == "fig02"
        assert doc["scalars"] and doc["wall_s"] >= 0
        assert summary["scenarios"]["fig02"]["artifact"]
        # warm rerun serves the whole scenario from the cache
        rerun = run_bench(["fig02"], quick=True,
                          cache_dir=tmp_path / "cache",
                          out_dir=out, sweep=False)
        warm = json.loads((out / "BENCH_fig02.json").read_text())
        assert warm["cache"]["hits"] >= 1
        assert warm["scalars"] == doc["scalars"]
        assert rerun["scenarios"]["fig02"]["wall_s"] \
            <= summary["scenarios"]["fig02"]["wall_s"] + 1.0

    def test_quick_and_scale_are_exclusive(self, tmp_path):
        from repro.exec.benchrun import run_bench
        with pytest.raises(ExecError):
            run_bench(["fig02"], quick=True, scale=0.5,
                      out_dir=tmp_path)

    def test_sweep_is_bit_identical(self, tmp_path):
        """The acceptance sweep: serial vs workers vs cold vs warm
        cache over a multi-config comparison, verified bit-identical
        (the sweep itself raises if not)."""
        from repro.exec.benchrun import run_sweep
        doc = run_sweep(out_dir=tmp_path, quick=True, workers=2,
                        cache_dir=tmp_path / "cache")
        assert doc["bit_identical"] is True
        assert doc["n_sims"] == 12
        assert doc["warm_cache_s"] < doc["serial_s"]
        on_disk = json.loads(
            (tmp_path / "BENCH_sweep.json").read_text())
        assert on_disk == doc

    def test_sweep_refuses_divergent_runs(self, tmp_path, monkeypatch):
        from repro.exec import benchrun
        runs = []

        def warm_differs(configs, traces, engine):
            runs.append(engine)
            return [(len(runs) == 4,)]

        monkeypatch.setattr(benchrun, "_sweep", warm_differs)
        with pytest.raises(ExecError, match="not bit-identical"):
            benchrun.run_sweep(out_dir=tmp_path, quick=True, workers=1,
                               cache_dir=tmp_path / "cache")
        assert len(runs) == 4
        doc = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        assert doc["bit_identical"] is False

    def test_cli_list_and_run(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["bench", "--list"]) == 0
        assert "fig02" in capsys.readouterr().out
        assert main(["bench", "fig02", "--quick", "--no-sweep",
                     "--out", str(tmp_path)]) == 0
        assert (tmp_path / "BENCH_fig02.json").is_file()

    def test_cli_rejects_unknown_scenario(self, tmp_path, capsys):
        from repro.cli import main
        assert main(["bench", "nope", "--no-sweep",
                     "--out", str(tmp_path)]) == 2
        assert "unknown scenario" in capsys.readouterr().err
