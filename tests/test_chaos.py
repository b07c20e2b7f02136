"""Service-level chaos: supervised recovery, deadlines, breakers.

The acceptance bar is the tentpole contract: a SIGKILL'd pool worker
never loses or duplicates a task (``Engine.run`` is bit-identical with
and without the kill), a stalled worker is reaped by the deadline
watchdog instead of hanging the batch, corrupt cache entries are
recounted and rewritten, and the seeded campaign observes zero silent
data corruption and zero hangs across every fault class.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.core import power10_config
from repro.errors import ChaosError, DeadlineError, ExecError, ServeError
from repro.exec.cache import ResultCache, sim_result_to_json
from repro.exec.executor import Engine, ExecPlan, run_sim_plan, sim_task
from repro.lint.sanitizer import diff_double_run
from repro.obs.metrics import get_registry
from repro.resilience import chaos
from repro.resilience.chaos import (ChaosCampaignConfig, ChaosController,
                                    SERVICE_FAULT_KINDS, ServiceFault,
                                    chaos_point, classify,
                                    generate_service_schedule,
                                    run_chaos_campaign, service_chaos)
from repro.serve import (CircuitBreaker, LoadgenConfig, ServeConfig,
                         ThreadHost)
from repro.workloads import specint_proxies


@pytest.fixture(autouse=True)
def _no_ambient_env(monkeypatch):
    for name in ("REPRO_CHAOS_DIR", "REPRO_CHAOS_PARENT",
                 "REPRO_CACHE_DIR", "REPRO_WORKERS"):
        monkeypatch.delenv(name, raising=False)


def _wire(results):
    """Bit-exact comparable form of a list of SimResults."""
    return json.dumps([sim_result_to_json(r) for r in results],
                      sort_keys=True)


def _sim_tasks(n=3, instructions=500):
    cfg = power10_config()
    names = ["xz", "x264", "leela", "deepsjeng"][:n]
    return [sim_task(cfg, t, warmup_fraction=0.3)
            for t in specint_proxies(instructions=instructions,
                                     names=names)]


# ---- the fault taxonomy --------------------------------------------------

class TestServiceFault:
    def test_json_round_trip(self):
        fault = ServiceFault("worker_stall", delay_s=2.5)
        assert ServiceFault.from_json(fault.to_json()) == fault

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChaosError, match="unknown service fault"):
            ServiceFault("disk_on_fire")

    def test_negative_delay_rejected(self):
        with pytest.raises(ChaosError):
            ServiceFault("slow_batch", delay_s=-1.0)

    def test_stall_kinds_need_positive_delay(self):
        with pytest.raises(ChaosError):
            ServiceFault("worker_stall")
        with pytest.raises(ChaosError):
            ServiceFault("slow_batch", delay_s=0.0)

    def test_malformed_record_rejected(self):
        with pytest.raises(ChaosError):
            ServiceFault.from_json({"delay_s": 1.0})

    def test_schedule_is_seed_deterministic(self):
        a = generate_service_schedule(3, per_class=2)
        b = generate_service_schedule(3, per_class=2)
        assert a == b
        assert a != generate_service_schedule(4, per_class=2)
        assert [f.kind for f in a] == [
            k for k in SERVICE_FAULT_KINDS for _ in range(2)]

    def test_stall_delays_always_overrun_the_budget(self):
        for seed in range(8):
            for fault in generate_service_schedule(
                    seed, ("worker_stall",), stall_s=4.0):
                assert fault.delay_s >= 4.0

    def test_env_names_mirror_hook_literals(self):
        # the hook call sites in exec/serve check these literals to
        # avoid importing the chaos module on hot paths
        assert chaos.ENV_CHAOS_DIR == "REPRO_CHAOS_DIR"
        assert chaos.ENV_CHAOS_PARENT == "REPRO_CHAOS_PARENT"
        hookable = {k for kinds in chaos.HOOK_POINTS.values()
                    for k in kinds}
        assert hookable == set(SERVICE_FAULT_KINDS)


# ---- the token-file runtime ----------------------------------------------

class TestChaosRuntime:
    def test_disabled_hook_is_a_noop(self):
        assert chaos_point("batch") is None
        assert chaos_point("no_such_hook") is None

    def test_token_claimed_exactly_once(self, tmp_path):
        with service_chaos([ServiceFault("slow_batch", delay_s=0.01)],
                           tmp_path) as ctl:
            first = chaos_point("batch")
            second = chaos_point("batch")
        assert first == ServiceFault("slow_batch", delay_s=0.01)
        assert second is None
        assert ctl.summary() == {
            "armed_left": 0,
            "fired": [{"kind": "slow_batch", "delay_s": 0.01}]}

    def test_hook_only_fires_matching_kinds(self, tmp_path):
        with service_chaos([ServiceFault("conn_drop")], tmp_path) as ctl:
            assert chaos_point("batch") is None
            assert chaos_point("conn") is not None
        assert len(ctl.fired()) == 1

    def test_worker_kinds_refuse_the_arming_process(self, tmp_path):
        # worker_kill in the parent would SIGKILL the test process
        with service_chaos([ServiceFault("worker_kill")],
                           tmp_path) as ctl:
            assert chaos_point("worker_task") is None
            assert ctl.summary()["armed_left"] == 1

    def test_cache_kinds_need_an_existing_path(self, tmp_path):
        with service_chaos([ServiceFault("cache_corrupt")], tmp_path):
            assert chaos_point("cache_get") is None
            assert chaos_point(
                "cache_get", path=str(tmp_path / "nope.json")) is None
            target = tmp_path / "entry.json"
            target.write_text("{}")
            fault = chaos_point("cache_get", path=str(target))
        assert fault is not None
        assert target.read_text().startswith('{"torn"')

    def test_environment_restored_on_exit(self, tmp_path):
        with service_chaos([ServiceFault("conn_drop")], tmp_path):
            assert os.environ["REPRO_CHAOS_DIR"] == str(tmp_path)
            assert os.environ["REPRO_CHAOS_PARENT"] == str(os.getpid())
        assert "REPRO_CHAOS_DIR" not in os.environ
        assert "REPRO_CHAOS_PARENT" not in os.environ

    def test_arm_numbering_survives_fired_tokens(self, tmp_path):
        ctl = ChaosController(tmp_path)
        (first,) = ctl.arm([ServiceFault("conn_drop")])
        os.rename(first, str(first) + ".fired")
        (second,) = ctl.arm([ServiceFault("conn_drop")])
        assert second.name > first.name


# ---- the supervised engine -----------------------------------------------

class TestSupervisedEngine:
    def test_worker_kill_is_bit_identical_to_fault_free(self, tmp_path):
        """The tentpole acceptance: SIGKILL one pool worker mid-batch
        and the results must equal the fault-free serial run exactly —
        no lost task, no duplicate, no substituted value."""
        tasks = _sim_tasks(4)
        with Engine(workers=1) as engine:
            reference = run_sim_plan(engine, tasks)
        rebuilds = get_registry().counter("repro_exec_pool_rebuilds_total")
        before = rebuilds.value(reason="broken")
        with service_chaos([ServiceFault("worker_kill")],
                           tmp_path) as ctl:
            with Engine(workers=2, max_restarts=3) as engine:
                survived = run_sim_plan(engine, tasks)
        assert _wire(survived) == _wire(reference)
        assert [f.kind for f in ctl.fired()] == ["worker_kill"]
        assert rebuilds.value(reason="broken") >= before + 1

    def test_restart_cap_stops_a_crash_loop(self, tmp_path):
        tasks = _sim_tasks(2)
        faults = [ServiceFault("worker_kill")] * 4
        with service_chaos(faults, tmp_path):
            with Engine(workers=2, max_restarts=0) as engine:
                with pytest.raises(ExecError, match="worker pool died"):
                    engine.run(ExecPlan(tasks))

    def test_stalled_worker_trips_the_deadline_watchdog(self, tmp_path):
        tasks = [replace(t, deadline_s=1.0) for t in _sim_tasks(2)]
        with service_chaos([ServiceFault("worker_stall", delay_s=8.0)],
                           tmp_path) as ctl:
            with Engine(workers=2) as engine:
                with pytest.raises(DeadlineError, match="deadline"):
                    engine.run(ExecPlan(tasks))
                # the pool was killed and discarded; the engine must
                # build a fresh one and stay usable
                retry = _sim_tasks(1)
                out = engine.run(ExecPlan(retry))
        assert len(out) == len(retry)
        assert [f.kind for f in ctl.fired()] == ["worker_stall"]

    def test_deadline_budget_is_loosest_of_the_batch(self):
        # one unbounded task => the whole batch runs unbounded
        tasks = _sim_tasks(2)
        tasks = [replace(tasks[0], deadline_s=0.5), tasks[1]]
        with Engine(workers=2) as engine:
            out = engine.run(ExecPlan(tasks))
        assert len(out) == 2

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ExecError):
            Engine(workers=2, max_restarts=-1)


# ---- the hardened cache --------------------------------------------------

class TestCacheUnderChaos:
    def test_corrupt_entry_is_counted_dropped_and_rewritten(self, tmp_path):
        key = "ab" * 16
        ResultCache(tmp_path / "cache").put(key, {"cycles": 123})
        # a second instance: its memory tier cannot shadow the disk
        cache = ResultCache(tmp_path / "cache")
        (path,) = list((tmp_path / "cache").rglob(f"{key}.json"))
        path.write_bytes(b'{"torn": ')
        corrupt = get_registry().counter("repro_exec_cache_corrupt_total")
        before = corrupt.value(kind="task")
        assert cache.get(key) is None                 # miss, not error
        assert corrupt.value(kind="task") == before + 1
        assert key not in cache                       # quarantined
        cache.put(key, {"cycles": 123})               # the recompute
        assert cache.get(key) == {"cycles": 123}
        assert corrupt.value(kind="task") == before + 1

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root reads chmod-000 files")
    def test_permission_loss_reads_as_a_miss(self, tmp_path):
        key = "cd" * 16
        ResultCache(tmp_path / "cache").put(key, {"cycles": 5})
        cache = ResultCache(tmp_path / "cache")   # nothing in memory
        (path,) = list((tmp_path / "cache").rglob(f"{key}.json"))
        os.chmod(path, 0)
        try:
            assert cache.get(key) is None
        finally:
            os.chmod(path, 0o644)

    def test_put_is_best_effort_on_readonly_root(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root writes into read-only directories")
        cache = ResultCache(tmp_path / "cache")
        os.chmod(tmp_path / "cache", 0o555)
        try:
            cache.put("ef" * 16, {"cycles": 1})       # must not raise
            assert cache.get("ef" * 16) == {"cycles": 1}  # memory
            assert ResultCache(tmp_path / "cache").get("ef" * 16) is None
        finally:
            os.chmod(tmp_path / "cache", 0o755)

    def test_engine_recomputes_through_a_corrupted_cache(self, tmp_path):
        tasks = _sim_tasks(2)
        cache_dir = tmp_path / "cache"
        with Engine(workers=1, cache=str(cache_dir)) as engine:
            reference = run_sim_plan(engine, tasks)
        with service_chaos([ServiceFault("cache_corrupt")],
                           tmp_path / "chaos") as ctl:
            with Engine(workers=1, cache=str(cache_dir)) as engine:
                survived = run_sim_plan(engine, tasks)
        assert _wire(survived) == _wire(reference)
        assert [f.kind for f in ctl.fired()] == ["cache_corrupt"]


# ---- the circuit breaker -------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures(self):
        clock = FakeClock()
        b = CircuitBreaker("/v1/simulate", failure_threshold=3,
                           reset_s=10.0, clock=clock)
        assert b.state == "closed" and b.allow()
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert not b.allow()
        assert b.retry_after_s() == pytest.approx(10.0)

    def test_success_resets_the_failure_run(self):
        b = CircuitBreaker("/r", failure_threshold=2, clock=FakeClock())
        b.record_failure()
        b.record_success()
        b.record_failure()
        assert b.state == "closed"

    def test_half_open_probe_single_flight(self):
        clock = FakeClock()
        b = CircuitBreaker("/r", failure_threshold=1, reset_s=5.0,
                           clock=clock)
        b.record_failure()
        assert not b.allow()
        clock.now += 5.1
        assert b.allow()                 # the single half-open probe
        assert b.state == "half_open"
        assert not b.allow()             # concurrent probes refused
        b.record_success()
        assert b.state == "closed" and b.allow()

    def test_failed_probe_reopens_immediately(self):
        clock = FakeClock()
        b = CircuitBreaker("/r", failure_threshold=3, reset_s=5.0,
                           clock=clock)
        for _ in range(3):
            b.record_failure()
        clock.now += 5.1
        assert b.allow()
        b.record_failure()               # one probe failure suffices
        assert b.state == "open"
        assert not b.allow()

    def test_state_gauge_tracks_transitions(self):
        clock = FakeClock()
        b = CircuitBreaker("/v1/x", failure_threshold=1, clock=clock)
        b.record_failure()
        gauge = get_registry().gauge("repro_serve_breaker_state")
        assert gauge.value(route="/v1/x") == 2.0      # open
        transitions = get_registry().counter(
            "repro_serve_breaker_transitions_total")
        assert transitions.value(route="/v1/x", to="open") >= 1

    def test_invalid_config_rejected(self):
        with pytest.raises(ServeError):
            CircuitBreaker("/r", failure_threshold=0)
        with pytest.raises(ServeError):
            CircuitBreaker("/r", reset_s=0.0)


# ---- the campaign --------------------------------------------------------

#: the campaign's servers with a 2 s default deadline
_SERVE_2S = ServeConfig(workers=2, default_deadline_ms=2000,
                        max_pool_restarts=3)


class TestCampaignConfig:
    def test_quick_covers_every_class(self):
        cfg = ChaosCampaignConfig.quick(seed=7)
        assert cfg.load.seed == 7
        assert tuple(cfg.fault_classes) == SERVICE_FAULT_KINDS
        # one deadline for the schedule and the servers, as before
        assert cfg.load.deadline_ms == cfg.serve.default_deadline_ms \
            == 2500

    def test_stall_must_exceed_deadline(self):
        with pytest.raises(ChaosError, match="stall_s"):
            ChaosCampaignConfig(load=LoadgenConfig(deadline_ms=5000),
                                stall_s=1.0)
        # a schedule without deadlines runs under the servers' default
        with pytest.raises(ChaosError, match="stall_s"):
            ChaosCampaignConfig(
                load=LoadgenConfig(),
                serve=ServeConfig(workers=2, default_deadline_ms=5000),
                stall_s=1.0)

    def test_serial_engines_rejected(self):
        with pytest.raises(ChaosError, match="workers"):
            ChaosCampaignConfig(serve=ServeConfig(workers=1))
        with pytest.raises(ChaosError, match="workers"):
            ChaosCampaignConfig(serve=ServeConfig())

    def test_unknown_class_rejected(self):
        with pytest.raises(ChaosError):
            ChaosCampaignConfig(fault_classes=("bogus",))


class TestCampaign:
    def test_zero_sdc_across_every_fault_class(self):
        """The availability acceptance: one seeded schedule replayed
        under all six service fault classes — every full-fidelity
        200-OK body bit-identical to the fault-free reference, and no
        request left hanging."""
        report = run_chaos_campaign(ChaosCampaignConfig(
            load=LoadgenConfig(seed=0, requests=6, rate_per_s=40.0,
                               deadline_ms=2000, timeout_s=30.0),
            serve=_SERVE_2S, stall_s=3.0, slow_batch_s=0.3,
            faults_per_class=1))
        assert len(report["fault_classes"]) >= 5
        assert [p["fault_class"] for p in report["phases"]] \
            == ["none"] + list(SERVICE_FAULT_KINDS)
        for phase in report["phases"]:
            assert phase["sdc"] == []
            assert phase["hangs"] == 0
            assert phase["clean_drain"] is True
            total = sum(phase["counts"].values())
            assert total == report["requests"]
        reference = report["phases"][0]
        assert reference["counts"]["failed"] == 0
        assert reference["availability"] == 1.0
        assert report["sdc_total"] == 0
        assert report["hangs_total"] == 0
        assert report["ok"] is True

    def test_forced_server_drain_is_reported(self, monkeypatch):
        """A server target whose stop() reports a forced drain shows
        ``clean_drain: false`` in its phase."""
        real_stop = ThreadHost.stop

        def forced_stop(self, timeout_s=30.0):
            real_stop(self, timeout_s)
            return False

        monkeypatch.setattr(ThreadHost, "stop", forced_stop)
        report = run_chaos_campaign(ChaosCampaignConfig(
            load=LoadgenConfig(seed=0, requests=3, rate_per_s=40.0,
                               deadline_ms=2000, timeout_s=30.0),
            serve=_SERVE_2S, stall_s=3.0, fault_classes=("conn_drop",),
            faults_per_class=1))
        assert [p["clean_drain"] for p in report["phases"]] \
            == [False, False]

    def test_cli_quick_writes_artifact(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        out = tmp_path / "BENCH_chaos.json"
        rc = main(["chaos", "--quick", "--seed", "1",
                   "--classes", "conn_drop",
                   "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 1
        assert doc["fault_classes"] == ["conn_drop"]
        assert doc["ok"] is True
        text = capsys.readouterr().out
        assert "conn_drop" in text and "-> ok" in text


# ---- body identity: one diff for chaos SDC and sanitizer divergence ------

def _rows(*rows):
    return {"per_request": [{"id": rid, "outcome": outcome,
                             "body_sha": sha}
                            for rid, outcome, sha in rows]}


#: (reference rows, rows under test, ids whose bodies must be flagged)
_BODY_CASES = {
    "identical": (
        _rows(("r1", "ok", "aa"), ("r2", "ok", "bb")),
        _rows(("r1", "ok", "aa"), ("r2", "ok", "bb")), []),
    "full-fidelity-body-differs": (
        _rows(("r1", "ok", "aa"), ("r2", "ok", "bb")),
        _rows(("r1", "ok", "aa"), ("r2", "ok", "cc")), ["r2"]),
    "degraded-excused": (
        _rows(("r1", "ok", "aa")), _rows(("r1", "degraded", "cc")), []),
    "refused-reference-excused": (
        _rows(("r1", "error", "aa")), _rows(("r1", "ok", "cc")), []),
}


@pytest.mark.parametrize("check", ["chaos_sdc", "sanitizer_divergence"])
@pytest.mark.parametrize("case", list(_BODY_CASES))
def test_body_digest_diff(case, check):
    reference, current, flagged = _BODY_CASES[case]
    if check == "chaos_sdc":
        phase = {"report": current, "clean_drain": True,
                 "faults_armed": 0, "chaos": {"fired": []}}
        assert classify(case, phase, reference)["sdc"] == flagged
    else:
        divergences = diff_double_run(reference, current)["divergences"]
        assert [d.split(":")[0] for d in divergences] == flagged
