"""Fault-injection campaigns and the fail-safe PM stack.

Covers the resilience-layer contracts:

* seeded schedules are reproducible and JSON round-trippable;
* with no campaign active the injection hooks are invisible — results
  stay bit-identical, even right after an injected run;
* a fixed (seed, config) pair reproduces the exact same per-run
  classifications, including across a kill + checkpoint resume;
* the cycle-budget watchdog turns runaway runs into classified hangs;
* the OCC survives lost/corrupt telemetry (last-good substitution,
  then fail-safe), and the models reject non-finite inputs instead of
  absorbing them.
"""

import json
import math

import pytest

from repro.cli import main
from repro.core import power10_config
from repro.core.activity import ActivityCounters
from repro.core.pipeline import simulate
from repro.errors import (HangError, ModelError, ResilienceError,
                          SimulationError)
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.sampler import CycleIntervalSampler, IntervalSample
from repro.pm import (CoreTelemetry, FineGrainThrottle, MMAPowerGate,
                      OnChipController, SupplyModel, WofDesignPoint,
                      WofGovernor)
from repro.reliability.latches import build_population
from repro.resilience import (CampaignConfig, CampaignRunner,
                              FaultInjector, FaultSchedule,
                              LatchFlipFault, build_report,
                              generate_schedule, get_injector,
                              injection)
from repro.resilience.campaign import resolve_workload
from repro.resilience.faults import TraceFault, fault_from_json


@pytest.fixture(scope="module")
def population(p10):
    return build_population(p10)


def _small_config(**overrides):
    base = dict(seed=11, runs=4, workload="daxpy", instructions=600,
                faults_per_run=3, interval_cycles=300)
    base.update(overrides)
    return CampaignConfig(**base)


class TestFaultSchedules:
    def test_same_seed_same_schedule(self, population):
        a = generate_schedule(42, population=population,
                              n_instructions=1000, n_faults=6)
        b = generate_schedule(42, population=population,
                              n_instructions=1000, n_faults=6)
        assert a == b

    def test_different_seeds_differ(self, population):
        a = generate_schedule(1, population=population,
                              n_instructions=1000, n_faults=8)
        b = generate_schedule(2, population=population,
                              n_instructions=1000, n_faults=8)
        assert a != b

    def test_json_round_trip(self, population):
        schedule = generate_schedule(7, population=population,
                                     n_instructions=500, n_faults=10)
        back = FaultSchedule.from_json(
            json.loads(json.dumps(schedule.to_json())))
        assert back == schedule

    def test_mix_restricts_kinds(self, population):
        schedule = generate_schedule(
            3, population=population, n_instructions=500, n_faults=5,
            mix={"telemetry": 1.0})
        assert {f.kind for f in schedule.faults} == {"telemetry"}

    def test_rejects_bad_inputs(self, population):
        with pytest.raises(ResilienceError):
            generate_schedule(0, population=population,
                              n_instructions=0)
        with pytest.raises(ResilienceError):
            LatchFlipFault(at=0, probe=1.5)

    @pytest.mark.parametrize("mode,value", [("address_bit", 63),
                                            ("address_bit", 64),
                                            ("src_reg", 2 ** 31)])
    def test_trace_fault_value_must_fit_its_column(self, mode, value):
        # a flip past bit 62 overflows the int64 address column, and a
        # register past int32 the src_reg column, when the fault lands
        match = f"{mode} trace fault value must be <"
        with pytest.raises(ResilienceError, match=match):
            TraceFault(at=0, mode=mode, value=value)
        with pytest.raises(ResilienceError, match=match):
            fault_from_json({"kind": "trace", "at": 0, "mode": mode,
                             "value": value})

    @pytest.mark.parametrize("mode,value", [("address_bit", 62),
                                            ("src_reg", 2 ** 31 - 1)])
    def test_largest_trace_fault_values_apply(self, p10, mode, value):
        trace = resolve_workload("daxpy", 400)
        assert trace.columns.address[0] >= 0    # a memory instruction
        fault = fault_from_json({"kind": "trace", "at": 0, "mode": mode,
                                 "value": value})
        injector = FaultInjector(FaultSchedule(seed=0, faults=(fault,)))
        with injection(injector):
            simulate(p10, trace)
        [record] = injector.records
        assert record.effect == "trace-corruption"
        assert str(value) in record.detail


class TestInjectionOff:
    def test_no_injector_by_default(self):
        assert get_injector() is None

    def test_bit_identical_after_injected_run(self, p10):
        """An injected campaign run must leave no state behind: the
        next plain simulation is bit-identical to one from a fresh
        process."""
        trace = resolve_workload("daxpy", 600)
        before = simulate(p10, trace)
        CampaignRunner(_small_config(runs=1)).run_one(0)
        assert get_injector() is None
        after = simulate(p10, trace)
        assert after.cycles == before.cycles
        assert dict(after.activity.events) == dict(before.activity.events)

    def test_nested_injection_rejected(self, population):
        schedule = generate_schedule(1, population=population,
                                     n_instructions=100)
        with injection(FaultInjector(schedule)):
            with pytest.raises(ResilienceError):
                with injection(FaultInjector(schedule)):
                    pass
        assert get_injector() is None


class TestWatchdog:
    def _stall_schedule(self):
        return FaultSchedule(seed=0, faults=(
            LatchFlipFault(at=5, unit="ifu", group_index=0,
                           group_kind="control", stall_cycles=500000,
                           perturb_events=1, activity_factor=1.0,
                           probe=0.0),))

    def test_budget_overrun_raises_hang(self, p10):
        trace = resolve_workload("daxpy", 600)
        injector = FaultInjector(self._stall_schedule(),
                                 cycle_budget=2000)
        with pytest.raises(HangError):
            with injection(injector):
                simulate(p10, trace)
        assert get_injector() is None

    def test_campaign_classifies_hang(self, monkeypatch):
        from repro.resilience import campaign as campaign_mod
        schedule = self._stall_schedule()
        monkeypatch.setattr(campaign_mod, "generate_schedule",
                            lambda *a, **k: schedule)
        runner = CampaignRunner(_small_config(runs=1,
                                              cycle_budget_factor=1.5))
        record = runner.run_one(0)
        assert record.outcome == "hang"
        assert record.cycles == -1


class TestCampaignDeterminism:
    def test_two_invocations_identical(self):
        a = CampaignRunner(_small_config()).run()
        b = CampaignRunner(_small_config()).run()
        assert [r.to_json() for r in a.records] \
            == [r.to_json() for r in b.records]
        assert a.golden_cycles == b.golden_cycles

    def test_checkpoint_resume_bit_identical(self, tmp_path):
        """Satellite (c): a campaign killed mid-way and resumed from
        its checkpoint merges into results bit-identical to an
        uninterrupted campaign with the same seed."""
        ckpt = tmp_path / "ckpt.json"
        uninterrupted = CampaignRunner(_small_config()).run()

        partial = CampaignRunner(_small_config(), checkpoint=ckpt) \
            .run(max_runs=2)
        assert not partial.complete
        assert len(partial.records) == 2

        resumed = CampaignRunner(_small_config(), checkpoint=ckpt).run()
        assert resumed.complete
        assert resumed.to_json() == uninterrupted.to_json()

    def test_parallel_kill_resume_bit_identical(self, tmp_path):
        """Satellite: the checkpoint-resume guarantee survives the
        parallel engine.  A campaign killed mid-way under workers=2
        and resumed (still parallel) must match a serial uninterrupted
        campaign bit for bit."""
        ckpt = tmp_path / "ckpt.json"
        uninterrupted = CampaignRunner(_small_config(runs=6)).run()

        partial = CampaignRunner(_small_config(runs=6),
                                 checkpoint=ckpt) \
            .run(max_runs=3, workers=2)
        assert not partial.complete
        assert len(partial.records) == 3

        resumed = CampaignRunner(_small_config(runs=6),
                                 checkpoint=ckpt).run(workers=2)
        assert resumed.complete
        assert resumed.to_json() == uninterrupted.to_json()

    def test_cache_replay_preserves_checkpoint_bytes(self, tmp_path):
        """Satellite: cache hits must replay into the checkpoint
        identically — a warm-cache campaign's checkpoint file is
        byte-equal to an uncached one's."""
        from repro.exec import ResultCache
        cache = ResultCache(tmp_path / "cache")
        plain, warmed = tmp_path / "plain.json", tmp_path / "warm.json"
        CampaignRunner(_small_config(), checkpoint=plain).run()
        CampaignRunner(_small_config(), checkpoint=tmp_path / "x.json") \
            .run(cache=cache)           # fill the cache
        CampaignRunner(_small_config(), checkpoint=warmed) \
            .run(cache=cache)           # replay every run from disk
        assert cache.hits >= _small_config().runs
        assert warmed.read_bytes() == plain.read_bytes()

    def test_checkpoint_rejects_other_config(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        CampaignRunner(_small_config(), checkpoint=ckpt).run(max_runs=1)
        other = CampaignRunner(_small_config(seed=99), checkpoint=ckpt)
        with pytest.raises(ResilienceError):
            other.run()

    def test_outcomes_are_classified(self):
        result = CampaignRunner(_small_config(runs=6)).run()
        counts = result.counts()
        assert sum(counts.values()) == 6
        assert all(r.outcome in counts for r in result.records)

    def test_report_cross_check(self, population):
        runner = CampaignRunner(_small_config(runs=6))
        result = runner.run()
        report = build_report(result, runner.population,
                              runner.golden()["activity"])
        assert 0.0 <= report.avf <= 1.0
        assert 0.0 <= report.agreement_pct <= 100.0
        assert report.outcome_counts == result.counts()
        assert report.render_text()
        json.dumps(report.to_json())


class TestTelemetryFaults:
    def test_dropped_interval_shrinks_series(self, p10, population):
        trace = resolve_workload("daxpy", 600)
        clean = CycleIntervalSampler(300)
        simulate(p10, trace, sampler=clean)
        n_clean = len(clean.samples)
        assert n_clean >= 2

        schedule = FaultSchedule.from_json({
            "seed": 0,
            "faults": [{"kind": "telemetry", "at": 0, "mode": "drop",
                        "duration": 1}]})
        sampler = CycleIntervalSampler(300)
        with injection(FaultInjector(schedule)):
            simulate(p10, trace, sampler=sampler)
        assert len(sampler.samples) == n_clean - 1
        # the dropped interval leaves a gap, not a renumbering
        assert sampler.samples[0].index == 1

    def test_blank_interval_reads_as_loss(self, p10):
        trace = resolve_workload("daxpy", 600)
        schedule = FaultSchedule.from_json({
            "seed": 0,
            "faults": [{"kind": "telemetry", "at": 0, "mode": "blank",
                        "duration": 1}]})
        sampler = CycleIntervalSampler(300)
        with injection(FaultInjector(schedule)):
            simulate(p10, trace, sampler=sampler)
        first = CoreTelemetry.from_sample(sampler.samples[0])
        assert not first.telemetry_ok


def _occ(cores=1, budget=8.0, **kwargs):
    config = power10_config()
    governor = WofGovernor(config, WofDesignPoint(
        tdp_core_w=budget, rdp_core_w=budget * 1.1))
    return OnChipController(governor, cores=cores,
                            socket_budget_w=budget, **kwargs)


def _reading(power=2.0, ok=True):
    return CoreTelemetry(core_id=0, proxy_power_w=power,
                         telemetry_ok=ok)


class TestOccFailsafe:
    def test_lost_reading_uses_last_good(self):
        occ = _occ(staleness_budget=2)
        occ.tick([_reading(3.0)])
        result = occ.tick([_reading(float("nan"))])
        assert result.degraded_cores == (0,)
        assert not result.failsafe
        # control law saw the last-good 3 W, not the NaN
        assert result.socket_power_w == 3.0
        assert occ.degraded_ticks == 1
        assert occ.failsafe_ticks == 0

    def test_stale_past_budget_escalates(self):
        occ = _occ(staleness_budget=2)
        occ.tick([_reading(3.0)])
        occ.tick([_reading(float("nan"))])
        occ.tick([CoreTelemetry(core_id=0, proxy_power_w=0.0,
                                telemetry_ok=False)])
        result = occ.tick([_reading(float("inf"))])
        assert result.failsafe
        assert result.frequency_ghz == pytest.approx(occ.fmin_ghz)
        assert result.wof.workload == "socket-failsafe"
        assert result.wof.mma_gated
        assert result.core_duties[0] == pytest.approx(
            occ._throttles[0].min_duty)
        assert result.mma_powered == {0: False}
        assert occ.failsafe_ticks == 1

    def test_no_last_good_fails_safe_immediately(self):
        occ = _occ(staleness_budget=2)
        result = occ.tick([_reading(ok=False)])
        assert result.failsafe

    def test_recovery_after_failsafe(self):
        occ = _occ(staleness_budget=0)
        occ.tick([_reading(ok=False)])
        result = occ.tick([_reading(2.0)])
        assert not result.failsafe
        assert result.degraded_cores == ()
        assert result.frequency_ghz > occ.fmin_ghz

    def test_negative_reading_is_loss_not_data(self):
        occ = _occ()
        occ.tick([_reading(2.0)])
        result = occ.tick([_reading(-5.0)])
        assert result.degraded_cores == (0,)
        assert result.socket_power_w == 2.0

    def test_degradations_hit_metrics(self):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            occ = _occ(staleness_budget=0)
            occ.tick([_reading(ok=False)])
        finally:
            set_registry(previous)
        assert registry.counter(
            "repro_occ_degraded_ticks_total").total == 1
        assert registry.counter(
            "repro_occ_failsafe_ticks_total").total == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            _occ(staleness_budget=-1)
        with pytest.raises(ModelError):
            _occ(fmin_ratio=0.0)


class TestFromSample:
    def _sample(self, events, proxy=2.0):
        return IntervalSample(run="r", index=0, cycle_start=0,
                              cycle_end=100, instructions=0, ipc=0.0,
                              proxy_w=proxy, events=events)

    def test_zero_activity_is_data(self):
        t = CoreTelemetry.from_sample(
            self._sample({"complete_instr": 0}, proxy=0.0))
        assert t.telemetry_ok
        assert not t.mma_busy

    def test_empty_events_is_loss(self):
        assert not CoreTelemetry.from_sample(
            self._sample({})).telemetry_ok

    def test_nan_proxy_is_loss(self):
        assert not CoreTelemetry.from_sample(
            self._sample({"complete_instr": 1},
                         proxy=float("nan"))).telemetry_ok


class TestModelValidation:
    def test_supply_rejects_non_finite(self):
        supply = SupplyModel()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(SimulationError):
                supply.step(bad)
        assert math.isfinite(supply.step(1.0))

    def test_throttle_rejects_non_finite(self):
        throttle = FineGrainThrottle(5.0)
        with pytest.raises(SimulationError):
            throttle.update(float("nan"))
        assert not throttle.history

    def test_throttle_failsafe_floors_duty(self):
        throttle = FineGrainThrottle(5.0)
        assert throttle.failsafe() == throttle.min_duty
        assert throttle.history[-1].power_estimate_w == 5.0

    def test_gate_force_off(self):
        gate = MMAPowerGate()
        assert gate.powered
        gate.force_off(100)
        assert not gate.powered
        assert gate.gated_cycles == 100
        with pytest.raises(ModelError):
            gate.force_off(0)

    def test_counter_force_validates(self):
        act = ActivityCounters()
        act.force("complete_instr", 7)
        assert act.events["complete_instr"] == 7
        with pytest.raises(SimulationError):
            act.force("complete_instr", -1)
        with pytest.raises(SimulationError):
            act.force("not_an_event", 1)


class TestCli:
    def test_inject_json(self, capsys):
        assert main(["inject", "--seed", "5", "--workload", "daxpy",
                     "--instructions", "600", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["run"]["outcome"] in (
            "masked", "detected", "degraded", "sdc", "hang")

    def test_campaign_checkpoint_and_report(self, tmp_path, capsys):
        ckpt = str(tmp_path / "ckpt.json")
        report = str(tmp_path / "report.json")
        argv = ["campaign", "--runs", "3", "--seed", "5",
                "--workload", "daxpy", "--instructions", "600",
                "--checkpoint", ckpt, "--report", report, "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["runs"] == 3
        # a second invocation resumes from the checkpoint and agrees
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == first
        assert json.loads((tmp_path / "report.json").read_text()) \
            == first

    def test_unknown_workload_errors(self, capsys):
        assert main(["inject", "--workload", "nope"]) == 2
        assert "unknown workload" in capsys.readouterr().err
