"""Differential fidelity harness: the replay against the walk.

:func:`repro.core.pipeline.simulate` replays extracted activity
(:mod:`repro.fastsim`) unless a sampler or an active fault injector
needs the per-instruction walk (:func:`simulate_reference`).  The walk
is the accuracy reference; the replay must agree with it on every
registered workload *and* on adversarial synthetic traces that
hypothesis invents.  The agreement contract is deliberately
two-layered:

* the rtol-form contract the golden harness enforces (cycles, IPC,
  energy within tolerance), and
* **exact** equality of every derived event count — the activity
  extraction is lossless by construction, so any drift at all means a
  replay rule diverged from the pipeline.

The harness also proves its own teeth: perturbing a replay timing
constant or an energy coefficient must trip the comparison (the same
self-test discipline as the fig05 golden tripwire).
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.config
from repro.core import power9_config, power10_config
from repro.core.isa import Instruction, InstrClass
from repro.core.pipeline import simulate, simulate_reference
from repro.errors import SimulationError
from repro.fastsim import batch_power, simulate_fast
from repro.obs.metrics import get_registry
from repro.power.einspower import EinspowerModel
from repro.workloads import resolve_workload, workload_names
from repro.workloads.trace import Trace

RTOL = 1e-9


def assert_results_equivalent(detailed, fast, *, rtol=RTOL):
    """The full agreement contract between the walk and the replay."""
    # rtol-form contract (what the golden harness enforces)
    assert math.isclose(detailed.cycles, fast.cycles, rel_tol=rtol)
    assert math.isclose(detailed.ipc, fast.ipc, rel_tol=rtol)
    # exact contract: the extraction is lossless, so derived counts
    # must match to the instruction
    assert fast.cycles == detailed.cycles
    assert fast.instructions == detailed.instructions
    assert fast.mispredicts == detailed.mispredicts
    assert fast.flushed_instructions == detailed.flushed_instructions
    assert fast.flops == detailed.flops
    assert fast.l1d_miss_rate == detailed.l1d_miss_rate
    assert fast.l2_miss_rate == detailed.l2_miss_rate
    assert fast.fusion_rate == detailed.fusion_rate
    assert fast.branch_mpki == detailed.branch_mpki
    assert dict(fast.activity.events) == dict(detailed.activity.events)
    assert dict(fast.activity.unit_busy_cycles) \
        == dict(detailed.activity.unit_busy_cycles)
    assert fast.activity.cycles == detailed.activity.cycles
    assert fast.activity.instructions == detailed.activity.instructions


def assert_energy_equivalent(config, detailed, fast, *, rtol=RTOL):
    ref = EinspowerModel(config).report(detailed.activity)
    batch = batch_power(config, [fast.activity])
    assert math.isclose(ref.total_w, batch.total_w[0], rel_tol=rtol)
    assert math.isclose(ref.dynamic_w, batch.dynamic_w[0],
                        rel_tol=rtol)
    assert math.isclose(ref.active_w, batch.active_w[0], rel_tol=rtol,
                        abs_tol=1e-12)


# ---------------------------------------------------------------------
# Every registered workload, multiple configs and warmups.
# ---------------------------------------------------------------------

_CONFIG_BUILDERS = {
    "p10": lambda: power10_config(),
    "p9": lambda: power9_config(),
    "p10-smt4": lambda: power10_config(smt=4),
}


@pytest.mark.parametrize("workload", workload_names())
@pytest.mark.parametrize("cfg_name", list(_CONFIG_BUILDERS))
def test_registered_workloads_agree(workload, cfg_name):
    config = _CONFIG_BUILDERS[cfg_name]()
    trace = resolve_workload(workload, 2500)
    for warmup in (0.0, 0.3):
        try:
            detailed = simulate_reference(config, trace,
                                          warmup_fraction=warmup)
        except SimulationError as exc:
            # e.g. MMA workloads on POWER9: the replay must refuse
            # with the identical diagnostic, not silently produce data
            with pytest.raises(SimulationError) as caught:
                simulate_fast(config, trace, warmup_fraction=warmup)
            assert str(caught.value) == str(exc)
            return
        fast = simulate_fast(config, trace, warmup_fraction=warmup)
        assert_results_equivalent(detailed, fast)
        assert_energy_equivalent(config, detailed, fast)


def test_batch_power_matches_reference_rowwise():
    """One batched evaluation over many activities must equal the
    scalar reference model row by row (including POWER9, which has no
    MMA unit to power)."""
    for config in (power10_config(), power9_config()):
        acts = []
        for name in ("daxpy", "pointer-chase", "deepsjeng"):
            trace = resolve_workload(name, 1500)
            acts.append(simulate_reference(config, trace,
                                           warmup_fraction=0.2).activity)
        batch = batch_power(config, acts)
        model = EinspowerModel(config)
        for i, act in enumerate(acts):
            ref = model.report(act)
            assert batch.total_w[i] == ref.total_w
            assert batch.dynamic_w[i] == ref.dynamic_w
            assert batch.active_w[i] == ref.active_w


# ---------------------------------------------------------------------
# Hypothesis: adversarial synthetic workloads.
# ---------------------------------------------------------------------

_P9_CLASSES = [c for c in InstrClass
               if c not in (InstrClass.MMA, InstrClass.MMA_MOVE)]
_SIZES = (4, 8, 16, 32)


@st.composite
def synthetic_traces(draw):
    """A short adversarial trace plus the config family to run it on.

    The generator leans into the corners the replay has to get right:
    register dependence chains, reused and conflicting cache lines,
    taken/not-taken branch mixes, stores behind loads, and fusion
    candidates from adjacent FX ops.
    """
    on_p9 = draw(st.booleans())
    classes = _P9_CLASSES if on_p9 else list(InstrClass)
    n = draw(st.integers(min_value=20, max_value=220))
    # a small address pool makes hits, misses, and line conflicts all
    # likely inside a short trace
    pool = draw(st.lists(st.integers(min_value=0, max_value=1 << 18),
                         min_size=2, max_size=8))
    instrs = []
    pc = 0x10000
    for _ in range(n):
        cls = draw(st.sampled_from(classes))
        addr = None
        size = 0
        taken = False
        target = None
        flops = 0
        if cls.is_memory:
            addr = draw(st.sampled_from(pool)) \
                + draw(st.integers(min_value=0, max_value=256))
            size = draw(st.sampled_from(_SIZES))
        if cls in (InstrClass.BRANCH, InstrClass.BRANCH_IND):
            taken = draw(st.booleans())
            target = pc + draw(st.integers(min_value=-512,
                                           max_value=512)) * 4
        if cls in (InstrClass.FP, InstrClass.VSX, InstrClass.MMA):
            flops = draw(st.sampled_from((2, 4, 8, 16)))
        instrs.append(Instruction(
            iclass=cls,
            dests=tuple(draw(st.lists(
                st.integers(min_value=0, max_value=15),
                max_size=2))),
            srcs=tuple(draw(st.lists(
                st.integers(min_value=0, max_value=15),
                max_size=3))),
            address=addr, size=size, taken=taken, target=target,
            flops=flops, pc=pc))
        pc += 4
    warmup = draw(st.sampled_from((0.0, 0.3)))
    return on_p9, Trace(name="hypo", instructions=instrs), warmup


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(synthetic_traces())
def test_synthetic_workloads_agree(case):
    on_p9, trace, warmup = case
    config = power9_config() if on_p9 else power10_config()
    detailed = simulate_reference(config, trace, warmup_fraction=warmup)
    fast = simulate_fast(config, trace, warmup_fraction=warmup)
    assert_results_equivalent(detailed, fast)
    assert_energy_equivalent(config, detailed, fast)


# ---------------------------------------------------------------------
# The harness must have teeth: deliberate perturbations must trip it.
# ---------------------------------------------------------------------

def test_harness_detects_timing_perturbation(monkeypatch):
    """Nudging a replay pipeline constant must produce a cycle
    count the differential contract rejects — otherwise the exact
    comparison is decorative."""
    import repro.fastsim.replay as replay
    config = power10_config()
    trace = resolve_workload("daxpy", 2000)
    detailed = simulate_reference(config, trace, warmup_fraction=0.2)
    monkeypatch.setattr(replay, "_FRONT_DEPTH",
                        replay._FRONT_DEPTH + 1)
    fast = simulate_fast(config, trace, warmup_fraction=0.2)
    with pytest.raises(AssertionError):
        assert_results_equivalent(detailed, fast)


def test_harness_detects_energy_perturbation(monkeypatch):
    """The fig05 tripwire, aimed at the batch evaluator: a 1% bump of
    one event-energy coefficient applied to the replay only must
    move total power beyond the agreement tolerance."""
    config = power10_config()
    trace = resolve_workload("dgemm-vsu", 2000)
    detailed = simulate_reference(config, trace, warmup_fraction=0.2)
    ref_total = EinspowerModel(config).report(
        detailed.activity).total_w
    table = repro.core.config._P10_EVENT_PJ
    monkeypatch.setitem(table, "l1d_access",
                        table["l1d_access"] * 1.01)
    perturbed = power10_config()
    fast = simulate_fast(perturbed, trace, warmup_fraction=0.2)
    batch = batch_power(perturbed, [fast.activity])
    assert not math.isclose(ref_total, batch.total_w[0],
                            rel_tol=RTOL), (
        "a 1% l1d_access energy perturbation did not move the "
        "replay's power — the differential harness is not sensitive "
        "enough")


# ---------------------------------------------------------------------
# Path selection inside simulate().
# ---------------------------------------------------------------------

def _replays_during(fn):
    """How many replays ``fn()`` ran, per the replay's own counter."""
    counter = get_registry().counter("repro_fast_simulations_total")
    before = counter.total
    result = fn()
    return result, counter.total - before


def test_default_simulate_replays():
    config = power10_config()
    trace = resolve_workload("daxpy", 600)
    result, replays = _replays_during(
        lambda: simulate(config, trace, warmup_fraction=0.2))
    assert replays == 1
    assert_results_equivalent(
        simulate_reference(config, trace, warmup_fraction=0.2), result)


def test_sampler_takes_the_walk_with_identical_results():
    from repro.obs.sampler import CycleIntervalSampler
    config = power10_config()
    trace = resolve_workload("daxpy", 600)
    plain = simulate(config, trace, warmup_fraction=0.2)
    sampler = CycleIntervalSampler(100)
    sampled, replays = _replays_during(
        lambda: simulate(config, trace, warmup_fraction=0.2,
                         sampler=sampler))
    assert replays == 0
    assert sampler.samples
    assert sampled.cycles == plain.cycles
    assert dict(sampled.activity.events) == dict(plain.activity.events)


def test_active_injector_takes_the_walk():
    from repro.resilience.faults import FaultSchedule
    from repro.resilience.injector import FaultInjector, injection
    config = power10_config()
    trace = resolve_workload("daxpy", 600)
    with injection(FaultInjector(FaultSchedule(seed=0, faults=()))):
        _result, replays = _replays_during(
            lambda: simulate(config, trace))
    assert replays == 0
