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
from repro.core.isa import ACC_BASE, Instruction, InstrClass
from repro.core.pipeline import simulate, simulate_reference
from repro.errors import SimulationError
from repro.fastsim import simulate_fast
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
    got = EinspowerModel(config).report(fast.activity)
    assert math.isclose(ref.total_w, got.total_w, rel_tol=rtol)
    assert math.isclose(ref.dynamic_w, got.dynamic_w, rel_tol=rtol)
    assert math.isclose(ref.active_w, got.active_w, rel_tol=rtol,
                        abs_tol=1e-12)


# ---------------------------------------------------------------------
# Every registered workload, multiple configs and warmups.
# ---------------------------------------------------------------------

_CONFIG_BUILDERS = {
    "p10": lambda: power10_config(),
    "p9": lambda: power9_config(),
    "p10-smt4": lambda: power10_config(smt=4),
    # the core model of Fig. 10: nothing past the L2
    "p10-smt2-inf-l2": lambda: power10_config(smt=2, infinite_l2=True),
    # eighth-size caches and TLB: miss-, prefetch- and ERAT-heavy
    "p9-scale8": lambda: power9_config(cache_scale=8),
    "p10-scale8": lambda: power10_config(cache_scale=8),
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


# ---------------------------------------------------------------------
# Hypothesis: adversarial synthetic workloads.
# ---------------------------------------------------------------------

_P9_CLASSES = [c for c in InstrClass
               if c not in (InstrClass.MMA, InstrClass.MMA_MOVE)]
_SIZES = (4, 8, 16, 32)


@st.composite
def synthetic_traces(draw):
    """A short adversarial trace plus the config to run it on.

    The generator leans into the corners the replay has to get right:
    register dependence chains per hardware thread, MMA accumulators
    written and read back, reused and conflicting cache lines,
    consecutive-address stores of every width (fusable or too wide),
    address and branch target 0 (distinct from no address/target),
    taken/not-taken branch mixes, stores behind loads, and fusion
    candidates from adjacent FX ops.
    """
    on_p9 = draw(st.booleans())
    # POWER10 traces lean on the MMA classes, whose accumulator
    # forwarding is a dependence rule of its own
    classes = _P9_CLASSES if on_p9 else list(InstrClass) + 2 * [
        InstrClass.MMA, InstrClass.MMA_MOVE]
    n = draw(st.integers(min_value=20, max_value=220))
    threads = draw(st.sampled_from(((0,), (0, 1), (0, 1, 2, 3))))
    # a small address pool makes hits, misses, and line conflicts all
    # likely inside a short trace
    pool = draw(st.lists(st.integers(min_value=0, max_value=1 << 18),
                         min_size=2, max_size=8)) + [0]
    gprs = st.integers(min_value=0, max_value=15)
    # two accumulators, so accumulate chains form in a short trace
    accs = st.integers(min_value=ACC_BASE, max_value=ACC_BASE + 1)
    instrs = []
    pc = 0x10000
    next_addr = 0
    for _ in range(n):
        cls = draw(st.sampled_from(classes))
        addr = None
        size = 0
        taken = False
        target = None
        flops = 0
        if cls.is_memory:
            if draw(st.booleans()):
                # right behind the previous access: store/load pairs
                addr = next_addr
            else:
                addr = draw(st.sampled_from(pool)) \
                    + draw(st.integers(min_value=0, max_value=256))
            size = draw(st.sampled_from(_SIZES))
            next_addr = addr + size
        if cls in (InstrClass.BRANCH, InstrClass.BRANCH_IND):
            taken = draw(st.booleans())
            target = draw(st.one_of(
                st.just(0), st.none(),
                st.integers(min_value=-512, max_value=512).map(
                    lambda d: pc + 4 * d)))
        if cls in (InstrClass.FP, InstrClass.VSX, InstrClass.MMA):
            flops = draw(st.sampled_from((2, 4, 8, 16)))
        dests = draw(st.lists(gprs, max_size=2))
        srcs = draw(st.lists(gprs, max_size=3))
        if cls.is_mma and draw(st.booleans()):
            # accumulate into (or move out of) an accumulator
            acc = draw(accs)
            dests, srcs = [acc] + dests[:1], [acc] + srcs[:2]
        instrs.append(Instruction(
            iclass=cls, dests=tuple(dests), srcs=tuple(srcs),
            address=addr, size=size, taken=taken, target=target,
            flops=flops, pc=pc, thread=draw(st.sampled_from(threads))))
        pc += 4
    warmup = draw(st.sampled_from((0.0, 0.3)))
    config = draw(st.sampled_from(
        ("p9", "p9-scale8") if on_p9
        else ("p10", "p10-smt2-inf-l2", "p10-scale8")))
    return config, Trace(name="hypo", instructions=instrs), warmup


@settings(max_examples=180, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(synthetic_traces())
def test_synthetic_workloads_agree(case):
    cfg_name, trace, warmup = case
    config = _CONFIG_BUILDERS[cfg_name]()
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
    """The fig05 tripwire, aimed at the energy check: a 1% bump of
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
    got_total = EinspowerModel(perturbed).report(
        fast.activity).total_w
    assert not math.isclose(ref_total, got_total, rel_tol=RTOL), (
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
