"""Samplers and fault injectors on the replay, against the walk oracle.

The replay serves interval samplers and fault injectors from its taps:
one cycle per decode group, the wrong-path volume of every mispredict,
and the deltas forced counts leave behind.  The per-instruction walk of
``tests/walk_oracle.py`` observes and polls after every group instead.
For every trace, config, warmup, sampler interval and fault schedule
the two must give the same:

* ``SimResult`` JSON, or the same error type and message (a hang, a
  detected counter corruption, a missing execution resource);
* interval samples, float ``proxy_w`` included;
* injection records, in order, with the sampler's telemetry records
  interleaved with the poll records as the walk orders them;

and neither may change the input trace.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import power9_config, power10_config
from repro.core.activity import EVENT_NAMES, UNIT_NAMES
from repro.core.isa import TraceColumns
from repro.core.pipeline import simulate
from repro.errors import ReproError
from repro.exec.cache import sim_result_to_json
from repro.obs.sampler import CycleIntervalSampler
from repro.reliability.latches import build_population
from repro.resilience.faults import (COUNTER_MODES, TELEMETRY_MODES,
                                     CounterFault, FaultSchedule,
                                     LatchFlipFault, TelemetryFault,
                                     TraceFault, generate_schedule)
from repro.resilience.injector import FaultInjector, injection
from repro.workloads import resolve_workload, workload_names
from tests.test_fastsim_diff import _CONFIG_BUILDERS, synthetic_traces
from tests.walk_oracle import simulate_reference


def run(sim, config, trace, warmup, schedule, budget, interval):
    """One run under ``schedule``: its outcome (result JSON or error),
    its samples and its injection records."""
    sampler = None if interval is None else CycleIntervalSampler(interval)
    injector = None if schedule is None \
        else FaultInjector(schedule, cycle_budget=budget)
    try:
        if injector is None:
            outcome = sim_result_to_json(
                sim(config, trace, warmup_fraction=warmup, sampler=sampler))
        else:
            with injection(injector):
                outcome = sim_result_to_json(sim(
                    config, trace, warmup_fraction=warmup, sampler=sampler))
    except ReproError as exc:
        outcome = (type(exc).__name__, str(exc))
    samples = [] if sampler is None else [repr(vars(s))
                                          for s in sampler.samples]
    records = [] if injector is None else [r.to_json()
                                           for r in injector.records]
    return outcome, samples, records


def columns_state(trace):
    cols = trace.columns
    return {f: getattr(cols, f).copy() for f in TraceColumns.ROWS
            + ("src_off", "src_reg", "dest_off", "dest_reg")}


def assert_replay_equals_walk(config, trace, warmup, schedule, budget,
                              interval):
    before = columns_state(trace)
    replayed = run(simulate, config, trace, warmup, schedule, budget,
                   interval)
    walked = run(simulate_reference, config, trace, warmup, schedule,
                 budget, interval)
    assert replayed[0] == walked[0]
    assert replayed[1] == walked[1]
    assert replayed[2] == walked[2]
    after = columns_state(trace)
    assert all(np.array_equal(before[f], after[f]) for f in before)
    return replayed


# ---------------------------------------------------------------------
# Hypothesis: traces, schedules, budgets and sampler intervals.
# ---------------------------------------------------------------------

#: events a counter fault targets: every event, with the prefetch counts
#: (assigned at the end of a run) and the wrong-path-fed front-end counts
#: drawn more often
_EVENTS = st.one_of(
    st.sampled_from(EVENT_NAMES),
    st.sampled_from(("prefetch_issued", "prefetch_useful", "fetch_instr",
                     "decode_instr", "flush_instr", "complete_instr")))


@st.composite
def schedules(draw, n):
    """Faults at instruction indices in range and just past the end."""
    at = st.integers(min_value=0, max_value=n + 8)
    counter = st.builds(
        CounterFault, at=at, event=_EVENTS,
        mode=st.sampled_from(COUNTER_MODES),
        magnitude=st.integers(min_value=1, max_value=10000))
    latch = st.builds(
        LatchFlipFault, at=at, unit=st.sampled_from(UNIT_NAMES),
        group_index=st.integers(min_value=0, max_value=40),
        group_kind=st.sampled_from(("config", "control", "data")),
        stall_cycles=st.integers(min_value=1, max_value=2048),
        perturb_events=st.integers(min_value=1, max_value=64),
        activity_factor=st.floats(min_value=0.0, max_value=1.0),
        probe=st.floats(min_value=0.0, max_value=0.999))
    telemetry = st.builds(
        TelemetryFault, at=st.integers(min_value=0, max_value=12),
        mode=st.sampled_from(TELEMETRY_MODES),
        duration=st.integers(min_value=1, max_value=3))
    trace_fault = st.one_of(
        st.builds(TraceFault, at=at, mode=st.just("address_bit"),
                  value=st.integers(min_value=0, max_value=30)),
        st.builds(TraceFault, at=at, mode=st.just("src_reg"),
                  value=st.integers(min_value=0, max_value=40)))
    faults = draw(st.lists(st.one_of(counter, latch, telemetry,
                                     trace_fault), max_size=8))
    return FaultSchedule(seed=0, faults=tuple(faults))


@st.composite
def cases(draw):
    cfg_name, trace, warmup = draw(synthetic_traces())
    schedule = draw(st.one_of(st.none(), schedules(len(trace))))
    budget = draw(st.one_of(st.none(),
                            st.integers(min_value=1, max_value=4000)))
    interval = draw(st.one_of(st.none(),
                              st.integers(min_value=1, max_value=400)))
    return cfg_name, trace, warmup, schedule, budget, interval


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_replay_serves_samplers_and_faults_like_the_walk(case):
    cfg_name, trace, warmup, schedule, budget, interval = case
    assert_replay_equals_walk(_CONFIG_BUILDERS[cfg_name](), trace, warmup,
                              schedule, budget, interval)


# ---------------------------------------------------------------------
# Every registered workload under a campaign-style schedule.
# ---------------------------------------------------------------------

_CONFIGS = {
    "p9": lambda: power9_config(),
    "p10": lambda: power10_config(),
    "p10-smt4": lambda: power10_config(smt=4),
    "p10-inf-l2": lambda: power10_config(infinite_l2=True),
}


@pytest.mark.parametrize("warmup", [0.0, 0.2])
@pytest.mark.parametrize("cfg_name", list(_CONFIGS))
@pytest.mark.parametrize("workload", workload_names())
def test_registered_workloads_sampled_and_injected(workload, cfg_name,
                                                   warmup):
    config = _CONFIGS[cfg_name]()
    trace = resolve_workload(workload, 1500)
    seed = workload_names().index(workload)
    schedule = generate_schedule(
        seed, population=build_population(config),
        n_instructions=len(trace), n_intervals=12, n_faults=6)
    # a budget a latch stall can push the run past
    try:
        budget = simulate(config, trace).cycles + 300
    except ReproError:
        budget = None
    assert_replay_equals_walk(config, trace, warmup, schedule, budget, 250)


# ---------------------------------------------------------------------
# The walk's rules, one at a time.
# ---------------------------------------------------------------------

def _daxpy():
    return power10_config(), resolve_workload("daxpy", 800)


def test_poll_sees_the_cycle_before_its_stall_and_observe_after():
    """A stall fault's poll and the sample closed at that group."""
    config, trace = _daxpy()
    stall = LatchFlipFault(at=400, unit="decode", group_kind="control",
                           stall_cycles=700, activity_factor=1.0,
                           probe=0.0)
    spike = CounterFault(at=400, event="issue_vsx", mode="spike",
                         magnitude=5)
    outcome, samples, records = assert_replay_equals_walk(
        config, trace, 0.0, FaultSchedule(seed=0, faults=(stall, spike)),
        None, 200)
    assert [r["effect"] for r in records] == ["stall",
                                              "counter-corruption"]
    assert outcome["cycles"] > simulate(config, trace).cycles


def test_forced_prefetch_counts_are_reassigned_at_the_end():
    """The prefetch counts read 0 until the end of the run, where the
    prefetcher's totals overwrite whatever a fault forced into them."""
    config, trace = _daxpy()
    plain = simulate(config, trace)
    forced = (CounterFault(at=10, event="prefetch_issued", mode="spike",
                           magnitude=7),
              CounterFault(at=20, event="prefetch_useful", mode="zero"))
    outcome, _samples, records = assert_replay_equals_walk(
        config, trace, 0.0, FaultSchedule(seed=0, faults=forced), None,
        None)
    assert records[0]["detail"] == "prefetch_issued: 0 -> 7"
    assert outcome == sim_result_to_json(plain)


def test_warmup_clamps_a_count_zeroed_after_the_snapshot():
    config, trace = _daxpy()
    zero = CounterFault(at=len(trace) - 40, event="complete_instr",
                        mode="zero")
    outcome, _samples, _records = assert_replay_equals_walk(
        config, trace, 0.3, FaultSchedule(seed=0, faults=(zero,)), None,
        None)
    assert outcome["activity"]["events"]["complete_instr"] == 0


def test_samples_interleave_with_poll_records():
    config, trace = _daxpy()
    faults = (TelemetryFault(at=1, mode="nan"),
              CounterFault(at=2000, event="l1d_access", mode="spike"),
              TelemetryFault(at=4, mode="drop"))
    _outcome, _samples, records = assert_replay_equals_walk(
        config, trace, 0.0, FaultSchedule(seed=0, faults=faults), None,
        150)
    assert [r["effect"] for r in records] == [
        "telemetry-nan", "counter-corruption", "telemetry-drop"]


def test_watchdog_and_detected_errors_match_the_walk():
    config, trace = _daxpy()
    plain = assert_replay_equals_walk(config, trace, 0.0, None, None, None)
    budget = plain[0]["cycles"] // 2
    outcome, _samples, _records = assert_replay_equals_walk(
        config, trace, 0.0, FaultSchedule(seed=0, faults=()), budget, 100)
    assert outcome[0] == "HangError"
    negate = CounterFault(at=300, event="agen", mode="negate")
    outcome, _samples, records = assert_replay_equals_walk(
        config, trace, 0.0, FaultSchedule(seed=0, faults=(negate,)), None,
        100)
    assert outcome[0] == "SimulationError"
    assert records[-1]["effect"] == "detected"


def test_trace_faults_edit_a_copy_of_the_columns():
    config, trace = _daxpy()
    faults = (TraceFault(at=0, mode="address_bit", value=3),
              TraceFault(at=0, mode="src_reg", value=9),
              TraceFault(at=1, mode="address_bit", value=12),
              TraceFault(at=2, mode="address_bit", value=12),
              TraceFault(at=10_000, mode="src_reg", value=1))
    _outcome, _samples, records = assert_replay_equals_walk(
        config, trace, 0.2, FaultSchedule(seed=0, faults=faults), None,
        None)
    assert [r["effect"] for r in records] == [
        "trace-corruption", "trace-corruption", "trace-corruption",
        "masked", "out-of-range"]
