"""Fault injector: the runtime that delivers a schedule into a run.

One :class:`FaultInjector` owns one :class:`~repro.resilience.faults.
FaultSchedule` and is *installed* for the duration of a run via the
:func:`injection` context manager.  The hook points it serves:

* the replay behind ``core.pipeline.simulate``
  (``fastsim.replay.simulate_fast``) calls :func:`get_injector` once
  per run and applies trace-record faults to the run's columns before
  extraction (:meth:`FaultInjector.begin_sim`).  It calls
  :meth:`FaultInjector.poll` after each decode group where a fault is
  due, to deliver latch flips and counter corruption, and after the
  first group past the campaign's cycle budget, where the poll's
  watchdog raises.  At every other group a poll would do nothing;
* ``obs.sampler.CycleIntervalSampler._emit`` passes every interval
  sample through :meth:`FaultInjector.on_sample` (dropout / stuck-at /
  NaN / blank telemetry);
* the campaign's PM phase routes its current series through
  :meth:`FaultInjector.apply_droop`.

With no injector installed every hook is a single ``is None`` check on
the caller's side, and the simulated results are bit-identical to a
tree without this module — the same guarantee the telemetry layer makes
when sampling is off.

Latch-flip propagation implements SERMiner's vulnerability definition
at run time: a flip only propagates if its latch group was *switching*
in the window containing the injection point.  The group's switching
rate is estimated as (unit signal-event rate over the window) times the
group's activity factor — the same product the static analysis uses
over the whole run — and the fault's pre-drawn ``probe`` decides
whether the strike landed on a switching cycle.  A flip into a gated
group is masked, which is exactly the runtime derating the campaign
report cross-checks against the static prediction.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.activity import ActivityCounters
from ..core.isa import TraceColumns
from ..errors import HangError, ResilienceError
from .faults import (CounterFault, DroopFault, Fault, FaultSchedule,
                     LatchFlipFault, TelemetryFault, TraceFault)

# Events that indicate a unit was clocked during a window (subset of
# the derive_busy_cycles mapping — enough to decide "moved vs idle").
_UNIT_SIGNALS: Dict[str, Sequence[str]] = {
    "ifu": ("icache_access", "fetch_instr"),
    "decode": ("decode_instr",),
    "dispatch": ("dispatch_iop",),
    "issueq": ("issueq_write", "issueq_wakeup"),
    "fx": ("issue_fx",),
    "fx_muldiv": ("issue_fx_muldiv",),
    "branch": ("issue_branch",),
    "cr": ("issue_cr",),
    "fp": ("issue_fp",),
    "vsu": ("issue_vsx",),
    "mma": ("issue_mma",),
    "regfile": ("rf_read", "rf_write"),
    "lsu": ("load_issue", "store_issue"),
    "l1d": ("l1d_access",),
    "erat_mmu": ("erat_lookup",),
    "prefetch": ("prefetch_issued", "l1d_miss"),
    "l2": ("l2_access",),
    "l3": ("l3_access",),
    "completion": ("complete_instr",),
}

# Control corruption in these units wedges instruction delivery and is
# modeled as a pipeline stall; everywhere else a propagated flip
# corrupts the unit's activity stream instead.
_STALL_UNITS = frozenset(
    {"ifu", "decode", "dispatch", "issueq", "completion"})


@dataclass
class InjectionRecord:
    """What actually happened when one fault was delivered."""

    fault: Dict[str, object]      # Fault.to_json()
    applied: bool = True
    propagated: bool = False
    effect: str = "none"
    detail: str = ""

    def to_json(self) -> Dict[str, object]:
        return {"fault": dict(self.fault), "applied": self.applied,
                "propagated": self.propagated, "effect": self.effect,
                "detail": self.detail}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "InjectionRecord":
        return cls(fault=dict(data["fault"]),
                   applied=bool(data["applied"]),
                   propagated=bool(data["propagated"]),
                   effect=str(data["effect"]),
                   detail=str(data.get("detail", "")))


class FaultInjector:
    """Delivers one fault schedule into one simulated run."""

    def __init__(self, schedule: FaultSchedule, *,
                 cycle_budget: Optional[int] = None):
        if cycle_budget is not None and cycle_budget <= 0:
            raise ResilienceError("cycle budget must be positive")
        self.schedule = schedule
        self.cycle_budget = cycle_budget
        self.records: List[InjectionRecord] = []
        self._sim_faults = schedule.sim_faults
        self._trace_faults = sorted(
            (f for f in schedule.faults if isinstance(f, TraceFault)),
            key=lambda f: f.at)
        self._droop_faults = [f for f in schedule.faults
                              if isinstance(f, DroopFault)]
        self._telemetry: Dict[int, TelemetryFault] = {}
        for f in schedule.faults:
            if isinstance(f, TelemetryFault):
                for k in range(f.duration):
                    self._telemetry.setdefault(f.at + k, f)
        self._sim_pos = 0
        self._interval_index = 0
        self._last_proxy: Optional[float] = None
        # per-unit (signal level, cycle) marks for window-local
        # switching estimation
        self._marks: Dict[str, tuple] = {}

    # ---- pipeline hooks ----------------------------------------------

    def begin_sim(self, columns: TraceColumns) -> TraceColumns:
        """Reset run cursors and apply trace-record faults.

        Returns the (possibly corrupted) columns of the run; the input
        is never mutated — a corrupted column is a copy, so the trace
        object stays reusable for clean runs.
        """
        self._sim_pos = 0
        self._interval_index = 0
        self._last_proxy = None
        self._marks = {}
        edits: Dict[str, np.ndarray] = {}

        def column(name: str) -> np.ndarray:
            if name not in edits:
                edits[name] = getattr(columns, name).copy()
            return edits[name]

        for fault in self._trace_faults:
            at = fault.at
            if at >= len(columns):
                self.records.append(InjectionRecord(
                    fault=fault.to_json(), applied=False,
                    effect="out-of-range",
                    detail=f"index {at} beyond trace end"))
                continue
            if fault.mode == "address_bit":
                if columns.address[at] < 0:
                    self.records.append(InjectionRecord(
                        fault=fault.to_json(), propagated=False,
                        effect="masked",
                        detail="target is not a memory instruction"))
                    continue
                address = column("address")
                address[at] = int(address[at]) ^ (1 << fault.value)
                detail = f"address bit {fault.value} flipped"
            else:
                first = int(columns.src_off[at])
                if first == columns.src_off[at + 1]:
                    self.records.append(InjectionRecord(
                        fault=fault.to_json(), propagated=False,
                        effect="masked",
                        detail="target reads no registers"))
                    continue
                column("src_reg")[first] = fault.value
                detail = f"src register swapped to {fault.value}"
            self.records.append(InjectionRecord(
                fault=fault.to_json(), propagated=True,
                effect="trace-corruption", detail=detail))
        return dataclasses.replace(columns, **edits) if edits else columns

    def poll(self, instr_index: int, act: ActivityCounters,
             cycle: int) -> int:
        """Deliver due sim faults; returns extra stall cycles.

        Called after a decode group with the run's cumulative counters
        and the cycle reached before any stall this poll adds; faults
        at instruction indices before ``instr_index`` are delivered.
        Also the watchdog: when the run crosses the campaign cycle
        budget the poll raises :class:`~repro.errors.HangError`, which
        the campaign classifies as a hang instead of wedging the
        driver.
        """
        if self.cycle_budget is not None and cycle > self.cycle_budget:
            raise HangError(
                f"simulation passed {cycle} cycles against a budget of "
                f"{self.cycle_budget} — treating the run as hung")
        stall = 0
        while (self._sim_pos < len(self._sim_faults)
               and self._sim_faults[self._sim_pos].at < instr_index):
            fault = self._sim_faults[self._sim_pos]
            self._sim_pos += 1
            stall += self._deliver(fault, act, cycle)
        return stall

    def _deliver(self, fault: Fault, act: ActivityCounters,
                 cycle: int) -> int:
        if isinstance(fault, CounterFault):
            return self._deliver_counter(fault, act)
        return self._deliver_latch_flip(fault, act, cycle)

    def _deliver_counter(self, fault: CounterFault,
                         act: ActivityCounters) -> int:
        current = act.events.get(fault.event, 0)
        if fault.mode == "zero":
            value = 0
        elif fault.mode == "spike":
            value = current + fault.magnitude
        else:                          # negate: an impossible count
            value = -fault.magnitude
        record = InjectionRecord(
            fault=fault.to_json(), propagated=True,
            effect="counter-corruption",
            detail=f"{fault.event}: {current} -> {value}")
        self.records.append(record)
        # force() validates the write; a negative count raises, which
        # the campaign classifies as *detected* (the parity-check
        # analog), so record first.
        try:
            act.force(fault.event, value)
        except Exception:
            record.effect = "detected"
            record.detail += " (rejected by counter validity check)"
            raise
        return 0

    def _deliver_latch_flip(self, fault: LatchFlipFault,
                            act: ActivityCounters, cycle: int) -> int:
        if fault.group_kind == "config":
            # config latches are set at init and excluded from the
            # protection question (paper III-E); post-init flips into
            # them never reach architected state here
            self.records.append(InjectionRecord(
                fault=fault.to_json(), propagated=False,
                effect="masked", detail="config latch group"))
            return 0
        signals = _UNIT_SIGNALS.get(fault.unit, ())
        level = sum(act.events.get(s, 0) for s in signals)
        mark_level, mark_cycle = self._marks.get(fault.unit, (0, 0))
        self._marks[fault.unit] = (level, cycle)
        rate = (level - mark_level) / max(1, cycle - mark_cycle)
        switching = min(1.0, rate) * fault.activity_factor
        if fault.probe >= switching:
            self.records.append(InjectionRecord(
                fault=fault.to_json(), propagated=False,
                effect="masked",
                detail=f"{fault.unit} group not switching at strike "
                       f"(rate {switching:.2f}, probe "
                       f"{fault.probe:.2f})"))
            return 0
        if fault.unit in _STALL_UNITS:
            self.records.append(InjectionRecord(
                fault=fault.to_json(), propagated=True,
                effect="stall",
                detail=f"{fault.unit} control corrupted, "
                       f"+{fault.stall_cycles} cycles"))
            return fault.stall_cycles
        event = signals[0]
        before = act.events.get(event, 0)
        act.force(event, before + fault.perturb_events)
        self.records.append(InjectionRecord(
            fault=fault.to_json(), propagated=True,
            effect="activity-corruption",
            detail=f"{event}: {before} -> "
                   f"{before + fault.perturb_events}"))
        return 0

    # ---- sampler hook -------------------------------------------------

    def on_sample(self, sample):
        """Filter one interval sample; None means the interval was lost.

        Applies the telemetry fault covering this interval ordinal, if
        any.  The sampler's cursors advance regardless, so a dropped
        interval leaves a gap in the series the way a lost OCC reading
        would.
        """
        idx = self._interval_index
        self._interval_index += 1
        fault = self._telemetry.get(idx)
        if fault is None:
            self._last_proxy = sample.proxy_w
            return sample
        record = InjectionRecord(
            fault=fault.to_json(), propagated=True,
            effect=f"telemetry-{fault.mode}",
            detail=f"interval {idx}")
        self.records.append(record)
        if fault.mode == "drop":
            return None
        if fault.mode == "stuck":
            if self._last_proxy is not None:
                sample.proxy_w = self._last_proxy
            return sample
        if fault.mode == "nan":
            sample.proxy_w = float("nan")
            return sample
        sample.events = {}             # blank: "no data", not "idle"
        return sample

    # ---- PM-phase hook ------------------------------------------------

    def apply_droop(self, currents: Sequence[float]) -> List[float]:
        """Overlay scheduled current steps on a droop-loop series."""
        out = list(currents)
        for fault in self._droop_faults:
            landed = 0
            for k in range(fault.duration):
                i = fault.at + k
                if i < len(out):
                    out[i] += fault.step_a
                    landed += 1
            self.records.append(InjectionRecord(
                fault=fault.to_json(), applied=landed > 0,
                propagated=landed > 0,
                effect="current-step" if landed else "out-of-range",
                detail=f"+{fault.step_a:.1f} A over {landed} tick(s)"))
        return out


_ACTIVE: Optional[FaultInjector] = None


def get_injector() -> Optional[FaultInjector]:
    """The currently installed injector, or None (the common case).

    Hook sites call this once per run / per interval; a None return
    means every injection path is skipped and results are bit-identical
    to a build without the resilience layer.
    """
    return _ACTIVE


@contextlib.contextmanager
def injection(injector: FaultInjector):
    """Install ``injector`` for the duration of the with-block."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise ResilienceError(
            "a fault-injection campaign is already active")
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
