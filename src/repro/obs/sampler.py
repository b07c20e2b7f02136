"""Cycle-interval sampling of the core timing model.

The software analog of the paper's OCC telemetry loop (Section IV,
Fig. 15): the on-chip controller reads the power proxy and activity
counters every control interval, seeing the workload as a *time series*
rather than one end-of-run aggregate.  A
:class:`CycleIntervalSampler` passed to
:func:`repro.core.pipeline.simulate` snapshots the activity stream every
``interval_cycles`` simulated cycles and derives, per interval:

* instruction throughput (interval IPC),
* per-unit activity (utilization estimates over the interval alone),
* the power-proxy value for the interval — by default the APEX
  count-based estimate, the same math the hardware proxy approximates.

The timing model observes at decode-group ends (the cycle
``max(last_retire, front_cycle)`` after each group), so interval
boundaries land on the first group end at or after each multiple of
``interval_cycles``; widths are therefore *approximately* the requested
interval (exact boundaries would require cycle-stepped simulation).
The replay calls :meth:`CycleIntervalSampler.observe` only at the group
ends that reach :attr:`~CycleIntervalSampler.next_boundary`; at any
other group it would emit nothing.  Sampling is deterministic: the same
config and trace produce the same series, bit for bit.

One sampler instance can span many runs (a suite, a P9-vs-P10
comparison); each ``begin()`` opens a new run segment and samples carry
their run label, so exports interleave cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.activity import ActivityCounters, UNIT_NAMES
from ..errors import TelemetryError

# proxy evaluator signature: (config, interval_activity) -> watts
ProxyFn = Callable[[object, ActivityCounters], float]


@dataclass
class IntervalSample:
    """One telemetry interval of one run."""

    run: str                     # "<config>:<trace>" label
    index: int                   # interval number within the run
    cycle_start: int
    cycle_end: int
    instructions: int
    ipc: float
    proxy_w: float
    unit_activity: Dict[str, float] = field(default_factory=dict)
    events: Dict[str, int] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        return self.cycle_end - self.cycle_start


class CycleIntervalSampler:
    """Snapshots activity every ~N simulated cycles.

    The simulator calls :meth:`begin` once per run, :meth:`observe`
    as simulated time advances, and :meth:`finalize` at run end (which
    closes the last partial interval).
    """

    def __init__(self, interval_cycles: int = 5000, *,
                 proxy: Optional[ProxyFn] = None):
        if interval_cycles <= 0:
            raise TelemetryError("interval_cycles must be positive")
        self.interval_cycles = interval_cycles
        self.samples: List[IntervalSample] = []
        self._proxy = proxy
        self._config = None
        self._run: Optional[str] = None
        self._index = 0
        self._mark_cycle = 0
        self._mark_events: Dict[str, int] = {}
        self._next_boundary = interval_cycles

    # ---- simulator-facing hooks ---------------------------------------

    def begin(self, config, trace_name: str) -> None:
        """Open a new run segment (resets the interval cursor)."""
        self._config = config
        self._run = f"{config.name}:{trace_name}"
        self._index = 0
        self._mark_cycle = 0
        self._mark_events = {}
        self._next_boundary = self.interval_cycles

    @property
    def next_boundary(self) -> int:
        """The first cycle at which :meth:`observe` emits a sample."""
        return self._next_boundary

    def observe(self, cycle: int, activity: ActivityCounters) -> None:
        """Called as simulated time advances; emits a sample whenever a
        boundary has been crossed.  Cheap when between boundaries."""
        if cycle >= self._next_boundary:
            self._emit(cycle, activity)

    def finalize(self, cycle: int, activity: ActivityCounters) -> None:
        """Close the trailing partial interval (if it has any width)."""
        if cycle > self._mark_cycle:
            self._emit(cycle, activity)

    # ---- internals ----------------------------------------------------

    def _emit(self, cycle: int, activity: ActivityCounters) -> None:
        if self._run is None:
            raise TelemetryError("sampler.observe before begin()")
        width = cycle - self._mark_cycle
        if width <= 0:
            return
        delta = ActivityCounters()
        delta.cycles = width
        events = delta.events
        mark = self._mark_events
        for name, total in activity.events.items():
            events[name] = total - mark.get(name, 0)
        delta.instructions = events["complete_instr"]

        # Busy-cycle derivation and the APEX proxy live above core in
        # the layering; import lazily to keep core -> obs import-safe.
        from ..core.pipeline import derive_busy_cycles
        derive_busy_cycles(delta, self._config, width)
        if self._proxy is not None:
            proxy_w = self._proxy(self._config, delta)
        else:
            from ..power.apex import apex_power_from_activity
            proxy_w = apex_power_from_activity(self._config, delta)

        sample = IntervalSample(
            run=self._run,
            index=self._index,
            cycle_start=self._mark_cycle,
            cycle_end=cycle,
            instructions=delta.instructions,
            ipc=delta.instructions / width,
            proxy_w=proxy_w,
            unit_activity={u: delta.utilization(u) for u in UNIT_NAMES},
            events=dict(events))
        # Fault-injection hook: an active campaign can drop, freeze, or
        # corrupt the interval (telemetry loss).  Cursors advance either
        # way, so a lost interval leaves a gap exactly like a lost OCC
        # reading; with no campaign active the sample passes untouched.
        from ..resilience.injector import get_injector
        inj = get_injector()
        if inj is not None:
            sample = inj.on_sample(sample)
        if sample is not None:
            self.samples.append(sample)
        self._index += 1
        self._mark_cycle = cycle
        self._mark_events = dict(activity.events)
        # next boundary: first multiple of the interval beyond 'cycle'
        steps = cycle // self.interval_cycles + 1
        self._next_boundary = steps * self.interval_cycles

    # ---- consumption helpers ------------------------------------------

    @property
    def runs(self) -> List[str]:
        """Run labels in first-appearance order."""
        seen: Dict[str, None] = {}
        for s in self.samples:
            seen.setdefault(s.run, None)
        return list(seen)

    def run_samples(self, run: str) -> List[IntervalSample]:
        return [s for s in self.samples if s.run == run]

    def series(self, fieldname: str,
               run: Optional[str] = None) -> List[float]:
        """One sample attribute as a flat list (Fig. 15-style series)."""
        samples = self.samples if run is None else self.run_samples(run)
        try:
            return [getattr(s, fieldname) for s in samples]
        except AttributeError:
            raise TelemetryError(
                f"unknown sample field: {fieldname!r}") from None


def proxy_series(samples: Sequence[IntervalSample]) -> List[float]:
    """The proxy-power time series of a sample list (convenience for
    Fig. 15-style plots and the OCC loop)."""
    return [s.proxy_w for s in samples]
