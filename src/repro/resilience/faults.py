"""Deterministic fault taxonomy for injection campaigns.

The paper's reliability and power-management stories are both
*defensive*: SERMiner (Section III-E) argues most latch upsets are
derated away by clock gating, and the DDS/throttle/OCC stack
(Section IV-B) argues the chip survives telemetry and supply upsets.
This module gives those claims something to defend against — a closed
vocabulary of faults, each a frozen, JSON-serializable dataclass, plus
a seeded generator that expands a ``(seed, model)`` pair into the exact
same :class:`FaultSchedule` on every invocation.

Fault kinds (one per attack surface of the reproduction):

* :class:`LatchFlipFault` — an SER bit flip in one latch group of the
  SERMiner :class:`~repro.reliability.latches.LatchPopulation`; whether
  it propagates is decided at injection time from the owning unit's
  clock activity, mirroring the derating definition;
* :class:`CounterFault` — corruption of one activity counter (zeroed,
  spiked, or negated — the last is caught by the counter validity
  check and becomes a *detected* outcome);
* :class:`TelemetryFault` — interval-sample loss: dropped, stuck-at,
  NaN, or blank (events mapping emptied — "no data", not "idle");
* :class:`DroopFault` — an injected current step into the supply model,
  the stimulus the digital droop sensor exists to catch;
* :class:`TraceFault` — corruption of one dynamic instruction record
  (address bit flip or source-register swap).

``at`` is the fault's schedule point; its domain depends on the kind
(dynamic instruction index for latch/counter/trace faults, telemetry
interval ordinal for telemetry faults, droop-loop tick for droop
faults).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Dict, List, Optional, Tuple

import numpy as np

from ..core.activity import EVENT_NAMES
from ..errors import ResilienceError
from ..reliability.latches import LatchPopulation

COUNTER_MODES = ("zero", "spike", "negate")
TELEMETRY_MODES = ("drop", "stuck", "nan", "blank")
TRACE_MODES = ("address_bit", "src_reg")


@dataclass(frozen=True)
class Fault:
    """Base record: one scheduled fault."""

    at: int

    kind: ClassVar[str] = "fault"

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ResilienceError(
                f"fault schedule point must be >= 0, got {self.at}")

    def to_json(self) -> Dict[str, object]:
        data = asdict(self)
        data["kind"] = self.kind
        return data


@dataclass(frozen=True)
class LatchFlipFault(Fault):
    """SER upset in one latch group at one dynamic instruction.

    ``stall_cycles`` / ``perturb_events`` are the *effect magnitudes*
    if the flip propagates (front-end control latches wedge the
    pipeline; execution-side latches corrupt the activity stream).
    ``activity_factor`` is copied from the targeted
    :class:`~repro.reliability.latches.LatchGroup` and ``probe`` is a
    uniform draw deciding whether the strike lands on a switching
    cycle — all drawn at schedule time so the effect is reproducible.
    """

    unit: str = ""
    group_index: int = 0
    group_kind: str = "control"      # "config" | "control" | "data"
    stall_cycles: int = 64
    perturb_events: int = 8
    activity_factor: float = 1.0
    probe: float = 0.0

    kind: ClassVar[str] = "latch_flip"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.group_kind not in ("config", "control", "data"):
            raise ResilienceError(
                f"unknown latch group kind: {self.group_kind!r}")
        if not 0.0 <= self.activity_factor <= 1.0:
            raise ResilienceError(
                "latch activity factor must be in [0, 1]")
        if not 0.0 <= self.probe < 1.0:
            raise ResilienceError("latch probe must be in [0, 1)")


@dataclass(frozen=True)
class CounterFault(Fault):
    """Corruption of one activity counter."""

    event: str = "complete_instr"
    mode: str = "spike"
    magnitude: int = 1

    kind: ClassVar[str] = "counter"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in COUNTER_MODES:
            raise ResilienceError(f"unknown counter mode: {self.mode!r}")
        if self.event not in EVENT_NAMES:
            raise ResilienceError(
                f"counter fault targets unknown event {self.event!r}")


@dataclass(frozen=True)
class TelemetryFault(Fault):
    """Loss/corruption of sampler intervals [at, at + duration)."""

    mode: str = "drop"
    duration: int = 1

    kind: ClassVar[str] = "telemetry"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in TELEMETRY_MODES:
            raise ResilienceError(
                f"unknown telemetry mode: {self.mode!r}")
        if self.duration <= 0:
            raise ResilienceError("telemetry fault duration must be > 0")


@dataclass(frozen=True)
class DroopFault(Fault):
    """Current step injected into the supply model for ``duration``
    droop-loop ticks starting at ``at``."""

    step_a: float = 30.0
    duration: int = 3

    kind: ClassVar[str] = "droop"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.step_a <= 0 or self.duration <= 0:
            raise ResilienceError(
                "droop fault needs positive step and duration")


@dataclass(frozen=True)
class TraceFault(Fault):
    """Corruption of the dynamic instruction record at index ``at``."""

    mode: str = "address_bit"
    value: int = 6            # bit position, or replacement register

    kind: ClassVar[str] = "trace"

    #: exclusive bound of ``value`` per mode: a flip must keep the int64
    #: address column in range, and a register must fit int32 ``src_reg``
    VALUE_LIMITS: ClassVar[Dict[str, int]] = {"address_bit": 63,
                                              "src_reg": 2 ** 31}

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in TRACE_MODES:
            raise ResilienceError(f"unknown trace mode: {self.mode!r}")
        if self.value < 0:
            raise ResilienceError("trace fault value must be >= 0")
        if self.value >= self.VALUE_LIMITS[self.mode]:
            raise ResilienceError(
                f"{self.mode} trace fault value must be < "
                f"{self.VALUE_LIMITS[self.mode]}, got {self.value}")


_FAULT_TYPES = {cls.kind: cls for cls in
                (LatchFlipFault, CounterFault, TelemetryFault,
                 DroopFault, TraceFault)}


def fault_from_json(data: Dict[str, object]) -> Fault:
    """Rebuild a fault from its :meth:`Fault.to_json` dict."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = _FAULT_TYPES.get(kind)
    if cls is None:
        raise ResilienceError(f"unknown fault kind in schedule: {kind!r}")
    try:
        return cls(**payload)
    except TypeError as exc:
        raise ResilienceError(
            f"malformed {kind} fault record: {exc}") from exc


@dataclass(frozen=True)
class FaultSchedule:
    """The complete, ordered fault plan of one campaign run."""

    seed: int
    faults: Tuple[Fault, ...]

    def by_kind(self, kind: str) -> List[Fault]:
        return [f for f in self.faults if f.kind == kind]

    @property
    def sim_faults(self) -> List[Fault]:
        """Faults applied inside the timing model, in schedule order."""
        picked = [f for f in self.faults
                  if f.kind in ("latch_flip", "counter")]
        return sorted(picked, key=lambda f: f.at)

    def to_json(self) -> Dict[str, object]:
        return {"seed": self.seed,
                "faults": [f.to_json() for f in self.faults]}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultSchedule":
        if "seed" not in data or "faults" not in data:
            raise ResilienceError("fault schedule JSON needs seed+faults")
        return cls(seed=int(data["seed"]),
                   faults=tuple(fault_from_json(f)
                                for f in data["faults"]))


# Default draw weights over fault kinds; latch flips dominate so the
# SERMiner cross-check accumulates statistics fastest.
DEFAULT_MIX: Dict[str, float] = {
    "latch_flip": 0.40,
    "counter": 0.20,
    "telemetry": 0.15,
    "droop": 0.10,
    "trace": 0.15,
}


def generate_schedule(seed: int, *,
                      population: LatchPopulation,
                      n_instructions: int,
                      n_intervals: int = 8,
                      n_faults: int = 3,
                      mix: Optional[Dict[str, float]] = None,
                      ) -> FaultSchedule:
    """Expand a seed into a reproducible fault schedule.

    All randomness flows through one ``np.random.default_rng(seed)``
    stream, so the same ``(seed, population, n_instructions,
    n_intervals, n_faults, mix)`` tuple yields an identical schedule on
    every call — the property the campaign checkpoint/resume contract
    is built on.
    """
    if n_instructions <= 0:
        raise ResilienceError("n_instructions must be positive")
    if n_faults <= 0:
        raise ResilienceError("n_faults must be positive")
    weights = dict(DEFAULT_MIX if mix is None else mix)
    kinds = sorted(weights)
    probs = np.array([weights[k] for k in kinds], dtype=float)
    if probs.sum() <= 0:
        raise ResilienceError("fault mix weights must sum to > 0")
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    groups = population.groups
    intervals = max(1, n_intervals)
    faults: List[Fault] = []
    for _ in range(n_faults):
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        if kind == "latch_flip":
            group = groups[int(rng.integers(len(groups)))]
            faults.append(LatchFlipFault(
                at=int(rng.integers(n_instructions)),
                unit=group.unit,
                group_index=group.index,
                group_kind=group.kind,
                stall_cycles=int(rng.integers(32, 2048)),
                perturb_events=int(rng.integers(1, 64)),
                activity_factor=min(1.0, group.activity_factor),
                probe=float(rng.random())))
        elif kind == "counter":
            faults.append(CounterFault(
                at=int(rng.integers(n_instructions)),
                event=EVENT_NAMES[int(rng.integers(len(EVENT_NAMES)))],
                mode=COUNTER_MODES[int(rng.integers(len(COUNTER_MODES)))],
                magnitude=int(rng.integers(1, 10000))))
        elif kind == "telemetry":
            faults.append(TelemetryFault(
                at=int(rng.integers(intervals)),
                mode=TELEMETRY_MODES[
                    int(rng.integers(len(TELEMETRY_MODES)))],
                duration=int(rng.integers(1, 4))))
        elif kind == "droop":
            faults.append(DroopFault(
                at=int(rng.integers(intervals)),
                step_a=float(10.0 + 50.0 * rng.random()),
                duration=int(rng.integers(1, 6))))
        else:
            mode = TRACE_MODES[int(rng.integers(len(TRACE_MODES)))]
            value = int(rng.integers(1, 20)) if mode == "address_bit" \
                else int(rng.integers(0, 32))
            faults.append(TraceFault(
                at=int(rng.integers(n_instructions)),
                mode=mode, value=value))
    return FaultSchedule(seed=seed, faults=tuple(faults))
