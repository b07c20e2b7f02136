"""Admission control: rate limiting, bounded concurrency, degradation.

The escalation ladder mirrors PR 3's fail-safe philosophy and the
paper's reason for building power proxies at all (§IV-C: a cheap
weighted counter sum beats having no power number): a request the
server cannot run at full fidelity within its queue/rate/deadline
budget is *degraded* to a power-proxy fast-path answer (marked
``"degraded": true``) before the server ever returns 503.  Only
requests with no proxy equivalent (fault injection) are rejected
outright, with a ``Retry-After`` hint.

This module is in the R003 determinism scope like the rest of the
serve layer (the old blanket carve-out was retired in PR 7); the
token bucket takes its clock readings as *arguments* from the named
``WALL_CLOCK_ALLOWANCES`` call sites rather than reading wall clocks
itself.  Determinism lives behind the Engine boundary — degraded
answers are themselves deterministic (seeded tiny calibration runs +
a fitted proxy design), only *which* requests get degraded depends on
load, which is why the sanitizer's double-run diff excuses degraded
rows.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..errors import ServeError
from ..obs.metrics import get_registry

GENERATIONS = ("power9", "power10")

# Workloads characterized to fit each generation's proxy design; small
# fixed suite so the fit sees memory-, compute- and MMA-shaped rates.
# POWER9 has no MMA resource, so its suite drops the MMA kernel.
CALIBRATION_WORKLOADS = ("daxpy", "dgemm-vsu", "dgemm-mma",
                         "stream-triad", "pointer-chase", "stressmark")


def _calibration_suite(generation: str) -> Tuple[str, ...]:
    if generation == "power9":
        return tuple(w for w in CALIBRATION_WORKLOADS
                     if w != "dgemm-mma")
    return CALIBRATION_WORKLOADS


class TokenBucket:
    """Classic token bucket; ``clock`` is injectable for tests."""

    def __init__(self, rate_per_s: float, burst: int, *,
                 clock: Callable[[], float] = time.monotonic):
        if rate_per_s <= 0:
            raise ServeError(f"rate must be positive, got {rate_per_s}")
        if burst < 1:
            raise ServeError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = int(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(float(self.burst),
                           self._tokens
                           + (now - self._last) * self.rate_per_s)
        self._last = now

    def try_take(self) -> bool:
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after_s(self) -> float:
        """Seconds until one token is available."""
        self._refill()
        if self._tokens >= 1.0:
            return 0.0
        return (1.0 - self._tokens) / self.rate_per_s


class CircuitBreaker:
    """Per-route closed/open/half-open breaker; ``clock`` injectable.

    Trips after ``failure_threshold`` *consecutive* execution failures
    and stays open for ``reset_s``, during which the server routes
    degradable requests straight to the proxy fast path (and rejects
    the rest with Retry-After) instead of feeding a sick engine.  After
    ``reset_s`` one probe request is let through (half-open): success
    closes the breaker, failure reopens it for another ``reset_s``.

    The paper's §IV-B fail-safe ladder applied to the serving plane:
    when full-fidelity execution is compromised, fall back to the
    always-available approximation rather than queue behind failures.

    Like :class:`AdmissionController`, all methods are called from the
    server's event loop only, so plain attributes suffice (no locks).
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, route: str = "", *, failure_threshold: int = 5,
                 reset_s: float = 10.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ServeError(
                f"failure_threshold must be >= 1, got "
                f"{failure_threshold}")
        if reset_s <= 0:
            raise ServeError(f"reset_s must be positive, got {reset_s}")
        self.route = route
        self.failure_threshold = int(failure_threshold)
        self.reset_s = float(reset_s)
        self._clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probing = False

    @property
    def state(self) -> str:
        return self._state

    def _transition(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        registry = get_registry()
        registry.counter(
            "repro_serve_breaker_transitions_total",
            "circuit-breaker state transitions").inc(
                route=self.route, to=state)
        registry.gauge(
            "repro_serve_breaker_state",
            "breaker state (0 closed, 1 half-open, 2 open)").set(
                {self.CLOSED: 0.0, self.HALF_OPEN: 1.0,
                 self.OPEN: 2.0}[state], route=self.route)

    def allow(self) -> bool:
        """May a request proceed to full-fidelity execution?"""
        if self._state == self.CLOSED:
            return True
        if self._state == self.OPEN:
            if self._clock() - self._opened_at < self.reset_s:
                return False
            self._transition(self.HALF_OPEN)
            self._probing = True
            return True
        # half-open: exactly one probe at a time
        if self._probing:
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        self._failures = 0
        self._probing = False
        self._transition(self.CLOSED)

    def record_failure(self) -> None:
        self._failures += 1
        failed_probe = self._state == self.HALF_OPEN
        self._probing = False
        if failed_probe or self._failures >= self.failure_threshold:
            self._opened_at = self._clock()
            self._transition(self.OPEN)
            self._failures = 0

    def retry_after_s(self) -> float:
        """Seconds until the next probe is allowed (0 unless open)."""
        if self._state != self.OPEN:
            return 0.0
        return max(0.0,
                   self.reset_s - (self._clock() - self._opened_at))


@dataclass(frozen=True)
class Decision:
    """Outcome of admission: run, degrade to proxy, or reject."""

    action: str                  # "admit" | "degrade" | "reject"
    reason: str = ""
    retry_after_s: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.action == "admit"


class AdmissionController:
    """Bounded in-flight requests plus an optional token bucket.

    ``decide``/``release`` are only called from the server's event
    loop, so plain counters suffice (no locking).
    """

    def __init__(self, *, max_inflight: int = 32,
                 bucket: Optional[TokenBucket] = None):
        if max_inflight < 1:
            raise ServeError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.max_inflight = max_inflight
        self.bucket = bucket
        self._inflight = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    def decide(self, *, degradable: bool) -> Decision:
        registry = get_registry()
        reason = ""
        if self.bucket is not None and not self.bucket.try_take():
            reason = "rate"
        elif self._inflight >= self.max_inflight:
            reason = "queue"
        if not reason:
            self._inflight += 1
            registry.gauge(
                "repro_serve_inflight",
                "admitted requests currently in flight").set(
                    float(self._inflight))
            return Decision("admit")
        action = "degrade" if degradable else "reject"
        registry.counter(
            "repro_serve_shed_total",
            "requests shed by admission control").inc(
                action=action, reason=reason)
        retry = 1.0
        if reason == "rate" and self.bucket is not None:
            retry = max(retry, self.bucket.retry_after_s())
        return Decision(action, reason, retry_after_s=retry)

    def release(self) -> None:
        if self._inflight <= 0:
            raise ServeError("release() without a matching admit")
        self._inflight -= 1
        get_registry().gauge(
            "repro_serve_inflight",
            "admitted requests currently in flight").set(
                float(self._inflight))


class ProxyFastPath:
    """Degraded answers from the §IV-C power-proxy coefficients.

    One tiny calibration run per ``(generation, workload)`` measures
    steady-state counter rates and IPC; a per-generation
    :class:`~repro.power.proxy.ProxyDesign` fitted over the calibration
    suite turns rates into watts.  After first touch an estimate is a
    dict lookup plus a dot product, so the fast path stays cheap under
    exactly the overload that triggers it: :meth:`built_estimate`
    gives it without a build, and only a build needs a thread.
    Everything is seeded and pure in its inputs: the same request
    always gets the same degraded answer.
    """

    def __init__(self, *, calibration_instructions: int = 384,
                 num_counters: int = 4):
        if calibration_instructions < 64:
            raise ServeError("calibration_instructions must be >= 64")
        if num_counters < 1:
            raise ServeError("num_counters must be >= 1")
        self.calibration_instructions = calibration_instructions
        self.num_counters = num_counters
        self._lock = threading.Lock()
        self._configs: Dict[str, object] = {}
        self._designs: Dict[str, object] = {}
        # (generation, workload) -> (rates row, ipc, flops_per_cycle)
        self._calib: Dict[Tuple[str, str], Tuple[Dict[str, float],
                                                 float, float]] = {}

    def _config(self, generation: str):
        from ..core import power9_config, power10_config
        config = self._configs.get(generation)
        if config is None:
            if generation not in GENERATIONS:
                raise ServeError(
                    f"unknown generation {generation!r}")
            config = (power9_config() if generation == "power9"
                      else power10_config())
            self._configs[generation] = config
        return config

    def _design(self, generation: str):
        design = self._designs.get(generation)
        if design is not None:
            return design
        with self._lock:
            design = self._designs.get(generation)
            if design is not None:
                return design
            from ..core.pipeline import simulate
            from ..power.proxy import PowerProxyDesigner
            from ..workloads.resolve import resolve_workload
            config = self._config(generation)
            designer = PowerProxyDesigner(config)
            # in process and off the engine, like the calibration runs:
            # the fast path answers exactly when the engine is overloaded
            features, active_w, total_w = designer.characterize_runs([
                simulate(config,
                         resolve_workload(w, self.calibration_instructions),
                         warmup_fraction=0.3)
                for w in _calibration_suite(generation)])
            design = designer.select(
                features, active_w, total_w,
                num_counters=self.num_counters, nonnegative=True)
            self._designs[generation] = design
            return design

    def _calibration(self, generation: str, workload: str):
        key = (generation, workload)
        entry = self._calib.get(key)
        if entry is not None:
            return entry
        with self._lock:
            entry = self._calib.get(key)
            if entry is not None:
                return entry
            from ..core.pipeline import simulate
            from ..workloads.resolve import resolve_workload
            trace = resolve_workload(workload,
                                     self.calibration_instructions)
            result = simulate(self._config(generation), trace,
                              warmup_fraction=0.3)
            entry = (dict(result.activity.rates()), result.ipc,
                     result.flops_per_cycle)
            self._calib[key] = entry
            return entry

    def warm(self, generations=GENERATIONS,
             workloads=("daxpy",)) -> None:
        """Pre-build designs and calibrations before taking traffic."""
        for generation in generations:
            self._design(generation)
            for workload in workloads:
                self._calibration(generation, workload)

    def built_estimate(self, generation: str, workload: str,
                       instructions: int) -> Optional[Dict[str, object]]:
        """:meth:`estimate` when the generation's design and the
        workload's calibration are both built, else None: it never
        builds, so an event loop may call it."""
        if generation not in self._designs \
                or (generation, workload) not in self._calib:
            return None
        return self.estimate(generation, workload, instructions)

    def estimate(self, generation: str, workload: str,
                 instructions: int) -> Dict[str, object]:
        """A cheap (proxy-coefficient) answer shaped like /v1/simulate."""
        from ..power.proxy import _feature_matrix
        design = self._design(generation)
        rates, ipc, flops_per_cycle = self._calibration(generation,
                                                        workload)
        power_w = float(design.predict_total_w(
            _feature_matrix([rates]))[0])
        cycles = max(1, int(round(instructions / max(ipc, 1e-9))))
        get_registry().counter(
            "repro_serve_proxy_estimates_total",
            "fast-path answers served from proxy coefficients").inc(
                generation=generation)
        return {"config": generation,
                "workload": workload,
                "instructions": instructions,
                "cycles": cycles,
                "ipc": ipc,
                "power_w": power_w,
                "flops_per_cycle": flops_per_cycle,
                "proxy_counters": list(design.counters)}
