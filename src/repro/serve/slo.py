"""Rolling-window SLO tracking for the simulation service.

The tracker watches the last ``window_s`` seconds of v1-route requests
and answers two questions continuously: *is the p99 under target?* and
*how much error budget is left?* — the serving-layer analog of the
OCC's always-on telemetry loop (the paper's power-management story is
exactly this shape: observe a rolling window, compare against a bound,
react).  ``/healthz`` embeds the snapshot, so one scrape tells both
liveness and health-against-objective.

The clock is injectable for tests; production uses ``time.monotonic``.
"""

from __future__ import annotations

import bisect
import math
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ServeError
from ..obs.metrics import get_registry


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of pre-sorted values; the
    SLO window and the load generator's reports both use it."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


class SloTracker:
    """Rolling-window latency / error-budget accounting."""

    def __init__(self, *, window_s: float = 60.0,
                 target_p99_s: float = 2.0,
                 target_error_rate: float = 0.05,
                 clock: Optional[Callable[[], float]] = None):
        if window_s <= 0:
            raise ServeError(f"window_s must be positive, got {window_s}")
        if target_p99_s <= 0:
            raise ServeError(
                f"target_p99_s must be positive, got {target_p99_s}")
        if not 0.0 <= target_error_rate <= 1.0:
            raise ServeError(
                f"target_error_rate must be in [0, 1], got "
                f"{target_error_rate}")
        self.window_s = window_s
        self.target_p99_s = target_p99_s
        self.target_error_rate = target_error_rate
        self._clock = clock if clock is not None else time.monotonic
        # (observed_at, latency_s, error, degraded), append-ordered so
        # expiry is a single bisect + slice
        self._events: List[Tuple[float, float, bool, bool]] = []
        self._lock = threading.Lock()

    def _expire(self, now: float) -> None:
        cutoff = now - self.window_s
        idx = bisect.bisect_right(self._events,
                                  (cutoff, float("inf"), True, True))
        if idx:
            del self._events[:idx]

    def observe(self, latency_s: float, *, error: bool = False,
                degraded: bool = False) -> None:
        """Record one finished request."""
        now = self._clock()
        with self._lock:
            self._expire(now)
            self._events.append((now, latency_s, error, degraded))
        if error or latency_s > self.target_p99_s:
            get_registry().counter(
                "repro_serve_slo_breaches_total",
                "requests that individually violated an SLO bound "
                "(error, or latency above the p99 target)").inc(
                    reason="error" if error else "latency")

    def snapshot(self) -> Dict[str, object]:
        """Window state: percentiles, rates, budget, overall verdict.

        ``error_budget_remaining`` is the fraction of the window's
        allowed errors not yet spent (1.0 = untouched, 0.0 = exhausted,
        negative = blown).
        """
        now = self._clock()
        with self._lock:
            self._expire(now)
            events = list(self._events)
        n = len(events)
        latencies = sorted(e[1] for e in events)
        n_errors = sum(1 for e in events if e[2])
        n_degraded = sum(1 for e in events if e[3])
        p50 = percentile(latencies, 0.50)
        p95 = percentile(latencies, 0.95)
        p99 = percentile(latencies, 0.99)
        error_rate = n_errors / n if n else 0.0
        allowed = self.target_error_rate * n
        budget = 1.0 - (n_errors / allowed) if allowed > 0 else 1.0
        p99_ok = p99 <= self.target_p99_s
        error_ok = error_rate <= self.target_error_rate
        return {
            "window_s": self.window_s,
            "requests": n,
            "latency_s": {"p50": p50, "p95": p95, "p99": p99},
            "error_rate": error_rate,
            "degraded_rate": (n_degraded / n) if n else 0.0,
            "target_p99_s": self.target_p99_s,
            "target_error_rate": self.target_error_rate,
            "p99_ok": p99_ok,
            "error_budget_remaining": budget,
            "healthy": p99_ok and error_ok,
        }
