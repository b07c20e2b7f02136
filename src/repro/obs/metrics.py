"""Labeled metrics: counters, gauges, and histograms.

The registry is the in-process analog of the paper's performance-counter
infrastructure: every subsystem that wants to expose "how often / how
long / how much" does it through a named metric instead of an ad-hoc
attribute.  A process-global default registry makes instrumentation
drop-in (``get_registry().counter("repro_runs_total").inc()``); the
telemetry session installs a fresh registry per run so exports are
scoped to one CLI invocation.

Metrics are labeled: one ``Counter`` holds a family of monotonically
increasing series keyed by label sets, Prometheus-style, so
``runs.inc(config="p10")`` and ``runs.inc(config="p9")`` stay separate.
All state is plain Python floats/dicts — snapshot via
:meth:`MetricsRegistry.collect`, which returns a JSON-serializable tree.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TelemetryError

_LabelKey = Tuple[Tuple[str, str], ...]

# The canonical metric-name table: every metric the library itself
# registers, with its kind.  ``repro lint`` rule R006 statically checks
# that each ``.counter()/.gauge()/.histogram()`` literal in src/ appears
# here with the matching kind — the compile-time mirror of the runtime
# "one name = one kind" registry semantics below.  Add new wiring names
# here first.
WELL_KNOWN_METRICS: Dict[str, str] = {
    "repro_runs_total": "counter",
    "repro_run_seconds": "histogram",
    "repro_simulations_total": "counter",
    "repro_simulated_instructions_total": "counter",
    "repro_power_eval_seconds": "histogram",
    "repro_occ_degraded_ticks_total": "counter",
    "repro_occ_failsafe_ticks_total": "counter",
    "repro_faults_injected_total": "counter",
    "repro_campaign_runs_total": "counter",
    "repro_exec_tasks_total": "counter",
    "repro_exec_cache_hits_total": "counter",
    "repro_exec_cache_misses_total": "counter",
    "repro_exec_batch_seconds": "histogram",
    "repro_serve_requests_total": "counter",
    "repro_serve_request_seconds": "histogram",
    "repro_serve_batches_total": "counter",
    "repro_serve_batch_size": "histogram",
    "repro_serve_singleflight_joins_total": "counter",
    "repro_serve_shed_total": "counter",
    "repro_serve_inflight": "gauge",
    "repro_serve_proxy_estimates_total": "counter",
    "repro_serve_request_stage_seconds": "histogram",
    "repro_serve_slo_breaches_total": "counter",
    "repro_exec_cache_corrupt_total": "counter",
    "repro_exec_pool_rebuilds_total": "counter",
    "repro_exec_task_retries_total": "counter",
    "repro_serve_breaker_transitions_total": "counter",
    "repro_serve_breaker_state": "gauge",
    "repro_chaos_faults_fired_total": "counter",
    "repro_cluster_requests_total": "counter",
    "repro_cluster_request_seconds": "histogram",
    "repro_cluster_failovers_total": "counter",
    "repro_cluster_worker_kills_total": "counter",
    "repro_cluster_worker_restarts_total": "counter",
}

# Quantiles reported in every histogram snapshot (and scraped by the
# SLO tooling).  Estimated from the bucket counts, so accuracy is
# bucket-resolution-bound — fine for dashboards, not for billing.
SNAPSHOT_QUANTILES = (0.5, 0.9, 0.99)


def _label_key(labels: Dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Metric:
    """Common naming/description plumbing for all metric kinds."""

    kind = "metric"

    def __init__(self, name: str, description: str = ""):
        if not name or any(c.isspace() for c in name):
            raise TelemetryError(f"invalid metric name: {name!r}")
        self.name = name
        self.description = description


class Counter(_Metric):
    """A monotonically increasing value (per label set)."""

    kind = "counter"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: Dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (amount={amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    @property
    def total(self) -> float:
        """Sum across every label set."""
        return sum(self._series.values())

    def collect(self) -> List[Dict[str, object]]:
        return [{"labels": dict(key), "value": val}
                for key, val in sorted(self._series.items())]


class Gauge(_Metric):
    """A point-in-time value that can go up or down (per label set)."""

    kind = "gauge"

    def __init__(self, name: str, description: str = ""):
        super().__init__(name, description)
        self._series: Dict[_LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def collect(self) -> List[Dict[str, object]]:
        return [{"labels": dict(key), "value": val}
                for key, val in sorted(self._series.items())]


# Default histogram buckets: wide log-spaced range that covers both
# sub-millisecond model evaluations and multi-second suite runs.
DEFAULT_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "sum", "min", "max")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * (n_buckets + 1)   # +1 = overflow
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")


class Histogram(_Metric):
    """A distribution with fixed upper-bound buckets (per label set)."""

    kind = "histogram"

    def __init__(self, name: str, description: str = "",
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(name, description)
        bounds = tuple(buckets if buckets is not None else DEFAULT_BUCKETS)
        if not bounds or list(bounds) != sorted(bounds):
            raise TelemetryError(
                f"histogram {name} buckets must be ascending and non-empty")
        self.buckets = bounds
        self._series: Dict[_LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        series.bucket_counts[idx] += 1
        series.count += 1
        series.sum += value
        series.min = min(series.min, value)
        series.max = max(series.max, value)

    def _quantile(self, series: "_HistogramSeries", q: float) -> float:
        """Bucket-interpolated quantile estimate, clamped to the
        observed [min, max] so tiny samples don't report a bucket
        bound nothing ever reached."""
        if not series.count:
            return 0.0
        rank = q * series.count
        seen = 0.0
        lower = 0.0
        for i, n in enumerate(series.bucket_counts):
            if n == 0:
                continue
            upper = self.buckets[i] if i < len(self.buckets) \
                else series.max
            if seen + n >= rank:
                frac = (rank - seen) / n
                est = lower + (upper - lower) * frac
                return min(max(est, series.min), series.max)
            seen += n
            lower = upper
        return series.max

    def quantile(self, q: float, **labels: object) -> float:
        """Estimated ``q``-quantile (0 < q < 1) for one label set."""
        if not 0.0 < q < 1.0:
            raise TelemetryError(f"quantile must be in (0, 1), got {q}")
        series = self._series.get(_label_key(labels))
        if series is None:
            return 0.0
        return self._quantile(series, q)

    def summary(self, **labels: object) -> Dict[str, float]:
        series = self._series.get(_label_key(labels))
        if series is None or not series.count:
            return {"count": 0, "sum": 0.0, "mean": 0.0,
                    "min": 0.0, "max": 0.0}
        return {"count": series.count, "sum": series.sum,
                "mean": series.sum / series.count,
                "min": series.min, "max": series.max}

    def collect(self) -> List[Dict[str, object]]:
        out = []
        for key, series in sorted(self._series.items()):
            out.append({
                "labels": dict(key),
                "count": series.count,
                "sum": series.sum,
                "min": series.min if series.count else 0.0,
                "max": series.max if series.count else 0.0,
                "buckets": [
                    {"le": bound, "count": n} for bound, n in
                    zip(list(self.buckets) + ["+Inf"],
                        series.bucket_counts)],
                "quantiles": {
                    f"p{int(q * 100)}": self._quantile(series, q)
                    for q in SNAPSHOT_QUANTILES},
            })
        return out


class MetricsRegistry:
    """A namespace of metrics.  Registration is idempotent per kind:
    asking twice for the same counter returns the same object; asking
    for an existing name as a different kind raises."""

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls, name: str, description: str, **kwargs):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}")
            return existing
        metric = cls(name, description, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name: str, description: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._get_or_create(Histogram, name, description,
                                   buckets=buckets)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> Dict[str, object]:
        """JSON-serializable snapshot of every metric."""
        out: Dict[str, object] = {}
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            out[name] = {"kind": metric.kind,
                         "description": metric.description,
                         "series": metric.collect()}
        return out


_default_registry = MetricsRegistry()
_current_registry = _default_registry


def get_registry() -> MetricsRegistry:
    """The process-current registry (global default unless a telemetry
    session has installed its own)."""
    return _current_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` as current (None restores the global
    default); returns the previously current registry."""
    global _current_registry
    previous = _current_registry
    _current_registry = registry if registry is not None \
        else _default_registry
    return previous
