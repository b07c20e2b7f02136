"""Deterministic open-loop load generator for ``repro serve``.

The *schedule* — request mix, parameters, and exponential interarrival
gaps — is a pure function of the seed (``numpy.random.default_rng``),
so two runs against equally-warm servers issue byte-identical request
streams.  Dispatch is open-loop: requests fire at their scheduled
offsets regardless of completions (that is what makes overload
observable — a closed loop would just slow down instead of shedding),
from a thread pool sized generously above the concurrency the schedule
can reach.

Every scheduled request carries a deterministic id
(``req-s<seed>-<index>``) sent as ``X-Request-Id``, so the loadgen's
per-request rows, the server's access log, and the Perfetto trace all
correlate on the same key.

The report (``BENCH_serve.json``, schema 2) carries:

* top level: throughput, latency percentiles (p50/p95/p99,
  nearest-rank), outcome counts (ok / degraded / error / malformed);
* ``endpoints``: the same breakdown per route, with a
  ``degraded_rate`` column;
* ``slo``: the run judged against a latency target (default p99 ≤
  ``slo_p99_ms``), plus the server's own rolling-window verdict
  scraped from ``/healthz`` when reachable;
* ``availability``: good/degraded/rejected/failed counts and the
  answered-usefully rate, so ``perfwatch`` can watch availability
  alongside p99 (rejected = structured 503/504 refusals; failed =
  everything else that was not a useful answer);
* ``per_request``: one row per scheduled request (id, route, offset,
  latency, outcome) for trace/access-log correlation;
* ``by_route``: legacy schema-1 request counts (kept for tooling
  compatibility).

``repro loadgen`` writes it next to the other ``BENCH_*.json``
artifacts so ``repro perfwatch`` can track service latency the way it
tracks model numbers.

Every caller drives load through :func:`run_phase`: start a target,
fire the schedule at it, stop it and report whether it drained clean.
``repro loadgen`` (one server), the sanitizer's double run, the chaos
campaign and the cluster benchmark are its callers.  Two runs of one
schedule are compared with :func:`diff_bodies`: rows pair on the
request id, and wherever both answered full-fidelity their
``body_sha`` digests must match.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ServeError
from .client import ServeClient, ServeResponse
from .slo import percentile

# (route, weight) — the mix leans on simulate (the expensive path) with
# enough estimate/compare traffic to exercise every handler.
_MIX: Tuple[Tuple[str, float], ...] = (
    ("/v1/simulate", 0.6),
    ("/v1/estimate", 0.3),
    ("/v1/compare", 0.1),
)

_WORKLOADS = ("daxpy", "dgemm-vsu", "stream-triad", "xz")
_INSTRUCTIONS = (500, 1000, 2000)


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run, fully determined by these fields."""

    seed: int = 0
    requests: int = 50
    rate_per_s: float = 25.0
    host: str = "127.0.0.1"
    port: int = 8419
    timeout_s: float = 60.0
    deadline_ms: Optional[int] = None
    slo_p99_ms: float = 2000.0

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ServeError(
                f"requests must be >= 1, got {self.requests}")
        if self.rate_per_s <= 0:
            raise ServeError(
                f"rate_per_s must be positive, got {self.rate_per_s}")


def build_schedule(config: LoadgenConfig,
                   ) -> List[Tuple[float, str, Dict[str, object], str]]:
    """``(start_offset_s, route, payload, request_id)`` tuples,
    seed-deterministic (ids included: ``req-s<seed>-<index>``)."""
    rng = np.random.default_rng(config.seed)
    routes = [r for r, _w in _MIX]
    weights = np.array([w for _r, w in _MIX])
    weights = weights / weights.sum()
    gaps = rng.exponential(1.0 / config.rate_per_s,
                           size=config.requests)
    offsets = np.cumsum(gaps)
    schedule: List[Tuple[float, str, Dict[str, object], str]] = []
    for i in range(config.requests):
        route = routes[int(rng.choice(len(routes), p=weights))]
        workload = _WORKLOADS[int(rng.integers(len(_WORKLOADS)))]
        instructions = _INSTRUCTIONS[int(
            rng.integers(len(_INSTRUCTIONS)))]
        payload: Dict[str, object] = {"instructions": instructions}
        if route == "/v1/compare":
            payload["workloads"] = [workload]
        else:
            payload["workload"] = workload
            payload["config"] = ("power10" if rng.random() < 0.7
                                 else "power9")
        if config.deadline_ms is not None \
                and route != "/v1/estimate":
            payload["deadline_ms"] = config.deadline_ms
        rid = f"req-s{config.seed}-{i:05d}"
        schedule.append((float(offsets[i]), route, payload, rid))
    return schedule


def _digest(value: object) -> str:
    """Canonical short digest of a JSON-serializable value."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str)
        .encode("utf-8")).hexdigest()[:16]


def latency_doc(values: List[float]) -> Dict[str, float]:
    """The latency summary every load-generator table carries."""
    values = sorted(values)
    return {
        "p50": percentile(values, 0.50),
        "p95": percentile(values, 0.95),
        "p99": percentile(values, 0.99),
        "max": values[-1] if values else 0.0,
        "mean": float(np.mean(values)) if values else 0.0,
    }


def run_loadgen(config: LoadgenConfig,
                ) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Fire the schedule at one server; returns the report dict and
    the target's ``/healthz`` document read after the burst (``{}``
    when unreachable)."""
    schedule = build_schedule(config)
    # retries=0: the generator must observe shedding, not paper over
    # it; the jitter seed keeps even the (unused) backoff RNG
    # deterministic end-to-end
    client = ServeClient(host=config.host, port=config.port,
                         timeout_s=config.timeout_s, retries=0,
                         jitter_seed=config.seed)

    def _fire(offset_s: float, route: str,
              payload: Dict[str, object], rid: str, start: float):
        delay = start + offset_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        try:
            return client.request(route, payload,
                                  request_id=rid), None
        except ServeError as exc:        # connection failure / bad body
            return None, str(exc)

    outcomes: List[Tuple[Optional[ServeResponse], Optional[str]]] = []
    started = time.monotonic()
    max_workers = min(64, config.requests)
    with concurrent.futures.ThreadPoolExecutor(
            max_workers=max_workers,
            thread_name_prefix="repro-loadgen") as pool:
        futures = [pool.submit(_fire, offset, route, payload, rid,
                               started)
                   for offset, route, payload, rid in schedule]
        for fut in futures:              # plan order, not completion
            outcomes.append(fut.result())
    elapsed_s = time.monotonic() - started

    latencies: List[float] = []
    ok = degraded = errors = malformed = rejected = 0
    per_route: Dict[str, Dict[str, object]] = {}
    per_request: List[Dict[str, object]] = []
    for (offset, route, _payload, rid), (resp, failure) in zip(
            schedule, outcomes):
        stats = per_route.setdefault(
            route, {"count": 0, "ok": 0, "degraded": 0, "errors": 0,
                    "malformed": 0, "latencies": []})
        stats["count"] += 1
        row: Dict[str, object] = {"id": rid, "route": route,
                                  "offset_s": round(offset, 6)}
        if resp is None:
            malformed += 1
            stats["malformed"] += 1
            row["outcome"] = "malformed"
            row["error"] = failure
            per_request.append(row)
            continue
        latencies.append(resp.latency_s)
        stats["latencies"].append(resp.latency_s)
        row["latency_s"] = round(resp.latency_s, 6)
        row["status"] = resp.status
        if resp.shard is not None:      # routed through a cluster
            row["shard"] = resp.shard
        # ordering-sensitive identity for diff_bodies: the same
        # request id must produce the same body bytes
        row["body_sha"] = _digest(resp.body)
        if isinstance(resp.body, dict) and "result" in resp.body:
            row["result_sha"] = _digest(resp.body["result"])
        if resp.ok:
            ok += 1
            stats["ok"] += 1
            if resp.degraded:
                degraded += 1
                stats["degraded"] += 1
                row["outcome"] = "degraded"
            else:
                row["outcome"] = "ok"
        else:
            errors += 1
            stats["errors"] += 1
            row["outcome"] = "error"
            if resp.status in (503, 504):
                # structured refusal (overload/draining/deadline) —
                # predictable degradation, not damage
                rejected += 1
        per_request.append(row)
    latencies.sort()
    endpoints = {}
    for route in sorted(per_route):
        stats = per_route[route]
        n = stats["count"]
        endpoints[route] = {
            "count": n,
            "ok": stats["ok"],
            "degraded": stats["degraded"],
            "errors": stats["errors"],
            "malformed": stats["malformed"],
            "degraded_rate": stats["degraded"] / n if n else 0.0,
            "latency_s": latency_doc(stats["latencies"]),
        }

    p99 = percentile(latencies, 0.99)
    answered = len(latencies)
    slo: Dict[str, object] = {
        "target_p99_ms": config.slo_p99_ms,
        "p99_ms": p99 * 1e3,
        "p99_ok": p99 * 1e3 <= config.slo_p99_ms,
        "error_rate": (errors / answered) if answered else 0.0,
        "degraded_rate": (degraded / answered) if answered else 0.0,
    }
    try:       # the server's own rolling-window verdict, best-effort
        healthz = client.healthz()
    except ServeError:
        healthz = {}
    slo["server"] = healthz.get("slo")

    report = {
        "schema": 2,
        "seed": config.seed,
        "requests": config.requests,
        "offered_rate_per_s": config.rate_per_s,
        "elapsed_s": elapsed_s,
        "throughput_per_s": (answered / elapsed_s
                             if elapsed_s > 0 else 0.0),
        "ok": ok,
        "degraded": degraded,
        "errors": errors,
        "malformed": malformed,
        "availability": {
            "good": ok - degraded,
            "degraded": degraded,
            "rejected": rejected,
            "failed": (errors - rejected) + malformed,
            # answered usefully (full-fidelity or degraded) over issued
            "rate": ok / config.requests,
        },
        "by_route": {r: per_route[r]["count"]
                     for r in sorted(per_route)},
        "endpoints": endpoints,
        "slo": slo,
        "latency_s": latency_doc(latencies),
        "per_request": per_request,
    }
    return report, healthz


@dataclass(frozen=True)
class LoadPhase:
    """What one :func:`run_phase` saw."""

    report: Dict[str, object]
    #: the target's ``/healthz`` right after the burst (``{}`` when
    #: unreachable)
    healthz: Dict[str, object]
    #: the target's ``stop()`` result; ``None`` when the phase fired
    #: at a target it did not start
    clean_drain: Optional[bool]


def run_phase(config: LoadgenConfig,
              start: Optional[Callable[[], object]] = None,
              ) -> LoadPhase:
    """Start a target, fire the seeded schedule at it, stop it.

    ``start()`` returns anything with ``.port`` and ``.stop() -> bool``
    (``start_in_thread``'s host, a started ``Cluster``); the schedule
    goes to ``127.0.0.1`` on that port.  Without ``start`` the schedule
    goes to ``config.host:config.port`` and nothing is stopped.
    """
    if start is None:
        return LoadPhase(*run_loadgen(config), clean_drain=None)
    target = start()
    try:
        report, healthz = run_loadgen(
            replace(config, host="127.0.0.1", port=target.port))
    finally:
        clean = bool(target.stop())
    return LoadPhase(report, healthz, clean)


def diff_bodies(first: Dict[str, object],
                second: Dict[str, object]) -> Dict[str, object]:
    """Diff two loadgen reports of one schedule on body identity.

    Rows pair on the deterministic request id.  Where both sides
    answered full-fidelity (``ok``), those bodies are pure functions of
    the payload, so their digests must match: a pair that differs is
    ``mismatched``.  Pairs where either side was shed, degraded or
    failed are ``excused`` (admission and deadline decisions depend on
    the wall clock by design); ids only one report carries are
    ``unpaired``.
    """
    rows_a = {str(row.get("id")): row
              for row in first.get("per_request", [])}
    rows_b = {str(row.get("id")): row
              for row in second.get("per_request", [])}
    mismatched: List[str] = []
    unpaired: List[str] = []
    compared = excused = 0
    for rid in sorted(set(rows_a) | set(rows_b)):
        row_a, row_b = rows_a.get(rid), rows_b.get(rid)
        if row_a is None or row_b is None:
            unpaired.append(rid)
        elif row_a.get("outcome") != "ok" \
                or row_b.get("outcome") != "ok":
            excused += 1
        else:
            compared += 1
            if row_a.get("body_sha") != row_b.get("body_sha"):
                mismatched.append(rid)
    return {"mismatched": mismatched, "unpaired": unpaired,
            "compared": compared, "excused": excused}


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
