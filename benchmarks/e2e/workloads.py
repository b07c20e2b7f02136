"""The benchmark's workloads: request schedules and their fixed rates.

Everything here is a pure function of ``(seed, seconds)`` and uses only
the standard library, so the inputs never depend on the program under
test.  Three rules keep runs comparable across seeds:

* the request count is ``rate * seconds``; arrival gaps are exponential
  draws from the seed, scaled so the last arrival lands at ``seconds``
  (a Poisson process conditioned on its count);
* the *multiset* of work is the same for every seed: which routes,
  workloads and generations appear, and how often, is fixed, and hot
  keys are hit exactly their Zipf(1.1) share;
* the seed draws the arrival order, the arrival times and, for cold
  requests, a jitter of a few instructions around the middle of each
  request's own stratum of the ``[500, 3000]`` range.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: every workload name ``repro serve`` accepts (the benchmark's own copy:
#: a workload added to the program later must not change these inputs)
REGISTERED_WORKLOADS = (
    "daxpy", "dgemm-vsu", "dgemm-mma", "stream-triad", "pointer-chase",
    "stressmark", "perlbench", "gcc", "mcf", "omnetpp", "xalancbmk",
    "x264", "deepsjeng", "leela", "exchange2", "xz")

#: POWER9 has no MMA unit: ``dgemm-mma`` only runs on power10
POWER10_ONLY = frozenset({"dgemm-mma"})

GENERATIONS = ("power9", "power10")

#: hot keys in Zipf rank order: small requests are the popular ones, and
#: the cheapest (the SPEC proxies) most of all.  Then the median request
#: lies well inside one cost class, a cached small SPEC proxy, instead
#: of on the edge between it and ``dgemm-vsu`` (twice the cost), where a
#: burst of machine noise over a third of the run moved it by 30%.
HOT_KEYS: Tuple[Tuple[str, int, str], ...] = tuple(
    (workload, instructions, generation)
    for instructions in (2000, 20000)
    for workload in ("xz", "mcf", "pointer-chase", "dgemm-vsu")
    for generation in ("power10", "power9"))

ZIPF_S = 1.1
HOT_ESTIMATE_SHARE = 0.30
COLD_COMPARE_SHARE = 0.15
#: cold instruction counts are multiples of 8 (the dgemm generators take
#: ``instructions // 8`` iterations, so this keeps every key distinct)
COLD_MIN, COLD_MAX, COLD_STEP = 504, 3000, 8
COLD_JITTER = 2                  # steps either side of a stratum's middle
#: a cluster-mixed cold request is re-sent this long after it was due
RESEND_MAX_S = 0.020

#: arrival rates (requests per second, re-sends not counted), calibrated
#: once and then frozen.  They keep the program about a quarter to 40%
#: busy: at half load the medians moved by 25-90% from seed to seed.
RATES = {
    "serve-cold": 2.5,
    "serve-hot": 15.0,
    "cluster-mixed": 4.0,
}


@dataclass(frozen=True)
class Request:
    """One scheduled request."""

    due_s: float                 # offset from the start of the timed phase
    route: str
    body: bytes                  # canonical JSON, byte-stable per key
    rid: str                     # X-Request-Id
    kind: str                    # "hot" | "cold"
    key: str                     # identical requests share a key

    @property
    def doc(self) -> Dict[str, object]:
        return json.loads(self.body)


def encode(doc: Dict[str, object]) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def request_count(workload: str, seconds: float) -> int:
    return max(1, round(RATES[workload] * seconds))


def arrival_times(rng: random.Random, count: int,
                  seconds: float) -> List[float]:
    """``count`` arrivals with exponential gaps, the last one at
    ``seconds``."""
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    scale = seconds / sum(gaps)
    out, t = [], 0.0
    for gap in gaps:
        t += gap * scale
        out.append(t)
    return out


def zipf_counts(count: int, keys: int, s: float = ZIPF_S) -> List[int]:
    """Exact Zipf(s) shares of ``count`` over ``keys`` ranks (largest
    remainder rounding)."""
    weights = [1.0 / (rank ** s) for rank in range(1, keys + 1)]
    total = sum(weights)
    raw = [count * w / total for w in weights]
    counts = [int(r) for r in raw]
    order = sorted(range(keys), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:count - sum(counts)]:
        counts[i] += 1
    return counts


def request_key(route: str, body: bytes) -> str:
    """Identical requests (same route, same body) share this key."""
    return f"{route} {body.decode()}"


def hot_body(key: Tuple[str, int, str]) -> bytes:
    workload, instructions, generation = key
    return encode({"config": generation, "workload": workload,
                   "instructions": instructions})


HOT_ROUTES = ("/v1/simulate", "/v1/estimate")


def hot_set() -> List[Tuple[str, bytes]]:
    """Every distinct hot request, ``(route, body)``."""
    return [(route, hot_body(key)) for route in HOT_ROUTES
            for key in HOT_KEYS]


def _hot_requests(count: int) -> List[Tuple[str, bytes, str]]:
    """``(route, body, key)`` for ``count`` hot requests, unordered."""
    estimates = round(count * HOT_ESTIMATE_SHARE)
    out = []
    for route, n in zip(HOT_ROUTES, (count - estimates, estimates)):
        for key, hits in zip(HOT_KEYS, zipf_counts(n, len(HOT_KEYS))):
            body = hot_body(key)
            out += [(route, body, request_key(route, body))] * hits
    return out


def _cold_slots(count: int) -> List[Tuple[str, str, Optional[str]]]:
    """``(route, workload, generation)`` for ``count`` cold requests:
    fixed for a given count, cycling through every registered workload
    and both generations."""
    compares = round(count * COLD_COMPARE_SHARE)
    slots: List[Tuple[str, str, Optional[str]]] = []
    compare_names = [w for w in REGISTERED_WORKLOADS
                     if w not in POWER10_ONLY]
    for i in range(compares):
        slots.append(("/v1/compare",
                      compare_names[i % len(compare_names)], None))
    for i in range(count - compares):
        workload = REGISTERED_WORKLOADS[i % len(REGISTERED_WORKLOADS)]
        generation = ("power10" if workload in POWER10_ONLY
                      else GENERATIONS[(i // len(REGISTERED_WORKLOADS)
                                        + i) % 2])
        slots.append(("/v1/simulate", workload, generation))
    return slots


def _cold_requests(rng: random.Random,
                   count: int) -> List[Tuple[str, bytes, str]]:
    slots = _cold_slots(count)
    by_workload: Dict[str, List[int]] = {}
    for i, (_route, workload, _gen) in enumerate(slots):
        by_workload.setdefault(workload, []).append(i)
    steps = (COLD_MAX - COLD_MIN) // COLD_STEP + 1
    instructions: Dict[int, int] = {}
    for workload in sorted(by_workload):
        members = by_workload[workload]
        if len(members) > steps // (2 * COLD_JITTER + 1):
            raise ValueError("more cold requests than distinct sizes")
        # slot j sits in the middle of stratum j, moved by a few steps
        # of seeded jitter: the inputs change with the seed while the
        # run's total work stays within a fraction of a percent
        for j, slot in enumerate(members):
            middle = int((j + 0.5) / len(members) * steps)
            instructions[slot] = COLD_MIN + COLD_STEP * (
                middle + rng.randint(-COLD_JITTER, COLD_JITTER))
    out = []
    for i, (route, workload, generation) in enumerate(slots):
        if route == "/v1/compare":
            doc = {"workloads": [workload],
                   "instructions": instructions[i]}
        else:
            doc = {"config": generation, "workload": workload,
                   "instructions": instructions[i]}
        body = encode(doc)
        out.append((route, body, request_key(route, body)))
    return out


def build_schedule(workload: str, seed: int,
                   seconds: float) -> List[Request]:
    """The timed requests of one serving workload, in due order."""
    rng = random.Random(f"{workload}/{seed}")
    count = request_count(workload, seconds)
    if workload == "serve-cold":
        items = [(r, b, k, "cold") for r, b, k in _cold_requests(rng, count)]
    elif workload == "serve-hot":
        items = [(r, b, k, "hot") for r, b, k in _hot_requests(count)]
    elif workload == "cluster-mixed":
        hot = count // 2
        items = ([(r, b, k, "hot") for r, b, k in _hot_requests(hot)]
                 + [(r, b, k, "cold")
                    for r, b, k in _cold_requests(rng, count - hot)])
    else:
        raise ValueError(f"{workload!r} has no request schedule")
    rng.shuffle(items)
    times = arrival_times(rng, len(items), seconds)
    schedule: List[Request] = []
    for i, ((route, body, key, kind), due) in enumerate(zip(items, times)):
        rid = f"e2e-s{seed}-{i:05d}"
        schedule.append(Request(due, route, body, rid, kind, key))
        if workload == "cluster-mixed" and kind == "cold":
            resend = due + rng.uniform(0.0, RESEND_MAX_S)
            schedule.append(Request(resend, route, body, rid + "r",
                                    kind, key))
    schedule.sort(key=lambda r: (r.due_s, r.rid))
    return schedule


#: set-up warms each of these groups once per server (per shard on a
#: cluster); the estimate route fits its proxy lazily per generation
WARMUP_GROUPS = (("/v1/simulate", None), ("/v1/compare", None),
                 ("/v1/estimate", "power10"), ("/v1/estimate", "power9"))


def warmup_bodies(route: str, generation: Optional[str]) -> List[bytes]:
    """Set-up request candidates for one warm-up group.  Their sizes lie
    below the cold range, so no timed request can hit what set-up
    cached; there are several, so a cluster can warm every shard."""
    out = []
    for i in range(24):
        instructions = 256 + COLD_STEP * i
        if route == "/v1/compare":
            doc = {"workloads": ["daxpy"], "instructions": instructions}
        else:
            doc = {"config": generation or "power10", "workload": "daxpy",
                   "instructions": instructions}
        out.append(encode(doc))
    return out
