"""The per-layer ledger of a traced run.

Inputs: the spans every program process recorded (see
``trace/sitecustomize.py``), the generator's per-request timings, and,
for a single server, its access log.  Output: per layer, the self
seconds and the call count, plus a few ratios, such that

    total = bench.client_wait + sum(span layers) + serve.batch
            + unattributed

exactly, where ``total`` is the sum of client-observed latencies over
the timed operations (request-seconds; for the figures workload, the
wall time of its serial pass).  Span layers are *busy* time: a span's
self time is its duration minus the part its child spans cover, clipped
to the timed window.  ``serve.batch`` is the only access-log segment in
the sum, because it is pure waiting (submit to batch start) that no
span covers; ``serve.queue``/``serve.exec``/``serve.finalize`` contain
span work and are reported beside the sum, as is ``cluster.router_hop``.
``unattributed`` is what remains: uninstrumented code and time requests
spent waiting on one another inside the program.

A router ``fetch`` has no child in its own process while the worker
computes, so its children are taken across processes: the worker's
top-level spans that carry the same request id and lie inside it.
"""

from __future__ import annotations

import importlib.util
import json
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent


def _targets():
    spec = importlib.util.spec_from_file_location(
        "e2e_span_recorder", HERE / "trace" / "sitecustomize.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


SPAN_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _mod, _attr in _targets()))
SEGMENTS = ("serve.queue", "serve.batch", "serve.exec", "serve.finalize")
#: layers reported beside the sum (they overlap span time)
CONTEXT_LAYERS = ("serve.queue", "serve.exec", "serve.finalize",
                  "cluster.router_hop")
LAYERS = SPAN_LAYERS + SEGMENTS + ("cluster.router_hop",
                                   "bench.client_wait")

#: every per-layer metric, in report order: (name, unit)
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    tuple(m for layer in LAYERS
          for m in ((f"{layer}_s", "s"), (f"{layer}_calls", "count")))
    + (("unattributed_s", "s"),
       ("total_s", "s"),
       ("core.ns_per_instr", "ns"),
       ("exec.cache_hit_ratio", "ratio"),
       ("exec.tasks_per_run", "count"),
       ("exec.executions_per_request", "ratio"),
       ("cluster.shard_max_share", "ratio"),
       ("cluster.singleflight_joins", "count"),
       ("degraded_frac", "ratio"),
       ("bench.service_p50_ms", "ms")))


@dataclass(frozen=True)
class Span:
    layer: str
    start: int
    end: int
    sid: int
    parent: Optional[int]
    rid: Optional[str]
    size: Optional[int]
    pid: int


@dataclass(frozen=True)
class Operation:
    """One timed operation as the client saw it."""

    rid: Optional[str]
    latency_s: float          # due (or start) to answer, failures included
    wait_s: float             # time queued inside the generator


def load_spans(trace_dir: Path) -> List[Span]:
    spans: List[Span] = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        doc = json.loads(path.read_text())
        pid = int(doc["pid"])
        spans += [Span(*row, pid=pid) for row in doc["spans"]]
    return spans


def union_ns(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping intervals."""
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span],
               window: Tuple[int, int]) -> Dict[Tuple[int, int], int]:
    """``(pid, sid) -> self ns`` for every span overlapping ``window``."""
    lo, hi = window
    clipped = {}
    for s in spans:
        start, end = max(s.start, lo), min(s.end, hi)
        if end > start:
            clipped[(s.pid, s.sid)] = (s, start, end)
    children: Dict[Tuple[int, int], List[Tuple[int, int]]] = defaultdict(list)
    top_by_rid: Dict[str, List[Tuple[int, int, int]]] = defaultdict(list)
    for (pid, _sid), (s, start, end) in clipped.items():
        if s.parent is not None:
            children[(pid, s.parent)].append((start, end))
        elif s.rid is not None:
            top_by_rid[s.rid].append((pid, start, end))
    out = {}
    for key, (s, start, end) in clipped.items():
        kids = [(max(a, start), min(b, end))
                for a, b in children.get(key, ())]
        if s.layer == "cluster.upstream" and s.rid is not None:
            kids += [(max(a, start), min(b, end))
                     for pid, a, b in top_by_rid.get(s.rid, ())
                     if pid != s.pid]
        out[key] = (end - start) - union_ns(
            (a, b) for a, b in kids if b > a)
    return out


def build(spans: Sequence[Span], window: Tuple[int, int],
          operations: Sequence[Operation],
          access_log: Sequence[Dict[str, object]] = ()) -> Dict[str, object]:
    """The ledger rows and the per-layer metrics of one traced run."""
    selfs = self_times(spans, window)
    seconds: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
    calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
    instr = sim_ns = 0
    engine_tasks = engine_runs = 0
    fetch_ns: Dict[str, int] = defaultdict(int)
    for s in spans:
        key = (s.pid, s.sid)
        if key not in selfs:
            continue
        seconds[s.layer] += selfs[key] / 1e9
        calls[s.layer] += 1
        if s.layer == "core.simulate" and s.size:
            instr += s.size
            sim_ns += selfs[key]
        if s.layer == "exec.engine" and s.size is not None:
            engine_tasks += s.size
            engine_runs += 1
        if s.layer == "cluster.upstream" and s.rid is not None:
            fetch_ns[s.rid] += s.end - s.start
    timed = {op.rid for op in operations if op.rid is not None}
    for record in access_log:
        if record.get("id") not in timed:
            continue
        for layer in SEGMENTS:
            field = layer.split(".", 1)[1] + "_ms"
            seconds[layer] += float(record.get(field, 0.0)) / 1e3
            calls[layer] += 1
    for op in operations:
        seconds["bench.client_wait"] += op.wait_s
        calls["bench.client_wait"] += 1
        if op.rid in fetch_ns:            # routed through a cluster
            seconds["cluster.router_hop"] += (
                op.latency_s - op.wait_s - fetch_ns[op.rid] / 1e9)
            calls["cluster.router_hop"] += 1
    total = sum(op.latency_s for op in operations)
    in_sum = [layer for layer in LAYERS if layer not in CONTEXT_LAYERS]
    unattributed = total - sum(seconds[layer] for layer in in_sum)
    rows = [{"layer": layer, "seconds": seconds[layer],
             "calls": calls[layer], "in_sum": layer in in_sum}
            for layer in LAYERS]
    rows.append({"layer": "unattributed", "seconds": unattributed,
                 "calls": 0, "in_sum": True})
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = seconds[layer]
        metrics[f"{layer}_calls"] = calls[layer]
    metrics["unattributed_s"] = unattributed
    metrics["total_s"] = total
    metrics["core.ns_per_instr"] = sim_ns / instr if instr else 0.0
    metrics["exec.tasks_per_run"] = (engine_tasks / engine_runs
                                     if engine_runs else 0.0)
    metrics["exec.executions_per_request"] = (
        calls["core.simulate"] / len(operations) if operations else 0.0)
    return {"rows": rows, "total_s": total, "unattributed_s": unattributed,
            "sum_s": sum(r["seconds"] for r in rows if r["in_sum"]),
            "metrics": metrics}
