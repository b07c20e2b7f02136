"""End-to-end benchmark of the POWER10 reproduction: one workload, one run.

Run from the root of a checkout::

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--out DIR]

Workloads (see README.md for why each exists):

* ``figures`` — closed loop, one caller: every registered figure
  scenario at its golden scale on ``Engine(workers=1)``, no cache,
  each checked against ``tests/goldens``.  Its inputs are the paper's,
  so it ignores the seed; its length is set by the work, not by
  ``--seconds``.
* ``serve-cold`` / ``serve-hot`` — open loop against one ``repro
  serve`` (one engine worker, a fresh on-disk cache); hot keys are
  filled before timing.
* ``cluster-mixed`` — open loop against ``Cluster(shards=2,
  worker_mode="process")``: half hot keys, half distinct cold requests
  each re-sent within 20 ms.

Every program process is a fresh child.  The run prints each
end-to-end metric as ``name value unit`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``; with ``--trace 1``
the metrics are the per-layer ledger instead.  Exit status: 0 when
every output checked out, 1 when one did not (or the run broke), 2
when the checkout holds no program to run.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ledger  # noqa: E402
import loadgen  # noqa: E402
import procs  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("figures", "serve-cold", "serve-hot", "cluster-mixed")
#: end-to-end metrics, in report order
E2E = (("setup_s", "s"), ("run_s", "s"), ("service_p50_ms", "ms"),
       ("peak_rss_mb", "MB"))
HOST = "127.0.0.1"
SETUPS = 3
COLD_SAMPLE = 24
START_TIMEOUT_S = 60.0
WATCHDOG_S = 170


class BenchError(Exception):
    """The run could not be carried out (not an output mismatch)."""


@dataclass
class Run:
    root: Path
    workload: str
    seed: int
    seconds: float
    traced: bool
    run_dir: Path
    children: List[procs.Child] = field(default_factory=list)
    failures: Dict[str, str] = field(default_factory=dict)

    @property
    def trace_dir(self) -> Optional[Path]:
        return self.run_dir / "spans" if self.traced else None

    @property
    def env(self) -> Dict[str, str]:
        return procs.child_env(self.root, self.run_dir, self.trace_dir)

    def spawn(self, args: List[str], label: str,
              pipes: bool = False) -> procs.Child:
        child = procs.Child([sys.executable] + args, self.env,
                            self.run_dir / f"{label}.log", self.root,
                            pipes=pipes)
        self.children.append(child)
        return child

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, reason)


@dataclass
class Outcome:
    attempted: int
    latencies_ms: List[float]     # due to answer
    service_ms: List[float]       # sent to answer
    setups_s: List[float]
    run_s: float
    cpu_s: float
    peak_rss_mb: float
    degraded: int = 0
    info: Dict[str, object] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    ledger: Optional[dict] = None


# ---- figures ---------------------------------------------------------------

def run_figures(run: Run) -> Outcome:
    goldens = checks.load_goldens(run.root)
    setups, child, ready = [], None, {}
    for i in range(SETUPS):
        child = run.spawn([str(HERE / "figures_child.py")], f"figures-{i}",
                          pipes=True)
        line = child.proc.stdout.readline()
        if not line:
            raise BenchError(f"figures child died:\n{child.tail()}")
        ready = json.loads(line)
        setups.append(time.perf_counter() - child.started)
        if i < SETUPS - 1:
            _send(child, {"exit": True})
            child.stop(grace_s=10.0)
    names = ready["scenarios"]
    for name in names:
        if name not in goldens:
            run.fail(name, "no golden recorded for this scenario")
    job = [[name, goldens[name]["scale"]] for name in names
           if name in goldens]
    cpu0 = child.cpu_s()
    _send(child, {"run": job})
    rows = []
    while True:
        line = child.proc.stdout.readline()
        if not line:
            raise BenchError(f"figures child died:\n{child.tail()}")
        doc = json.loads(line)
        if doc.get("done"):
            break
        rows.append(doc)
    cpu_s = child.cpu_s() - cpu0
    rss = child.peak_rss_mb()
    _send(child, {})
    child.stop(grace_s=30.0)
    for row in rows:
        name = row["name"]
        if "error" in row:
            run.fail(name, row["error"])
            continue
        golden = goldens[name]
        problems = checks.golden_mismatches(row["scalars"],
                                            golden["scalars"],
                                            golden["rtol"])
        if problems:
            run.fail(name, "; ".join(problems[:3]))
    window = (min(r["start_ns"] for r in rows),
              max(r["end_ns"] for r in rows))
    # one caller: each scenario is sent when it is due
    scenario_ms = [(r["end_ns"] - r["start_ns"]) / 1e6 for r in rows]
    out = Outcome(attempted=len(names), latencies_ms=scenario_ms,
                  service_ms=scenario_ms, setups_s=setups,
                  run_s=(window[1] - window[0]) / 1e9,
                  cpu_s=cpu_s, peak_rss_mb=rss)
    out.info["scenario_ms"] = {r["name"]: (r["end_ns"] - r["start_ns"]) / 1e6
                               for r in rows}
    if run.traced:
        ops = [ledger.Operation(None, (r["end_ns"] - r["start_ns"]) / 1e9,
                                0.0) for r in rows]
        out.ledger = ledger.build(ledger.load_spans(run.trace_dir), window,
                                  ops)
    return out


def _send(child: procs.Child, doc: dict) -> None:
    child.proc.stdin.write(json.dumps(doc) + "\n")
    child.proc.stdin.flush()


# ---- serving ---------------------------------------------------------------

def _wait_for_file(path: Path, child: procs.Child) -> str:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if not child.alive():
            raise BenchError(f"{child.argv[1:4]} exited before it "
                             f"listened:\n{child.tail()}")
        try:
            text = path.read_text().strip()
        except OSError:
            text = ""
        if text:
            return text
        time.sleep(0.01)
    raise BenchError(f"no {path.name} within {START_TIMEOUT_S:.0f}s")


def healthz(port: int) -> dict:
    res = loadgen.call(HOST, port, [("GET", "/healthz", b"", {})])[0]
    if not res.ok:
        raise BenchError(f"/healthz failed: {res.error or res.status}")
    return json.loads(res.body)


def _wait_healthy(port: int, child: procs.Child,
                  ready: Callable[[dict], bool]) -> None:
    deadline = time.monotonic() + START_TIMEOUT_S
    while time.monotonic() < deadline:
        if not child.alive():
            raise BenchError(f"program exited:\n{child.tail()}")
        res = loadgen.call(HOST, port, [("GET", "/healthz", b"", {})])[0]
        if res.ok and ready(json.loads(res.body)):
            return
        time.sleep(0.01)
    raise BenchError("program never reported healthy")


def _warm_up(port: int, shards: int) -> None:
    """One request per route (per estimate generation) on every shard:
    covers lazy imports, the code salt and the proxy calibration."""
    for route, generation in workloads.WARMUP_GROUPS:
        seen = set()
        for body in workloads.warmup_bodies(route, generation):
            res = loadgen.call(HOST, port, [("POST", route, body, {})])[0]
            problem = checks.body_problem(res.body, None) if res.ok \
                else (res.error or f"status {res.status}")
            if problem:
                raise BenchError(f"warm-up {route} failed: {problem}")
            seen.add(res.headers.get("x-shard", "0"))
            if len(seen) >= shards:
                break
        else:
            raise BenchError(f"warm-up {route} reached only shards "
                             f"{sorted(seen)}")


def start_server(run: Run, index: int) -> Tuple[procs.Child, int]:
    port_file = run.run_dir / f"port-{index}"
    args = ["-m", "repro", "serve", "--host", HOST, "--port", "0",
            "--port-file", str(port_file), "--workers", "1",
            "--cache-dir", str(run.run_dir / f"cache-{index}")]
    if run.traced:
        args += ["--access-log", str(run.run_dir / f"access-{index}.jsonl")]
    child = run.spawn(args, f"serve-{index}")
    port = int(_wait_for_file(port_file, child))
    _wait_healthy(port, child, lambda doc: doc.get("status") == "ok")
    _warm_up(port, shards=1)
    return child, port


def start_cluster(run: Run, index: int) -> Tuple[procs.Child, int]:
    url_file = run.run_dir / f"url-{index}"
    child = run.spawn([str(HERE / "cluster_host.py"), str(url_file),
                       str(run.run_dir / f"cache-{index}")],
                      f"cluster-{index}")
    port = int(_wait_for_file(url_file, child).rsplit(":", 1)[1])
    _wait_healthy(port, child, lambda doc: doc.get("status") == "ok"
                  and doc.get("healthy_shards") == 2)
    _warm_up(port, shards=2)
    return child, port


def _fill(port: int, requests: List[Tuple[str, bytes]],
          out: Dict[str, loadgen.Result]) -> None:
    calls = [("POST", route, body, {"X-Request-Id": f"e2e-fill-{i}"})
             for i, (route, body) in enumerate(requests)]
    results = loadgen.call(HOST, port, calls)
    out.update({workloads.request_key(route, body): res
                for (route, body), res in zip(requests, results)})


def run_serving(run: Run) -> Outcome:
    cluster = run.workload == "cluster-mixed"
    start = start_cluster if cluster else start_server
    schedule = workloads.build_schedule(run.workload, run.seed, run.seconds)
    setups, child, port = [], None, 0
    marks = [time.perf_counter()]
    for i in range(SETUPS):
        child, port = start(run, i)
        setups.append(time.perf_counter() - child.started)
        if i < SETUPS - 1:
            child.kill()
    marks.append(time.perf_counter())
    # the answers checked against the model itself: every hot key, and a
    # seeded sample of the cold ones
    hot = workloads.hot_set() if any(req.kind == "hot" for req in schedule) \
        else []
    checked = {workloads.request_key(route, body): (route, json.loads(body))
               for route, body in hot}
    cold = sorted({req.key: req for req in schedule
                   if req.kind == "cold"}.items())
    for key, req in random.Random(f"check/{run.seed}").sample(
            cold, min(COLD_SAMPLE, len(cold))):
        checked[key] = (req.route, req.doc)
    # fill the hot set while the references compute on the other core;
    # neither is timed
    filled: Dict[str, loadgen.Result] = {}
    filler = threading.Thread(target=_fill, args=(port, hot, filled))
    filler.start()
    refs = checks.References(run.root)
    expected = {key: refs.expected(route, doc)
                for key, (route, doc) in checked.items()}
    del refs
    filler.join()
    baseline: Dict[str, bytes] = {}
    if hot:
        for key, res in filled.items():
            problem = checks.body_problem(res.body, expected[key]) \
                if res.ok else (res.error or f"status {res.status}")
            if problem:
                raise BenchError(f"hot fill {key}: {problem}")
            baseline[key] = res.body
    before = healthz(port) if run.traced else {}
    marks.append(time.perf_counter())
    # one connection per engine worker (the cluster has two shards of one
    # worker each), never more than the cores: with more, requests would
    # queue inside the program, mixing that wait into the service time
    connections = min(2 if cluster else 1, os.cpu_count() or 1)
    cpu0 = child.cpu_s()
    report = loadgen.run_schedule(HOST, port, schedule, connections)
    cpu_s = child.cpu_s() - cpu0
    marks.append(time.perf_counter())
    if run.traced and cluster:
        time.sleep(0.6)          # let the router's health probes catch up
    after = healthz(port) if run.traced else {}
    rss = child.peak_rss_mb()
    child.stop()
    marks.append(time.perf_counter())

    degraded = 0
    shards: Dict[str, int] = {}
    for req, res in zip(schedule, report.results):
        if not res.ok:
            run.fail(req.rid, res.error or f"status {res.status}")
            continue
        problem = checks.body_problem(res.body, None)
        if problem:
            run.fail(req.rid, problem)
            continue
        degraded += bool(json.loads(res.body).get("degraded"))
        shard = res.headers.get("x-shard")
        if shard is not None:
            shards[shard] = shards.get(shard, 0) + 1
        if res.body != baseline.setdefault(req.key, res.body):
            run.fail(req.rid, "body differs from an identical request's")
            continue
        if req.key in expected:
            problem = checks.body_problem(res.body, expected[req.key])
            if problem:
                run.fail(req.rid, problem)

    out = Outcome(attempted=len(schedule),
                  latencies_ms=[lat * 1e3 for lat in
                                loadgen.latencies(report.results)],
                  service_ms=[svc * 1e3 for svc in
                              loadgen.service_times(report.results)],
                  setups_s=setups,
                  run_s=(report.end_ns - report.start_ns) / 1e9,
                  cpu_s=cpu_s, peak_rss_mb=rss, degraded=degraded)
    out.info.update({
        "lateness_p95_ms": report.lateness_p95_ms,
        "backlog_max": max(report.backlog),
        "backlog_grew": report.backlog_grew,
        "generator_valid": report.valid,
        "connections": connections,
        "checked_keys": len(expected),
        "phase_s": dict(zip(("setup", "prepare", "timed", "stop"),
                            (b - a for a, b in zip(marks, marks[1:])))),
        "requests": [[req.rid, req.route, req.kind, round(req.due_s, 6),
                      round(res.wait_s * 1e3, 3),
                      round(res.latency_s * 1e3, 3), res.status]
                     for req, res in zip(schedule, report.results)],
    })
    if run.traced:
        ops = [ledger.Operation(req.rid, (res.done_ns - res.due_ns) / 1e9,
                                res.wait_s)
               for req, res in zip(schedule, report.results)]
        access = []
        if not cluster:
            log = run.run_dir / f"access-{SETUPS - 1}.jsonl"
            access = [json.loads(line) for line in
                      log.read_text().splitlines() if line.strip()]
        out.ledger = ledger.build(ledger.load_spans(run.trace_dir),
                                  (report.start_ns, report.end_ns), ops,
                                  access)
        hits = _delta(before, after, "cache", "hits")
        misses = _delta(before, after, "cache", "misses")
        out.per_layer.update({
            "exec.cache_hit_ratio": hits / (hits + misses)
            if hits + misses else 0.0,
            "cluster.shard_max_share": (max(shards.values())
                                        / sum(shards.values())
                                        if shards else 0.0),
            "cluster.singleflight_joins": _delta(before, after, "dedupe",
                                                 "joins"),
        })
    return out


def _delta(before: dict, after: dict, section: str, field_: str) -> int:
    def read(doc):
        value = (doc.get(section) or {}).get(field_, 0)
        return int(value or 0)
    return read(after) - read(before)


# ---- reporting -------------------------------------------------------------

def _percentile_ms(values_ms: List[float], pct: int) -> float:
    """A percentile (p100 = the slowest); a miss reads as the request
    timeout."""
    return min(loadgen.percentile(values_ms, pct),
               loadgen.REQUEST_TIMEOUT_S * 1e3)


def e2e_metrics(out: Outcome) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(out.setups_s),
        "run_s": out.run_s,
        # the mean of the middle two of an even count: on the 14 figure
        # scenarios it averages two of them rather than timing one, so a
        # burst of machine noise during one scenario moves it less
        "service_p50_ms": min(statistics.median(out.service_ms),
                              loadgen.REQUEST_TIMEOUT_S * 1e3),
        "peak_rss_mb": out.peak_rss_mb,
    }


def per_layer_metrics(out: Outcome, e2e: Dict[str, float]) -> Dict[str, float]:
    metrics = dict.fromkeys((name for name, _unit in ledger.PER_LAYER), 0.0)
    metrics.update(out.ledger["metrics"])
    metrics.update(out.per_layer)
    metrics["degraded_frac"] = out.degraded / out.attempted
    metrics["bench.service_p50_ms"] = e2e["service_p50_ms"]
    return metrics


def report(run: Run, out: Outcome, out_dir: Optional[Path]) -> int:
    failed = len(run.failures)
    e2e = e2e_metrics(out)
    # printed, not gated: their spread from seed to seed is wider than
    # any bound BENCHMARK.json may set (README.md, "Choices and limits")
    tail_pct = loadgen.tail_percentile(len(out.latencies_ms)) or 100
    ungated = (("cpu_s", out.cpu_s, "s"),
               ("latency_p50_ms", _percentile_ms(out.latencies_ms, 50), "ms"),
               ("latency_tail_ms", _percentile_ms(out.latencies_ms, tail_pct),
                "ms"),
               ("fail_frac", failed / out.attempted, "ratio"),
               ("degraded_frac", out.degraded / out.attempted, "ratio"))
    if run.traced:
        metrics, units = per_layer_metrics(out, e2e), dict(ledger.PER_LAYER)
    else:
        metrics, units = e2e, dict(E2E)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, value, unit in ungated:
        if name not in metrics:
            print(f"{name} {value!r} {unit}")
    print(f"# workload={run.workload} seed={run.seed} "
          f"operations={out.attempted} tail=p{tail_pct} "
          + " ".join(f"{k}={v}" for k, v in out.info.items()
                     if not isinstance(v, (dict, list))))
    if out.ledger is not None:
        print(f"# ledger total_s={out.ledger['total_s']!r} "
              f"sum_s={out.ledger['sum_s']!r} "
              f"unattributed_s={out.ledger['unattributed_s']!r}")
    for key, reason in list(run.failures.items())[:10]:
        print(f"# FAILED {key}: {reason}")
    if out.info.get("generator_valid") is False:
        print("# INVALID: the generator ran late or its backlog grew; "
              "this run measured the generator", file=sys.stderr)
    result = {"correct": failed == 0, "attempted": out.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "-trace" if run.traced else ""
        detail = dict(result, workload=run.workload, seed=run.seed,
                      seconds=run.seconds, e2e=e2e,
                      ungated={name: value for name, value, _ in ungated},
                      tail_percentile=tail_pct,
                      setups_s=out.setups_s, info=out.info,
                      failures=dict(list(run.failures.items())[:50]),
                      ledger=out.ledger)
        (out_dir / f"{run.workload}-s{run.seed}{suffix}.json").write_text(
            json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


# ---- entry point -----------------------------------------------------------

def _interrupt(signum, _frame):
    # unwinds to main()'s finally, which stops every child
    raise BenchError(f"run exceeded {WATCHDOG_S}s"
                     if signum == signal.SIGALRM else "terminated")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase of the serving "
                             "workloads (default 10, as in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report the per-layer "
                             "ledger instead of the end-to-end metrics")
    parser.add_argument("--out", type=Path, default=None, metavar="DIR",
                        help="also write the run's full detail as JSON "
                             "into DIR")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {root / 'src' / 'repro'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    run_dir = root / ".e2e-runs" / (f"{args.workload}-s{args.seed}-"
                                    f"{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run = Run(root, args.workload, args.seed, args.seconds,
              bool(args.trace), run_dir)
    if run.traced:
        run.trace_dir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    signal.alarm(WATCHDOG_S)
    try:
        # byte-compile the program first, so set-up times imports from
        # bytecode on every run, the first one included
        subprocess.run([sys.executable, "-m", "compileall", "-q",
                        str(root / "src")], check=True,
                       stdout=subprocess.DEVNULL)
        measure = run_figures if args.workload == "figures" else run_serving
        out = measure(run)
        return report(run, out, args.out)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for child in run.children:
            if child.proc.returncode is None:
                child.stop()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
