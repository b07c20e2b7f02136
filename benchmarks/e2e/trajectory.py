"""Record a trajectory point: repeated runs of every workload.

    python3 benchmarks/e2e/trajectory.py [--traced] \\
        [--out benchmarks/e2e/results/<sha>.json]

Each of two sets runs every workload in ``BENCHMARK.json`` once per
seed (set A seeds 1-10, set B seeds 11-20, workloads interleaved so
machine noise spreads over all of them).  Per set and metric it reports
the median, quartiles and spread (interquartile distance over the
median); for set B, how far its medians moved from set A's, against the
bounds in ``BENCHMARK.json``.  ``--traced`` adds one traced run per
workload: its full per-layer ledger and the tracing overhead (traced
``service_p50_ms`` over set A's untraced median).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: two sets of ten seeds: the spread within a set, the drift between them
SETS, RUNS = 2, 10
UNGATED = ("cpu_s", "latency_p50_ms", "latency_tail_ms")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    root = Path.cwd()
    bench = stats.load_benchmark(root)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    sets = []
    for k in range(SETS):
        seeds = list(range(k * RUNS + 1, (k + 1) * RUNS + 1))
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                t0 = time.perf_counter()
                doc = stats.run_once(root, name, seed, seconds)
                doc["wall_s"] = time.perf_counter() - t0
                runs[name].append(doc)
                shown = " ".join(
                    f"{m['name']}={_value(doc, m['name']):.4g}"
                    for m in metrics)
                print(f"set {k} seed {seed} {name}: "
                      f"rc={doc['returncode']} wall={doc['wall_s']:.1f}s "
                      f"{shown}", flush=True)
        summary = {name: {m["name"]: stats.summarize(
            stats.values(runs[name], m["name"])) for m in metrics}
            for name in names}
        # the printed lines BENCHMARK.json does not gate, for comparison
        ungated = {name: {key: stats.summarize(
            [doc["printed"][key] for doc in runs[name]
             if key in doc["printed"]]) for key in UNGATED}
            for name in names}
        for name in names:
            runs[name] = [{"seed": seed, "returncode": doc["returncode"],
                           "failed": doc.get("failed"),
                           "attempted": doc.get("attempted"),
                           "wall_s": doc["wall_s"], "notes": doc["notes"],
                           "metrics": {k: v["value"] for k, v in
                                       doc["metrics"].items()},
                           "printed": doc["printed"]}
                          for seed, doc in zip(seeds, runs[name])]
        sets.append({"seeds": seeds, "runs": runs, "summary": summary,
                     "ungated_summary": ungated})
    report = {"program_commit": _head(root), "machine": _machine(),
              "run_seconds": seconds, "sets": sets}
    problems = []
    for k, one in enumerate(sets):
        for name in names:
            problems += [f"set {k} {name} seed {r['seed']}: exit "
                         f"{r['returncode']}" for r in one["runs"][name]
                         if r["returncode"] != 0]
            for m in metrics:
                spread = one["summary"][name][m["name"]]["spread"]
                if m["name"] != "setup_s" and spread > m["bound"]:
                    problems.append(f"set {k} {name} {m['name']}: spread "
                                    f"{spread:.3f} > bound {m['bound']}")
    first = sets[0]["summary"]
    for later in sets[1:]:
        later["drift"] = {name: {m["name"]: stats.worse_by(
            first[name][m["name"]]["median"],
            later["summary"][name][m["name"]]["median"], m["better"])
            for m in metrics} for name in names}
        problems += [f"{name} {m['name']}: median moved "
                     f"{later['drift'][name][m['name']]:+.3f} > bound "
                     f"{m['bound']}" for name in names for m in metrics
                     if later["drift"][name][m["name"]] > m["bound"]]
    if args.traced:
        report["ledger"] = _traced(root, names, seconds, sets[0])
    report["problems"] = problems
    for line in problems:
        print("PROBLEM", line)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n")
    return 1 if problems else 0


def _traced(root: Path, names, seconds: int, first_set: dict) -> dict:
    out = {}
    (root / ".e2e-runs").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".e2e-runs") as tmp:
        for name in names:
            doc = stats.run_once(root, name, 1, seconds, trace=True,
                                 out_dir=Path(tmp))
            detail = json.loads(
                (Path(tmp) / f"{name}-s1-trace.json").read_text())
            untraced = first_set["summary"][name]["service_p50_ms"]["median"]
            traced = detail["metrics"]["bench.service_p50_ms"]["value"]
            out[name] = {"returncode": doc["returncode"],
                         "rows": detail["ledger"]["rows"],
                         "total_s": detail["ledger"]["total_s"],
                         "sum_s": detail["ledger"]["sum_s"],
                         "unattributed_s": detail["ledger"]["unattributed_s"],
                         "per_layer": {k: v["value"] for k, v in
                                       detail["metrics"].items()},
                         "tracing_overhead": traced / untraced}
            print(f"traced {name}: total={out[name]['total_s']:.3f}s "
                  f"unattributed={out[name]['unattributed_s']:.3f}s "
                  f"overhead={out[name]['tracing_overhead']:.3f}",
                  flush=True)
    return out


def _value(doc: dict, metric: str) -> float:
    return doc["metrics"].get(metric, {}).get("value", float("nan"))


def _head(root: Path) -> str:
    proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                          cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


if __name__ == "__main__":
    sys.exit(main())
