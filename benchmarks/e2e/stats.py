"""Run the benchmark as a subprocess and summarize repeated runs."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def load_benchmark(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: bool = False, out_dir: Optional[Path] = None) -> dict:
    """One ``run.py`` invocation in ``checkout``; returns its final JSON
    line plus ``returncode``, every printed ``name value unit`` line as
    ``printed`` (and ``stderr`` when it failed)."""
    argv = [sys.executable,
            str(checkout / "benchmarks" / "e2e" / "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if out_dir is not None:
        argv += ["--out", str(out_dir)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        doc = {"correct": False, "metrics": {}}
    doc["returncode"] = proc.returncode
    doc["notes"] = [line for line in lines if line.startswith("#")]
    doc["printed"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and not line.startswith("#"):
            try:
                doc["printed"][parts[0]] = float(parts[1])
            except ValueError:
                pass
    if proc.returncode != 0:
        doc["stderr"] = proc.stderr[-2000:]
    return doc


def values(runs: Sequence[dict], metric: str) -> List[float]:
    """``metric`` of every run that reported it."""
    return [v for v in run_values(runs, metric) if v is not None]


def run_values(runs: Sequence[dict], metric: str) -> List[Optional[float]]:
    """``metric`` per run, ``None`` where a run broke and reported
    nothing."""
    return [r.get("metrics", {}).get(metric, {}).get("value") for r in runs]


def summarize(vals: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and the spread:
    the interquartile distance as a share of the median."""
    if len(vals) < 2:
        only = vals[0] if vals else float("nan")
        return {"median": only, "q1": only, "q3": only, "spread": 0.0,
                "n": len(vals)}
    q1, median, q3 = statistics.quantiles(vals, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf"),
            "n": len(vals)}


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``parent``, as a share of the
    parent (negative when it is better)."""
    delta = (change - parent) / parent if parent else 0.0
    return delta if better == "lower" else -delta
