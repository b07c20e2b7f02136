"""``repro perfwatch``: guard the performance trajectory.

``repro bench`` leaves ``BENCH_<scenario>.json`` artifacts (wall time
per figure scenario) and ``repro loadgen`` leaves ``BENCH_serve.json``
(service latency percentiles).  This tool diffs a fresh set of those
artifacts against a committed baseline and exits nonzero when any
scenario slowed beyond its tolerance — the CI tripwire that turns the
bench artifacts from a passive record into an enforced budget.

The comparison is ratio-based: scenario ``s`` regresses when
``current_wall / baseline_wall - 1 > tolerance``.  Tolerances are
per-scenario (falling back to the baseline's ``default_tolerance``)
because wall time on shared CI runners is noisy and the committed
baseline may come from different hardware — the committed numbers get
a generous order-of-magnitude tolerance, while CI's self-consistent
double-run (baseline and current measured on the same machine minutes
apart) uses a tight one.  Speedups are never failures; they are
reported so the baseline can be ratcheted down with
``--update-baseline``.

Availability (the ``availability.rate`` section ``repro loadgen``
writes into ``BENCH_serve.json``) is watched alongside p99, but with
an *absolute-drop* judgment instead of a ratio: a rate is already
normalized to [0, 1], so "current may be at most ``max_drop`` below
baseline" is the meaningful contract (a ratio on a number near 1.0
would make a catastrophic 0.5 -> 0.4 collapse look like -20%).

Baseline schema::

    {"schema": 1,
     "default_tolerance": 0.5,
     "scenarios": {"fig05": {"wall_s": 1.23, "tolerance": 4.0}},
     "serve": {"p99_s": 0.8, "tolerance": 4.0},
     "availability": {"rate": 1.0, "max_drop": 0.25},
     "cluster": {"rate": 1.0, "max_drop": 0.1}}

The ``cluster`` row watches ``BENCH_cluster.json`` (``repro loadgen
--cluster``) with the same absolute-drop judgment as
``serve:availability``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import ExecError

BASELINE_SCHEMA = 1
DEFAULT_TOLERANCE = 0.5
#: how far availability.rate may fall below the baseline (absolute)
DEFAULT_AVAILABILITY_DROP = 0.1
# artifacts in the bench dir that are not per-scenario timings
_SPECIAL = ("BENCH_sweep.json", "BENCH_serve.json",
            "BENCH_chaos.json", "BENCH_cluster.json")


def collect_current(bench_dir) -> Dict[str, object]:
    """Scan a directory of BENCH_*.json artifacts into
    ``{"scenarios": {name: wall_s}, "serve": p99_s | None}``."""
    root = Path(bench_dir)
    if not root.is_dir():
        raise ExecError(f"bench directory not found: {root}")
    scenarios: Dict[str, float] = {}
    for path in sorted(root.glob("BENCH_*.json")):
        if path.name in _SPECIAL:
            continue
        doc = _load(path)
        name = doc.get("scenario", path.stem[len("BENCH_"):])
        wall = doc.get("wall_s")
        if not isinstance(wall, (int, float)):
            raise ExecError(f"{path} lacks a numeric wall_s")
        scenarios[str(name)] = float(wall)
    serve: Optional[float] = None
    availability: Optional[float] = None
    serve_path = root / "BENCH_serve.json"
    if serve_path.exists():
        doc = _load(serve_path)
        latency = doc.get("latency_s", {})
        p99 = latency.get("p99") if isinstance(latency, dict) else None
        if not isinstance(p99, (int, float)):
            raise ExecError(f"{serve_path} lacks latency_s.p99")
        serve = float(p99)
        avail = doc.get("availability")
        if isinstance(avail, dict) \
                and isinstance(avail.get("rate"), (int, float)):
            availability = float(avail["rate"])
    cluster: Optional[float] = None
    cluster_path = root / "BENCH_cluster.json"
    if cluster_path.exists():
        doc = _load(cluster_path)
        avail = doc.get("availability")
        rate = (avail.get("rate") if isinstance(avail, dict)
                else None)
        if not isinstance(rate, (int, float)):
            raise ExecError(
                f"{cluster_path} lacks availability.rate")
        cluster = float(rate)
    if not scenarios and serve is None and cluster is None:
        raise ExecError(f"no BENCH_*.json artifacts in {root}")
    return {"scenarios": scenarios, "serve": serve,
            "availability": availability, "cluster": cluster}


def _load(path: Path) -> Dict[str, object]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExecError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ExecError(f"{path} is not a JSON object")
    return doc


def load_baseline(path) -> Dict[str, object]:
    doc = _load(Path(path))
    if doc.get("schema") != BASELINE_SCHEMA:
        raise ExecError(
            f"{path}: unsupported baseline schema "
            f"{doc.get('schema')!r} (expected {BASELINE_SCHEMA})")
    if not isinstance(doc.get("scenarios"), dict):
        raise ExecError(f"{path}: baseline lacks a scenarios table")
    return doc


def build_baseline(current: Dict[str, object], *,
                   tolerance: float = DEFAULT_TOLERANCE,
                   ) -> Dict[str, object]:
    """A baseline document pinning the given current measurements."""
    doc: Dict[str, object] = {
        "schema": BASELINE_SCHEMA,
        "default_tolerance": tolerance,
        "scenarios": {
            name: {"wall_s": wall}
            for name, wall in sorted(current["scenarios"].items())},
    }
    if current.get("serve") is not None:
        doc["serve"] = {"p99_s": current["serve"]}
    if current.get("availability") is not None:
        doc["availability"] = {"rate": current["availability"],
                               "max_drop": DEFAULT_AVAILABILITY_DROP}
    if current.get("cluster") is not None:
        doc["cluster"] = {"rate": current["cluster"],
                          "max_drop": DEFAULT_AVAILABILITY_DROP}
    return doc


def _judge(name: str, base_s: float, cur_s: float,
           tolerance: float) -> Dict[str, object]:
    if base_s <= 0:
        raise ExecError(f"baseline for {name} must be positive, "
                        f"got {base_s}")
    ratio = cur_s / base_s
    return {"name": name, "baseline_s": base_s, "current_s": cur_s,
            "ratio": ratio, "tolerance": tolerance,
            "status": ("regression" if ratio - 1.0 > tolerance
                       else "ok")}


def compare(baseline: Dict[str, object], current: Dict[str, object],
            *, tolerance: Optional[float] = None) -> Dict[str, object]:
    """Judge current measurements against a baseline.

    ``tolerance`` overrides every per-scenario/default tolerance when
    given (CI's self-consistent mode).  Scenarios present on only one
    side are reported (``missing`` / ``new``) but never fail the run —
    a trimmed bench subset must not trip the watch.
    """
    default_tol = tolerance if tolerance is not None else float(
        baseline.get("default_tolerance", DEFAULT_TOLERANCE))
    rows: List[Dict[str, object]] = []
    base_scenarios = baseline["scenarios"]
    cur_scenarios = current["scenarios"]
    for name in sorted(set(base_scenarios) | set(cur_scenarios)):
        if name not in cur_scenarios:
            rows.append({"name": name, "status": "missing"})
            continue
        if name not in base_scenarios:
            rows.append({"name": name, "status": "new",
                         "current_s": cur_scenarios[name]})
            continue
        entry = base_scenarios[name]
        tol = default_tol if tolerance is not None else float(
            entry.get("tolerance", default_tol))
        rows.append(_judge(name, float(entry["wall_s"]),
                           cur_scenarios[name], tol))
    base_serve = baseline.get("serve")
    if base_serve is not None and current.get("serve") is not None:
        tol = default_tol if tolerance is not None else float(
            base_serve.get("tolerance", default_tol))
        rows.append(_judge("serve:p99", float(base_serve["p99_s"]),
                           float(current["serve"]), tol))
    base_avail = baseline.get("availability")
    if base_avail is not None \
            and current.get("availability") is not None:
        # absolute drop, not a ratio: rates live in [0, 1] where a
        # ratio would understate a collapse near the top of the range
        base_rate = float(base_avail["rate"])
        cur_rate = float(current["availability"])
        max_drop = float(base_avail.get("max_drop",
                                        DEFAULT_AVAILABILITY_DROP))
        drop = base_rate - cur_rate
        rows.append({"name": "serve:availability",
                     "baseline_rate": base_rate,
                     "current_rate": cur_rate,
                     "drop": drop, "max_drop": max_drop,
                     "status": ("regression" if drop > max_drop
                                else "ok")})
    base_cluster = baseline.get("cluster")
    if base_cluster is not None \
            and current.get("cluster") is not None:
        # same absolute-drop judgment as serve:availability — the
        # cluster's answered-usefully rate under burst + shard-kill
        base_rate = float(base_cluster["rate"])
        cur_rate = float(current["cluster"])
        max_drop = float(base_cluster.get(
            "max_drop", DEFAULT_AVAILABILITY_DROP))
        drop = base_rate - cur_rate
        rows.append({"name": "cluster:availability",
                     "baseline_rate": base_rate,
                     "current_rate": cur_rate,
                     "drop": drop, "max_drop": max_drop,
                     "status": ("regression" if drop > max_drop
                                else "ok")})
    regressions = [r for r in rows if r["status"] == "regression"]
    return {"rows": rows, "regressions": len(regressions),
            "ok": not regressions}


def run_perfwatch(bench_dir, baseline_path, *,
                  tolerance: Optional[float] = None,
                  update_baseline: bool = False,
                  out=None) -> int:
    """The CLI body; returns the exit code (0 ok, 1 regression)."""
    out = out if out is not None else sys.stdout
    current = collect_current(bench_dir)
    baseline_path = Path(baseline_path)
    if update_baseline:
        doc = build_baseline(
            current,
            tolerance=tolerance if tolerance is not None
            else DEFAULT_TOLERANCE)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"baseline written: {baseline_path} "
              f"({len(doc['scenarios'])} scenarios"
              f"{', serve' if 'serve' in doc else ''})", file=out)
        return 0
    report = compare(load_baseline(baseline_path), current,
                     tolerance=tolerance)
    for row in report["rows"]:
        status = row["status"]
        if status in ("missing", "new"):
            detail = (f"{row['current_s']:8.3f}s"
                      if status == "new" else "        -")
            print(f"{row['name']:16s} {detail}  [{status}]", file=out)
            continue
        if "baseline_rate" in row:
            print(f"{row['name']:16s} {row['baseline_rate']:8.3f}  -> "
                  f"{row['current_rate']:8.3f}   drop {row['drop']:+.3f} "
                  f"(max {row['max_drop']:.3f})  [{status}]", file=out)
            continue
        print(f"{row['name']:16s} {row['baseline_s']:8.3f}s -> "
              f"{row['current_s']:8.3f}s  x{row['ratio']:.2f} "
              f"(tol +{row['tolerance']:.0%})  [{status}]", file=out)
    if not report["ok"]:
        print(f"FAIL: {report['regressions']} scenario(s) regressed "
              f"beyond tolerance", file=out)
        return 1
    print("perfwatch: ok", file=out)
    return 0

