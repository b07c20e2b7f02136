"""A/B comparison of two revisions on one workload.

    python3 benchmarks/e2e/ab.py PARENT_REV CHANGE_REV --workload W \\
        [--pairs 10]

Both revisions are exported with ``git archive`` under ``.e2e-ab/`` and
given *this* checkout's benchmark (``benchmarks/e2e`` and
``BENCHMARK.json``), so both sides run identical benchmark code and
settings.  Pair ``i`` runs both sides on seed ``1000 + i``, alternating
which side goes first.  Per end-to-end metric the report gives each
side's median and quartiles and the pairs the change won (ties count for
neither; a side whose run broke loses the pair), and a verdict:

* ``gain``: the change won at least 9/10 of the pairs and its median
  differs from the parent's by more than the parent's interquartile
  distance;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved``: the parent's own spread is wider than the bound and
  not every change run beats every parent run;
* ``same`` otherwise.

A gain does not count when the change failed more outputs than the
parent.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import stats  # noqa: E402

#: pair ``i`` runs seed ``FIRST_SEED + i``, away from trajectory.py's seeds
FIRST_SEED = 1000


def export(root: Path, rev: str, dest: Path) -> Path:
    """``rev``'s tree under ``dest``, with this checkout's benchmark."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=root, check=True,
                         capture_output=True, text=True).stdout.strip()
    tree = dest / sha[:12]
    if not tree.exists():
        raw = subprocess.run(["git", "archive", "--format=tar", sha],
                             cwd=root, check=True,
                             capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(raw)) as tar:
            tar.extractall(tree, filter="data")
    shutil.rmtree(tree / "benchmarks" / "e2e", ignore_errors=True)
    shutil.copytree(HERE, tree / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(root / "BENCHMARK.json", tree / "BENCHMARK.json")
    return tree


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """Judge one metric from values aligned by pair.  ``None`` marks a
    run that reported nothing (it broke): its side loses that pair, and
    the pair still counts towards the pairs run."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y) -> bool:
        return x is not None and (y is None or sign * (x - y) < 0)

    wins = sum(beats(b, a) for a, b in zip(parent, change))
    parent_vals = [v for v in parent if v is not None]
    change_vals = [v for v in change if v is not None]
    p, c = stats.summarize(parent_vals), stats.summarize(change_vals)
    row = {"parent": p, "change": c, "wins": wins, "pairs": len(parent)}
    if not parent_vals or not change_vals:
        return dict(row, worse_by=float("nan"), verdict="unresolved")
    moved = stats.worse_by(p["median"], c["median"], better)
    # every change run better than every parent run
    separated = (max(sign * v for v in change_vals)
                 < min(sign * v for v in parent_vals))
    if (wins >= 0.9 * len(parent) and moved < 0
            and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        label = "gain"
    elif moved > bound:
        label = "regression"
    elif p["spread"] > bound and not separated:
        label = "unresolved"
    else:
        label = "same"
    return dict(row, worse_by=moved, verdict=label)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the report as JSON")
    args = parser.parse_args()
    root = Path.cwd()
    bench = stats.load_benchmark(root)
    work = root / ".e2e-ab"
    sides = {"parent": export(root, args.parent, work),
             "change": export(root, args.change, work)}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            doc = stats.run_once(sides[side], args.workload, FIRST_SEED + i,
                                 bench["run_seconds"])
            runs[side].append(doc)
            print(f"pair {i} {side}: rc={doc['returncode']} failed="
                  f"{doc.get('failed')}", flush=True)
    report = {"workload": args.workload, "pairs": args.pairs,
              "failed": {s: sum(d.get("failed") or 0 for d in runs[s])
                         for s in runs},
              "metrics": {}}
    for m in bench["end_to_end"]:
        report["metrics"][m["name"]] = verdict(
            stats.run_values(runs["parent"], m["name"]),
            stats.run_values(runs["change"], m["name"]), m["better"],
            m["bound"])
    if report["failed"]["change"] > report["failed"]["parent"]:
        for row in report["metrics"].values():
            if row["verdict"] == "gain":
                row["verdict"] = "same"
    for name, row in report["metrics"].items():
        print(f"{name:16s} parent {row['parent']['median']:.6g} "
              f"[{row['parent']['q1']:.6g}, {row['parent']['q3']:.6g}]  "
              f"change {row['change']['median']:.6g} "
              f"[{row['change']['q1']:.6g}, {row['change']['q3']:.6g}]  "
              f"wins {row['wins']}/{row['pairs']}  "
              f"worse_by {row['worse_by']:+.3f}  {row['verdict']}")
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
