"""End-to-end properties of the benchmark and its span recorder."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import procs

SUBSET = [["fig02", 1.0], ["fig05", 0.3], ["apex_speedup", 0.25]]


def _figures(root: Path, env: dict, job) -> dict:
    proc = subprocess.run(
        [sys.executable, str(procs.HERE / "figures_child.py")],
        input=json.dumps({"run": job}) + "\n\n", capture_output=True,
        text=True, cwd=root, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return {row["name"]: row["scalars"] for row in rows if "scalars" in row}


def test_trace_wrappers_are_transparent(root, tmp_path):
    """A traced figures subset computes exactly the untraced scalars,
    and the recorder really was active."""
    plain = _figures(root, procs.child_env(root, tmp_path / "a"), SUBSET)
    spans = tmp_path / "spans"
    spans.mkdir()
    traced = _figures(root, procs.child_env(root, tmp_path / "b", spans),
                      SUBSET)
    assert traced == plain and len(plain) == len(SUBSET)
    layers = {span[0] for path in spans.glob("spans-*.json")
              for span in json.loads(path.read_text())["spans"]}
    assert {"core.simulate", "exec.engine", "exec.fingerprint",
            "power.report"} <= layers


def _checkout(root: Path, dest: Path) -> Path:
    """The files a checkout of this repository holds that the benchmark
    uses."""
    for rel in ("src", "tests/goldens", "benchmarks/e2e"):
        shutil.copytree(root / rel, dest / rel, ignore=shutil.ignore_patterns(
            "__pycache__", ".e2e-runs"))
    shutil.copy(root / "BENCHMARK.json", dest / "BENCHMARK.json")
    return dest


def _run(checkout: Path, *args) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=checkout, capture_output=True, text=True, env=env, timeout=400)


def test_corrupted_golden_fails_the_run(root, tmp_path):
    checkout = _checkout(root, tmp_path)
    golden = checkout / "tests" / "goldens" / "fig02.json"
    doc = json.loads(golden.read_text())
    key = sorted(doc["scalars"])[0]
    doc["scalars"][key] *= 1.001
    golden.write_text(json.dumps(doc))
    proc = _run(checkout, "--workload", "figures", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert "fig02" in proc.stdout


def test_refuses_a_directory_without_the_program(root, tmp_path):
    shutil.copytree(root / "benchmarks" / "e2e",
                    tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "serve-hot", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
