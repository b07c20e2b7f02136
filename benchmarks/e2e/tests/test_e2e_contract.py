"""``BENCHMARK.json`` names exactly what ``run.py`` reports."""

import json

import ledger
import run


def test_benchmark_json_matches_the_reports(root):
    doc = json.loads((root / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.E2E)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(ledger.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())
