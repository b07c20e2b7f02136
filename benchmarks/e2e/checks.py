"""Output checks: goldens for the figures, in-process references for
served answers.

References are computed in the benchmark's own process, through the
program's public model API (``simulate_trace`` and
``ProxyFastPath().estimate``), never through the serving stack, and
compared with exact equality: a served answer must be the number the
model computes, to the last bit.  They are computed outside the timed
phase.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple


def golden_mismatches(actual: Dict[str, float], golden: Dict[str, float],
                      rtol: float) -> List[str]:
    """Every scalar that is missing, new, or outside ``rtol``."""
    problems = []
    for key in sorted(set(golden) | set(actual)):
        if key not in actual:
            problems.append(f"missing scalar {key!r}")
        elif key not in golden:
            problems.append(f"new scalar {key!r} not in golden")
        elif not math.isclose(actual[key], golden[key], rel_tol=rtol,
                              abs_tol=rtol):
            problems.append(f"{key}: got {actual[key]!r}, golden "
                            f"{golden[key]!r} (rtol {rtol})")
    return problems


def load_goldens(root: Path) -> Dict[str, dict]:
    return {path.stem: json.loads(path.read_text())
            for path in sorted((root / "tests" / "goldens").glob("*.json"))}


class References:
    """Lazily computed expected response bodies (parsed JSON)."""

    def __init__(self, root: Path):
        src = str(root / "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from repro.core import power9_config, power10_config
        from repro.core.simulator import simulate_trace
        from repro.serve.admission import ProxyFastPath
        from repro.workloads.resolve import resolve_workload
        self._configs = {"power9": power9_config(),
                         "power10": power10_config()}
        self._simulate_trace = simulate_trace
        self._resolve = resolve_workload
        self._proxy = ProxyFastPath()
        self._traces: Dict[Tuple[str, int], object] = {}
        self._runs: Dict[Tuple[str, int, str], object] = {}

    def _run(self, workload: str, instructions: int, generation: str):
        key = (workload, instructions, generation)
        if key not in self._runs:
            if (workload, instructions) not in self._traces:
                self._traces[(workload, instructions)] = self._resolve(
                    workload, instructions)
            trace = self._traces[(workload, instructions)]
            self._runs[key] = (trace, self._simulate_trace(
                self._configs[generation], trace, warmup_fraction=0.0))
        return self._runs[key]

    def expected(self, route: str, doc: Dict[str, object]) -> dict:
        if route == "/v1/simulate":
            return self.simulate(doc)
        if route == "/v1/estimate":
            return {"ok": True, "degraded": False, "source": "proxy",
                    "result": self._proxy.estimate(
                        doc["config"], doc["workload"],
                        doc["instructions"])}
        if route == "/v1/compare":
            return self.compare(doc)
        raise ValueError(f"no reference for {route}")

    def simulate(self, doc: Dict[str, object]) -> dict:
        generation = doc["config"]
        _trace, m = self._run(doc["workload"], doc["instructions"],
                              generation)
        return {"ok": True, "degraded": False, "source": "engine",
                "result": {"config": generation,
                           "workload": doc["workload"],
                           "instructions": m.result.instructions,
                           "cycles": m.result.cycles,
                           "ipc": m.ipc,
                           "power_w": m.power_w,
                           "flops_per_cycle": m.flops_per_cycle}}

    def compare(self, doc: Dict[str, object]) -> dict:
        # the same arithmetic, in the same order, as the compare route
        rows = []
        perf = power = wsum = 0.0
        for name in doc["workloads"]:
            trace, m9 = self._run(name, doc["instructions"], "power9")
            _trace, m10 = self._run(name, doc["instructions"], "power10")
            weight = float(getattr(trace, "weight", 1.0))
            wsum += weight
            perf += weight * m10.ipc / m9.ipc
            power += weight * m10.power_w / m9.power_w
            rows.append({
                "workload": name, "weight": weight,
                "p9_ipc": m9.ipc, "p10_ipc": m10.ipc,
                "p9_power_w": m9.power_w, "p10_power_w": m10.power_w,
                "perf_ratio": m10.ipc / m9.ipc,
                "power_ratio": m10.power_w / m9.power_w})
        return {"ok": True, "degraded": False, "source": "engine",
                "result": {"workloads": rows,
                           "aggregate": {
                               "perf_ratio": perf / wsum,
                               "power_ratio": power / wsum,
                               "perf_per_watt_ratio": perf / power}}}


def body_problem(body: bytes, expected: Optional[dict]) -> Optional[str]:
    """Why ``body`` is not an acceptable answer, or None."""
    try:
        doc = json.loads(body)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"malformed body: {exc}"
    if not isinstance(doc, dict) or doc.get("ok") is not True:
        return f"not ok: {body[:200]!r}"
    if expected is not None and doc != expected:
        return "answer differs from the in-process reference"
    return None
