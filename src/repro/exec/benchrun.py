"""``repro bench``: run the figure scenarios through the engine.

Produces one ``BENCH_<scenario>.json`` artifact per scenario (scalars,
wall time, cache traffic) plus ``BENCH_sweep.json``, which times a
multi-config comparison sweep three ways — serial, parallel with a cold
cache, and a warm-cache rerun — verifying bit-identity across all
three and reporting the measured speedups.  These artifacts are the
repo's performance trajectory: CI uploads them from the ``bench-smoke``
job on every change.

Scenario results themselves are cached content-addressed (key =
(scenario, scale, code salt)), so a warm rerun of ``repro bench``
replays every scenario near-instantly from ``$REPRO_CACHE_DIR`` /
``--cache-dir``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Sequence

from ..errors import ExecError
from ..obs.tracing import span as _obs_span
from .cache import ResultCache, task_fingerprint
from .executor import Engine, resolve_workers, run_sim_plan, sim_task
from .figs import SCENARIOS, get_scenario, run_scenario

QUICK_SCALE_CAP = 1.0


def _scenario_payload(name: str, scale: float,
                      engine: Engine) -> Dict[str, object]:
    """Scalars for one scenario, served from the scenario-level cache
    when possible (the inner sim tasks hit the same cache either way,
    but the scenario key also skips the non-sim analysis work)."""
    key = task_fingerprint("scenario", name, scale)
    if engine.cache is not None:
        cached = engine.cache.get(key, kind="scenario")
        if cached is not None:
            return cached
    _rich, scalars = run_scenario(name, scale=scale, engine=engine)
    payload = {"scalars": scalars}
    if engine.cache is not None:
        engine.cache.put(key, payload)
    return payload


def run_bench(names: Optional[Sequence[str]] = None, *,
              scale: float = 1.0, quick: bool = False,
              workers: Optional[int] = None, cache_dir=None,
              out_dir=".", sweep: bool = True) -> Dict[str, object]:
    """Run the named scenarios (all when None); write BENCH_*.json."""
    if quick and scale != 1.0:
        raise ExecError("--quick and --scale are mutually exclusive")
    engine = Engine(workers=workers, cache=cache_dir)
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    selected = list(names) if names else list(SCENARIOS)
    summary: Dict[str, object] = {"scenarios": {}, "workers":
                                  engine.workers}
    for name in selected:
        spec = get_scenario(name)
        run_scale = min(QUICK_SCALE_CAP, spec.quick_scale) \
            if quick else scale
        hits0 = engine.cache.hits if engine.cache is not None else 0
        misses0 = engine.cache.misses \
            if engine.cache is not None else 0
        with _obs_span("bench.scenario", "exec", scenario=name) as sp:
            payload = _scenario_payload(name, run_scale, engine)
        doc = {
            "scenario": name,
            "title": spec.title,
            "scale": run_scale,
            "workers": engine.workers,
            "wall_s": sp.duration_s,
            "scalars": payload["scalars"],
            "cache": None if engine.cache is None else {
                "hits": engine.cache.hits - hits0,
                "misses": engine.cache.misses - misses0,
            },
        }
        artifact = out_path / f"BENCH_{name}.json"
        artifact.write_text(json.dumps(doc, indent=2, sort_keys=True))
        summary["scenarios"][name] = {"wall_s": doc["wall_s"],
                                      "artifact": str(artifact)}
    if sweep:
        summary["sweep"] = run_sweep(out_dir=out_path, quick=quick,
                                     workers=engine.workers,
                                     cache_dir=cache_dir)
    return summary


def _sweep(configs, traces, engine: Engine):
    """One config x trace sweep on ``engine``: per run, its cycles,
    instructions, events and Einspower total."""
    from ..power.einspower import EinspowerModel
    runs = [(c, t) for c in configs for t in traces]
    results = run_sim_plan(engine, [sim_task(c, t) for c, t in runs])
    return [(r.cycles, r.instructions, dict(r.activity.events),
             EinspowerModel(c).report(r.activity).total_w)
            for (c, _t), r in zip(runs, results)]


def run_sweep(*, out_dir=".", quick: bool = False,
              workers: Optional[int] = None,
              cache_dir=None) -> Dict[str, object]:
    """The acceptance sweep: a multi-config comparison timed serial vs
    parallel (cold cache) vs warm-cache rerun, with bit-identity
    verified across all three."""
    from ..core import power9_config, power10_config
    from ..workloads import resolve_workload
    workers = resolve_workers(workers)
    n = 2000 if quick else 8000
    configs = [power9_config(), power10_config(),
               power10_config(smt=4)]
    traces = [resolve_workload(w, n)
              for w in ("daxpy", "dgemm-vsu", "stream-triad",
                        "pointer-chase")]

    with _obs_span("bench.sweep.serial", "exec") as sp_serial:
        serial = _sweep(configs, traces, Engine(workers=1))
    with _obs_span("bench.sweep.parallel", "exec") as sp_par:
        parallel = _sweep(configs, traces, Engine(workers=workers))

    out_path = Path(out_dir)
    cache_root = Path(cache_dir) if cache_dir is not None \
        else out_path / ".bench-cache"
    cache = ResultCache(cache_root / "sweep")
    cache.clear()  # guarantee the "cold" timing really is cold
    with _obs_span("bench.sweep.cold", "exec") as sp_cold:
        cold = _sweep(configs, traces,
                      Engine(workers=workers, cache=cache))
    with _obs_span("bench.sweep.warm", "exec") as sp_warm:
        warm = _sweep(configs, traces,
                      Engine(workers=workers, cache=cache))

    # canonical serializations: equal strings mean bit-identical runs
    snapshots = [json.dumps(x, sort_keys=True)
                 for x in (serial, parallel, cold, warm)]
    bit_identical = all(s == snapshots[0] for s in snapshots[1:])
    doc = {
        "configs": [c.name for c in configs],
        "workloads": [t.name for t in traces],
        "n_sims": len(configs) * len(traces),
        "instructions": n,
        "workers": workers,
        "serial_s": sp_serial.duration_s,
        "parallel_s": sp_par.duration_s,
        "parallel_speedup": sp_serial.duration_s
        / max(sp_par.duration_s, 1e-9),
        "cold_cache_s": sp_cold.duration_s,
        "warm_cache_s": sp_warm.duration_s,
        "warm_speedup": sp_serial.duration_s
        / max(sp_warm.duration_s, 1e-9),
        "bit_identical": bit_identical,
    }
    (out_path / "BENCH_sweep.json").write_text(
        json.dumps(doc, indent=2, sort_keys=True))
    if not bit_identical:
        raise ExecError(
            "sweep results are not bit-identical across serial / "
            "parallel / cached execution")
    return doc

