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

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..errors import ExecError, ReproError
from ..obs.tracing import span as _obs_span
from .cache import ResultCache, task_fingerprint
from .executor import Engine, resolve_workers
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


def _sweep_snapshot(out) -> str:
    """Canonical serialization of a compare_configs result — equal
    strings mean bit-identical runs."""
    return json.dumps(
        {name: [(r.result.cycles, r.result.instructions,
                 dict(r.result.activity.events), r.power_w)
                for r in suite.runs]
         for name, suite in out.items()}, sort_keys=True)


def run_sweep(*, out_dir=".", quick: bool = False,
              workers: Optional[int] = None,
              cache_dir=None) -> Dict[str, object]:
    """The acceptance sweep: a multi-config comparison timed serial vs
    parallel (cold cache) vs warm-cache rerun, with bit-identity
    verified across all three."""
    from ..core import power9_config, power10_config
    from ..core.simulator import compare_configs
    from ..workloads import resolve_workload
    workers = resolve_workers(workers)
    n = 2000 if quick else 8000
    configs = [power9_config(), power10_config(),
               power10_config(smt=4)]
    traces = [resolve_workload(w, n)
              for w in ("daxpy", "dgemm-vsu", "stream-triad",
                        "pointer-chase")]

    with _obs_span("bench.sweep.serial", "exec") as sp_serial:
        serial = compare_configs(configs, traces,
                                 engine=Engine(workers=1))
    with _obs_span("bench.sweep.parallel", "exec") as sp_par:
        parallel = compare_configs(configs, traces,
                                   engine=Engine(workers=workers))

    out_path = Path(out_dir)
    cache_root = Path(cache_dir) if cache_dir is not None \
        else out_path / ".bench-cache"
    cache = ResultCache(cache_root / "sweep")
    cache.clear()  # guarantee the "cold" timing really is cold
    with _obs_span("bench.sweep.cold", "exec") as sp_cold:
        cold = compare_configs(
            configs, traces, engine=Engine(workers=workers,
                                           cache=cache))
    with _obs_span("bench.sweep.warm", "exec") as sp_warm:
        warm = compare_configs(
            configs, traces, engine=Engine(workers=workers,
                                           cache=cache))

    snapshots = [_sweep_snapshot(x)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="run the paper-figure benchmarks through the "
                    "parallel cached execution engine")
    parser.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                        help="scenario names (default: all; see "
                             "--list)")
    parser.add_argument("--list", action="store_true",
                        help="list scenario names and exit")
    parser.add_argument("--quick", action="store_true",
                        help="run every scenario at its reduced "
                             "golden-harness scale")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="instruction-budget scale factor "
                             "(default 1.0)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool width (default: "
                             "$REPRO_WORKERS or 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache "
                             "(default: $REPRO_CACHE_DIR or off)")
    parser.add_argument("--out", default=".", metavar="DIR",
                        help="directory for BENCH_*.json artifacts "
                             "(default .)")
    parser.add_argument("--no-sweep", action="store_true",
                        help="skip the serial/parallel/cached timing "
                             "sweep (BENCH_sweep.json)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name, spec in SCENARIOS.items():
            print(f"{name:16s} {spec.title}")
        return 0
    try:
        summary = run_bench(
            args.scenarios or None, scale=args.scale,
            quick=args.quick, workers=args.workers,
            cache_dir=args.cache_dir, out_dir=args.out,
            sweep=not args.no_sweep)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, info in summary["scenarios"].items():
        print(f"{name:16s} {info['wall_s']:8.2f}s  "
              f"-> {info['artifact']}")
    sweep = summary.get("sweep")
    if sweep is None:
        return 0
    print(f"sweep ({sweep['n_sims']} sims, {sweep['workers']} "
          f"workers): serial {sweep['serial_s']:.2f}s, parallel "
          f"{sweep['parallel_s']:.2f}s "
          f"({sweep['parallel_speedup']:.2f}x), warm cache "
          f"{sweep['warm_cache_s']:.2f}s "
          f"({sweep['warm_speedup']:.2f}x); bit-identical: "
          f"{sweep['bit_identical']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
