"""The figure-scenario registry: every paper figure/table as a function.

Each scenario is the experiment behind one ``benchmarks/bench_*``
module, refactored into a callable of ``(scale, engine)``:

* ``scale`` shrinks the instruction budgets proportionally (floored so
  the model stays in steady state) — ``scale=1.0`` reproduces the
  benchmark numbers exactly; the golden-regression harness runs every
  scenario at its ``quick_scale``;
* ``engine`` is a :class:`repro.exec.Engine` — every scenario but
  ``fig06`` submits its simulations to it as plans, so workers and the
  result cache cover them; None means the environment default.
  ``fig06`` composes a handful of memoized kernel-rate runs
  (``workloads.ai``) and ``fig02`` is analytic.

Each :class:`ScenarioSpec` also carries ``scalars``, which flattens the
rich result into a ``{name: float}`` dict — the representation the
golden files, ``BENCH_*.json`` artifacts, and the scenario-level cache
all share.  ``rtol`` is the per-scenario comparison tolerance:
scenarios whose numbers pass through least-squares / NNLS solves get a
looser bound, because BLAS backends differ across platforms; pure
timing-model scenarios are exact and use the default.
"""

from __future__ import annotations

import dataclasses
import statistics
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..errors import ExecError
from ..obs.tracing import span as _obs_span
from .cache import fingerprint_config
from .executor import Engine, run_sim_plan, sim_task

DEFAULT_RTOL = 1e-6


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered figure scenario."""

    name: str
    title: str
    fn: Callable
    scalars: Callable
    quick_scale: float = 0.25
    rtol: float = DEFAULT_RTOL


SCENARIOS: Dict[str, ScenarioSpec] = {}


def _register(spec: ScenarioSpec) -> ScenarioSpec:
    if spec.name in SCENARIOS:
        raise ExecError(f"duplicate scenario {spec.name!r}")
    SCENARIOS[spec.name] = spec
    return spec


def scenario_names() -> List[str]:
    return list(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    spec = SCENARIOS.get(name)
    if spec is None:
        choices = ", ".join(SCENARIOS)
        raise ExecError(
            f"unknown scenario {name!r} (choices: {choices})")
    return spec


def run_scenario(name: str, *, scale: Optional[float] = None,
                 engine: Optional[Engine] = None):
    """Run one scenario; returns ``(rich_result, scalars_dict)``."""
    spec = get_scenario(name)
    if scale is None:
        scale = 1.0
    if scale <= 0:
        raise ExecError("scale must be positive")
    if engine is None:
        engine = Engine()
    with _obs_span("figs.scenario", "exec", scenario=name,
                   scale=scale):
        rich = spec.fn(scale=scale, engine=engine)
        scalars = spec.scalars(rich)
    return rich, scalars


def _n(base: int, scale: float, floor: int) -> int:
    return max(floor, int(base * scale))


# ---------------------------------------------------------------------
# Fig. 2 — optimal pipeline depth (analytic; no simulations).
# ---------------------------------------------------------------------

_FIG02_BUDGETS = (0.5, 0.7, 0.85, 1.0)


def fig02_pipeline_depth(scale: float = 1.0, engine=None):
    from ..power import depth_study
    return depth_study(fo4_values=tuple(range(9, 46, 2)),
                       budgets=_FIG02_BUDGETS)


def _fig02_scalars(curves) -> Dict[str, float]:
    from ..power import optimal_fo4
    out: Dict[str, float] = {}
    for budget in _FIG02_BUDGETS:
        pts = curves[budget]
        out[f"optimal_fo4[{budget}]"] = float(optimal_fo4(pts))
        out[f"peak_bips[{budget}]"] = max(p.bips for p in pts)
    return out


_register(ScenarioSpec(
    name="fig02", title="Fig. 2: optimal pipeline depth",
    fn=fig02_pipeline_depth, scalars=_fig02_scalars, quick_scale=1.0))


# ---------------------------------------------------------------------
# Fig. 4 — per-unit design-change gains (the big simulation fan-out).
# ---------------------------------------------------------------------

def fig04_unit_gains(scale: float = 1.0, engine=None):
    from ..core import (FEATURE_NAMES, apply_features, power9_config,
                        power10_config)
    from ..workloads import merge_smt, specint_suite
    engine = engine if engine is not None else Engine()
    fscale = 8
    n = _n(24000, scale, 1200)
    traces_st = specint_suite(instructions=n, footprint_scale=fscale)
    traces_smt8 = [merge_smt([t] * 8, name=f"{t.name}-smt8")
                   for t in specint_suite(instructions=max(300, n // 4),
                                          footprint_scale=fscale)]
    st_configs = {"__base__": power9_config(cache_scale=fscale),
                  "__p10__": power10_config(cache_scale=fscale)}
    smt_configs = {"__base__": power9_config(smt=8, cache_scale=fscale)}
    for feature in FEATURE_NAMES:
        st_configs[feature] = apply_features(
            power9_config(cache_scale=fscale), [feature])
        smt_configs[feature] = apply_features(
            power9_config(smt=8, cache_scale=fscale), [feature])
    keys, tasks = [], []
    for mode, configs, traces in (("st", st_configs, traces_st),
                                  ("smt8", smt_configs, traces_smt8)):
        for label, cfg in configs.items():
            fingerprint = fingerprint_config(cfg)
            for t in traces:
                keys.append((mode, label, t.name))
                tasks.append(sim_task(cfg, t, warmup_fraction=0.4,
                                      config_fingerprint=fingerprint))
    results = dict(zip(keys, run_sim_plan(engine, tasks)))

    out = {}
    base_st = {t.name: results[("st", "__base__", t.name)].ipc
               for t in traces_st}
    base_smt = {t.name: results[("smt8", "__base__", t.name)].ipc
                for t in traces_smt8}
    for feature in FEATURE_NAMES:
        st_gains = [results[("st", feature, t.name)].ipc
                    / base_st[t.name] - 1 for t in traces_st]
        smt_gains = [results[("smt8", feature, t.name)].ipc
                     / base_smt[t.name] - 1 for t in traces_smt8]
        out[feature] = {
            "st_mean": statistics.mean(st_gains),
            "st_max": max(st_gains),
            "smt8_mean": statistics.mean(smt_gains),
            "smt8_max": max(smt_gains),
        }
    f9 = sum(results[("st", "__base__", t.name)].flushed_instructions
             for t in traces_st)
    f10 = sum(results[("st", "__p10__", t.name)].flushed_instructions
              for t in traces_st)
    out["flush_reduction"] = 1 - f10 / f9
    return out


def _fig04_scalars(gains) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for feature, g in gains.items():
        if feature == "flush_reduction":
            continue
        for field in ("st_mean", "st_max", "smt8_mean", "smt8_max"):
            out[f"{feature}.{field}"] = g[field]
    out["flush_reduction"] = gains["flush_reduction"]
    return out


_register(ScenarioSpec(
    name="fig04", title="Fig. 4: per-unit design-change gains",
    fn=fig04_unit_gains, scalars=_fig04_scalars, quick_scale=0.05))


# ---------------------------------------------------------------------
# Fig. 5 — DGEMM FLOPs/cycle and core power.
# ---------------------------------------------------------------------

def fig05_dgemm(scale: float = 1.0, engine=None):
    from ..core import power9_config, power10_config
    from ..power import EinspowerModel
    from ..workloads import dgemm_mma_trace, dgemm_vsu_trace
    engine = engine if engine is not None else Engine()
    n = _n(2500, scale, 500)
    p9, p10 = power9_config(), power10_config()
    combos = [("p9_vsu", p9, dgemm_vsu_trace(n)),
              ("p10_vsu", p10, dgemm_vsu_trace(n)),
              ("p10_mma", p10, dgemm_mma_trace(n))]
    probes = run_sim_plan(
        engine, [sim_task(cfg, trace, warmup_fraction=0.2)
                 for _label, cfg, trace in combos])
    window_keys, window_tasks = [], []
    for (label, cfg, trace), probe in zip(combos, probes):
        instr_per_window = max(200, int(5000 / probe.cpi))
        for window in trace.windows(instr_per_window):
            window_keys.append((label, cfg))
            window_tasks.append(sim_task(cfg, window))
    window_results = run_sim_plan(engine, window_tasks)
    flops: Dict[str, List[float]] = {}
    power: Dict[str, List[float]] = {}
    for (label, cfg), result in zip(window_keys, window_results):
        flops.setdefault(label, []).append(result.flops_per_cycle)
        power.setdefault(label, []).append(
            EinspowerModel(cfg).report(result.activity).total_w)
    return {label: (statistics.mean(flops[label]),
                    statistics.mean(power[label]))
            for label, _cfg, _trace in combos}


def _fig05_scalars(res) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for label, (f, w) in res.items():
        out[f"{label}.flops_per_cycle"] = f
        out[f"{label}.power_w"] = w
    out["vsu_flops_ratio"] = res["p10_vsu"][0] / res["p9_vsu"][0]
    out["mma_flops_ratio"] = res["p10_mma"][0] / res["p9_vsu"][0]
    out["vsu_power_ratio"] = res["p10_vsu"][1] / res["p9_vsu"][1]
    out["mma_power_ratio"] = res["p10_mma"][1] / res["p9_vsu"][1]
    return out


_register(ScenarioSpec(
    name="fig05", title="Fig. 5: DGEMM FLOPs/cycle and core power",
    fn=fig05_dgemm, scalars=_fig05_scalars, quick_scale=0.3))


# ---------------------------------------------------------------------
# Fig. 6 — end-to-end AI inference (analytic model composition).
# ---------------------------------------------------------------------

def fig06_ai_models(scale: float = 1.0, engine=None):
    from ..workloads.ai import (bert_large_profile, figure6_rows,
                                resnet50_profile, socket_ai_speedup)
    out = {}
    for profile in (resnet50_profile(), bert_large_profile()):
        out[profile.name] = {
            "rows": figure6_rows(profile),
            "socket_fp32": socket_ai_speedup(profile),
            "socket_int8": socket_ai_speedup(profile, dtype="int8"),
        }
    return out


def _fig06_scalars(results) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for model, data in results.items():
        for label, row in data["rows"].items():
            prefix = f"{model}.{label}"
            out[f"{prefix}.speedup"] = row["speedup"]
            out[f"{prefix}.cpi"] = row["cpi"]
            out[f"{prefix}.gemm_inst_ratio"] = row["gemm_inst_ratio"]
        out[f"{model}.socket_fp32"] = data["socket_fp32"]
        out[f"{model}.socket_int8"] = data["socket_int8"]
    return out


_register(ScenarioSpec(
    name="fig06", title="Fig. 6: end-to-end AI inference",
    fn=fig06_ai_models, scalars=_fig06_scalars, quick_scale=1.0))


# ---------------------------------------------------------------------
# Fig. 10 — core model vs chip model on SPECint simpoints.
# ---------------------------------------------------------------------

def fig10_core_vs_chip(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..power.apex import compare_core_vs_chip
    from ..tracegen import simpoint_suite
    from ..workloads import merge_smt, specint_suite
    engine = engine if engine is not None else Engine()
    fscale = 8
    base = specint_suite(instructions=_n(16000, scale, 4000),
                         footprint_scale=fscale,
                         names=["xz", "mcf", "leela", "x264",
                                "exchange2", "omnetpp"])
    simpoints = simpoint_suite(base,
                               interval=_n(6000, scale, 1500),
                               max_clusters=4)
    smt2 = [merge_smt([sp] * 2, name=f"{sp.name}-smt2")
            for sp in simpoints]
    core_model = power10_config(smt=2, infinite_l2=True,
                                cache_scale=fscale)
    chip_model = power10_config(smt=2, cache_scale=fscale)
    return compare_core_vs_chip(core_model, chip_model, smt2,
                                warmup_fraction=0.25, engine=engine)


def _fig10_scalars(points) -> Dict[str, float]:
    out: Dict[str, float] = {"n_points": float(len(points))}
    out["mean_core_ipc"] = statistics.mean(
        p["core_ipc"] for p in points)
    out["mean_chip_ipc"] = statistics.mean(
        p["chip_ipc"] for p in points)
    out["mean_core_power_w"] = statistics.mean(
        p["core_power_w"] for p in points)
    out["mean_chip_power_w"] = statistics.mean(
        p["chip_power_w"] for p in points)
    gaps = sorted(p["core_ipc"] / max(p["chip_ipc"], 1e-9)
                  for p in points)
    out["min_ipc_gap"] = gaps[0]
    out["max_ipc_gap"] = gaps[-1]
    return out


_register(ScenarioSpec(
    name="fig10", title="Fig. 10: core vs chip power model",
    fn=fig10_core_vs_chip, scalars=_fig10_scalars, quick_scale=0.25))


# ---------------------------------------------------------------------
# Fig. 11 — M1-linked model accuracy vs input count (lstsq-based).
# ---------------------------------------------------------------------

_FIG11_INPUTS = (1, 2, 4, 8, 16, 32)


def fig11_m1_model(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..power import build_training_set, input_sweep
    from ..workloads import specint_proxies
    config = power10_config()
    traces = specint_proxies(instructions=_n(5000, scale, 1200))
    training = build_training_set(config, traces, engine=engine)
    return {
        "unconstrained": input_sweep(training, _FIG11_INPUTS),
        "nonnegative": input_sweep(training, _FIG11_INPUTS,
                                   nonnegative=True),
    }


def _fig11_scalars(errors) -> Dict[str, float]:
    return {f"{name}[{n}]": sweep[n]
            for name, sweep in errors.items()
            for n in _FIG11_INPUTS}


_register(ScenarioSpec(
    name="fig11", title="Fig. 11: M1 model error vs inputs",
    fn=fig11_m1_model, scalars=_fig11_scalars,
    quick_scale=0.3, rtol=1e-3))


# ---------------------------------------------------------------------
# Fig. 12 — top-down vs bottom-up power models (lstsq/NNLS-based).
# ---------------------------------------------------------------------

def fig12_topdown_bottomup(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..power import (build_training_set, compare_top_down_bottom_up,
                         fit_bottom_up, fit_top_down)
    from ..workloads import specint_proxies, specint_suite
    config = power10_config()
    train = build_training_set(
        config, specint_proxies(instructions=_n(5000, scale, 1200)),
        engine=engine)
    eval_set = build_training_set(
        config,
        specint_suite(instructions=_n(6000, scale, 1500),
                      footprint_scale=8)
        + specint_proxies(instructions=_n(3000, scale, 1000),
                          names=["xz", "x264"]),
        engine=engine)
    top = fit_top_down(train, max_inputs=16)
    bottom = fit_bottom_up(train, max_inputs_per_component=3)
    stats = compare_top_down_bottom_up(top, bottom, eval_set)
    stats["top_down_inputs"] = top.num_inputs
    return stats


def _fig12_scalars(stats) -> Dict[str, float]:
    return {
        "mean_model_difference_pct":
            stats["mean_model_difference_pct"],
        "top_down_error_pct": stats["top_down_error_pct"],
        "bottom_up_error_pct": stats["bottom_up_error_pct"],
        "bottom_up_components": float(stats["bottom_up_components"]),
        "bottom_up_events_used": float(stats["bottom_up_events_used"]),
        "top_down_inputs": float(stats["top_down_inputs"]),
    }


_register(ScenarioSpec(
    name="fig12", title="Fig. 12: top-down vs bottom-up models",
    fn=fig12_topdown_bottomup, scalars=_fig12_scalars,
    quick_scale=0.3, rtol=1e-3))


# ---------------------------------------------------------------------
# Fig. 13 — latch derating per testcase suite.
# ---------------------------------------------------------------------

_FIG13_VT = (10, 50, 90)


def fig13_derating(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..reliability import SERMiner
    from ..workloads import (derating_suites, merge_smt,
                             specint_proxies)
    suites = {}
    for trace in derating_suites(smt_levels=(1, 2, 4),
                                 instructions=_n(1500, scale, 500)):
        suites[trace.name] = [trace]
    spec = specint_proxies(instructions=_n(2500, scale, 800),
                           names=["xz", "x264", "leela"])
    for smt, label in ((1, "st_spec"), (2, "smt2_spec"),
                       (4, "smt4_spec")):
        if smt == 1:
            suites[label] = spec
        else:
            suites[label] = [merge_smt([t] * smt,
                                       name=f"{t.name}x{smt}")
                             for t in spec]
    return SERMiner(power10_config(), engine=engine).per_suite(
        suites, vt_values=_FIG13_VT)


def _fig13_scalars(results) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for r in results:
        out[f"{r.workload_set}.static"] = r.static_derating_pct
        for vt in _FIG13_VT:
            out[f"{r.workload_set}.vt{vt}"] = \
                r.runtime_derating_pct[vt]
    return out


_register(ScenarioSpec(
    name="fig13", title="Fig. 13: latch derating per suite",
    fn=fig13_derating, scalars=_fig13_scalars, quick_scale=0.3))


# ---------------------------------------------------------------------
# Fig. 14 — POWER9 vs POWER10 derating across the VT sweep.
# ---------------------------------------------------------------------

_FIG14_VT = tuple(range(10, 100, 20))


def fig14_generation_derating(scale: float = 1.0, engine=None):
    from ..core import power9_config, power10_config
    from ..reliability import compare_generations
    from ..workloads import derating_suites, specint_proxies
    suites = derating_suites(smt_levels=(1, 2, 4),
                             instructions=_n(1500, scale, 500))
    suites += specint_proxies(instructions=_n(2500, scale, 800),
                              names=["xz", "x264", "leela"])
    return compare_generations(power9_config(), power10_config(),
                               suites, vt_values=_FIG14_VT,
                               engine=engine)


def _fig14_scalars(results) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for gen, r in results.items():
        out[f"{gen}.static"] = r.static_derating_pct
        for vt in _FIG14_VT:
            out[f"{gen}.vt{vt}"] = r.runtime_derating_pct[vt]
    return out


_register(ScenarioSpec(
    name="fig14", title="Fig. 14: P9 vs P10 derating",
    fn=fig14_generation_derating, scalars=_fig14_scalars,
    quick_scale=0.35))


# ---------------------------------------------------------------------
# Fig. 15 — the hardware power proxy (NNLS-based design space).
# ---------------------------------------------------------------------

_FIG15_GRANULARITIES = (10, 25, 50, 100, 400, 1600)


def fig15_power_proxy(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..power import PowerProxyDesigner
    from ..workloads import specint_proxies
    designer = PowerProxyDesigner(power10_config())
    traces = specint_proxies(instructions=_n(6000, scale, 1200))
    feats, active, total = designer.characterize(traces, engine=engine)
    space = designer.design_space(feats, active, total,
                                  counter_budgets=(2, 4, 8, 16, 32))
    design = designer.select(feats, active, total, num_counters=16)
    gran = designer.granularity_error(design, traces[0].repeated(3),
                                      _FIG15_GRANULARITIES,
                                      engine=engine)
    return space, design, gran


def _fig15_scalars(rich) -> Dict[str, float]:
    space, design, gran = rich
    best: Dict[int, float] = {}
    best_total: Dict[int, float] = {}
    for point in space:
        cur = best.get(point.num_counters)
        if cur is None or point.active_error_pct < cur:
            best[point.num_counters] = point.active_error_pct
            best_total[point.num_counters] = point.total_error_pct
    out: Dict[str, float] = {}
    for n in sorted(best):
        out[f"best_active_err[{n}]"] = best[n]
        out[f"best_total_err[{n}]"] = best_total[n]
    out["selected_counters"] = float(design.num_counters)
    for g in _FIG15_GRANULARITIES:
        out[f"gran_err[{g}]"] = gran[g]
    return out


_register(ScenarioSpec(
    name="fig15", title="Fig. 15: hardware power proxy",
    fn=fig15_power_proxy, scalars=_fig15_scalars,
    quick_scale=0.2, rtol=1e-3))


# ---------------------------------------------------------------------
# Table I — chip features and efficiency projections.
# ---------------------------------------------------------------------

def table1_efficiency(scale: float = 1.0, engine=None):
    from ..core import (POWER9_SOCKET, POWER10_SOCKET, power9_config,
                        power10_config, project_socket,
                        weighted_comparison)
    from ..power import EinspowerModel
    from ..workloads import specint_proxies
    engine = engine if engine is not None else Engine()
    proxies = specint_proxies(instructions=_n(8000, scale, 1200))
    p9, p10 = power9_config(), power10_config()
    fingerprints = [(cfg, fingerprint_config(cfg)) for cfg in (p9, p10)]
    tasks = [sim_task(cfg, t, warmup_fraction=0.3, config_fingerprint=fp)
             for t in proxies for cfg, fp in fingerprints]
    results = run_sim_plan(engine, tasks)
    rows = []
    for i, trace in enumerate(proxies):
        r9, r10 = results[2 * i], results[2 * i + 1]
        w9 = EinspowerModel(p9).report(r9.activity).total_w
        w10 = EinspowerModel(p10).report(r10.activity).total_w
        rows.append((trace.name, trace.weight, r9.ipc, w9, r10.ipc, w10))
    aggregate = weighted_comparison(rows)["aggregate"]
    total = sum(r[1] for r in rows)

    def wavg(idx):
        return sum(r[1] * r[idx] for r in rows) / total

    stats = {
        "perf_ratio": aggregate["perf_ratio"],
        "power_ratio": aggregate["power_ratio"],
        "p9_ipc": wavg(2), "p9_w": wavg(3),
        "p10_ipc": wavg(4), "p10_w": wavg(5),
        "core_eff": aggregate["perf_per_watt_ratio"],
    }
    p9_socket = project_socket(POWER9_SOCKET, stats["p9_ipc"],
                               stats["p9_w"])
    p10_socket = project_socket(POWER10_SOCKET, stats["p10_ipc"],
                                stats["p10_w"])
    stats["socket_eff"] = p10_socket.efficiency / p9_socket.efficiency
    return stats


def _table1_scalars(stats) -> Dict[str, float]:
    return dict(stats)


_register(ScenarioSpec(
    name="table1", title="Table I: efficiency projections",
    fn=table1_efficiency, scalars=_table1_scalars, quick_scale=0.15))


# ---------------------------------------------------------------------
# Ablations — one mechanism off at a time.
# ---------------------------------------------------------------------

def ablations(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..power import EinspowerModel
    from ..workloads import specint_proxies
    engine = engine if engine is not None else Engine()
    traces = specint_proxies(instructions=_n(5000, scale, 1200),
                             names=["xz", "leela", "x264",
                                    "exchange2"])
    base = power10_config()
    variants = {"POWER10 (full)": base}
    variants["no EA-tagged L1"] = dataclasses.replace(
        base, ea_tagged_l1=False)
    variants["no fusion"] = dataclasses.replace(
        base, front_end=dataclasses.replace(
            base.front_end, fusion_enabled=False))
    variants["no store merge"] = dataclasses.replace(
        base, lsu=dataclasses.replace(
            base.lsu, store_merge_enabled=False))
    variants["gate-after clocks"] = dataclasses.replace(
        base, power=dataclasses.replace(
            base.power, gating_floor=0.52))
    keys, tasks = [], []
    for name, config in variants.items():
        fingerprint = fingerprint_config(config)
        for trace in traces:
            keys.append((name, config))
            tasks.append(sim_task(config, trace, warmup_fraction=0.3,
                                  config_fingerprint=fingerprint))
    sims = run_sim_plan(engine, tasks)
    per_variant: Dict[str, List] = {}
    for (name, config), result in zip(keys, sims):
        per_variant.setdefault(name, []).append((config, result))
    results = {}
    for name, entries in per_variant.items():
        model = EinspowerModel(entries[0][0])
        ipc_sum = sum(r.ipc for _c, r in entries)
        power_sum = sum(model.report(r.activity).total_w
                        for _c, r in entries)
        results[name] = (ipc_sum / len(entries),
                         power_sum / len(entries))
    # MMA idle gating (power-model flag, not a config change): reuse
    # the base run of the first trace — same simulate args, same result
    model = EinspowerModel(base)
    run = per_variant["POWER10 (full)"][0][1]
    results["MMA gated (idle)"] = (
        run.ipc, model.report(run.activity, mma_powered=False).total_w)
    results["MMA powered (idle)"] = (
        run.ipc, model.report(run.activity, mma_powered=True).total_w)
    return results


def _ablations_scalars(results) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, (ipc, watts) in results.items():
        out[f"{name}.ipc"] = ipc
        out[f"{name}.power_w"] = watts
    return out


_register(ScenarioSpec(
    name="ablations", title="Ablations: per-mechanism impact",
    fn=ablations, scalars=_ablations_scalars, quick_scale=0.25))


# ---------------------------------------------------------------------
# Section III-C — APEX speedup over detailed power integration.
# ---------------------------------------------------------------------

def apex_speedup(scale: float = 1.0, engine=None):
    from ..core import power10_config
    from ..power import (apex_power_from_activity,
                         detailed_reference_power)
    from ..workloads import specint_suite
    engine = engine if engine is not None else Engine()
    config = power10_config()
    trace = specint_suite(instructions=_n(30000, scale, 4000),
                          footprint_scale=8, names=["xz"])[0]
    activity = run_sim_plan(
        engine, [sim_task(config, trace, warmup_fraction=0.2)])[0].activity

    with _obs_span("figs.apex_detailed", "exec") as sp_slow:
        slow = detailed_reference_power(config, activity)
    # amortize timer resolution over repetitions of the fast path
    reps = 200
    with _obs_span("figs.apex_fast", "exec", reps=reps) as sp_fast:
        for _ in range(reps):
            fast = apex_power_from_activity(config, activity)
    return (slow, fast, sp_slow.duration_s,
            sp_fast.duration_s / reps)


def _apex_scalars(rich) -> Dict[str, float]:
    slow, fast, _t_slow, _t_fast = rich
    # wall times are machine-dependent; only the model outputs are
    # golden-comparable
    return {"detailed_power_w": slow, "apex_power_w": fast,
            "delta_pct": abs(slow - fast) / slow * 100.0}


_register(ScenarioSpec(
    name="apex_speedup", title="III-C: APEX speedup",
    fn=apex_speedup, scalars=_apex_scalars, quick_scale=0.25))


# ---------------------------------------------------------------------
# Section III-A — Chopstix proxy-generation coverage.
# ---------------------------------------------------------------------

def proxy_coverage(scale: float = 1.0, engine=None):
    from ..core import power9_config
    from ..tracegen import (build_tracepoint, pick_simpoints,
                            validate_against_reference)
    from ..workloads import (SPECINT_NAMES, specint_proxies,
                             specint_suite, suite_coverage)
    per_bench = {}
    for name in SPECINT_NAMES:
        proxies = specint_proxies(instructions=_n(6000, scale, 1500),
                                  names=[name])
        per_bench[name] = (len(proxies), suite_coverage(proxies))
    config = power9_config(cache_scale=8)
    app = specint_suite(instructions=_n(16000, scale, 4000),
                        footprint_scale=8, names=["leela"])[0]
    epoch = _n(1600, scale, 400)
    tp = build_tracepoint(config, app, epoch_instructions=epoch,
                          epochs_to_select=4, engine=engine)
    tp_stats = validate_against_reference(config, app, tp.trace,
                                          engine=engine)
    sp = pick_simpoints(app, interval=epoch, max_clusters=4)
    best_sp = max(sp.simpoints, key=lambda s: s.weight)
    sp_stats = validate_against_reference(config, app, best_sp.trace,
                                          engine=engine)
    return per_bench, tp_stats, sp_stats


def _proxy_scalars(rich) -> Dict[str, float]:
    per_bench, tp_stats, sp_stats = rich
    out: Dict[str, float] = {}
    for name, (count, cov) in per_bench.items():
        out[f"{name}.proxies"] = float(count)
        out[f"{name}.coverage"] = cov
    out["tracepoint_cpi_error_pct"] = tp_stats["cpi_error_pct"]
    out["simpoint_cpi_error_pct"] = sp_stats["cpi_error_pct"]
    return out


_register(ScenarioSpec(
    name="proxy_coverage", title="III-A: Chopstix proxy coverage",
    fn=proxy_coverage, scalars=_proxy_scalars, quick_scale=0.3))
