"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``compare``  — POWER9 vs POWER10 on the SPECint proxy suite (the
  Table I headline numbers);
* ``gemm``     — the Fig. 5 DGEMM kernel comparison;
* ``ai``       — the Fig. 6 end-to-end AI projections;
* ``depth``    — the Fig. 2 pipeline-depth study;
* ``derating`` — the Fig. 13/14 SERMiner analysis;
* ``wof``      — power-proxy design + WOF boost decisions;
* ``yield``    — PFLY/CLY offering sweep;
* ``trace``    — one fully-telemetered run (spans + interval samples);
* ``inject``   — one seeded fault-injection run with the full
  injection log (see :mod:`repro.resilience`);
* ``campaign`` — a resumable N-run fault-injection campaign with the
  AVF/SERMiner cross-check report;
* ``lint``     — static analysis proving the event/energy/determinism
  contracts (rules R001–R006, see :mod:`repro.lint`);
* ``serve``    — the long-lived JSON-over-HTTP simulation service
  (micro-batching, admission control, power-proxy fast path, request
  tracing, JSON-lines access log, Prometheus ``/metrics``);
* ``loadgen``  — deterministic open-loop load generation against a
  server (or ``--self-serve``); writes ``BENCH_serve.json``;
* ``perfwatch`` — diff ``BENCH_*.json`` artifacts against the
  committed performance baseline; exit 1 on regression;
* ``chaos``    — the seeded service-level chaos campaign: replay one
  loadgen schedule against an in-process server under each service
  fault class (worker kill/stall, cache corruption/permission loss,
  slow batches, connection drops) and write the availability report
  (``BENCH_chaos.json``); exit 1 on any silent data corruption or
  hang.

Every command accepts ``--telemetry-dir DIR``: the run then executes
inside a :class:`repro.obs.export.TelemetrySession` and leaves
``manifest.json``, ``metrics.json``, ``trace.json`` (Chrome/Perfetto
trace) and ``samples.csv`` (cycle-interval telemetry) in DIR.
``compare`` and ``gemm`` also take ``--json`` for machine-readable
results on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _session_sampler(args: argparse.Namespace, config, trace):
    """The session's shared sampler (with the run registered in the
    manifest), or None when telemetry is off."""
    session = getattr(args, "session", None)
    if session is None:
        return None
    session.record_run(config, getattr(trace, "name", "?"))
    return session.sampler


def _compare_results(args: argparse.Namespace, p9, p10, proxies):
    """Per-proxy (r9, r10) SimResults for ``compare``.

    With telemetry on, runs serially in-process so the session sampler
    observes every run.  Otherwise goes through the execution engine:
    ``--workers`` fans out across a process pool and ``--cache-dir``
    replays content-addressed results (bit-identical either way).
    """
    if getattr(args, "session", None) is not None:
        from .core.pipeline import simulate
        out = []
        for trace in proxies:
            r9 = simulate(p9, trace, warmup_fraction=0.3,
                          sampler=_session_sampler(args, p9, trace))
            r10 = simulate(p10, trace, warmup_fraction=0.3,
                           sampler=_session_sampler(args, p10, trace))
            out.append((r9, r10))
        return out
    from .exec.executor import Engine, run_sim_plan, sim_task
    tasks = [sim_task(cfg, trace, warmup_fraction=0.3)
             for trace in proxies for cfg in (p9, p10)]
    with Engine(workers=args.workers, cache=args.cache_dir) as engine:
        results = run_sim_plan(engine, tasks)
    return [(results[2 * i], results[2 * i + 1])
            for i in range(len(proxies))]


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .core import power9_config, power10_config, weighted_comparison
    from .power import EinspowerModel
    from .workloads import specint_proxies

    proxies = specint_proxies(instructions=args.instructions)
    p9, p10 = power9_config(), power10_config()
    comparison = weighted_comparison(
        (trace.name, trace.weight,
         r9.ipc, EinspowerModel(p9).report(r9.activity).total_w,
         r10.ipc, EinspowerModel(p10).report(r10.activity).total_w)
        for trace, (r9, r10) in zip(
            proxies, _compare_results(args, p9, p10, proxies)))
    agg = comparison["aggregate"]
    if args.json:
        print(json.dumps({
            "command": "compare",
            "instructions": args.instructions,
            "proxies": comparison["workloads"],
            "aggregate": agg,
            "paper": {"perf_ratio": 1.3, "power_ratio": 0.5,
                      "perf_per_watt_ratio": 2.6},
        }, indent=2))
        return 0
    if args.verbose:
        print(format_table(
            "per-proxy results",
            ["proxy", "P9 IPC", "P10 IPC", "perf", "power"],
            [[row["workload"], f"{row['p9_ipc']:.2f}",
              f"{row['p10_ipc']:.2f}", f"{row['perf_ratio']:.2f}x",
              f"{row['power_ratio']:.2f}x"]
             for row in comparison["workloads"]]))
    print(f"POWER10 vs POWER9 (weighted over {len(proxies)} proxies): "
          f"{agg['perf_ratio']:.2f}x perf @ {agg['power_ratio']:.2f}x "
          f"power -> {agg['perf_per_watt_ratio']:.2f}x perf/watt "
          f"(paper: 1.3x @ 0.5x -> 2.6x)")
    return 0


def _cmd_gemm(args: argparse.Namespace) -> int:
    from .core import power9_config, power10_config
    from .core.pipeline import simulate
    from .power import EinspowerModel
    from .workloads import dgemm_mma_trace, dgemm_vsu_trace

    p9, p10 = power9_config(), power10_config()
    runs = [("POWER9 VSU", p9, dgemm_vsu_trace(args.k)),
            ("POWER10 VSU", p10, dgemm_vsu_trace(args.k)),
            ("POWER10 MMA", p10, dgemm_mma_trace(args.k))]
    base = None
    kernels = []
    for name, config, trace in runs:
        result = simulate(config, trace, warmup_fraction=0.25,
                          sampler=_session_sampler(args, config, trace))
        watts = EinspowerModel(config).report(result.activity).total_w
        if base is None:
            base = (result.flops_per_cycle, watts)
        kernels.append({
            "kernel": name,
            "flops_per_cycle": result.flops_per_cycle,
            "flops_ratio": result.flops_per_cycle / base[0],
            "power_w": watts,
            "power_ratio": watts / base[1]})
        if not args.json:
            print(f"{name:12s} {result.flops_per_cycle:6.2f} FLOPs/cyc "
                  f"({result.flops_per_cycle / base[0]:.2f}x)  "
                  f"{watts:.2f} W ({watts / base[1] - 1:+.1%})")
    if args.json:
        print(json.dumps({"command": "gemm", "k": args.k,
                          "kernels": kernels}, indent=2))
    return 0


def _cmd_ai(args: argparse.Namespace) -> int:
    from .workloads.ai import (bert_large_profile, figure6_rows,
                               resnet50_profile, socket_ai_speedup)
    for profile in (resnet50_profile(), bert_large_profile()):
        print(f"{profile.name}:")
        for label, row in figure6_rows(profile).items():
            print(f"  {label:18s} speedup {row['speedup']:.2f}x")
        print(f"  socket FP32 {socket_ai_speedup(profile):.1f}x, "
              f"INT8 {socket_ai_speedup(profile, dtype='int8'):.1f}x")
    return 0


def _cmd_depth(args: argparse.Namespace) -> int:
    from .power import depth_study, optimal_fo4
    curves = depth_study()
    for budget, points in sorted(curves.items()):
        print(f"power budget {budget:.2f}x -> optimal "
              f"{optimal_fo4(points)} FO4")
    return 0


def _cmd_derating(args: argparse.Namespace) -> int:
    from .core import power9_config, power10_config
    from .reliability import compare_generations
    from .workloads import derating_suites, specint_proxies
    suites = derating_suites(smt_levels=(1, 2), instructions=1500)
    suites += specint_proxies(instructions=2500,
                              names=["xz", "x264", "leela"])
    results = compare_generations(power9_config(), power10_config(),
                                  suites, vt_values=(10, 50, 90))
    for name, r in results.items():
        runtime = {vt: round(v, 1)
                   for vt, v in r.runtime_derating_pct.items()}
        print(f"{name}: static {r.static_derating_pct:.1f}%  "
              f"runtime {runtime}")
    return 0


def _cmd_wof(args: argparse.Namespace) -> int:
    from .core import power10_config, simulate_trace
    from .pm import WofDesignPoint, WofGovernor
    from .workloads import max_power_stressmark, specint_proxies
    config = power10_config()
    stressmark = max_power_stressmark(3000)
    stress = simulate_trace(
        config, stressmark,
        sampler=_session_sampler(args, config, stressmark))
    governor = WofGovernor(config, WofDesignPoint(
        tdp_core_w=stress.power_w, rdp_core_w=stress.power_w * 1.1))
    for trace in specint_proxies(instructions=4000,
                                 names=["xz", "exchange2"]):
        run = simulate_trace(
            config, trace,
            sampler=_session_sampler(args, config, trace))
        decision = governor.decide(trace.name, run.power_w,
                                   mma_idle=True)
        print(f"{trace.name:16s} {run.power_w:.2f} W -> "
              f"{decision.boost_ghz:.2f} GHz "
              f"(+{(decision.boost_ratio - 1) * 100:.0f}%)")
    return 0


def _cmd_yield(args: argparse.Namespace) -> int:
    from .pm import (Offering, ProcessVariation, YieldAnalyzer,
                     sample_dies)
    dies = sample_dies(ProcessVariation(), args.dies)
    analyzer = YieldAnalyzer(core_dynamic_w=2.0, core_leakage_w=0.5)
    for freq in (3.6, 3.9, 4.2, 4.5):
        offering = Offering(f"12c@{freq}", frequency_ghz=freq,
                            good_cores=12,
                            socket_power_budget_w=args.budget)
        result = analyzer.evaluate(offering, dies)
        print(f"{offering.name:10s} yield "
              f"{result.yield_fraction * 100:5.1f}%  "
              f"losses {({k: round(v, 3) for k, v in result.limited_by.items()})}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core import power9_config, power10_config, simulate_trace
    from .workloads import resolve_workload

    config = power9_config() if args.config == "power9" \
        else power10_config()
    trace = resolve_workload(args.workload, args.instructions)
    run = simulate_trace(config, trace,
                         sampler=_session_sampler(args, config, trace))
    print(f"{trace.name} on {config.name}: IPC {run.ipc:.2f}, "
          f"{run.power_w:.2f} W, {run.result.cycles} cycles")
    session = getattr(args, "session", None)
    if session is not None:
        print(f"{len(session.sampler.samples)} interval samples "
              f"({session.sampler.interval_cycles}-cycle target)")
    return 0


def _campaign_config(args: argparse.Namespace, runs: int):
    from .resilience import CampaignConfig
    return CampaignConfig(
        seed=args.seed, runs=runs, workload=args.workload,
        instructions=args.instructions,
        faults_per_run=args.faults, generation=args.config,
        interval_cycles=args.interval,
        cycle_budget_factor=args.budget_factor)


def _cmd_inject(args: argparse.Namespace) -> int:
    from .resilience import CampaignRunner

    runner = CampaignRunner(_campaign_config(args, 1))
    record = runner.run_one(0)
    golden = runner.golden()
    if args.json:
        print(json.dumps({"command": "inject",
                          "golden_cycles": golden["cycles"],
                          "run": record.to_json()}, indent=2))
        return 0
    print(f"{args.workload} on {args.config}: golden "
          f"{golden['cycles']} cycles, injected run "
          f"{record.cycles if record.cycles >= 0 else 'fail-stopped'}"
          f" -> {record.outcome} ({record.detail})")
    for inj in record.injections:
        fault = inj["fault"]
        print(f"  {fault['kind']:10s} at={fault['at']:<6d} "
              f"{inj['effect']:20s} {inj['detail']}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .resilience import CampaignRunner, build_report

    runner = CampaignRunner(_campaign_config(args, args.runs),
                            checkpoint=args.checkpoint)
    result = runner.run(workers=args.workers, cache=args.cache_dir)
    report = build_report(result, runner.population,
                          runner.golden()["activity"], vt=args.vt)
    if args.report:
        from pathlib import Path
        Path(args.report).write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True))
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
        if args.report:
            print(f"report written to {args.report}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .resilience.chaos import (ChaosCampaignConfig,
                                   SERVICE_FAULT_KINDS,
                                   run_chaos_campaign,
                                   write_chaos_report)

    classes = tuple(SERVICE_FAULT_KINDS)
    if args.classes:
        classes = tuple(c.strip() for c in args.classes.split(",")
                        if c.strip())
    if args.quick:
        config = replace(ChaosCampaignConfig.quick(seed=args.seed),
                         fault_classes=classes)
    else:
        base = ChaosCampaignConfig()
        config = ChaosCampaignConfig(
            load=replace(base.load, seed=args.seed,
                         requests=args.requests, rate_per_s=args.rate,
                         timeout_s=args.timeout,
                         deadline_ms=args.deadline_ms),
            serve=replace(base.serve, workers=args.workers,
                          default_deadline_ms=args.deadline_ms),
            fault_classes=classes,
            faults_per_class=args.faults_per_class)
    report = run_chaos_campaign(config)
    if args.out:
        write_chaos_report(report, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    for phase in report["phases"]:
        counts = phase["counts"]
        print(f"{phase['fault_class']:14s} good {counts['good']:3d}  "
              f"degraded {counts['degraded']:3d}  "
              f"rejected {counts['rejected']:3d}  "
              f"failed {counts['failed']:3d}  "
              f"availability {phase['availability']:.2f}  "
              f"sdc {len(phase['sdc'])}  hangs {phase['hangs']}  "
              f"drain {'clean' if phase['clean_drain'] else 'FORCED'}")
    verdict = "ok" if report["ok"] else "FAIL"
    print(f"chaos campaign seed {report['seed']}: "
          f"{len(report['phases'])} phases, "
          f"sdc {report['sdc_total']}, hangs {report['hangs_total']} "
          f"-> {verdict}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


def _severity_arg(text: str):
    """argparse adapter: taxonomy error -> usage error (exit 2)."""
    from .errors import LintUsageError
    from .lint import Severity
    try:
        return Severity.parse(text)
    except LintUsageError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .errors import LintError
    from .lint import (Baseline, DEFAULT_BASELINE_NAME, LintEngine,
                       apply_fixes, render_json, render_text)

    engine = LintEngine()
    threshold = args.min_severity        # parsed by _severity_arg
    source_root = engine.package_root.parent      # parent of repro/

    def run_lint():
        paths = [Path(p) for p in args.paths] if args.paths else None
        return engine.run(paths)

    result = run_lint()

    # --- baseline resolution -------------------------------------------
    baseline = None
    baseline_path = Path(args.baseline) if args.baseline else None
    if baseline_path is None and not args.no_baseline:
        for candidate in (Path.cwd() / DEFAULT_BASELINE_NAME,
                          source_root.parent / DEFAULT_BASELINE_NAME):
            if candidate.is_file():
                baseline_path = candidate
                break
    if args.write_baseline:
        target = baseline_path or Path.cwd() / DEFAULT_BASELINE_NAME
        Baseline.from_findings(
            result.findings,
            justification="TODO: justify or fix").save(target)
        print(f"wrote {len(result.findings)} finding(s) to {target}")
        return 0
    if baseline_path is not None and not args.no_baseline:
        if not baseline_path.is_file():
            raise LintError(f"baseline not found: {baseline_path}")
        baseline = Baseline.load(baseline_path)

    # --- safe autofixes ------------------------------------------------
    fix_rules = args.fix_rule or None    # None = DEFAULT_FIX_RULES
    if args.fix or fix_rules:
        fixed = apply_fixes(result.findings, source_root,
                            rules=fix_rules)
        if fixed:
            print(f"fixed {len(fixed)} finding(s) in place",
                  file=sys.stderr)
            result = run_lint()      # re-lint the rewritten tree

    if baseline is not None:
        result.findings, result.baselined = \
            baseline.split(result.findings)

    if args.format == "json":
        print(render_json(result, threshold=threshold))
    else:
        print(render_text(result, verbose=args.verbose))
    return 1 if result.count_at_least(threshold) else 0


def _sanitized_call(fn) -> int:
    """Run ``fn`` under a fresh active sanitizer; exit 1 on reports."""
    from .lint.sanitizer import sanitized

    with sanitized() as sanitizer:
        rc = fn()
    summary = sanitizer.summary()
    reports = summary["reports"]
    print(f"sanitizer: {len(reports)} report(s), "
          f"{summary['suppressed']} suppressed", file=sys.stderr)
    for report in reports[:20]:
        print(f"  [{report['kind']}] {report['detail']}",
              file=sys.stderr)
    return rc if rc != 0 else (1 if reports else 0)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .exec.benchrun import run_bench
    from .exec.figs import SCENARIOS
    from .lint.sanitizer import sanitize_enabled

    if args.list:
        for name, spec in SCENARIOS.items():
            print(f"{name:16s} {spec.title}")
        return 0

    def bench() -> int:
        summary = run_bench(
            args.scenarios or None, scale=args.scale, quick=args.quick,
            workers=args.workers, cache_dir=args.cache_dir,
            out_dir=args.out, sweep=not args.no_sweep)
        for name, info in summary["scenarios"].items():
            print(f"{name:16s} {info['wall_s']:8.2f}s  "
                  f"-> {info['artifact']}")
        sweep = summary.get("sweep")
        if sweep is not None:
            print(f"sweep ({sweep['n_sims']} sims, {sweep['workers']} "
                  f"workers): serial {sweep['serial_s']:.2f}s, "
                  f"parallel {sweep['parallel_s']:.2f}s "
                  f"({sweep['parallel_speedup']:.2f}x), warm cache "
                  f"{sweep['warm_cache_s']:.2f}s "
                  f"({sweep['warm_speedup']:.2f}x); bit-identical: "
                  f"{sweep['bit_identical']}")
        return 0

    if sanitize_enabled(args.sanitize):
        return _sanitized_call(bench)
    return bench()


def _serve_config(args: argparse.Namespace, *, port: int):
    """The one ``ServeConfig`` builder: every serve flag, for every
    command that starts a server or a cluster of them."""
    from .serve import ServeConfig
    access_log = args.access_log
    tdir = getattr(args, "telemetry_dir", None)
    if access_log is None and tdir \
            and not getattr(args, "cluster", False):
        # telemetry on: the access log is a session artifact by
        # default (of one server: a cluster's workers keep none)
        from pathlib import Path
        access_log = str(Path(tdir) / "access.jsonl")
    return ServeConfig(
        host=args.host, port=port,
        port_file=getattr(args, "port_file", None),
        workers=args.workers,
        cache_dir=args.cache_dir,
        max_inflight=args.max_inflight, rate_per_s=args.rate_limit,
        drain_timeout_s=args.drain_timeout,
        warm_fast_path=args.warm,
        access_log=access_log or None,
        slo_target_p99_ms=args.slo_p99_ms)


def _refuse_sanitize(args: argparse.Namespace) -> None:
    from .errors import ServeError
    from .lint.sanitizer import sanitize_enabled
    if sanitize_enabled(args.sanitize):
        raise ServeError(
            "--sanitize does not apply to a cluster (the sanitizer "
            "double-runs a single in-process server; use loadgen "
            "--self-serve --sanitize)")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .lint.sanitizer import sanitize_enabled
    from .serve import run_server

    config = _serve_config(args, port=args.port)
    if sanitize_enabled(getattr(args, "sanitize", False)):
        return _sanitized_call(lambda: run_server(config))
    return run_server(config)


def _cmd_cluster(args: argparse.Namespace) -> int:
    import threading
    from dataclasses import replace

    from .cluster import Cluster, ClusterConfig, RouterConfig
    from .serve import ServeConfig

    _refuse_sanitize(args)
    serve = _serve_config(args, port=0)
    # --host/--port place the router (the front door); workers stay
    # on loopback ephemeral ports and share the --cache-dir tier
    config = ClusterConfig(
        shards=args.shards, worker_mode=args.worker_mode,
        cache_dir=serve.cache_dir,
        serve=replace(serve, host=ServeConfig.host, cache_dir=None),
        router=RouterConfig(host=args.host, port=args.port),
        restart_dead=not args.no_restart)
    cluster = Cluster(config)
    cluster.start()
    print(f"cluster: {config.shards} {config.worker_mode} worker(s) "
          f"behind {cluster.url}", file=sys.stderr)
    print(f"cluster: shared cache tier at {cluster.cache_dir}",
          file=sys.stderr)
    try:
        threading.Event().wait()        # until SIGINT
    except KeyboardInterrupt:
        print("cluster: draining", file=sys.stderr)
    finally:
        clean = cluster.stop()
    print(f"cluster: stopped "
          f"({'clean' if clean else 'forced'})", file=sys.stderr)
    return 0 if clean else 1


def _cmd_loadgen_cluster(args: argparse.Namespace, load) -> int:
    from .cluster import (ClusterBenchConfig, ClusterConfig,
                          run_cluster_bench)
    from .serve import write_report

    report = run_cluster_bench(ClusterBenchConfig(
        load=load,
        cluster=ClusterConfig(shards=args.shards,
                              serve=_serve_config(args, port=0)),
        chaos=not args.no_kill_shard))
    out = args.out
    if out:
        write_report(report, out)
        print(f"report written to {out}", file=sys.stderr)
    lat = report["latency_s"]
    print(f"{report['requests']} requests @ "
          f"{report['offered_rate_per_s']:.0f}/s offered across "
          f"{report['shards']} shard(s) -> "
          f"{report['throughput_per_s']:.1f}/s served; "
          f"availability {report['availability']['rate']:.1%}")
    print(f"latency p50 {lat['p50'] * 1000:.1f} ms, "
          f"p95 {lat['p95'] * 1000:.1f} ms, "
          f"p99 {lat['p99'] * 1000:.1f} ms")
    for shard, entry in sorted(report["per_shard"].items()):
        print(f"  shard {shard}: {entry['count']} requests, "
              f"p99 {entry['latency_s']['p99'] * 1000:.1f} ms")
    cache = report.get("cache") or {}
    print(f"cache tier: hit rate {cache.get('hit_rate', 0.0):.1%} "
          f"({cache.get('hits', 0)} hits, {cache.get('misses', 0)} "
          f"misses, {cache.get('corrupt', 0)} corrupt); "
          f"failovers {report.get('failovers') or 0}")
    chaos = report.get("chaos")
    if chaos:
        print(f"worker_down phase: availability "
              f"{chaos['availability_rate']:.1%}, "
              f"sdc {len(chaos['sdc'])}, "
              f"faults fired {chaos['faults_fired']}, "
              f"healthy shards after {chaos['healthy_shards_after']}")
    verdict = "ok" if report["ok"] else "FAIL"
    print(f"cluster bench seed {report['seed']}: "
          f"sdc {report['sdc_total']} -> {verdict}")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if report["ok"] else 1


def _cmd_perfwatch(args: argparse.Namespace) -> int:
    from .exec.perfwatch import run_perfwatch
    return run_perfwatch(args.bench_dir, args.baseline,
                         tolerance=args.tolerance,
                         update_baseline=args.update_baseline)


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from dataclasses import replace
    from functools import partial

    from .cluster import ClusterBenchConfig
    from .errors import ServeError
    from .lint.sanitizer import double_run_serve, sanitize_enabled, \
        sanitized
    from .serve import (LoadgenConfig, ServeConfig, run_phase,
                        start_in_thread, write_report)

    if args.port is not None and (args.self_serve or args.cluster):
        raise ServeError(
            "--port names an external server; --self-serve and "
            "--cluster start their own on an ephemeral port")
    # --requests/--rate/--out default per mode, so explicit values
    # always win
    shape = ClusterBenchConfig.load if args.cluster else LoadgenConfig
    if args.requests is None:
        args.requests = shape.requests
    if args.rate is None:
        args.rate = shape.rate_per_s
    if args.out is None:
        args.out = ("BENCH_cluster.json" if args.cluster
                    else "BENCH_serve.json")
    lg_config = LoadgenConfig(
        seed=args.seed, requests=args.requests, rate_per_s=args.rate,
        host=args.host,
        port=LoadgenConfig.port if args.port is None else args.port,
        timeout_s=args.timeout,
        deadline_ms=args.deadline_ms, slo_p99_ms=args.slo_p99_ms)
    if args.cluster:
        _refuse_sanitize(args)
        return _cmd_loadgen_cluster(args, lg_config)
    serve = _serve_config(args, port=0)
    if not args.self_serve and (
            args.access_log
            or replace(serve, access_log=None) != ServeConfig(
                host=args.host, slo_target_p99_ms=args.slo_p99_ms)):
        raise ServeError(
            "server flags (--workers, --cache-dir, --max-inflight, "
            "--rate-limit, --drain-timeout, --warm, --access-log) "
            "configure a server this command starts: "
            "add --self-serve or --cluster")
    sanitizing = sanitize_enabled(getattr(args, "sanitize", False))
    sanitizer_rc = 0
    if sanitizing:
        if not args.self_serve:
            raise ServeError(
                "--sanitize requires --self-serve: the sanitizer "
                "double-runs an in-process server and diffs the "
                "responses")
        with sanitized() as sanitizer:
            reports, diff = double_run_serve(serve, lg_config,
                                             sanitizer)
        report = reports[0]
        summary = sanitizer.summary()
        summary["double_run"] = diff
        print(f"sanitizer: {len(summary['reports'])} report(s), "
              f"{diff['compared']} full-fidelity pairs bit-identical"
              f"-checked, {diff['excused']} excused, "
              f"{len(diff['divergences'])} divergence(s)",
              file=sys.stderr)
        for entry in summary["reports"][:20]:
            print(f"  [{entry['kind']}] {entry['detail']}",
                  file=sys.stderr)
        if args.sanitize_out:
            with open(args.sanitize_out, "w", encoding="utf-8") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"sanitizer report written to {args.sanitize_out}",
                  file=sys.stderr)
        sanitizer_rc = 1 if summary["reports"] else 0
    else:
        start = (partial(start_in_thread, serve)
                 if args.self_serve else None)
        phase = run_phase(lg_config, start)
        report = phase.report
        if phase.clean_drain is not None:
            print(f"self-serve: drained "
                  f"({'clean' if phase.clean_drain else 'forced'})",
                  file=sys.stderr)
    if args.out:
        write_report(report, args.out)
        print(f"report written to {args.out}", file=sys.stderr)
    lat = report["latency_s"]
    print(f"{report['requests']} requests @ "
          f"{report['offered_rate_per_s']:.0f}/s offered -> "
          f"{report['throughput_per_s']:.1f}/s served; "
          f"ok {report['ok']} (degraded {report['degraded']}), "
          f"errors {report['errors']}, malformed {report['malformed']}")
    print(f"latency p50 {lat['p50'] * 1000:.1f} ms, "
          f"p95 {lat['p95'] * 1000:.1f} ms, "
          f"p99 {lat['p99'] * 1000:.1f} ms")
    slo = report.get("slo") or {}
    if slo:
        verdict = "met" if slo.get("p99_ok") else "MISSED"
        print(f"slo: p99 target {slo['target_p99_ms']:.0f} ms "
              f"{verdict} (error rate {slo['error_rate']:.1%}, "
              f"degraded rate {slo['degraded_rate']:.1%})")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    return sanitizer_rc


def build_parser() -> argparse.ArgumentParser:
    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--telemetry-dir", default=None, metavar="DIR",
        help="capture telemetry (manifest, metrics, Chrome trace, "
             "interval samples) into DIR")
    telemetry.add_argument(
        "--sample-interval", type=int, default=5000, metavar="CYCLES",
        help="cycle-interval sampler granularity (default 5000)")

    # shared engine knobs: CLI flags win, env vars stay as fallbacks
    engine_opts = argparse.ArgumentParser(add_help=False)
    engine_opts.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width (default: $REPRO_WORKERS or 1)")
    engine_opts.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory (default: "
             "$REPRO_CACHE_DIR, else memory only)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="POWER10 energy-efficiency paper reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", parents=[telemetry, engine_opts],
                       help="P9 vs P10 on SPECint proxies")
    p.add_argument("--instructions", type=int, default=8000)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--json", action="store_true",
                   help="machine-readable results on stdout")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("gemm", parents=[telemetry],
                       help="Fig. 5 DGEMM kernels")
    p.add_argument("--k", type=int, default=1500,
                   help="k-loop iterations")
    p.add_argument("--json", action="store_true",
                   help="machine-readable results on stdout")
    p.set_defaults(func=_cmd_gemm)

    p = sub.add_parser("ai", parents=[telemetry],
                       help="Fig. 6 AI projections")
    p.set_defaults(func=_cmd_ai)

    p = sub.add_parser("depth", parents=[telemetry],
                       help="Fig. 2 pipeline depth study")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("derating", parents=[telemetry],
                       help="Fig. 13/14 SERMiner")
    p.set_defaults(func=_cmd_derating)

    p = sub.add_parser("wof", parents=[telemetry],
                       help="power proxy + WOF decisions")
    p.set_defaults(func=_cmd_wof)

    p = sub.add_parser("yield", parents=[telemetry],
                       help="PFLY/CLY offering sweep")
    p.add_argument("--dies", type=int, default=2000)
    p.add_argument("--budget", type=float, default=130.0)
    p.set_defaults(func=_cmd_yield)

    # 'trace' declares its own telemetry options (not the shared parent:
    # set_defaults on a parented option would mutate the shared action's
    # default and turn telemetry on for every other command too) so it
    # can default to capturing.
    p = sub.add_parser("trace", help="one fully-telemetered run")
    p.add_argument("--telemetry-dir", default="telemetry-out",
                   metavar="DIR",
                   help="output directory (default telemetry-out/)")
    p.add_argument("--sample-interval", type=int, default=5000,
                   metavar="CYCLES")
    p.add_argument("--workload", default="xz",
                   help="SPECint proxy name, or daxpy / dgemm-vsu / "
                        "dgemm-mma")
    p.add_argument("--config", choices=["power9", "power10"],
                   default="power10")
    p.add_argument("--instructions", type=int, default=8000)
    p.set_defaults(func=_cmd_trace)

    fault = argparse.ArgumentParser(add_help=False)
    fault.add_argument("--seed", type=int, default=0,
                       help="campaign seed (default 0)")
    fault.add_argument("--workload", default="xz",
                       help="SPECint proxy name, or daxpy / dgemm-vsu "
                            "/ dgemm-mma")
    fault.add_argument("--config", choices=["power9", "power10"],
                       default="power10")
    fault.add_argument("--instructions", type=int, default=2000)
    fault.add_argument("--faults", type=int, default=3, metavar="N",
                       help="faults drawn per run (default 3)")
    fault.add_argument("--interval", type=int, default=500,
                       metavar="CYCLES",
                       help="campaign sampler interval (default 500)")
    fault.add_argument("--budget-factor", type=float, default=8.0,
                       metavar="X",
                       help="hang watchdog: budget = X * golden cycles "
                            "(default 8.0)")
    fault.add_argument("--json", action="store_true",
                       help="machine-readable results on stdout")

    p = sub.add_parser("inject", parents=[telemetry, fault],
                       help="one seeded fault-injection run")
    p.set_defaults(func=_cmd_inject)

    p = sub.add_parser("campaign", parents=[telemetry, fault,
                                            engine_opts],
                       help="resumable N-run fault-injection campaign")
    p.add_argument("--runs", type=int, default=8)
    p.add_argument("--checkpoint", default=None, metavar="FILE",
                   help="JSON checkpoint written after every run; an "
                        "existing file resumes the campaign")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="write the AVF/SERMiner cross-check report "
                        "to FILE as JSON")
    p.add_argument("--vt", type=int, default=50,
                   help="SERMiner vulnerability threshold %% for the "
                        "cross-check (default 50)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "bench",
        help="run the paper-figure benchmarks through the parallel "
             "cached execution engine; writes BENCH_*.json")
    p.add_argument("scenarios", nargs="*", metavar="SCENARIO",
                   help="scenario names (default: all; --list shows "
                        "them)")
    p.add_argument("--list", action="store_true",
                   help="list scenario names and exit")
    p.add_argument("--quick", action="store_true",
                   help="run every scenario at its reduced "
                        "golden-harness scale")
    p.add_argument("--scale", type=float, default=1.0,
                   help="instruction-budget scale factor (default 1.0)")
    p.add_argument("--workers", type=int, default=None,
                   help="process-pool width (default: $REPRO_WORKERS "
                        "or 1)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache directory "
                        "(default: $REPRO_CACHE_DIR, else memory only)")
    p.add_argument("--out", default=".", metavar="DIR",
                   help="directory for BENCH_*.json artifacts "
                        "(default .)")
    p.add_argument("--no-sweep", action="store_true",
                   help="skip the serial/parallel/cached timing sweep")
    p.add_argument("--sanitize", action="store_true",
                   help="run under the concurrency sanitizer "
                        "(also REPRO_SANITIZE=1); exit 1 on any report")
    p.set_defaults(func=_cmd_bench)

    serve_opts = argparse.ArgumentParser(add_help=False,
                                         parents=[engine_opts])
    serve_opts.add_argument("--host", default="127.0.0.1")
    serve_opts.add_argument("--max-inflight", type=int, default=32,
                            help="admitted-request bound (default 32)")
    serve_opts.add_argument("--rate-limit", type=float, default=None,
                            metavar="REQ_PER_S",
                            help="token-bucket rate limit "
                                 "(default: unlimited)")
    serve_opts.add_argument("--drain-timeout", type=float, default=5.0,
                            metavar="SECONDS",
                            help="graceful-drain budget (default 5)")
    serve_opts.add_argument("--warm", action="store_true",
                            help="fit the power-proxy fast path before "
                                 "accepting traffic")
    serve_opts.add_argument("--access-log", default=None,
                            metavar="FILE",
                            help="JSON-lines access log (default: "
                                 "<telemetry-dir>/access.jsonl when "
                                 "telemetry is on, else off; '' "
                                 "disables)")
    serve_opts.add_argument("--slo-p99-ms", type=float, default=2000.0,
                            metavar="MS",
                            help="p99 latency SLO target "
                                 "(default 2000 ms)")
    serve_opts.add_argument("--sanitize", action="store_true",
                            help="run under the runtime concurrency "
                                 "sanitizer (also REPRO_SANITIZE=1); "
                                 "exit 1 on any report")

    p = sub.add_parser(
        "serve", parents=[telemetry, serve_opts],
        help="long-lived JSON-over-HTTP simulation service")
    p.add_argument("--port", type=int, default=8419,
                   help="listen port; 0 = ephemeral (default 8419)")
    p.add_argument("--port-file", default=None, metavar="FILE",
                   help="write the bound port to FILE once listening "
                        "(how the cluster supervisor learns a child "
                        "worker's ephemeral port)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "cluster", parents=[serve_opts],
        help="sharded multi-worker serving cluster behind one "
             "failover router with a shared result-cache tier")
    p.add_argument("--port", type=int, default=8420,
                   help="router port; 0 = ephemeral (default 8420)")
    p.add_argument("--shards", type=int, default=2,
                   help="serve-worker count (default 2)")
    p.add_argument("--worker-mode", choices=("thread", "process"),
                   default="process",
                   help="host workers as child processes (default) "
                        "or in-process threads")
    p.add_argument("--no-restart", action="store_true",
                   help="do not revive dead workers")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser(
        "loadgen", parents=[telemetry, serve_opts],
        help="deterministic open-loop load generator; writes "
             "BENCH_serve.json")
    p.add_argument("--port", type=int, default=None,
                   help="external server port (default 8419; refused "
                        "with --self-serve and --cluster, which bind "
                        "their own)")
    p.add_argument("--self-serve", action="store_true",
                   help="start an in-process server on an ephemeral "
                        "port for the duration of the run")
    p.add_argument("--seed", type=int, default=0,
                   help="schedule seed (default 0)")
    p.add_argument("--requests", type=int, default=None,
                   help="scheduled requests (default 50; 240 with "
                        "--cluster)")
    p.add_argument("--rate", type=float, default=None,
                   metavar="REQ_PER_S",
                   help="offered open-loop rate (default 25/s; 250/s "
                        "with --cluster)")
    p.add_argument("--deadline-ms", type=int, default=None,
                   help="per-request deadline forwarded to the server")
    p.add_argument("--timeout", type=float, default=60.0,
                   metavar="SECONDS",
                   help="client socket timeout (default 60)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="report artifact (default BENCH_serve.json; "
                        "BENCH_cluster.json with --cluster; '' "
                        "disables)")
    p.add_argument("--json", action="store_true",
                   help="also print the full report to stdout")
    p.add_argument("--sanitize-out", default="SANITIZE_serve.json",
                   metavar="FILE",
                   help="sanitizer report artifact for --sanitize "
                        "runs (default SANITIZE_serve.json; '' "
                        "disables)")
    p.add_argument("--cluster", action="store_true",
                   help="drive a self-managed sharded cluster instead "
                        "of a single server and write "
                        "BENCH_cluster.json")
    p.add_argument("--shards", type=int, default=2,
                   help="cluster worker count for --cluster "
                        "(default 2)")
    p.add_argument("--no-kill-shard", action="store_true",
                   help="skip the worker_down chaos phase of "
                        "--cluster")
    p.set_defaults(func=_cmd_loadgen)

    p = sub.add_parser(
        "perfwatch",
        help="diff BENCH_*.json artifacts against the committed "
             "performance baseline; exit 1 on regression")
    p.add_argument("--bench-dir", default=".", metavar="DIR",
                   help="directory holding BENCH_*.json (default .)")
    p.add_argument("--baseline",
                   default="benchmarks/perf-baseline.json",
                   metavar="FILE",
                   help="baseline file (default "
                        "benchmarks/perf-baseline.json)")
    p.add_argument("--tolerance", type=float, default=None,
                   metavar="FRAC",
                   help="override every tolerance with this "
                        "fractional slowdown budget (e.g. 0.25)")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from the current "
                        "artifacts instead of comparing")
    p.set_defaults(func=_cmd_perfwatch)

    p = sub.add_parser(
        "chaos",
        help="seeded service-level chaos campaign; writes "
             "BENCH_chaos.json, exit 1 on any SDC or hang")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (default 0)")
    p.add_argument("--requests", type=int, default=24,
                   help="requests per phase (default 24)")
    p.add_argument("--rate", type=float, default=30.0,
                   metavar="REQ_PER_S",
                   help="offered open-loop rate (default 30/s)")
    p.add_argument("--workers", type=int, default=2,
                   help="process-pool width (default 2; must be >= 2 "
                        "so worker faults fire in forked workers)")
    p.add_argument("--classes", default=None, metavar="KIND,KIND",
                   help="comma-separated fault classes "
                        "(default: the full taxonomy)")
    p.add_argument("--faults-per-class", type=int, default=2,
                   metavar="N",
                   help="faults armed per class phase (default 2)")
    p.add_argument("--deadline-ms", type=int, default=6000,
                   help="per-request deadline (default 6000)")
    p.add_argument("--timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="client hang bound per request (default 30)")
    p.add_argument("--quick", action="store_true",
                   help="the CI smoke shape: fewer requests, tighter "
                        "deadlines, one fault per class")
    p.add_argument("--out", default="BENCH_chaos.json", metavar="FILE",
                   help="report artifact (default BENCH_chaos.json; "
                        "'' disables)")
    p.add_argument("--json", action="store_true",
                   help="also print the full report to stdout")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser(
        "lint",
        help="static analysis: prove the event/energy/determinism "
             "and concurrency contracts (R001-R011)")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files/directories to lint "
                        "(default: the repro package)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline file of grandfathered findings "
                        "(default: lint-baseline.json if present)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline file")
    p.add_argument("--write-baseline", action="store_true",
                   help="write current findings to the baseline file "
                        "and exit 0")
    p.add_argument("--fix", action="store_true",
                   help="apply the default safe autofixes "
                        "(bare except: -> except Exception:)")
    p.add_argument("--fix-rule", action="append", metavar="RULE",
                   help="fix one rule's findings (repeatable; R004, "
                        "R005, R007); implies --fix for those rules "
                        "only")
    p.add_argument("--min-severity", default="warning",
                   type=_severity_arg, metavar="LEVEL",
                   help="lowest severity that fails the run: info, "
                        "warning, or error (default warning)")
    p.add_argument("--verbose", action="store_true",
                   help="also list baselined findings")
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from .errors import ReproError

    args = build_parser().parse_args(argv)
    outdir = getattr(args, "telemetry_dir", None)
    try:
        if not outdir:
            args.session = None
            return args.func(args)

        from .obs.export import TelemetrySession
        session = TelemetrySession(
            outdir, interval_cycles=args.sample_interval,
            argv=list(argv) if argv is not None else None)
        with session:
            args.session = session
            with session.tracer.span(f"cli.{args.command}", "cli"):
                rc = args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rc == 0:
        print(f"telemetry written to {session.outdir}/: "
              "manifest.json, metrics.json, trace.json, samples.csv",
              file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
