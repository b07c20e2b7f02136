"""SPECint 2017 benchmark profiles and the proxy suite.

We cannot ship SPEC binaries, so each of the ten SPECint-rate
benchmarks is modeled as a :class:`~repro.workloads.synthetic.WorkloadSpec`
whose mix, footprints and branch behaviour follow the published
characterization of the suite (gcc: large code footprint and branchy;
mcf/omnetpp: memory bound with poor locality; x264: compute and SIMD
heavy; exchange2: tiny working set, high ILP; xz: large data set with
phases; perlbench/xalancbmk: indirect-branch rich; deepsjeng/leela:
branch-heavy game tree search).

:func:`specint_suite` yields the full-size workloads;
:func:`specint_proxies` is the Chopstix-processed proxy set used for
day-to-day runs, matching the paper's L1-contained snippet methodology.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.isa import InstrClass
from ..errors import ConfigError, TraceError
from .synthetic import WorkloadSpec, generate
from .trace import Trace

KIB = 1024
MIB = 1024 * KIB


def _mix(fx=0.42, muldiv=0.02, load=0.25, store=0.12, br=0.15,
         br_ind=0.01, cr=0.02, fp=0.01, vsx=0.0) -> Dict[InstrClass, float]:
    mix = {
        InstrClass.FX: fx,
        InstrClass.FX_MULDIV: muldiv,
        InstrClass.LOAD: load,
        InstrClass.STORE: store,
        InstrClass.BRANCH: br,
        InstrClass.BRANCH_IND: br_ind,
        InstrClass.CR: cr,
        InstrClass.FP: fp,
    }
    if vsx:
        mix[InstrClass.VSX] = vsx
    total = sum(mix.values())
    return {k: v / total for k, v in mix.items()}


SPECINT_PROFILES: Dict[str, WorkloadSpec] = {
    "perlbench": WorkloadSpec(
        name="perlbench", suite="specint",
        mix=_mix(br=0.16, br_ind=0.025, load=0.26, store=0.13),
        code_bytes=160 * KIB, code_hot_bytes=16 * KIB, data_bytes=512 * KIB,
        stream_fraction=0.20, hot_fraction=0.715, hot_bytes=24 * KIB,
        warm_fraction=0.08, warm_bytes=3 * MIB,
        branch_sites=200, branch_bias=0.78, seed=101),
    "gcc": WorkloadSpec(
        name="gcc", suite="specint",
        mix=_mix(br=0.19, br_ind=0.015, load=0.24, store=0.12),
        code_bytes=512 * KIB, code_hot_bytes=24 * KIB, data_bytes=2 * MIB,
        stream_fraction=0.25, hot_fraction=0.62, hot_bytes=32 * KIB,
        warm_fraction=0.12, warm_bytes=3 * MIB,
        branch_sites=400, branch_bias=0.72, seed=102),
    "mcf": WorkloadSpec(
        name="mcf", suite="specint",
        mix=_mix(br=0.13, load=0.32, store=0.09),
        code_bytes=16 * KIB, code_hot_bytes=8 * KIB, data_bytes=16 * MIB,
        stream_fraction=0.10, hot_fraction=0.48, hot_bytes=16 * KIB,
        warm_fraction=0.12, warm_bytes=3 * MIB,
        branch_sites=80, branch_bias=0.7, seed=103,
        dep_distance_mean=2.5, pointer_chase_fraction=0.40,
        chain_break_fraction=0.20),
    "omnetpp": WorkloadSpec(
        name="omnetpp", suite="specint",
        mix=_mix(br=0.15, br_ind=0.02, load=0.3, store=0.12),
        code_bytes=200 * KIB, code_hot_bytes=16 * KIB, data_bytes=8 * MIB,
        stream_fraction=0.10, hot_fraction=0.72, hot_bytes=48 * KIB,
        warm_fraction=0.10, warm_bytes=3 * MIB,
        branch_sites=250, branch_bias=0.75, seed=104,
        pointer_chase_fraction=0.25),
    "xalancbmk": WorkloadSpec(
        name="xalancbmk", suite="specint",
        mix=_mix(br=0.17, br_ind=0.02, load=0.28, store=0.1),
        code_bytes=300 * KIB, code_hot_bytes=14 * KIB, data_bytes=1 * MIB,
        stream_fraction=0.25, hot_fraction=0.645, hot_bytes=24 * KIB,
        warm_fraction=0.10, warm_bytes=3 * MIB,
        branch_sites=150, branch_bias=0.8, seed=105),
    "x264": WorkloadSpec(
        name="x264", suite="specint",
        mix=_mix(fx=0.35, load=0.24, store=0.12, br=0.08, fp=0.01,
                 vsx=0.14),
        code_bytes=96 * KIB, code_hot_bytes=14 * KIB, data_bytes=4 * MIB,
        stream_fraction=0.60, hot_fraction=0.315, hot_bytes=16 * KIB,
        warm_fraction=0.08, warm_bytes=3 * MIB,
        branch_sites=80, branch_bias=0.9, seed=106,
        dep_distance_mean=6.0),
    "deepsjeng": WorkloadSpec(
        name="deepsjeng", suite="specint",
        mix=_mix(br=0.17, load=0.25, store=0.1, muldiv=0.03),
        code_bytes=64 * KIB, code_hot_bytes=14 * KIB, data_bytes=2 * MIB,
        stream_fraction=0.15, hot_fraction=0.745, hot_bytes=24 * KIB,
        warm_fraction=0.10, warm_bytes=3 * MIB,
        branch_sites=180, branch_bias=0.68, seed=107),
    "leela": WorkloadSpec(
        name="leela", suite="specint",
        mix=_mix(br=0.16, load=0.24, store=0.1, fp=0.02),
        code_bytes=48 * KIB, code_hot_bytes=12 * KIB, data_bytes=1 * MIB,
        stream_fraction=0.20, hot_fraction=0.715, hot_bytes=16 * KIB,
        warm_fraction=0.08, warm_bytes=3 * MIB,
        branch_sites=150, branch_bias=0.7, seed=108),
    "exchange2": WorkloadSpec(
        name="exchange2", suite="specint",
        mix=_mix(fx=0.5, br=0.13, load=0.2, store=0.09),
        code_bytes=24 * KIB, code_hot_bytes=10 * KIB, data_bytes=64 * KIB,
        stream_fraction=0.30, hot_fraction=0.68, hot_bytes=12 * KIB,
        branch_sites=70, branch_bias=0.88, seed=109,
        dep_distance_mean=5.0),
    "xz": WorkloadSpec(
        name="xz", suite="specint",
        mix=_mix(fx=0.45, br=0.13, load=0.25, store=0.1),
        code_bytes=20 * KIB, code_hot_bytes=8 * KIB, data_bytes=8 * MIB,
        stream_fraction=0.45, hot_fraction=0.45, hot_bytes=16 * KIB,
        warm_fraction=0.08, warm_bytes=3 * MIB,
        branch_sites=60, branch_bias=0.82, seed=110),
}

SPECINT_NAMES = tuple(SPECINT_PROFILES)

# Fraction of each benchmark's execution captured by its top-10 most
# executed functions, per Section III-A (41% for gcc ... 99% for xz).
PROXY_COVERAGE: Dict[str, float] = {
    "perlbench": 0.62, "gcc": 0.41, "mcf": 0.93, "omnetpp": 0.71,
    "xalancbmk": 0.58, "x264": 0.82, "deepsjeng": 0.66, "leela": 0.64,
    "exchange2": 0.88, "xz": 0.99,
}


def scaled_spec(spec: WorkloadSpec, *, instructions: int,
                footprint_scale: int = 1) -> WorkloadSpec:
    """Copy a profile with a new length and scaled-down footprints.

    ``footprint_scale`` divides every code/data footprint, matching the
    ``cache_scale`` convention of :func:`repro.core.power9_config`:
    sampled runs shrink caches and working sets by the same factor.
    """
    fields = dict(spec.__dict__)
    fields["instructions"] = instructions
    for key in ("code_bytes", "code_hot_bytes", "data_bytes",
                "hot_bytes", "warm_bytes"):
        fields[key] = max(1024, fields[key] // footprint_scale)
    return WorkloadSpec(**fields)


def specint_suite(instructions: int = 20000,
                  names: Optional[List[str]] = None,
                  footprint_scale: int = 1) -> List[Trace]:
    """Full synthetic SPECint workloads (one trace per benchmark)."""
    chosen = names or list(SPECINT_NAMES)
    traces: List[Trace] = []
    for name in chosen:
        if name not in SPECINT_PROFILES:
            raise ConfigError(f"unknown SPECint benchmark: {name!r}")
        spec = scaled_spec(SPECINT_PROFILES[name],
                           instructions=instructions,
                           footprint_scale=footprint_scale)
        traces.append(generate(spec))
    return traces


def specint_proxies(instructions: int = 8000,
                    names: Optional[List[str]] = None) -> List[Trace]:
    """Chopstix-style proxies: L1-contained snippets of each benchmark.

    Uses :mod:`repro.workloads.chopstix` to extract top-function
    snippets from each synthetic application, weighted by coverage.
    """
    from .chopstix import extract_proxies
    chosen = names or list(SPECINT_NAMES)
    proxies: List[Trace] = []
    for name in chosen:
        proxies.extend(extract_proxies(_application(name, instructions),
                                       coverage=PROXY_COVERAGE[name]))
    return proxies


def specint_proxy(name: str, instructions: int) -> Trace:
    """The first of ``specint_proxies(instructions, [name])``, built
    alone: the snippets after it are never cut or repeated."""
    from .chopstix import iter_proxies
    app = _application(name, instructions)
    proxy = next(iter_proxies(app, coverage=PROXY_COVERAGE[name]), None)
    if proxy is None:
        raise TraceError(f"no proxies extracted from {app.name!r}")
    return proxy


def _application(name: str, instructions: int) -> Trace:
    """The synthetic application behind the SPECint proxy ``name``."""
    app = SPECINT_PROFILES[name]
    return generate(WorkloadSpec(**{**app.__dict__,
                                    "instructions": instructions}))
