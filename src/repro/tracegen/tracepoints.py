"""Tracepoints: counter-histogram trace selection (Section III-A).

The paper's replacement for SimPoint: "Performance counter information
is collected at an epoch-level granularity ... and these epochs are
assigned to different histogram bins based on their CPI and/or other
performance metrics ... Individual epochs are picked from histogram
bins, so as to match the aggregate performance of the actual
application, and concatenated to form a trace."

For AI workloads the selection is additionally **MMA-aware**: the
generated trace must match the application's BLAS/GEMM call profile so
MMA utilization projects correctly onto POWER10.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import CoreConfig
from ..core.isa import TraceColumns
from ..core.pipeline import simulate
from ..errors import TraceError
from ..workloads.trace import Trace
from .counters import Epoch, aggregate_counters, collect_epochs


@dataclass
class TracepointResult:
    """A Tracepoints-selected representative trace."""

    trace: Trace
    selected_epochs: List[int]
    target_cpi: float
    achieved_cpi: float
    bin_metrics: Tuple[str, ...]

    @property
    def cpi_error_pct(self) -> float:
        return abs(self.achieved_cpi - self.target_cpi) \
            / self.target_cpi * 100.0


def _bin_index(value: float, edges: np.ndarray) -> int:
    return int(np.clip(np.searchsorted(edges, value) - 1,
                       0, len(edges) - 2))


def build_tracepoint(config: CoreConfig, trace: Trace, *,
                     epoch_instructions: int = 2000,
                     bins: int = 6,
                     epochs_to_select: int = 8,
                     metrics: Sequence[str] = ("cpi", "llc_misses"),
                     mma_aware: bool = False) -> TracepointResult:
    """Build a representative trace from epoch histograms.

    Epochs are histogrammed on the requested metrics; the selection
    draws epochs from bins proportionally to bin population (so the
    concatenated trace matches the application's aggregate behaviour),
    preferring within each bin the epoch closest to the bin's mean CPI.
    With ``mma_aware=True`` the per-bin draw also matches the epoch
    population's BLAS-call mass, the paper's fix for GEMM-heavy AI
    workloads.
    """
    if epochs_to_select <= 0:
        raise TraceError("must select at least one epoch")
    epochs = collect_epochs(config, trace,
                            epoch_instructions=epoch_instructions)
    if len(epochs) < epochs_to_select:
        epochs_to_select = len(epochs)
    aggregate = aggregate_counters(epochs)
    target_cpi = aggregate["cpi"]

    # multi-metric histogram: the bin key is the tuple of per-metric bins
    edges = {}
    for metric in metrics:
        values = np.array([e.counters[metric] for e in epochs])
        lo, hi = values.min(), values.max() + 1e-9
        edges[metric] = np.linspace(lo, hi, bins + 1)
    bin_members: Dict[Tuple[int, ...], List[Epoch]] = {}
    for epoch in epochs:
        key = tuple(_bin_index(epoch.counters[m], edges[m])
                    for m in metrics)
        bin_members.setdefault(key, []).append(epoch)

    # allocate selections to bins proportionally to population
    total = len(epochs)
    allocations: List[Tuple[Tuple[int, ...], int]] = []
    remaining = epochs_to_select
    for key, members in sorted(bin_members.items(),
                               key=lambda kv: -len(kv[1])):
        share = max(1 if remaining else 0,
                    round(epochs_to_select * len(members) / total))
        share = min(share, remaining, len(members))
        if share:
            allocations.append((key, share))
            remaining -= share
        if remaining == 0:
            break

    selected: List[Epoch] = []
    for key, share in allocations:
        members = bin_members[key]
        mean_cpi = float(np.mean([e.cpi for e in members]))
        if mma_aware:
            mean_blas = float(np.mean(
                [e.counters["blas_calls"] for e in members]))
            scored = sorted(members, key=lambda e: (
                abs(e.counters["blas_calls"] - mean_blas),
                abs(e.cpi - mean_cpi)))
        else:
            scored = sorted(members, key=lambda e: abs(e.cpi - mean_cpi))
        selected.extend(scored[:share])

    selected.sort(key=lambda e: e.index)
    body = TraceColumns.concat([epoch.trace.columns for epoch in selected])
    achieved_cpi = float(np.average(
        [e.cpi for e in selected],
        weights=[e.instructions for e in selected]))
    rep = Trace(name=f"{trace.name}.tracepoint",
                columns=body, suite=f"{trace.suite}-tracepoint",
                metadata={"source": trace.name,
                          "epochs": [e.index for e in selected],
                          "blas_calls": sum(
                              e.counters["blas_calls"]
                              for e in selected)})
    return TracepointResult(
        trace=rep,
        selected_epochs=[e.index for e in selected],
        target_cpi=target_cpi,
        achieved_cpi=achieved_cpi,
        bin_metrics=tuple(metrics))


def validate_against_reference(config: CoreConfig, original: Trace,
                               representative: Trace,
                               ) -> Dict[str, float]:
    """Validate a representative trace against the full run (the paper
    validates Tracepoints against real POWER9 hardware)."""
    full = simulate(config, original, warmup_fraction=0.2)
    rep = simulate(config, representative, warmup_fraction=0.2)
    return {
        "full_cpi": full.cpi,
        "representative_cpi": rep.cpi,
        "cpi_error_pct": abs(rep.cpi - full.cpi) / full.cpi * 100.0,
        "full_mpki": full.branch_mpki,
        "representative_mpki": rep.branch_mpki,
    }
