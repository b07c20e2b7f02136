"""Epoch-level hardware performance-counter collection.

Tracepoints (Section III-A) replaces simulation-generated BBVs with
"hardware performance counter data ... collected at an epoch-level
granularity of a few ms".  Here the "hardware" is the timing model: a
workload is run in epoch-sized windows and each epoch reports the
counter set the methodology bins on (CPI, cache misses, branch
mispredictions, and Integer/FPU/Vector/GEMM operation counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..core.config import CoreConfig
from ..errors import TraceError
from ..workloads.trace import Trace

COUNTER_NAMES = (
    "cpi", "l1d_misses", "llc_misses", "branch_mispredicts",
    "int_ops", "fp_ops", "vector_ops", "mma_ops", "blas_calls",
)


@dataclass
class Epoch:
    """One measurement epoch."""

    index: int
    instructions: int
    cycles: int
    counters: Dict[str, float]
    trace: Trace = field(repr=False, default=None)

    @property
    def cpi(self) -> float:
        return self.counters["cpi"]


def collect_epochs(config: CoreConfig, trace: Trace, *,
                   epoch_instructions: int = 2000,
                   engine=None) -> List[Epoch]:
    """Run a workload epoch by epoch and collect counter snapshots.

    The epochs form one engine plan (``engine=None`` means
    ``Engine()``).
    """
    from ..exec.executor import run_traces
    if epoch_instructions <= 0:
        raise TraceError("epoch size must be positive")
    windows = list(trace.windows(epoch_instructions))
    results = run_traces(config, windows, engine=engine)
    epochs: List[Epoch] = []
    for i, (window, result) in enumerate(zip(windows, results)):
        ev = result.activity.events
        blas_calls = float(window.metadata.get("blas_calls", 0))
        counters = {
            "cpi": result.cpi,
            "l1d_misses": float(ev["l1d_miss"]),
            "llc_misses": float(ev["l3_miss"]),
            "branch_mispredicts": float(ev["bp_mispredict"]),
            "int_ops": float(ev["issue_fx"] + ev["issue_fx_muldiv"]),
            "fp_ops": float(ev["issue_fp"]),
            "vector_ops": float(ev["issue_vsx"]),
            "mma_ops": float(ev["issue_mma"]),
            "blas_calls": blas_calls,
        }
        epochs.append(Epoch(index=i, instructions=result.instructions,
                            cycles=result.cycles, counters=counters,
                            trace=window))
    if not epochs:
        raise TraceError("workload produced no epochs")
    return epochs


def aggregate_counters(epochs: List[Epoch]) -> Dict[str, float]:
    """Instruction-weighted aggregate over a run's epochs."""
    total_instr = sum(e.instructions for e in epochs)
    out: Dict[str, float] = {}
    for name in COUNTER_NAMES:
        if name == "cpi":
            total_cycles = sum(e.cycles for e in epochs)
            out[name] = total_cycles / total_instr
        else:
            out[name] = sum(e.counters[name] for e in epochs)
    return out
