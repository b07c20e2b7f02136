"""Named-workload resolution shared by CLI, campaigns and benchmarks.

Every entry point that accepts a workload *name* (``repro trace``,
``repro inject/campaign``, ``repro bench``, the figure benchmarks and
the golden-regression harness) resolves it through this one function,
so the same name always produces the same trace — which is what makes
the content-addressed result cache (:mod:`repro.exec.cache`) shareable
between the CLI and the benchmark harness: identical names fingerprint
to identical cache keys.
"""

from __future__ import annotations

from ..errors import ConfigError

# Non-SPEC workload names (SPECint proxy names are added dynamically).
KERNEL_WORKLOADS = ("daxpy", "dgemm-vsu", "dgemm-mma", "stream-triad",
                    "pointer-chase", "stressmark")


def workload_names() -> tuple:
    """Every name :func:`resolve_workload` accepts."""
    from .spec import SPECINT_NAMES
    return KERNEL_WORKLOADS + tuple(SPECINT_NAMES)


def resolve_workload(name: str, instructions: int):
    """Build the named workload trace (deterministic in its inputs).

    ``instructions`` is the nominal dynamic instruction budget; kernel
    generators that take iteration counts derive them from it the same
    way for every caller.
    """
    from . import (daxpy_trace, dgemm_mma_trace, dgemm_vsu_trace,
                   max_power_stressmark, pointer_chase_trace,
                   stream_triad_trace)
    from .spec import SPECINT_NAMES, specint_proxy

    if instructions <= 0:
        raise ConfigError("instructions must be positive")
    if name == "dgemm-mma":
        return dgemm_mma_trace(max(1, instructions // 8))
    if name == "dgemm-vsu":
        return dgemm_vsu_trace(max(1, instructions // 8))
    if name == "daxpy":
        return daxpy_trace(instructions)
    if name == "stream-triad":
        return stream_triad_trace(instructions)
    if name == "pointer-chase":
        return pointer_chase_trace(instructions)
    if name == "stressmark":
        return max_power_stressmark(instructions)
    if name in SPECINT_NAMES:
        return specint_proxy(name, instructions)
    choices = ", ".join(workload_names())
    raise ConfigError(
        f"unknown workload {name!r} (choices: {choices})")
