"""Core micro-architecture models: ISA, POWER9/POWER10 configurations,
branch predictors, caches, MMU, fusion, the MMA/VSU functional units and
the out-of-order timing model."""

from .activity import (ActivityCounters, EVENT_NAMES, UNIT_NAMES,
                       set_strict_default)
from .config import (CoreConfig, FEATURE_NAMES, apply_features,
                     power9_config, power10_config)
from .isa import Instruction, InstrClass
from .mma import MMAUnit, mma_gemm, ger_instructions_for_gemm
from .vsu import VSUnit, vsu_gemm, vector_fma_count_for_gemm
from .pipeline import SimResult, simulate
from .simulator import (RunMeasurement, simulate_trace,
                        weighted_comparison)
from .socket import (POWER9_SOCKET, POWER10_SOCKET, SocketConfig,
                     SocketProjection, precision_speedup, project_socket)

__all__ = [
    "ActivityCounters", "EVENT_NAMES", "UNIT_NAMES",
    "CoreConfig", "FEATURE_NAMES", "apply_features",
    "power9_config", "power10_config",
    "Instruction", "InstrClass",
    "MMAUnit", "mma_gemm", "ger_instructions_for_gemm",
    "VSUnit", "vsu_gemm", "vector_fma_count_for_gemm",
    "SimResult", "simulate",
    "RunMeasurement", "simulate_trace", "weighted_comparison",
    "POWER9_SOCKET", "POWER10_SOCKET", "SocketConfig",
    "SocketProjection", "precision_speedup", "project_socket",
]
