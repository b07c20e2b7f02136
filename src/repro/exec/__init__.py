"""Deterministic parallel execution engine with content-addressed cache.

See :mod:`repro.exec.cache` (fingerprints + on-disk store),
:mod:`repro.exec.executor` (the engine), :mod:`repro.exec.figs`
(the figure-scenario registry behind the golden-regression harness),
and :mod:`repro.exec.benchrun` (``repro bench``).
"""

from .cache import (ResultCache, code_salt, fingerprint_config,
                    fingerprint_trace, resolve_cache,
                    sim_result_from_json, sim_result_to_json,
                    task_fingerprint)
from .executor import (Engine, ExecPlan, ExecTask, campaign_task,
                       register_task_kind, resolve_workers,
                       run_sim_plan, run_traces, sim_task)

__all__ = [
    "Engine", "ExecPlan", "ExecTask", "ResultCache",
    "campaign_task", "code_salt", "fingerprint_config",
    "fingerprint_trace", "register_task_kind", "resolve_cache",
    "resolve_workers", "run_sim_plan", "run_traces",
    "sim_result_from_json", "sim_result_to_json", "sim_task",
    "task_fingerprint",
]
