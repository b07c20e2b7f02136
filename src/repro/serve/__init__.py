"""The serving layer: a long-lived JSON-over-HTTP simulation service.

Request flow: :mod:`protocol` (validation + envelopes) →
:mod:`admission` (rate limit / bounded queue / degrade-to-proxy) →
:mod:`batcher` (micro-batching + single-flight) → the PR 4 execution
engine.  :mod:`http` is the asyncio HTTP front end (wire, connection
loop, shared routes, thread host) the server and the cluster router
share; :mod:`server` owns the service's routes and lifecycle,
:mod:`client` is the sync client, :mod:`loadgen` the deterministic
open-loop load generator behind ``repro loadgen``.

Since PR 7 this package is *inside* the R003 determinism scope: only
the named functions in ``WALL_CLOCK_ALLOWANCES`` (see
``repro/lint/rules.py``) may touch wall clocks or jitter RNGs, each
with a one-line justification — everything else here must be
deterministic.  The concurrency tier (R007-R011 in
``repro/lint/concurrency.py``) proves the async/multiprocess safety
contracts statically, and the runtime sanitizer (``repro serve
--sanitize`` / ``REPRO_SANITIZE=1``) watches the dynamic residue:
loop blocking, lost futures, and cross-run response divergence.
Determinism lives behind the Engine boundary, and the batcher's
bit-identity guarantee (batched == direct serial runs) is what keeps
the service honest about it.
"""

from .admission import AdmissionController, CircuitBreaker, Decision, \
    ProxyFastPath, TokenBucket
from .batcher import MicroBatcher
from .client import ServeClient, ServeResponse
from .loadgen import LoadgenConfig, build_schedule, run_loadgen, \
    write_report
from .protocol import (CompareRequest, EstimateRequest, InjectRequest,
                       SimulateRequest, error_body, error_status,
                       ok_body)
from .http import ThreadHost
from .server import ReproServer, ServeConfig, run_server, start_in_thread
from .slo import SloTracker

__all__ = [
    "AdmissionController", "CircuitBreaker", "Decision",
    "ProxyFastPath", "TokenBucket",
    "MicroBatcher",
    "ServeClient", "ServeResponse",
    "LoadgenConfig", "build_schedule", "run_loadgen", "write_report",
    "CompareRequest", "EstimateRequest", "InjectRequest",
    "SimulateRequest", "error_body", "error_status", "ok_body",
    "ReproServer", "ServeConfig", "ThreadHost",
    "run_server", "start_in_thread", "SloTracker",
]
