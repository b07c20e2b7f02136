"""Deterministic parallel fan-out over pure simulation tasks.

The engine executes an :class:`ExecPlan` — an ordered list of
:class:`ExecTask` (kind + content-addressed key + picklable payload) —
with three interchangeable strategies that are *guaranteed* (and
test-enforced) to produce bit-identical results:

* serial, in-process (``workers=1``, the default);
* fan-out across a ``ProcessPoolExecutor`` (``workers=N``), with
  order-independent assembly: results are collected by task index as
  workers finish, then reassembled in plan order, so submission and
  completion order never influence output;
* cache replay: keys found in the engine's
  :class:`~repro.exec.cache.ResultCache` skip execution entirely and
  return the stored JSON payload, which the codec round-trips exactly.
  The lookup tries the cache's bounded in-memory tier first (every
  engine has one, so a task repeated within one engine's lifetime runs
  once), then its directory, if it has one.  :meth:`Engine.lookup`
  asks the memory tier alone, for a caller (the serving batcher) that
  answers a hit without handing the task to ``run``.

The guarantee holds because every registered task kind is a pure
function of its payload (the timing model is deterministic, per-run
seeds are pure functions of their inputs) and results cross process
boundaries as canonical JSON.

Worker count resolves from the ``workers`` argument, else
``$REPRO_WORKERS``, else 1; the cache from the ``cache`` argument, else
``$REPRO_CACHE_DIR``, else memory only.  Note that metrics incremented
inside worker processes (e.g. ``repro_simulations_total``) stay in the
worker: the parent registry only sees the engine's own
``repro_exec_tasks_total`` / batch-latency series.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import os
import stat
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import CoreConfig
from ..core.pipeline import SimResult, simulate
from ..errors import DeadlineError, ExecError
from ..obs.context import request_scope
from ..obs.metrics import get_registry
from ..obs.tracing import Tracer, get_tracer, set_tracer
from ..obs.tracing import span as _obs_span
from .cache import (ResultCache, fingerprint_config, fingerprint_trace,
                    resolve_cache, sim_result_from_json,
                    sim_result_to_json, task_fingerprint)

ENV_WORKERS = "REPRO_WORKERS"


@dataclass(frozen=True)
class ExecTask:
    """One pure unit of work.

    ``key`` is the content-addressed fingerprint of ``payload`` (plus
    the code salt), so equal keys imply equal results; ``payload`` must
    be picklable for the process-pool path.

    ``tags`` carries observability context only — the first tag is the
    originating request id, adopted by whichever process executes the
    task so its spans land on that request's trace track.  Tags are
    deliberately *excluded* from ``key``: two requests asking for the
    same work share one cache entry and one single-flight execution.

    ``deadline_s`` is an execution *budget*, not content: like tags it
    is excluded from ``key`` (the answer does not depend on how long
    the caller is willing to wait).  ``None`` means unbounded.  The
    engine enforces the budget per parallel batch — see
    :meth:`Engine._execute_parallel`.
    """

    kind: str
    key: str
    payload: object
    tags: Tuple[str, ...] = ()
    deadline_s: Optional[float] = None


@dataclass
class ExecPlan:
    """An ordered batch of tasks; results come back in this order."""

    tasks: List[ExecTask] = field(default_factory=list)

    def add(self, task: ExecTask) -> ExecTask:
        self.tasks.append(task)
        return task

    def __len__(self) -> int:
        return len(self.tasks)


# ---- task kinds ----------------------------------------------------------
#
# A task runner maps payload -> JSON-serializable dict.  Runners must be
# top-level functions (picklable by reference) and pure in their
# payload; they execute in worker processes under workers>1.

def _run_sim(payload) -> Dict[str, object]:
    config, trace, params = payload
    result = simulate(
        config, trace,
        max_instructions=params.get("max_instructions"),
        warmup_fraction=params.get("warmup_fraction", 0.0))
    return sim_result_to_json(result)


# Per-process campaign-runner cache: building a CampaignRunner resolves
# the workload trace and the golden reference once, which every
# subsequent run_one() of the same campaign reuses.
_CAMPAIGN_RUNNERS: Dict[str, object] = {}


def _run_campaign(payload) -> Dict[str, object]:
    config, index = payload
    from ..resilience.campaign import CampaignRunner
    fp = config.fingerprint()
    runner = _CAMPAIGN_RUNNERS.get(fp)
    if runner is None:
        _CAMPAIGN_RUNNERS.clear()
        runner = _CAMPAIGN_RUNNERS[fp] = CampaignRunner(config)
    return runner.run_one(int(index)).to_json()


_TASK_RUNNERS = {
    "sim": _run_sim,
    "campaign": _run_campaign,
}


def register_task_kind(kind: str, runner) -> None:
    """Register a new pure task kind (top-level function, JSON out)."""
    if kind in _TASK_RUNNERS and _TASK_RUNNERS[kind] is not runner:
        raise ExecError(f"task kind {kind!r} already registered")
    _TASK_RUNNERS[kind] = runner


def _execute_task(task: ExecTask) -> Dict[str, object]:
    """Run one task (this is what worker processes execute)."""
    runner = _TASK_RUNNERS.get(task.kind)
    if runner is None:
        raise ExecError(f"unknown task kind {task.kind!r}")
    if os.environ.get("REPRO_CHAOS_DIR"):  # resilience.chaos.ENV_CHAOS_DIR
        from ..resilience.chaos import chaos_point
        chaos_point("worker_task")
    if task.tags:
        # adopt the originating request's id so spans recorded inside
        # the runner attach to its trace track
        with request_scope(task.tags[0]):
            return runner(task.payload)
    return runner(task.payload)


def _execute_task_traced(task: ExecTask,
                         ) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Pool-path variant when telemetry is on: run the task under a
    fresh in-worker tracer and ship the spans home as wire dicts.

    The worker may have inherited (via fork) a copy of the parent's
    enabled tracer, but spans recorded into that copy die with the
    worker — hence the explicit collect-and-return.
    """
    tracer = Tracer(enabled=True)
    prev = set_tracer(tracer)
    try:
        payload = _execute_task(task)
    finally:
        set_tracer(prev)
    return payload, tracer.to_wire()


def _release_inherited_sockets() -> None:
    """Pool-worker initializer: drop every socket inherited by fork.

    A forked worker holds copies of all the parent's descriptors,
    including the listening and accepted sockets of any server running
    in the parent (a thread-hosted cluster shard, say).  While a worker
    holds them, closing them in the parent neither refuses new
    connections nor sends EOF to a peer, so a killed shard's in-flight
    requests would hang instead of failing over.  Each socket is
    replaced by ``/dev/null`` rather than closed, so a stale socket
    object finalized in the worker closes that, never a reused number.
    The pool talks to its workers over pipes, which are left alone.
    """
    fd_dir = next((d for d in ("/proc/self/fd", "/dev/fd")
                   if os.path.isdir(d)), None)
    if fd_dir is None:
        return
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir(fd_dir):
            fd = int(name)
            try:
                if fd != devnull \
                        and stat.S_ISSOCK(os.fstat(fd).st_mode):
                    os.dup2(devnull, fd)
            except OSError:
                pass                    # the listing's own, now closed
    finally:
        os.close(devnull)


# ---- task builders -------------------------------------------------------

def sim_task(config: CoreConfig, trace, *,
             warmup_fraction: float = 0.0,
             max_instructions: Optional[int] = None,
             tags: Tuple[str, ...] = (),
             trace_fingerprint: Optional[str] = None,
             config_fingerprint: Optional[str] = None) -> ExecTask:
    """A timing-model run as a pure task.

    ``trace_fingerprint`` is ``fingerprint_trace(trace)`` precomputed
    by a caller that memoizes its traces (the server), so a repeated
    request does not re-hash the whole trace; ``config_fingerprint``
    is ``fingerprint_config(config)`` taken once by a caller that
    builds many tasks on one config.  The key is the same either way.
    """
    params = {"warmup_fraction": warmup_fraction,
              "max_instructions": max_instructions}
    if trace_fingerprint is None:
        trace_fingerprint = fingerprint_trace(trace)
    if config_fingerprint is None:
        config_fingerprint = fingerprint_config(config)
    key = task_fingerprint("sim", config_fingerprint, trace_fingerprint,
                           params)
    return ExecTask(kind="sim", key=key,
                    payload=(config, trace, params), tags=tuple(tags))


def campaign_task(config, index: int, *,
                  tags: Tuple[str, ...] = ()) -> ExecTask:
    """One fault-injection campaign run as a pure task.

    Purity holds because :meth:`CampaignConfig.run_seed` derives the
    fault schedule from ``(campaign seed, index)`` alone.
    """
    key = task_fingerprint("campaign", config.fingerprint(), int(index))
    return ExecTask(kind="campaign", key=key,
                    payload=(config, int(index)), tags=tuple(tags))


# ---- the engine ----------------------------------------------------------

def _note_cache_hit(task: ExecTask, payload: Dict[str, object]) -> None:
    """What a task answered from the cache counts: the engine's task
    counter and, under the concurrency sanitizer, the result digest."""
    get_registry().counter(
        "repro_exec_tasks_total",
        "tasks processed by the execution engine").inc(
            kind=task.kind, source="cache")
    from ..lint.sanitizer import get_sanitizer
    sanitizer = get_sanitizer()
    if sanitizer is not None:
        sanitizer.observe_result(task.kind, task.key, payload, "cache")


def resolve_workers(workers: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_WORKERS``, else 1."""
    if workers is None:
        raw = os.environ.get(ENV_WORKERS, "").strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise ExecError(
                    f"${ENV_WORKERS} must be an integer, got {raw!r}")
        else:
            workers = 1
    workers = int(workers)
    if workers < 1:
        raise ExecError(f"workers must be >= 1, got {workers}")
    return workers


class Engine:
    """Executes plans; owns the worker-count, cache policy, and (for
    ``workers > 1``) a persistent process pool.

    The pool is created lazily on the first parallel batch and reused
    by every subsequent :meth:`run` until :meth:`close`, so long-lived
    callers (the serving layer, suite drivers, campaign loops) pay
    pool startup once instead of per call.  ``Engine`` is a context
    manager::

        with Engine(workers=4) as engine:
            engine.run(plan_a)
            engine.run(plan_b)      # same pool, no respawn

    ``close()`` is idempotent, and an engine remains usable after
    closing — the next parallel batch simply creates a fresh pool.

    The parallel path is *supervised*: a worker that dies mid-task
    (SIGKILL, OOM) breaks the pool, and the engine rebuilds it and
    re-dispatches exactly the unfinished tasks — at most
    ``max_restarts`` rebuilds per batch.  Because every task kind is
    pure, a re-dispatched task returns the same bytes it would have
    the first time, so supervision never perturbs results
    (test-enforced).  Tasks carrying a ``deadline_s`` budget arm a
    per-batch watchdog: if the budget expires with work outstanding,
    the pool (which may hold a stalled worker) is killed and
    :class:`~repro.errors.DeadlineError` raised.
    """

    def __init__(self, workers: Optional[int] = None,
                 cache=None, max_restarts: int = 2):
        self.workers = resolve_workers(workers)
        self.cache: ResultCache = resolve_cache(cache)
        if max_restarts < 0:
            raise ExecError(
                f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None

    def _ensure_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_release_inherited_sockets)
            _LIVE_ENGINES.add(self)
        return self._pool

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down (idempotent).

        ``wait=False`` lets a draining server abandon a pool whose
        current batch is still running; the workers exit once their
        in-flight tasks complete.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def lookup(self, task: ExecTask) -> Optional[Dict[str, object]]:
        """``task``'s result from the cache's memory tier, or None.

        Never reads the disk or runs anything, so an event loop may
        call it: a hit is accounted exactly as :meth:`run` accounts a
        cache hit, and a miss counts nothing (the :meth:`run` that
        follows looks the task up again and counts it).
        """
        cached = self.cache.get(task.key, kind=task.kind,
                                memory_only=True)
        if cached is not None:
            _note_cache_hit(task, cached)
        return cached

    def run(self, plan,
            sources: Optional[Dict[str, str]] = None,
            ) -> List[Dict[str, object]]:
        """Execute every task; returns JSON payloads in plan order.

        When ``sources`` (a dict) is supplied, it is filled with
        ``task.key -> "cache" | "executed"`` so callers can attribute
        each answer without re-deriving cache state.
        """
        tasks: List[ExecTask] = list(
            plan.tasks if isinstance(plan, ExecPlan) else plan)
        for task in tasks:
            if task.kind not in _TASK_RUNNERS:
                raise ExecError(f"unknown task kind {task.kind!r}")
        registry = get_registry()
        counter = registry.counter(
            "repro_exec_tasks_total",
            "tasks processed by the execution engine")
        from ..lint.sanitizer import get_sanitizer
        sanitizer = get_sanitizer()
        with _obs_span("exec.engine.run", "exec",
                       tasks=len(tasks), workers=self.workers) as sp:
            by_key: Dict[str, Dict[str, object]] = {}
            pending: List[Tuple[int, ExecTask]] = []
            pending_keys: Dict[str, int] = {}
            for i, task in enumerate(tasks):
                if task.key in by_key or task.key in pending_keys:
                    continue
                cached = self.cache.get(task.key, kind=task.kind)
                if cached is not None:
                    by_key[task.key] = cached
                    _note_cache_hit(task, cached)
                    if sources is not None:
                        sources[task.key] = "cache"
                else:
                    pending_keys[task.key] = i
                    pending.append((i, task))
            executed = self._execute(pending)
            for i, task in pending:
                payload = executed[i]
                by_key[task.key] = payload
                self.cache.put(task.key, payload)
                counter.inc(kind=task.kind, source="executed")
                if sanitizer is not None:
                    sanitizer.observe_result(task.kind, task.key,
                                             payload, "executed")
                if sources is not None:
                    sources[task.key] = "executed"
            results = [by_key[task.key] for task in tasks]
            sp.set(executed=len(pending),
                   cached=len(tasks) - len(pending))
            registry.histogram(
                "repro_exec_batch_seconds",
                "wall time of one engine batch").observe(
                    sp.duration_s, workers=self.workers)
        return results

    def _execute(self, pending: Sequence[Tuple[int, ExecTask]],
                 ) -> Dict[int, Dict[str, object]]:
        out: Dict[int, Dict[str, object]] = {}
        if not pending:
            return out
        if self.workers <= 1:
            # serial path: no worker to crash, no watchdog to arm (an
            # in-process stall cannot be preempted anyway)
            for i, task in pending:
                out[i] = _execute_task(task)
            return out
        budgets = [task.deadline_s for _, task in pending]
        budget_s = (max(budgets)
                    if all(b is not None for b in budgets) else None)
        return self._execute_parallel(list(pending), budget_s)

    def _execute_parallel(self, pending: List[Tuple[int, ExecTask]],
                          budget_s: Optional[float],
                          ) -> Dict[int, Dict[str, object]]:
        """Supervised fan-out: survive dead workers, bound stalls.

        ``budget_s`` is the batch's deadline budget (the loosest task
        deadline; ``None`` when any task is unbounded), measured from
        batch start — a deliberate approximation of each request's
        end-to-end deadline that keeps the watchdog per-batch.
        """
        out: Dict[int, Dict[str, object]] = {}
        errors: Dict[int, BaseException] = {}
        tracer = get_tracer()
        traced = tracer.enabled
        run_one = _execute_task_traced if traced else _execute_task
        deadline = (time.monotonic() + budget_s
                    if budget_s is not None else None)
        remaining = list(pending)
        rebuilds = 0
        while remaining:
            pool = self._ensure_pool()
            broken = False
            futures: Dict[concurrent.futures.Future, int] = {}
            try:
                for i, task in remaining:
                    futures[pool.submit(run_one, task)] = i
            except concurrent.futures.BrokenExecutor:
                # a worker died while we were still submitting; the
                # already-submitted futures resolve below, the rest
                # stay in ``remaining`` for the rebuilt pool
                broken = True
            not_done = set(futures)
            while not_done:
                timeout = None
                if deadline is not None:
                    timeout = deadline - time.monotonic()
                    if timeout <= 0:
                        break
                done, not_done = concurrent.futures.wait(
                    not_done, timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)
                if not done:
                    break               # budget expired mid-wait
                for fut in done:
                    i = futures[fut]
                    try:
                        result = fut.result()
                    except concurrent.futures.BrokenExecutor:
                        broken = True
                        continue
                    except BaseException as exc:  # noqa: BLE001 - reraised
                        errors[i] = exc
                        continue
                    if traced:
                        out[i], wire = result
                        tracer.merge_wire(wire, origin="worker")
                    else:
                        out[i] = result
            finished = set(out) | set(errors)
            remaining = [(i, t) for i, t in remaining
                         if i not in finished]
            if broken:
                # discard the dead pool before any raise below, or the
                # next batch would submit into a broken executor
                pool, self._pool = self._pool, None
                if pool is not None:
                    pool.shutdown(wait=True)
            if errors:
                # deterministic propagation: the failure of the
                # earliest-indexed task wins, whatever finished first
                raise errors[min(errors)]
            if not_done:
                # the budget expired with work outstanding; the pool
                # may hold a stalled worker, so kill rather than drain
                self._kill_pool()
                raise DeadlineError(
                    f"batch exceeded its {budget_s:.3f}s deadline "
                    f"budget with {len(remaining)} task(s) unfinished")
            if broken and remaining:
                rebuilds += 1
                registry = get_registry()
                registry.counter(
                    "repro_exec_pool_rebuilds_total",
                    "process-pool rebuilds after worker death",
                    ).inc(reason="broken")
                if rebuilds > self.max_restarts:
                    raise ExecError(
                        f"worker pool died {rebuilds} times in one "
                        f"batch (max_restarts={self.max_restarts}); "
                        f"{len(remaining)} task(s) unfinished")
                registry.counter(
                    "repro_exec_task_retries_total",
                    "tasks re-dispatched after a worker death",
                    ).inc(float(len(remaining)), reason="broken")
        return out

    def _kill_pool(self) -> None:
        """Forcibly discard the pool, killing any stalled worker.

        ``shutdown`` alone would block on a worker that is asleep in a
        task; killing the processes first makes reclamation prompt.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            proc.kill()
        pool.shutdown(wait=True, cancel_futures=True)


# Engines whose persistent pool is still open.  The atexit sweep closes
# them before interpreter teardown: a ProcessPoolExecutor that is merely
# garbage-collected can race concurrent.futures' own exit hook and die
# with "Bad file descriptor" noise on its wakeup pipe.
_LIVE_ENGINES: "weakref.WeakSet[Engine]" = weakref.WeakSet()


def _close_live_engines() -> None:
    for engine in list(_LIVE_ENGINES):
        engine.close()


atexit.register(_close_live_engines)


# ---- convenience ---------------------------------------------------------

def run_sim_plan(engine: Engine, tasks: Sequence[ExecTask],
                 ) -> List[SimResult]:
    """Execute sim tasks and decode the payloads back to SimResults."""
    for task in tasks:
        if task.kind != "sim":
            raise ExecError(
                f"run_sim_plan got a {task.kind!r} task")
    return [sim_result_from_json(p)
            for p in engine.run(ExecPlan(list(tasks)))]


def run_traces(config: CoreConfig, traces, *,
               warmup_fraction: float = 0.0,
               engine: Optional[Engine] = None) -> List[SimResult]:
    """Run every trace on ``config`` as one plan, in trace order.

    This is how the figure studies (power, reliability, tracegen,
    analysis) reach the simulator; ``engine=None`` means ``Engine()``.
    """
    if engine is None:
        engine = Engine()
    config_fingerprint = fingerprint_config(config)
    return run_sim_plan(engine, [
        sim_task(config, trace, warmup_fraction=warmup_fraction,
                 config_fingerprint=config_fingerprint)
        for trace in traces])
