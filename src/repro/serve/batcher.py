"""Micro-batching with single-flight dedupe over the execution engine.

Batches form while the engine is busy, not on a timer: the runner
starts a batch as soon as a task is pending and no batch is running,
and every task that arrives while that batch runs goes into the next
:class:`~repro.exec.executor.ExecPlan` (up to ``max_batch``).  An idle
server hands a request to the engine at once; under load, requests
coalesce by themselves.  A request whose key is already queued or
executing joins the in-flight future instead of resubmitting
(single-flight), so N identical concurrent requests cost exactly one
simulation — the service-layer analog of the paper's "never measure
the same thing twice" methodology (§III-C motivates APEX the same
way).

A task whose answer is already in the engine cache's memory tier
never reaches a batch: ``submit`` asks :meth:`~repro.exec.executor.
Engine.lookup` first and returns a hit on the event loop, counted as
the engine counts a cache hit.  Only a miss (or an entry that is only
on disk, which the loop must not read) goes to the engine thread.

Batched results are bit-identical to direct serial Engine runs: the
batcher only *groups* tasks, and every task is a pure function of its
payload (test-guarded in ``tests/test_serve.py``).

One engine batch runs at a time, on a dedicated single worker thread;
``drain()`` resolves whatever cannot finish in time with
:class:`~repro.errors.DrainingError` so shutdown produces well-formed
errors instead of hangs.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import os
import time
from dataclasses import replace
from typing import Dict, List, Optional

from ..errors import DrainingError, ServeError
from ..exec.executor import Engine, ExecPlan, ExecTask
from ..obs.context import current_request
from ..obs.metrics import get_registry


#: the one attribute :func:`detach_future` stamps on a waiter future
_DETACH_ATTR = "_repro_meta"


def detach_future(fut: "asyncio.Future", batch_start_ns: int,
                  source: Optional[str] = None) -> None:
    """Stamp batch metadata on a future the batcher is about to settle.

    This is the *single* sanctioned place where serve code writes a
    private attribute on a future it did not create: the batch runner
    hands ``(batch_start_ns, source)`` to every waiter (including
    single-flight joiners) so their request contexts can split
    queue-wait from service time.  R009 allowlists exactly this
    helper by name — ad-hoc ``fut._repro_meta = ...`` stamps anywhere
    else are lint errors.
    """
    fut._repro_meta = (batch_start_ns, source)


def future_meta(fut: "asyncio.Future"):
    """The ``(batch_start_ns, source)`` stamp, or ``(None, None)``."""
    return getattr(fut, _DETACH_ATTR, (None, None))


def mark_retrieved(fut: "asyncio.Future") -> None:
    """Done callback for a future its waiter may abandon (a deadline,
    a cancelled handler): touching the exception keeps asyncio from
    logging "exception was never retrieved" for a result nobody
    consumed."""
    if not fut.cancelled():
        fut.exception()


def _note_result(submit_ns: int, batch_start_ns: Optional[int],
                 done_ns: int, source: Optional[str]) -> None:
    """Close the active request's round trip through :meth:`MicroBatcher.
    submit`, so its queue/batch/exec/finalize segments tile."""
    ctx = current_request()
    if ctx is not None:
        ctx.note_result(submit_ns, batch_start_ns, done_ns, source)


class MicroBatcher:
    """Coalesces concurrent requests into single engine plans."""

    def __init__(self, engine: Engine, *, max_batch: int = 64):
        if max_batch < 1:
            raise ServeError(f"max_batch must be >= 1, got {max_batch}")
        self.engine = engine
        self.max_batch = max_batch
        self._pending: List[ExecTask] = []
        self._inflight: Dict[str, asyncio.Future] = {}
        # key -> loosest deadline budget among its waiters (None =
        # some waiter is unbounded); stamped onto tasks at batch time
        self._deadlines: Dict[str, Optional[float]] = {}
        self._wakeup: Optional[asyncio.Event] = None
        self._runner: Optional[asyncio.Task] = None
        self._thread: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._closed = False

    @property
    def inflight(self) -> int:
        """Distinct keys currently queued or executing."""
        return len(self._inflight)

    async def start(self) -> None:
        if self._runner is not None:
            raise ServeError("batcher already started")
        self._wakeup = asyncio.Event()
        self._thread = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch")
        self._runner = asyncio.get_running_loop().create_task(
            self._run_loop())

    async def submit(self, task: ExecTask, *,
                     deadline_s: Optional[float] = None,
                     ) -> Dict[str, object]:
        """One task's JSON result payload.

        A memory-tier hit is returned at once; anything else is
        enqueued.  Identical keys share one future (and one engine
        task): the caller that arrives first enqueues, everyone else
        joins.

        ``deadline_s`` is this waiter's execution budget.  Joiners
        merge budgets loosest-wins (an unbounded waiter makes the
        shared task unbounded): the deadline must never change *what*
        is computed, only how long the engine may spend on it, and the
        most patient waiter still wants the full-fidelity answer.
        """
        if self._closed or self._runner is None:
            raise DrainingError(
                "server is draining; no new work accepted")
        submit_ns = time.perf_counter_ns()
        fut = self._inflight.get(task.key)
        if fut is None:
            # an answer already in the cache's memory tier costs one
            # lookup, here on the loop: no batch, no thread hop
            cached = self.engine.lookup(task)
            if cached is not None:
                _note_result(submit_ns, submit_ns,
                             time.perf_counter_ns(), "cache")
                return cached
            fut = asyncio.get_running_loop().create_future()
            fut.add_done_callback(mark_retrieved)
            self._inflight[task.key] = fut
            self._deadlines[task.key] = deadline_s
            self._pending.append(task)
            self._wakeup.set()
        else:
            if task.key in self._deadlines:
                prev = self._deadlines[task.key]
                self._deadlines[task.key] = (
                    None if prev is None or deadline_s is None
                    else max(prev, deadline_s))
            get_registry().counter(
                "repro_serve_singleflight_joins_total",
                "requests served by joining an identical in-flight "
                "computation").inc(kind=task.kind)
        try:
            # shield: one waiter hitting its deadline must not cancel
            # the computation other waiters (or the cache) still want
            return await asyncio.shield(fut)
        finally:
            # _run_batch stamps (batch_start_ns, source) via
            # detach_future before it settles; joiners read the same
            # stamp
            batch_start_ns, source = future_meta(fut)
            _note_result(submit_ns, batch_start_ns,
                         time.perf_counter_ns(), source)

    async def _run_loop(self) -> None:
        # no timer: whatever queued while the last batch ran is the
        # next batch, and an idle runner wakes on the first submit
        while True:
            await self._wakeup.wait()
            batch = self._pending[:self.max_batch]
            del self._pending[:len(batch)]
            if not self._pending:
                self._wakeup.clear()
            if batch:
                await self._run_batch(batch)

    async def _run_batch(self, batch: List[ExecTask]) -> None:
        registry = get_registry()
        registry.counter(
            "repro_serve_batches_total",
            "engine batches executed by the micro-batcher").inc()
        registry.histogram(
            "repro_serve_batch_size",
            "tasks per micro-batch (after single-flight dedupe)",
            ).observe(float(len(batch)))
        loop = asyncio.get_running_loop()
        batch_start_ns = time.perf_counter_ns()
        sources: Dict[str, str] = {}
        # stamp each task with the loosest budget its waiters merged
        # (joiners may have loosened it since the task was enqueued)
        batch = [replace(task,
                         deadline_s=self._deadlines.pop(task.key,
                                                        task.deadline_s))
                 for task in batch]
        try:
            results = await loop.run_in_executor(
                self._thread,
                functools.partial(self._engine_call,
                                  ExecPlan(list(batch)), sources))
        except asyncio.CancelledError:
            # drain cancelled the runner mid-batch: leave the waiter
            # futures pending — drain() settles them with DrainingError
            # (absorbing the cancellation here would leak it into every
            # waiter and leave this task alive)
            raise
        except BaseException as exc:   # noqa: BLE001 - routed to waiters
            # the engine fails a plan atomically (deterministic
            # min-index propagation), so every waiter of this batch
            # sees the same error
            for task in batch:
                fut = self._inflight.pop(task.key, None)
                if fut is not None and not fut.done():
                    detach_future(fut, batch_start_ns)
                    fut.set_exception(exc)
        else:
            for task, result in zip(batch, results):
                fut = self._inflight.pop(task.key, None)
                if fut is not None and not fut.done():
                    detach_future(fut, batch_start_ns,
                                  sources.get(task.key))
                    fut.set_result(result)

    def _engine_call(self, plan: ExecPlan, sources: Dict[str, str],
                     ) -> List[Dict[str, object]]:
        """The engine call, on the batch thread (sync) — also the
        service-chaos slow-batch injection point, which must sleep on
        this thread, never the event loop."""
        if os.environ.get("REPRO_CHAOS_DIR"):  # resilience.chaos.ENV_CHAOS_DIR
            from ..resilience.chaos import chaos_point
            chaos_point("batch")
        return self.engine.run(plan, sources)

    async def drain(self, timeout_s: float = 5.0) -> bool:
        """Stop accepting work and settle every in-flight future.

        Waits up to ``timeout_s`` for running work to finish; whatever
        remains is resolved with :class:`DrainingError` (well-formed
        errors, never hangs).  Returns True when everything completed
        within the budget.
        """
        self._closed = True
        waiting = [f for f in self._inflight.values() if not f.done()]
        clean = True
        if waiting:
            done, still_pending = await asyncio.wait(
                waiting, timeout=timeout_s)
            clean = not still_pending
        if self._runner is not None:
            self._runner.cancel()
            try:
                await self._runner
            except asyncio.CancelledError:
                pass
            self._runner = None
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_exception(DrainingError(
                    "server shut down before this request completed"))
        self._inflight.clear()
        self._pending.clear()
        self._deadlines.clear()
        if self._thread is not None:
            # an abandoned batch keeps its thread until the engine call
            # returns; wait only when nothing was abandoned
            self._thread.shutdown(wait=clean)
            self._thread = None
        return clean
