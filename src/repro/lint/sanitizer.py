"""Runtime concurrency sanitizer (``REPRO_SANITIZE=1`` / ``--sanitize``).

The static tier (R007-R011) proves what it can from source; this
module watches the *dynamic* residue while the real server runs.
Threat model — the three concurrency failures that static analysis
cannot rule out:

* **event-loop blocking** — a callback that holds the loop longer
  than ``block_threshold_ms`` (default 250 ms, env
  ``REPRO_SANITIZE_THRESHOLD_MS``) stalls every in-flight request;
  detected by timing ``asyncio.events.Handle._run``.
* **lost futures** — "exception was never retrieved" / "Task was
  destroyed but it is pending" surface at garbage-collection time via
  the loop exception handler; the sanitizer classifies and records
  them instead of letting them scroll past in a log.
* **cross-process nondeterminism** — the same task key producing
  different payload digests (engine results are content-addressed, so
  any divergence means a worker broke the purity contract), plus the
  double-run harness: serve the identical seeded load twice and diff
  the ordering-sensitive response bodies.

The sanitizer is strictly observational: it never changes scheduling,
so a clean sanitized run is evidence about the *production* code
path.  Reports are capped (the first ``_MAX_REPORTS`` are kept, the
rest counted as suppressed) so a hot failure cannot OOM the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

_MAX_REPORTS = 200

_TRUTHY = ("1", "true", "yes", "on")


def _describe(obj: object, limit: int = 200) -> str:
    try:
        text = repr(obj)
    except Exception:           # noqa: BLE001 - repr() of anything
        text = f"<unreprable {type(obj).__name__}>"
    return text if len(text) <= limit else text[:limit - 3] + "..."


class ConcurrencySanitizer:
    """Collects concurrency-hazard reports from one process."""

    def __init__(self, block_threshold_ms: Optional[float] = None):
        if block_threshold_ms is None:
            block_threshold_ms = float(os.environ.get(
                "REPRO_SANITIZE_THRESHOLD_MS", "250"))
        self.block_threshold_ms = block_threshold_ms
        self.reports: List[Dict[str, object]] = []
        self.suppressed = 0
        self._lock = threading.Lock()
        self._digests: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._orig_handle_run = None

    # -- collection ------------------------------------------------------

    def record(self, kind: str, detail: str,
               value_ms: float = 0.0) -> None:
        with self._lock:
            if len(self.reports) >= _MAX_REPORTS:
                self.suppressed += 1
                return
            self.reports.append({
                "kind": kind,
                "detail": detail,
                "value_ms": round(value_ms, 3),
            })

    def observe_result(self, kind: str, key: str, payload: object,
                       source: str) -> None:
        """Cross-process determinism check: one key, one digest.

        Called by the engine every time a task result lands (from a
        worker or the cache).  The first sighting pins the digest;
        any later sighting with a different digest is a divergence.
        """
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str)
            .encode("utf-8")).hexdigest()[:16]
        with self._lock:
            prior = self._digests.get((kind, key))
            if prior is None:
                self._digests[(kind, key)] = (digest, source)
                return
        if prior[0] != digest:
            self.record(
                "cross_process_divergence",
                f"task {kind}:{key[:16]} produced digest {digest} "
                f"(source={source}) but {prior[0]} earlier "
                f"(source={prior[1]})")

    # -- loop instrumentation -------------------------------------------

    def install(self) -> None:
        """Patch ``Handle._run`` to time every loop callback."""
        if self._orig_handle_run is not None:
            return
        import asyncio.events
        orig = asyncio.events.Handle._run
        threshold_ms = self.block_threshold_ms
        sanitizer = self

        def _timed_run(handle):
            t0 = time.perf_counter()
            try:
                return orig(handle)
            finally:
                dt_ms = (time.perf_counter() - t0) * 1e3
                if dt_ms >= threshold_ms:
                    sanitizer.record(
                        "loop_block",
                        f"callback held the event loop for "
                        f"{dt_ms:.0f} ms: "
                        f"{_describe(getattr(handle, '_callback', None))}",
                        dt_ms)

        self._orig_handle_run = orig
        # the sanitizer's whole job is this one foreign write: timing
        # instrumentation on the loop's callback runner
        asyncio.events.Handle._run = _timed_run  # repro-lint: disable=R009

    def uninstall(self) -> None:
        if self._orig_handle_run is None:
            return
        import asyncio.events
        asyncio.events.Handle._run = self._orig_handle_run  # repro-lint: disable=R009
        self._orig_handle_run = None

    def loop_exception_handler(self, loop, context) -> None:
        """Classify loop-level failures, then defer to the default."""
        message = str(context.get("message") or "")
        if "never retrieved" in message:
            kind = "unretrieved_future"
        elif "Task was destroyed" in message:
            kind = "pending_task_destroyed"
        else:
            kind = "loop_exception"
        detail = message or _describe(context.get("exception"))
        future = context.get("future") or context.get("task")
        if future is not None:
            detail += f" [{_describe(future)}]"
        self.record(kind, detail)
        loop.default_exception_handler(context)

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        with self._lock:
            by_kind: Dict[str, int] = {}
            for report in self.reports:
                kind = str(report["kind"])
                by_kind[kind] = by_kind.get(kind, 0) + 1
            return {
                "block_threshold_ms": self.block_threshold_ms,
                "reports": list(self.reports),
                "by_kind": dict(sorted(by_kind.items())),
                "suppressed": self.suppressed,
            }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---- process-global wiring -----------------------------------------------

_ACTIVE: Optional[ConcurrencySanitizer] = None
_ACTIVE_LOCK = threading.Lock()


def get_sanitizer() -> Optional[ConcurrencySanitizer]:
    """The active sanitizer, or None when sanitizing is off."""
    return _ACTIVE


def set_sanitizer(sanitizer: Optional[ConcurrencySanitizer]
                  ) -> Optional[ConcurrencySanitizer]:
    """Activate (install) a sanitizer; returns the previous one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        if previous is not None:
            previous.uninstall()
        _ACTIVE = sanitizer
        if sanitizer is not None:
            sanitizer.install()
        return previous


def sanitize_enabled(flag: bool = False) -> bool:
    """--sanitize flag OR the ``REPRO_SANITIZE`` environment switch."""
    return flag or os.environ.get(
        "REPRO_SANITIZE", "").strip().lower() in _TRUTHY


@contextlib.contextmanager
def sanitized(block_threshold_ms: Optional[float] = None):
    """Scope with a fresh active sanitizer; restores the previous."""
    sanitizer = ConcurrencySanitizer(
        block_threshold_ms=block_threshold_ms)
    previous = set_sanitizer(sanitizer)
    try:
        yield sanitizer
    finally:
        set_sanitizer(previous)


# ---- double-run serve harness --------------------------------------------

def diff_double_run(first: Dict[str, object],
                    second: Dict[str, object]) -> Dict[str, object]:
    """Diff two loadgen reports on ordering-sensitive identity.

    :func:`repro.serve.loadgen.diff_bodies` pairs the rows; a
    full-fidelity body digest mismatch or a row present in only one
    run is a divergence.
    """
    from ..serve.loadgen import diff_bodies

    diff = diff_bodies(first, second)
    divergences = sorted(
        [f"{rid}: present in only one run" for rid in diff["unpaired"]]
        + [f"{rid}: full-fidelity body digest mismatch"
           for rid in diff["mismatched"]])
    return {"divergences": divergences, "compared": diff["compared"],
            "excused": diff["excused"]}


def double_run_serve(serve_config, loadgen_config,
                     sanitizer: Optional[ConcurrencySanitizer] = None):
    """Serve the identical seeded load twice and diff the bodies.

    Each run gets a fresh server (own thread, own engine); the seeded
    loadgen schedule is byte-identical across runs, so any
    full-fidelity body difference is real nondeterminism.  Returns
    ``(reports, diff)``; divergences are also recorded on the given
    sanitizer as ``double_run_divergence``.
    """
    from ..serve.loadgen import run_phase
    from ..serve.server import start_in_thread

    reports = [run_phase(loadgen_config,
                         lambda: start_in_thread(serve_config)).report
               for _ in range(2)]
    diff = diff_double_run(reports[0], reports[1])
    if sanitizer is not None:
        for divergence in diff["divergences"]:
            sanitizer.record("double_run_divergence", divergence)
    return reports, diff
