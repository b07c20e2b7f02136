"""Request-scoped observability context.

One :class:`RequestContext` travels with a served request from the
moment the HTTP front end accepts it until the response is written —
across coroutine boundaries (``contextvars`` propagate through asyncio
tasks and ``asyncio.to_thread``) and, by explicit tagging, into the
execution engine's worker processes.  Everything request-scoped hangs
off it:

* the request id (client-supplied ``X-Request-Id`` or generated here),
  which the tracer stamps onto every span opened while the context is
  active, so one Perfetto track shows the whole request;
* the latency breakdown: the context tiles the request's wall time
  into ``queue`` (validation / admission / trace build), ``batch``
  (the wait for the batch already running on the engine; zero on an
  idle server) and ``exec`` (engine run) segments that the access log
  reports per request;
* cache attribution (did the engine answer from the content-addressed
  cache?).

The context is deliberately cheap: when nothing installs one (every
non-serve code path), the contextvar read in the tracer is the only
cost, and the disabled-tracer fast path does not even do that.
"""

from __future__ import annotations

import itertools
import os
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Dict, Iterator, List, Optional, Tuple

_REQUEST: ContextVar[Optional["RequestContext"]] = ContextVar(
    "repro_request_context", default=None)

# request ids must stay printable and bounded: they end up in log
# lines, trace args, and response headers
_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._:\-]{0,63}$")
_SEQ = itertools.count()
_PREFIX = os.urandom(3).hex()


def new_request_id() -> str:
    """A process-unique request id (``req-<rand>-<seq>``)."""
    return f"req-{_PREFIX}-{next(_SEQ):06x}"


def clean_request_id(raw: Optional[str]) -> Optional[str]:
    """A client-supplied id, or None when absent/unusable."""
    if raw is None:
        return None
    raw = raw.strip()
    return raw if _ID_RE.match(raw) else None


class RequestContext:
    """Per-request id + latency-segment accounting.

    The segment model tiles the request's lifetime::

        accept ... submit ........ batch start ........ done ... reply
        |-queue-----|--batch-------|---exec-------------|-finalize-|

    ``note_result`` may be called once per engine task (a compare
    request submits many); the breakdown uses the earliest submit, the
    earliest batch start, and the latest completion, so concurrent
    tasks are not double-counted and the three segments still tile the
    interval they jointly cover.
    """

    __slots__ = ("request_id", "route", "method", "started_ns",
                 "first_submit_ns", "first_batch_ns", "last_done_ns",
                 "cache_hit", "sources")

    def __init__(self, request_id: str, *, route: str = "",
                 method: str = ""):
        self.request_id = request_id
        self.route = route
        self.method = method
        self.started_ns = time.perf_counter_ns()
        self.first_submit_ns: Optional[int] = None
        self.first_batch_ns: Optional[int] = None
        self.last_done_ns: Optional[int] = None
        self.cache_hit = False
        self.sources: List[str] = []

    # ---- accounting ---------------------------------------------------

    def note_result(self, submit_ns: int, batch_start_ns: Optional[int],
                    done_ns: int, source: Optional[str] = None) -> None:
        """Record one engine-task (or fast-path) round trip."""
        if self.first_submit_ns is None \
                or submit_ns < self.first_submit_ns:
            self.first_submit_ns = submit_ns
        if batch_start_ns is not None:
            start = max(batch_start_ns, submit_ns)
            if self.first_batch_ns is None \
                    or start < self.first_batch_ns:
                self.first_batch_ns = start
        if self.last_done_ns is None or done_ns > self.last_done_ns:
            self.last_done_ns = done_ns
        if source is not None:
            self.sources.append(source)
            if source == "cache":
                self.cache_hit = True

    # ---- reporting ----------------------------------------------------

    def segments_ns(self, end_ns: Optional[int] = None,
                    ) -> Dict[str, int]:
        """``{"queue": ns, "batch": ns, "exec": ns, "finalize": ns}``;
        the four values sum exactly to the request's wall time."""
        end = end_ns if end_ns is not None else time.perf_counter_ns()
        total = max(0, end - self.started_ns)
        if self.first_submit_ns is None or self.last_done_ns is None:
            # never reached the engine (healthz, validation error):
            # everything it did counts as queue-side work
            return {"queue": total, "batch": 0, "exec": 0,
                    "finalize": 0}
        submit = min(max(self.first_submit_ns, self.started_ns), end)
        batch_start = submit if self.first_batch_ns is None \
            else min(max(self.first_batch_ns, submit), end)
        done = min(max(self.last_done_ns, batch_start), end)
        return {"queue": submit - self.started_ns,
                "batch": batch_start - submit,
                "exec": done - batch_start,
                "finalize": end - done}

    def segment_spans(self, end_ns: Optional[int] = None,
                      ) -> List[Tuple[str, int, int]]:
        """``(name, start_perf_ns, dur_ns)`` per non-empty segment, in
        timeline order — the per-request rows of the Perfetto view."""
        segs = self.segments_ns(end_ns)
        out: List[Tuple[str, int, int]] = []
        cursor = self.started_ns
        for name in ("queue", "batch", "exec"):
            dur = segs[name]
            if dur > 0:
                out.append((name, cursor, dur))
            cursor += dur
        return out


def current_request() -> Optional[RequestContext]:
    """The active request context, or None outside a request."""
    return _REQUEST.get()


def current_request_id() -> Optional[str]:
    ctx = _REQUEST.get()
    return ctx.request_id if ctx is not None else None


def activate(ctx: Optional[RequestContext]) -> Token:
    """Install ``ctx`` as the active request; returns the reset token."""
    return _REQUEST.set(ctx)


def deactivate(token: Token) -> None:
    _REQUEST.reset(token)


@contextmanager
def request_scope(request) -> Iterator[Optional[RequestContext]]:
    """Run a block under a request context.

    ``request`` may be a :class:`RequestContext`, a bare request-id
    string (a lightweight context is created — how engine workers adopt
    the requesting id), or None (no-op).
    """
    if request is None:
        yield None
        return
    ctx = request if isinstance(request, RequestContext) \
        else RequestContext(str(request))
    token = activate(ctx)
    try:
        yield ctx
    finally:
        deactivate(token)
