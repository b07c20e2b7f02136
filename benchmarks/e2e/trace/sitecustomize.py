"""Span recorder for traced benchmark runs.

Put this directory first on ``PYTHONPATH`` and set ``E2E_TRACE_DIR``;
every Python process started that way (and each process it starts with
the same environment) then records a span around each call of the
public functions in :data:`TARGETS`.  Without ``E2E_TRACE_DIR`` the
module does nothing.

Functions are wrapped where they are defined, right after their module
first executes, and every binding of the original function object in
that module is replaced by the wrapper, so ``from x import f`` in a
module imported later picks up the wrapper.  A target that does not
exist is skipped: its layer simply records no calls.

A span is ``[layer, start_ns, end_ns, id, parent_id, request_id, n]``
on ``time.perf_counter_ns`` (CLOCK_MONOTONIC, comparable across the
processes of one machine).  ``parent_id`` is the span open in the same
thread or asyncio task when the call began; ``request_id`` is the
program's active request (``repro.obs.context.current_request_id``) or
the ``X-Request-Id`` the call carries; ``n`` is a size where one is
meaningful (instructions simulated, tasks per engine run).  Spans stay
in memory and are written to ``E2E_TRACE_DIR/spans-<pid>.json`` when
the process exits or receives SIGTERM.
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import importlib.abc
import inspect
import itertools
import json
import os
import signal
import sys
import time

#: (layer, module, attribute path) for every wrapped public function
TARGETS = (
    ("workloads.resolve", "repro.workloads.resolve", "resolve_workload"),
    ("core.simulate", "repro.core.pipeline", "simulate"),
    ("fastsim.extract", "repro.fastsim.extract", "extract_stream"),
    ("fastsim.replay", "repro.fastsim.replay", "simulate_fast"),
    ("power.report", "repro.power.einspower", "EinspowerModel.report"),
    ("fastsim.batch_power", "repro.fastsim.power_eval", "batch_power"),
    ("exec.fingerprint", "repro.exec.cache", "fingerprint_trace"),
    ("exec.fingerprint", "repro.exec.cache", "task_fingerprint"),
    ("exec.cache_get", "repro.exec.cache", "ResultCache.get"),
    ("exec.cache_put", "repro.exec.cache", "ResultCache.put"),
    ("exec.codec", "repro.exec.cache", "sim_result_to_json"),
    ("exec.codec", "repro.exec.cache", "sim_result_from_json"),
    ("exec.engine", "repro.exec.executor", "Engine.run"),
    ("serve.http", "repro.serve.http", "read_request"),
    ("serve.http", "repro.serve.http", "write_response"),
    ("serve.protocol", "repro.serve.protocol", "decode_json"),
    ("serve.protocol", "repro.serve.protocol", "SimulateRequest.from_json"),
    ("serve.protocol", "repro.serve.protocol", "CompareRequest.from_json"),
    ("serve.protocol", "repro.serve.protocol", "EstimateRequest.from_json"),
    ("serve.protocol", "repro.serve.protocol", "InjectRequest.from_json"),
    ("serve.proxy", "repro.serve.admission", "ProxyFastPath.estimate"),
    ("cluster.upstream", "repro.serve.http", "fetch"),
)

_SPANS: list = []
_IDS = itertools.count(1)
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "e2e_span", default=None)
#: id(original function) -> (original, wrapper); originals are kept
#: alive so their ids cannot be reused
_WRAPPED: dict = {}
_FLUSHED = []


def _active_request_id():
    context = sys.modules.get("repro.obs.context")
    return context.current_request_id() if context is not None else None


def _header(headers, name):
    if isinstance(headers, dict):
        for key, value in headers.items():
            if str(key).lower() == name:
                return value
    return None


def _simulate_size(args, kwargs):
    trace = args[1] if len(args) > 1 else kwargs.get("trace")
    instructions = getattr(trace, "instructions", None)
    return None, (len(instructions) if instructions is not None else None)


def _engine_size(args, kwargs):
    plan = args[1] if len(args) > 1 else kwargs.get("plan")
    tasks = list(getattr(plan, "tasks", plan) or ())
    tags = [t for task in tasks for t in getattr(task, "tags", ())]
    return (tags[0] if tags else None), len(tasks)


def _write_response_rid(args, kwargs):
    extra = args[3] if len(args) > 3 else kwargs.get("extra")
    return _header(extra, "x-request-id"), None


def _fetch_rid(args, kwargs):
    return _header(kwargs.get("headers"), "x-request-id"), None


#: per-target (request id, size) extractors from the call's arguments
_DETAILS = {
    "simulate": _simulate_size,
    "Engine.run": _engine_size,
    "write_response": _write_response_rid,
    "fetch": _fetch_rid,
}


def _record(layer, start, end, sid, parent, rid, size):
    if rid is None:
        rid = _active_request_id()
    _SPANS.append([layer, start, end, sid, parent, rid, size])


def _wrap_sync(layer, fn, details):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            rid, size = details(args, kwargs) if details else (None, None)
            _record(layer, start, end, sid, parent, rid, size)
    return wrapper


def _wrap_async(layer, fn, details):
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        parent = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set(sid)
        start = time.perf_counter_ns()
        try:
            return await fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            rid, size = details(args, kwargs) if details else (None, None)
            _record(layer, start, end, sid, parent, rid, size)
    return wrapper


class _FirstLineReader:
    """Stream-reader view that notes when the request line arrived, so
    a keep-alive connection's idle wait is not charged to parsing."""

    def __init__(self, reader):
        self._reader = reader
        self.first_line_ns = None

    async def readline(self):
        line = await self._reader.readline()
        if self.first_line_ns is None:
            self.first_line_ns = time.perf_counter_ns()
        return line

    def __getattr__(self, name):
        return getattr(self._reader, name)


def _wrap_read_request(layer, fn):
    @functools.wraps(fn)
    async def wrapper(reader, *args, **kwargs):
        view = _FirstLineReader(reader)
        parent = _CURRENT.get()
        sid = next(_IDS)
        token = _CURRENT.set(sid)
        request = None
        try:
            request = await fn(view, *args, **kwargs)
            return request
        finally:
            end = time.perf_counter_ns()
            _CURRENT.reset(token)
            if request is not None and view.first_line_ns is not None:
                rid = _header(request[2], "x-request-id")
                _record(layer, view.first_line_ns, end, sid, parent, rid,
                        None)
    return wrapper


def _wrap_fetch(layer, fn, details):
    inner = _wrap_async(layer, fn, details)

    @functools.wraps(fn)
    async def wrapper(host, port, method, path, *args, **kwargs):
        # health probes are not request work
        if not str(path).startswith("/v1/"):
            return await fn(host, port, method, path, *args, **kwargs)
        return await inner(host, port, method, path, *args, **kwargs)
    return wrapper


def _make_wrapper(layer, attr, fn):
    name = attr.rsplit(".", 1)[-1]
    details = _DETAILS.get(attr)
    if name == "read_request":
        return _wrap_read_request(layer, fn)
    if name == "fetch":
        return _wrap_fetch(layer, fn, details)
    if inspect.iscoroutinefunction(fn):
        return _wrap_async(layer, fn, details)
    return _wrap_sync(layer, fn, details)


def _instrument(module) -> None:
    for layer, modname, attr in TARGETS:
        if modname != module.__name__:
            continue
        owner_path, _, name = attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        raw = vars(owner).get(name) if owner is not None else None
        if raw is None:
            continue
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        if not callable(fn) or id(fn) in _WRAPPED:
            continue
        wrapper = _make_wrapper(layer, attr, fn)
        _WRAPPED[id(fn)] = (fn, wrapper)
        setattr(owner, name,
                classmethod(wrapper) if is_classmethod else wrapper)
    for key, value in list(vars(module).items()):
        entry = _WRAPPED.get(id(value))
        if entry is not None and entry[0] is value:
            setattr(module, key, entry[1])


class _Finder(importlib.abc.MetaPathFinder):
    """Instruments each ``repro`` module right after it executes."""

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        loader = spec.loader
        if loader is None or not hasattr(loader, "exec_module"):
            return spec
        original = loader.exec_module

        def exec_module(module):
            original(module)
            _instrument(module)

        loader.exec_module = exec_module
        return spec


def _flush() -> None:
    if _FLUSHED:
        return
    _FLUSHED.append(True)
    out_dir = os.environ.get("E2E_TRACE_DIR")
    path = os.path.join(out_dir, f"spans-{os.getpid()}.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"pid": os.getpid(), "argv": sys.argv,
                   "spans": _SPANS}, fh)
    os.replace(tmp, path)


def _on_sigterm(signum, frame) -> None:
    if _FLUSHED:
        return                  # already exiting and writing its spans
    _flush()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


def _after_fork_in_child() -> None:
    # a forked worker starts with its parent's spans; keep only its own
    _SPANS.clear()
    _FLUSHED.clear()


if os.environ.get("E2E_TRACE_DIR"):
    sys.meta_path.insert(0, _Finder())
    atexit.register(_flush)
    if signal.getsignal(signal.SIGTERM) is signal.SIG_DFL:
        signal.signal(signal.SIGTERM, _on_sigterm)
    os.register_at_fork(after_in_child=_after_fork_in_child)
