"""The one asyncio HTTP/1.1 front end, shared by server and router.

:class:`~repro.serve.server.ReproServer` and the cluster router
(:class:`~repro.cluster.router.ClusterRouter`) are both
:class:`FrontEnd` subclasses, so everything about talking HTTP lives
here once:

* the wire reader and writer (:func:`read_request`,
  :func:`read_response`, :func:`write_response`) — strict about what
  they accept: ``Content-Length`` is ``1*DIGIT`` and may repeat only
  with one value, ``Transfer-Encoding`` is refused, and a head cut off
  by EOF is malformed, never a request with defaults filled in;
* the keep-alive connection loop (400-and-close on a malformed
  request, quiet close on EOF or reset) and the connection-task set
  that drain and abort wait on;
* the shared routes: ``GET /healthz`` renders the document each front
  end supplies, ``GET /metrics`` is the registry as JSON, or as
  Prometheus text under ``Accept: text/plain``; an unknown route gets
  the structured 404 body and a wrong method a 400;
* the exception -> structured error body + ``Retry-After`` mapping;
* :class:`ThreadHost`, which runs either front end on its own thread
  and event loop with a thread-safe control plane.

Subclasses add only what is theirs: the ``/v1/*`` handler
(:meth:`FrontEnd._post`), the health document, and their drain.  The
router also proxies upstream with :func:`fetch`, which forwards body
bytes verbatim — the stdlib blocking client (``http.client``) is
banned inside async code by R007, and a parsing client would not
guarantee bit-identical bodies.

No clocks and no RNGs: the module stays inside the R003 determinism
scope with no allowance.
"""

from __future__ import annotations

import asyncio
import json
import re
import threading
from typing import Callable, Dict, Optional, Tuple

from ..errors import DrainingError, ReproError, ServeError
from ..obs.metrics import get_registry
from ..obs.prometheus import CONTENT_TYPE as _PROMETHEUS_CONTENT_TYPE
from ..obs.prometheus import render_prometheus
from . import protocol

MAX_BODY_BYTES = 1 << 20
MAX_HEADERS = 100

REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 413: "Payload Too Large",
           500: "Internal Server Error", 503: "Service Unavailable",
           504: "Gateway Timeout"}

_DIGITS = re.compile(r"[0-9]+")

#: ``(status, document, extra headers)``: one answer, before encoding
Response = Tuple[int, object, Dict[str, str]]


def _line(raw: bytes, what: str) -> bytes:
    """A complete line; a partial one means the peer hung up mid-head."""
    if not raw.endswith(b"\n"):
        raise ServeError(f"truncated {what}: connection closed "
                         f"after {raw[:80]!r}")
    return raw


async def _read_headers(reader) -> Dict[str, str]:
    """Read header lines up to the blank separator (names lowercased)."""
    headers: Dict[str, str] = {}
    for count in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readline()
        except ValueError as exc:
            raise ServeError(f"header too long: {exc}") from exc
        if raw in (b"\r\n", b"\n"):
            return headers
        if count == MAX_HEADERS:
            break
        name, sep, value = _line(raw, "head").decode(
            "latin-1").partition(":")
        if not sep:
            raise ServeError(f"malformed header: {raw[:80]!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" \
                and headers.get(name, value) != value:
            raise ServeError("conflicting Content-Length headers")
        headers[name] = value
    raise ServeError(f"more than {MAX_HEADERS} headers")


def _body_length(headers: Dict[str, str]) -> int:
    if "transfer-encoding" in headers:
        raise ServeError("Transfer-Encoding is not supported; send a "
                         "Content-Length body")
    raw = headers.get("content-length", "0")
    if not _DIGITS.fullmatch(raw):
        raise ServeError(f"bad Content-Length: {raw[:40]!r}")
    digits = raw.lstrip("0")
    # more significant digits than the limit has is over the limit
    # (and int() refuses a few thousand digits)
    length = (int(raw) if len(digits) <= len(str(MAX_BODY_BYTES))
              else MAX_BODY_BYTES + 1)
    if length > MAX_BODY_BYTES:
        raise ServeError(
            f"body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit")
    return length


async def read_request(reader,
                       ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One HTTP/1.1 request; None on clean EOF.

    Returns ``(method, path, headers, body)`` or raises
    :class:`ServeError` on a malformed request.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:           # request line over the limit
        raise ServeError(f"request line too long: {exc}") from exc
    if not line:
        return None
    parts = _line(line, "request line").split()
    if len(parts) != 3:
        raise ServeError(f"malformed request line: {line[:80]!r}")
    method = parts[0].decode("latin-1").upper()
    path = parts[1].decode("latin-1").split("?", 1)[0]
    headers = await _read_headers(reader)
    length = _body_length(headers)
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


async def read_response(reader) -> Tuple[int, Dict[str, str], bytes]:
    """One HTTP/1.1 response: ``(status, headers, raw body bytes)``.

    The body is returned verbatim (never decoded or re-serialized) so
    a proxy built on this parser preserves bit-identity by
    construction.  Raises :class:`ServeError` on a malformed status
    line and lets ``asyncio.IncompleteReadError`` surface for torn
    bodies — a proxy must treat those as transport failures, not
    answers.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:
        raise ServeError(f"status line too long: {exc}") from exc
    if not line:
        raise ServeError("empty response (connection closed)")
    parts = _line(line, "status line").split(None, 2)
    if len(parts) < 2 or not parts[0].startswith(b"HTTP/") \
            or not re.fullmatch(rb"[0-9]{3}", parts[1]):
        raise ServeError(f"malformed status line: {line[:80]!r}")
    status = int(parts[1])
    headers = await _read_headers(reader)
    length = _body_length(headers)
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


def encode_request(method: str, path: str, body: bytes,
                   headers: Dict[str, str]) -> bytes:
    """Render one request head + body (Content-Length supplied here)."""
    lines = [f"{method} {path} HTTP/1.1",
             f"Content-Length: {len(body)}"]
    for name, value in headers.items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def encode_response(status: int, doc, extra: Dict[str, str],
                    keep_alive: bool) -> bytes:
    """Render one response: dict -> canonical JSON, str -> UTF-8 text
    (pre-rendered Prometheus exposition), bytes -> verbatim passthrough
    (the proxy path — upstream body bytes must never be re-encoded)."""
    if isinstance(doc, bytes):
        payload = doc
    elif isinstance(doc, str):
        payload = doc.encode("utf-8")
    else:
        payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    extra = dict(extra)
    ctype = extra.pop("Content-Type", "application/json")
    lines = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
             f"Content-Type: {ctype}",
             f"Content-Length: {len(payload)}",
             f"Connection: {'keep-alive' if keep_alive else 'close'}"]
    for name, value in sorted(extra.items()):
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + payload


async def write_response(writer, status: int, doc,
                         extra: Dict[str, str],
                         keep_alive: bool) -> None:
    writer.write(encode_response(status, doc, extra, keep_alive))
    await writer.drain()


async def fetch(host: str, port: int, method: str, path: str, *,
                body: bytes = b"", headers: Optional[Dict[str, str]] = None,
                timeout_s: float = 60.0,
                ) -> Tuple[int, Dict[str, str], bytes]:
    """One asyncio HTTP exchange on a fresh connection.

    The cluster router's upstream transport: opens a connection, sends
    one ``Connection: close`` request, and returns the parsed status /
    headers plus the *raw* body bytes.  Transport failures surface as
    ``OSError`` / ``asyncio.TimeoutError`` / ``asyncio.
    IncompleteReadError`` so the caller can fail the shard over.
    """
    hdrs = {"Connection": "close"}
    if headers:
        hdrs.update(headers)
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout=timeout_s)
    try:
        writer.write(encode_request(method, path, body, hdrs))
        await writer.drain()
        return await asyncio.wait_for(read_response(reader),
                                      timeout=timeout_s)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


class FrontEnd:
    """Listener, connection loop and shared routes of one front end.

    Subclasses implement :meth:`_post` (a ``/v1/*`` request, answered
    or raised) and :meth:`_healthz_doc`, call :meth:`_listen` from
    their ``start()``, and drain with :meth:`_close_listener` and
    :meth:`_settle_connections`.  A subclass that must see every
    request whole (its own context, chaos hooks, bookkeeping) wraps
    :meth:`_respond` around :meth:`_route`.
    """

    def __init__(self) -> None:
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._draining = False
        self._conn_tasks: set = set()

    # ---- what a subclass supplies -------------------------------------

    def _healthz_doc(self) -> Dict[str, object]:
        raise NotImplementedError

    async def _post(self, path: str, headers: Dict[str, str],
                    body: bytes) -> Response:
        raise NotImplementedError

    def _draining_error(self) -> ReproError:
        return DrainingError("server is draining")

    # ---- lifecycle ----------------------------------------------------

    async def _listen(self, host: str, port: int) -> None:
        self._server = await asyncio.start_server(self._handle_conn,
                                                  host, port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def _close_listener(self) -> None:
        """Start draining: refuse new connections and new work."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _settle_connections(self, timeout_s: float) -> bool:
        """Let in-flight connections flush their answers, then cancel
        what is left; True when none had to be cancelled."""
        tasks = [t for t in self._conn_tasks if not t.done()]
        if not tasks:
            return True
        _done, pending = await asyncio.wait(tasks, timeout=timeout_s)
        for task in pending:
            task.cancel()
        return not pending

    async def abort(self) -> None:
        """Abrupt death (failover drills, :meth:`ThreadHost.kill`):
        close the listener and cancel in-flight connections without
        flushing responses.  Clients see transport errors — never torn
        bodies — which is exactly what a router's shard-failover path
        must handle; a graceful drain would instead answer everything
        with well-formed ``shutting_down`` errors.
        """
        await self._close_listener()
        pending = [t for t in self._conn_tasks if not t.done()]
        for task in pending:
            task.cancel()
        if pending:
            done, _ = await asyncio.wait(pending, timeout=2.0)
            for task in done:
                # retrieve expected abort-path errors so the event
                # loop never logs "exception was never retrieved"
                if not task.cancelled():
                    task.exception()

    # ---- requests -----------------------------------------------------

    async def _route(self, method: str, path: str,
                     headers: Dict[str, str], body: bytes) -> Response:
        """The shared routes; every failure becomes a structured body."""
        try:
            if path in ("/healthz", "/metrics") and method != "GET":
                raise ServeError(f"use GET for {path}")
            if path == "/healthz":
                return 200, self._healthz_doc(), {}
            if path == "/metrics":
                if "text/plain" in headers.get("accept", "").lower():
                    return (200, render_prometheus(get_registry()),
                            {"Content-Type": _PROMETHEUS_CONTENT_TYPE})
                return 200, get_registry().collect(), {}
            if path not in protocol.REQUEST_TYPES:
                return 404, {
                    "ok": False,
                    "error": {"code": "not_found",
                              "type": "ServeError",
                              "message": f"no route {path}"}}, {}
            if method != "POST":
                raise ServeError(f"use POST for {path}")
            if self._draining:
                raise self._draining_error()
            return await self._post(path, headers, body)
        except Exception as exc:        # noqa: BLE001 - structured body
            # a 503 tells the caller when to come back
            _code, status = protocol.error_status(exc)
            extra = {"Retry-After": "1"} if status == 503 else {}
            return status, protocol.error_body(exc), extra

    async def _respond(self, method: str, path: str,
                       headers: Dict[str, str],
                       body: bytes) -> Optional[Response]:
        """One request's answer; None drops the connection unanswered."""
        return await self._route(method, path, headers, body)

    async def _handle_conn(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ServeError as exc:
                    await write_response(
                        writer, 400, protocol.error_body(exc), {},
                        keep_alive=False)
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                method, path, headers, body = request
                answer = await self._respond(method, path, headers, body)
                if answer is None:
                    break
                status, doc, extra = answer
                keep = (headers.get("connection", "").lower() != "close"
                        and not self._draining)
                await write_response(writer, status, doc, extra,
                                     keep_alive=keep)
                if not keep:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # drain cancelled an idle keep-alive connection; suppress so
            # the stream protocol's done-callback doesn't log the stack
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                # a cancelled task re-raises at any await; the socket
                # is closed either way
                pass


class ThreadHost:
    """A front end running on its own thread and event loop (tests,
    ``--self-serve``, cluster workers and the cluster router).

    The host owns its whole lifecycle: :meth:`start` spins up the
    thread and loop and only ever writes the host's *own* state.
    Other threads reach the front end through :meth:`call`, which
    marshals a coroutine onto its loop with
    ``run_coroutine_threadsafe``.
    """

    def __init__(self, name: str = "repro-serve") -> None:
        self.port: Optional[int] = None
        self.error: Optional[BaseException] = None
        self.clean: Optional[bool] = None
        #: the hosted front end, once it listens
        self.app: Optional[FrontEnd] = None
        self._name = name
        self._loop = None
        self._stop_event = None
        self._abort = False
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    def start(self, factory: Callable[[], FrontEnd],
              timeout_s: float = 60.0) -> None:
        """Build the front end on a new thread; returns once it
        listens (or re-raises what stopped it from starting)."""
        started = threading.Event()

        async def _main() -> None:
            app = factory()
            try:
                await app.start()
            except BaseException as exc:  # noqa: BLE001 - to caller
                self.error = exc
                started.set()
                return
            self.app = app
            self.port = app.port
            self._loop = asyncio.get_running_loop()
            self._stop_event = asyncio.Event()
            started.set()
            await self._stop_event.wait()
            if self._abort:             # kill(): no drain, no flush
                self.clean = False
                await app.abort()
            else:
                self.clean = await app.stop()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(_main()),
            name=self._name, daemon=True)
        self._thread.start()
        if not started.wait(timeout=timeout_s):
            raise ServeError(
                f"{self._name} did not start within {timeout_s:.0f}s")
        if self.error is not None:
            raise self.error

    def _halt(self, timeout_s: float, what: str) -> None:
        if self._loop is not None and self._stop_event is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop_event.set)
            except RuntimeError:
                pass                    # loop already closed
        self._thread.join(timeout=timeout_s)
        if self._thread.is_alive():
            raise ServeError(f"{self._name} thread did not {what} "
                             f"in time")

    def stop(self, timeout_s: float = 30.0) -> bool:
        """Request a graceful drain and join the thread; True when the
        front end drained clean."""
        self._halt(timeout_s, "stop")
        return bool(self.clean)

    def kill(self, timeout_s: float = 10.0) -> None:
        """Abrupt death for failover drills: in-flight connections are
        cancelled (clients see transport errors), nothing drains.

        The closest a thread-hosted worker can get to SIGKILL; the
        cluster's worker-down chaos class and kill-a-shard tests use it
        to prove the router re-routes without losing requests.
        """
        self._abort = True
        self._halt(timeout_s, "die")

    def call(self, method: Callable, *args, timeout_s: float = 10.0):
        """Run ``await method(app, *args)`` on the host's loop from any
        other thread and return its result."""
        if self._loop is None or self.app is None:
            raise ServeError(f"{self._name} is not running")
        future = asyncio.run_coroutine_threadsafe(
            method(self.app, *args), self._loop)
        return future.result(timeout=timeout_s)
