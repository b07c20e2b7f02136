"""The benchmark's own load generator (standard library only).

One process, one asyncio thread, at most ``connections`` keep-alive
HTTP/1.1 connections.  The loop is open: each request falls due at its
scheduled time whatever happened to earlier ones.  A request that falls
due while every connection is busy waits here, in the generator, and its
latency is timed from when it was due, so a stall in the program shows
up on every request it delays.

The generator reports how late it woke for each request (its own
lateness) and how many requests were waiting for a connection at each
arrival (its backlog).  A run whose lateness p95 exceeds 5 ms, or whose
backlog grows, measured the generator rather than the program and is
marked invalid.
"""

from __future__ import annotations

import asyncio
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

MAX_LATENESS_P95_MS = 5.0
REQUEST_TIMEOUT_S = 20.0


class WireError(Exception):
    """A response that is not well-formed HTTP/1.1."""


class Connection:
    """One keep-alive client connection (reconnects after an error)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str, body: bytes = b"",
                      headers: Optional[Dict[str, str]] = None,
                      ) -> Tuple[int, Dict[str, str], bytes]:
        """One exchange: ``(status, lower-cased headers, raw body)``."""
        if self._writer is None:
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}",
                 "Content-Type: application/json",
                 f"Content-Length: {len(body)}"]
        lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
        try:
            self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode()
                               + body)
            await self._writer.drain()
            return await self._read_response()
        except BaseException:
            await self.close()
            raise

    async def _read_response(self) -> Tuple[int, Dict[str, str], bytes]:
        status_line = await self._reader.readline()
        parts = status_line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/1."):
            raise WireError(f"bad status line {status_line[:80]!r}")
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n"):
                break
            if not line:
                raise WireError("connection closed inside the head")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise WireError(f"bad header {line[:80]!r}")
            headers[name.strip().lower()] = value.strip()
        body = await self._reader.readexactly(
            int(headers.get("content-length", "0")))
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return int(parts[1]), headers, body

    async def close(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        if writer is not None:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


@dataclass
class Result:
    """What happened to one scheduled request."""

    due_ns: int
    sent_ns: int = 0
    done_ns: int = 0
    status: int = 0
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error and self.status == 200

    @property
    def latency_s(self) -> float:
        return (self.done_ns - self.due_ns) / 1e9

    @property
    def wait_s(self) -> float:
        return (self.sent_ns - self.due_ns) / 1e9

    @property
    def service_s(self) -> float:
        """Sent to answered: the latency without the wait for a free
        connection."""
        return (self.done_ns - self.sent_ns) / 1e9


@dataclass
class LoadReport:
    start_ns: int
    end_ns: int
    results: List[Result]
    lateness_ms: List[float]
    backlog: List[int]

    @property
    def lateness_p95_ms(self) -> float:
        return percentile(self.lateness_ms, 95)

    @property
    def backlog_grew(self) -> bool:
        """Did requests pile up in the generator?  Compares the median
        backlog over the second half of the arrivals with the first, so
        a passing burst does not count as growth."""
        half = len(self.backlog) // 2
        if half == 0:
            return False
        return (statistics.median(self.backlog[half:])
                > statistics.median(self.backlog[:half]) + 1)

    @property
    def valid(self) -> bool:
        return (self.lateness_p95_ms <= MAX_LATENESS_P95_MS
                and not self.backlog_grew)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in (0, 100])."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(count: int, beyond: int = 10) -> int:
    """p95, or the highest whole percentile below it (down to p50) that
    leaves at least ``beyond`` of ``count`` samples above it; 0 when
    none does."""
    for pct in range(95, 49, -1):
        if count - math.ceil(pct / 100.0 * count) >= beyond:
            return pct
    return 0


def latencies(results: Sequence[Result]) -> List[float]:
    """Latency in seconds per request; a failure misses every limit."""
    return [r.latency_s if r.ok else math.inf for r in results]


def service_times(results: Sequence[Result]) -> List[float]:
    """Service time in seconds per request; a failure misses every
    limit."""
    return [r.service_s if r.ok else math.inf for r in results]


async def _exchange(conn: Connection, res: Result, method: str, path: str,
                    body: bytes, headers: Dict[str, str]) -> None:
    """One request on ``conn``; fills ``res``, recording any failure."""
    try:
        res.status, res.headers, res.body = await asyncio.wait_for(
            conn.request(method, path, body, headers), REQUEST_TIMEOUT_S)
    except (OSError, asyncio.TimeoutError, asyncio.IncompleteReadError,
            WireError, ValueError) as exc:
        res.error = f"{type(exc).__name__}: {exc}"
    res.done_ns = time.perf_counter_ns()


async def _run(host: str, port: int, schedule, connections: int,
               ) -> LoadReport:
    loop = asyncio.get_running_loop()
    free: asyncio.Queue = asyncio.Queue()
    for _ in range(connections):
        free.put_nowait(Connection(host, port))
    results = [Result(due_ns=0) for _ in schedule]
    lateness: List[float] = []
    backlog: List[int] = []
    waiting = 0
    tasks = []

    async def dispatch(req, res: Result) -> None:
        nonlocal waiting
        waiting += 1
        try:
            conn = await free.get()
        finally:
            waiting -= 1
        res.sent_ns = time.perf_counter_ns()
        await _exchange(conn, res, "POST", req.route, req.body,
                        {"X-Request-Id": req.rid})
        free.put_nowait(conn)

    start_ns = time.perf_counter_ns() + 50_000_000
    for req, res in zip(schedule, results):
        res.due_ns = start_ns + int(req.due_s * 1e9)
        delay = (res.due_ns - time.perf_counter_ns()) / 1e9
        if delay > 0:
            await asyncio.sleep(delay)
        now = time.perf_counter_ns()
        lateness.append(max(0, now - res.due_ns) / 1e6)
        backlog.append(waiting)
        tasks.append(loop.create_task(dispatch(req, res)))
    await asyncio.gather(*tasks)
    while not free.empty():
        await free.get_nowait().close()
    return LoadReport(start_ns, max(r.done_ns for r in results), results,
                      lateness, backlog)


def run_schedule(host: str, port: int, schedule,
                 connections: int) -> LoadReport:
    """Play ``schedule`` (objects with ``due_s``/``route``/``body``/
    ``rid``) against ``host:port``; blocks until every request ends."""
    return asyncio.run(_run(host, port, schedule, connections))


async def _sequential(host: str, port: int, calls) -> List[Result]:
    conn = Connection(host, port)
    out = []
    try:
        for method, path, body, headers in calls:
            res = Result(due_ns=time.perf_counter_ns())
            res.sent_ns = res.due_ns
            await _exchange(conn, res, method, path, body, headers)
            out.append(res)
    finally:
        await conn.close()
    return out


def call(host: str, port: int, calls) -> List[Result]:
    """Send ``(method, path, body, headers)`` calls one after another on
    one connection (set-up, fill and health checks)."""
    return asyncio.run(_sequential(host, port, calls))
