"""The shared HTTP front end under hostile input.

Server and router read requests with the same reader
(:mod:`repro.serve.http`), so one set of hostile requests must get the
same treatment from both: a well-formed 4xx with a stable error code,
no executed work, a closed connection, and a front end that still
answers ``/healthz`` afterwards.  A Hypothesis fuzz pins the reader's
own contract: any bytes followed by EOF end in a parsed message,
``None``, ``ServeError`` or ``IncompleteReadError`` — nothing else,
and never a wait.
"""

import asyncio
import json
import os
import socket

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.errors import ServeError
from repro.obs.metrics import get_registry
from repro.serve import ServeConfig, start_in_thread
from repro.serve.http import read_request, read_response

# ---- fuzzing the reader --------------------------------------------------

_PIECES = [b"GET /healthz HTTP/1.1\r\n", b"POST /v1/simulate HTTP/1.1\r\n",
           b"HTTP/1.1 200 OK\r\n", b"HTTP/1.1 2x0 OK\r\n",
           b"Content-Length: 3\r\n", b"Content-Length: 1_0\r\n",
           b"Content-Length: 4\r\n", b"Content-Length: 99999999999\r\n",
           b"Transfer-Encoding: chunked\r\n", b"X-A: b\r\n", b"nocolon\r\n",
           b"\r\n", b"\n", b"abc", b"\xff\xfe", b" ", b"\r"]

_WIRE = st.one_of(
    st.binary(max_size=300),
    st.lists(st.sampled_from(_PIECES), max_size=12).map(b"".join))


def _outcome(parse, raw: bytes, limit: int):
    async def _go():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(raw)
        reader.feed_eof()
        return await asyncio.wait_for(parse(reader), timeout=2.0)
    try:
        return asyncio.run(_go())
    except (ServeError, asyncio.IncompleteReadError) as exc:
        return exc


class TestReaderFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_WIRE, limit=st.sampled_from([16, 1 << 16]))
    def test_read_request_outcomes(self, raw, limit):
        out = _outcome(read_request, raw, limit)
        if isinstance(out, tuple):
            method, path, headers, body = out
            assert isinstance(headers, dict) and isinstance(body, bytes)
        else:
            assert out is None \
                or isinstance(out, (ServeError, asyncio.IncompleteReadError))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=_WIRE, limit=st.sampled_from([16, 1 << 16]))
    def test_read_response_outcomes(self, raw, limit):
        out = _outcome(read_response, raw, limit)
        if isinstance(out, tuple):
            status, headers, body = out
            assert 0 <= status <= 999 and isinstance(body, bytes)
        else:
            assert isinstance(out, (ServeError,
                                    asyncio.IncompleteReadError))


# ---- hostile requests against live front ends ----------------------------

_ENV = ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_CHAOS_DIR",
        "REPRO_CHAOS_PARENT")


@pytest.fixture(scope="module")
def front_ends(tmp_path_factory):
    """One single server and one two-shard router, by name."""
    saved = {k: os.environ.pop(k) for k in _ENV if k in os.environ}
    root = tmp_path_factory.mktemp("wire")
    single = start_in_thread(ServeConfig(window_ms=1.0))
    cluster = Cluster(ClusterConfig(shards=2, worker_mode="thread",
                                    window_ms=1.0,
                                    cache_dir=str(root / "cache")))
    cluster.start()
    try:
        yield {"server": single.port, "router": cluster.port}
    finally:
        cluster.stop()
        single.stop()
        os.environ.update(saved)


def _exchange(port: int, raw: bytes, half_close: bool) -> bytes:
    """Send ``raw`` and read until the front end closes the socket."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) \
            as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)    # socket.timeout = a hang
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _executed() -> float:
    return get_registry().counter("repro_exec_tasks_total").value(
        kind="sim", source="executed")


_SIM = b"POST /v1/simulate HTTP/1.1\r\n"

# (raw request, half-close after sending): every case must end in a
# 400 bad_request and a closed connection
_HOSTILE = {
    "truncated_head": (_SIM + b"Content-Type: application/json\r\n",
                       True),
    "bad_content_length": (_SIM + b"Content-Length: 1_0\r\n\r\n"
                           + b'{"x": 1}xx', False),
    "signed_content_length": (_SIM + b"Content-Length: +2\r\n\r\n{}",
                              False),
    "duplicate_content_length": (_SIM + b"Content-Length: 2\r\n"
                                 b"Content-Length: 12\r\n\r\n{}", False),
    "too_many_headers": (_SIM + b"".join(b"X-H%d: v\r\n" % i
                                         for i in range(101))
                         + b"\r\n", False),
    "non_utf8_body": (_SIM + b"Connection: close\r\n"
                      b"Content-Length: 4\r\n\r\n\xff\xfe\xfd\xfc", False),
    "chunked": (_SIM + b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\n{}   \r\n0\r\n\r\n", False),
}


@pytest.mark.parametrize("case", sorted(_HOSTILE))
@pytest.mark.parametrize("front", ["server", "router"])
def test_hostile_request_gets_a_clean_400(front_ends, front, case):
    port = front_ends[front]
    raw, half_close = _HOSTILE[case]
    executed = _executed()
    reply = _exchange(port, raw, half_close)
    head, _, body = reply.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    assert lines[0].startswith("HTTP/1.1 400 "), reply[:200]
    assert "Connection: close" in lines
    assert json.loads(body)["error"]["code"] == "bad_request"
    assert _executed() == executed          # nothing ran
    healthz = _exchange(port, b"GET /healthz HTTP/1.1\r\n"
                        b"Connection: close\r\n\r\n", False)
    assert healthz.startswith(b"HTTP/1.1 200 ")
