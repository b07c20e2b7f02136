"""Worker lifecycles for the serving cluster.

Two interchangeable backends behind one small protocol (``start`` /
``stop`` / ``kill`` / ``alive`` / ``port``, with ``start`` split into
``spawn`` and ``await_port`` so a cluster launches every child before
it waits for any), both built from the one
:class:`~repro.serve.server.ServeConfig` the worker runs:

* :class:`ThreadWorker` hosts a full :class:`~repro.serve.server.
  ReproServer` on a thread in *this* process (the shape tests, CI
  smoke, and ``repro loadgen --cluster`` use — no spawn cost, and the
  in-process metrics registry stays scrapeable).  ``kill`` maps to the
  server's abort path: connections are cancelled un-flushed, so the
  router sees real transport errors, not polite drains.
* :class:`ProcessWorker` runs the server in a child process (the
  production topology behind ``repro cluster``).  The child gets its
  config whole, as one JSON argument to
  :func:`repro.serve.server.run_worker`; it binds an ephemeral port
  and publishes it through the config's ``port_file``.  ``stop`` is
  SIGTERM (the server's graceful drain; the child exits 0 only when
  the drain was clean), ``kill`` is SIGKILL.

Every (re)start bumps ``generation`` and may change ``port`` — the
supervisor republishes the new address to the router.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Optional

from ..errors import ClusterError
from ..serve.http import ThreadHost
from ..serve.server import ReproServer, ServeConfig


#: what a process worker runs: ``run_worker`` on its one JSON argument
_CHILD_CODE = ("import sys; from repro.serve.server import run_worker; "
               "sys.exit(run_worker(sys.argv[1]))")


class ThreadWorker:
    """One server instance on a thread of this process."""

    mode = "thread"

    def __init__(self, index: int, config: ServeConfig):
        self.index = index
        self.config = config
        self.host = config.host
        self.generation = 0
        self._handle: Optional[ThreadHost] = None

    @property
    def port(self) -> Optional[int]:
        return self._handle.port if self._handle is not None else None

    def start(self, timeout_s: float = 60.0) -> None:
        self.spawn()
        self.await_port(timeout_s)

    def spawn(self) -> None:
        """Nothing to launch ahead: an in-process server has no spawn
        cost, so it starts whole in :meth:`await_port`."""

    def await_port(self, timeout_s: float = 60.0) -> None:
        if self.alive():
            raise ClusterError(
                f"worker {self.index} is already running")
        handle = ThreadHost("repro-serve")
        handle.start(lambda: ReproServer(self.config),
                     timeout_s=timeout_s)
        self._handle = handle
        self.generation += 1

    def alive(self) -> bool:
        handle = self._handle
        return (handle is not None and handle._thread is not None
                and handle._thread.is_alive())

    def stop(self, timeout_s: float = 30.0) -> bool:
        """Graceful drain; returns True when the drain was clean."""
        if self._handle is None:
            return True
        try:
            return self._handle.stop(timeout_s=timeout_s)
        finally:
            self._handle = None

    def kill(self, timeout_s: float = 10.0) -> None:
        """Abrupt death: no drain, in-flight connections cancelled."""
        if self._handle is None:
            return
        try:
            self._handle.kill(timeout_s=timeout_s)
        finally:
            self._handle = None


class ProcessWorker:
    """One server in a child process; ``config.port_file`` is required
    (it is how the child reports its ephemeral port)."""

    mode = "process"

    def __init__(self, index: int, config: ServeConfig):
        if not config.port_file:
            raise ClusterError(
                f"process worker {index} needs a port_file")
        self.index = index
        self.config = config
        self.host = config.host
        self.generation = 0
        self.port: Optional[int] = None
        self._port_file = Path(config.port_file)
        self._proc: Optional[subprocess.Popen] = None

    def start(self, timeout_s: float = 60.0) -> None:
        self.spawn()
        self.await_port(timeout_s)

    def spawn(self) -> None:
        """Launch the child without waiting for it to listen."""
        if self.alive():
            raise ClusterError(
                f"worker {self.index} is already running")
        try:
            self._port_file.unlink()
        except FileNotFoundError:
            pass
        self._proc = subprocess.Popen(
            [sys.executable, "-c", _CHILD_CODE,
             json.dumps(asdict(self.config))],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    def await_port(self, timeout_s: float = 60.0) -> None:
        """Wait for the spawned child to publish its port."""
        self.port = self._await_port(timeout_s)
        self.generation += 1

    def _await_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self._proc.poll() is not None:
                raise ClusterError(
                    f"worker {self.index} exited with "
                    f"{self._proc.returncode} before binding a port")
            try:
                text = self._port_file.read_text().strip()
                if text:
                    return int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.02)
        self.kill()
        raise ClusterError(
            f"worker {self.index} did not publish a port within "
            f"{timeout_s:.0f}s")

    def alive(self) -> bool:
        return self._proc is not None and self._proc.poll() is None

    def stop(self, timeout_s: float = 30.0) -> bool:
        """SIGTERM and wait; True when the child exited 0, which it
        does only after a clean drain."""
        if self._proc is None:
            return True
        try:
            if self._proc.poll() is None:
                self._proc.send_signal(signal.SIGTERM)
                try:
                    self._proc.wait(timeout=timeout_s)
                except subprocess.TimeoutExpired:
                    self._proc.kill()
                    self._proc.wait(timeout=5.0)
                    return False
            return self._proc.returncode == 0
        finally:
            self._proc = None

    def kill(self, timeout_s: float = 10.0) -> None:
        if self._proc is None:
            return
        try:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait(timeout=timeout_s)
        finally:
            self._proc = None

