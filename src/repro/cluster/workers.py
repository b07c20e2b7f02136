"""Worker lifecycles for the serving cluster.

Two interchangeable backends behind one small protocol (``start`` /
``stop`` / ``kill`` / ``alive`` / ``port``):

* :class:`ThreadWorker` hosts a full :class:`~repro.serve.server.
  ReproServer` on a thread in *this* process (the shape tests, CI
  smoke, and ``repro loadgen --cluster`` use — no spawn cost, and the
  in-process metrics registry stays scrapeable).  ``kill`` maps to the
  server's abort path: connections are cancelled un-flushed, so the
  router sees real transport errors, not polite drains.
* :class:`ProcessWorker` spawns ``repro serve`` as a child process
  (the production topology behind ``repro cluster``): the worker binds
  an ephemeral port and publishes it through ``--port-file``; ``stop``
  is SIGTERM (the server's graceful drain), ``kill`` is SIGKILL.

Every (re)start bumps ``generation`` and may change ``port`` — the
supervisor republishes the new address to the router.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Optional

from ..errors import ClusterError
from ..serve.http import ThreadHost
from ..serve.server import ReproServer, ServeConfig


class ThreadWorker:
    """One ``repro serve`` instance on a thread of this process."""

    mode = "thread"

    def __init__(self, index: int,
                 config_factory: Callable[[], ServeConfig]):
        self.index = index
        self.host = "127.0.0.1"
        self.generation = 0
        self._config_factory = config_factory
        self._handle: Optional[ThreadHost] = None

    @property
    def port(self) -> Optional[int]:
        return self._handle.port if self._handle is not None else None

    def start(self, timeout_s: float = 60.0) -> None:
        if self.alive():
            raise ClusterError(
                f"worker {self.index} is already running")
        config = self._config_factory()
        handle = ThreadHost("repro-serve")
        handle.start(lambda: ReproServer(config), timeout_s=timeout_s)
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
    """One ``repro serve`` child process."""

    mode = "process"

    def __init__(self, index: int, argv_factory: Callable[[], List[str]],
                 port_file: Path):
        self.index = index
        self.host = "127.0.0.1"
        self.generation = 0
        self.port: Optional[int] = None
        self._argv_factory = argv_factory
        self._port_file = Path(port_file)
        self._proc: Optional[subprocess.Popen] = None

    def start(self, timeout_s: float = 60.0) -> None:
        if self.alive():
            raise ClusterError(
                f"worker {self.index} is already running")
        try:
            self._port_file.unlink()
        except FileNotFoundError:
            pass
        self._proc = subprocess.Popen(
            self._argv_factory(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
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


def serve_argv(config: ServeConfig, port_file: Path) -> List[str]:
    """The ``repro serve`` command line for one process worker."""
    argv = [sys.executable, "-m", "repro", "serve",
            "--host", config.host, "--port", "0",
            "--port-file", str(port_file),
            "--window-ms", str(config.window_ms),
            "--max-inflight", str(config.max_inflight),
            "--drain-timeout", str(config.drain_timeout_s)]
    if config.workers is not None:
        argv += ["--workers", str(config.workers)]
    if config.cache_dir is not None:
        argv += ["--cache-dir", str(config.cache_dir)]
    if config.rate_per_s is not None:
        argv += ["--rate-limit", str(config.rate_per_s)]
    if config.warm_fast_path:
        argv.append("--warm")
    return argv
