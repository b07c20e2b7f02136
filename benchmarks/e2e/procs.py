"""Child processes of the program under test: start, observe, stop.

Children get a clean environment: no ``REPRO_*`` variable survives
(an ambient result cache or worker count could hide work), ``TMPDIR``
points inside the run directory, and ``PYTHONPATH`` holds the
checkout's ``src`` (plus the span recorder on traced runs).  Memory and
CPU time are read from ``/proc`` over a child and all its descendants.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, IO, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
TRACE_DIR = HERE / "trace"
CLK_TCK = os.sysconf("SC_CLK_TCK")


def child_env(root: Path, run_dir: Path,
              trace_dir: Optional[Path] = None) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_") and k not in
           ("PYTHONPATH", "E2E_TRACE_DIR", "PYTHONSTARTUP")}
    paths = [str(root / "src")]
    if trace_dir is not None:
        paths.insert(0, str(TRACE_DIR))
        env["E2E_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One spawned program process; stderr (and, unless a pipe is
    asked for, stdout) goes to a log file."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log: Path, cwd: Path, pipes: bool = False):
        self.argv = list(argv)
        self.log = log
        self._log_fh: IO = open(log, "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, env=env, cwd=cwd,
            stdin=subprocess.PIPE if pipes else subprocess.DEVNULL,
            stdout=subprocess.PIPE if pipes else self._log_fh,
            stderr=self._log_fh, text=pipes or None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def tree(self) -> List[int]:
        """This process and every live descendant."""
        return [self.pid] + descendants(self.pid)

    def peak_rss_mb(self) -> float:
        """Sum of VmHWM over the live process tree."""
        return sum(_status_kb(pid, "VmHWM") for pid in self.tree()) / 1024

    def cpu_s(self) -> float:
        """User + system CPU of the live tree (and its reaped children)."""
        return sum(_cpu_ticks(pid) for pid in self.tree()) / CLK_TCK

    def stop(self, timeout_s: float = 20.0, grace_s: float = 0.0) -> int:
        """Let the process exit on its own for ``grace_s``, then
        SIGTERM, wait, and SIGKILL whatever is left of the tree."""
        pids = self.tree()
        try:
            self.proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
        if self.alive():
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10.0)
        for pid in pids[1:]:
            _wait_gone(pid, timeout_s=5.0)
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        self._log_fh.close()
        return self.proc.returncode

    def kill(self) -> None:
        """SIGKILL the whole tree at once (a set-up-only instance)."""
        pids = self.tree()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.stop(timeout_s=10.0)

    def tail(self, lines: int = 20) -> str:
        self._log_fh.flush()
        text = self.log.read_text(errors="replace").splitlines()
        return "\n".join(text[-lines:])


def descendants(pid: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        ppid = _ppid(int(entry))
        if ppid is not None:
            children.setdefault(ppid, []).append(int(entry))
    out, frontier = [], [pid]
    while frontier:
        nxt = []
        for p in frontier:
            nxt += children.get(p, [])
        out += nxt
        frontier = nxt
    return out


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # the command name may hold spaces; fields resume after its ')'
    return raw[raw.rindex(")") + 2:].split()


def _ppid(pid: int) -> Optional[int]:
    fields = _stat_fields(pid)
    return int(fields[1]) if fields else None


def _cpu_ticks(pid: int) -> int:
    fields = _stat_fields(pid)
    if not fields:
        return 0
    # utime, stime, cutime, cstime (fields 14-17 of proc(5))
    return sum(int(f) for f in fields[11:15])


def _status_kb(pid: int, key: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def _wait_gone(pid: int, timeout_s: float) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        fields = _stat_fields(pid)
        if fields is None or fields[0] == "Z":
            return
        time.sleep(0.02)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
