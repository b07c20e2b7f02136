"""Service-level chaos: seeded process/cache/connection faults.

PR 3's fault layer attacks the *simulated core* (latch flips, counter
corruption, droop).  This module attacks the system that serves those
simulations — the paper's fail-safe philosophy applied one level up:
§IV-B demands the OCC keep the chip safe when its telemetry is lost,
and the serve/exec stack must likewise degrade predictably when a pool
worker is SIGKILLed, a cache entry rots, or a batch stalls.

The taxonomy (:data:`SERVICE_FAULT_KINDS`):

* ``worker_kill``  — SIGKILL the pool worker mid-task (the engine must
  rebuild the pool and re-dispatch, bit-identically);
* ``worker_stall`` — the worker sleeps past every deadline (the
  engine's watchdog must kill the pool and raise ``DeadlineError``);
* ``cache_corrupt`` — a cache entry is overwritten with torn JSON just
  before it is read (must read as a miss, be recounted, recomputed,
  and rewritten);
* ``cache_perm``   — a cache entry loses its read permission (ditto;
  vacuous when running as root, which can read anything);
* ``slow_batch``   — the batch thread sleeps before calling the engine
  (deadline pressure without killing anything);
* ``conn_drop``    — the server abruptly closes an accepted connection
  without responding (the client must see a transport error, never a
  torn body);
* ``worker_down``  — a whole serve worker dies mid-burst (the cluster
  supervisor claims the token and kills a worker; the router must
  fail the shard over with zero SDC and no lost requests).

Faults are *armed* as token files in a directory named by
``$REPRO_CHAOS_DIR`` and *claimed* exactly once via an atomic
``os.rename`` — safe across the parent, the batch thread, and forked
pool workers, all of which share the directory.  When the variable is
unset (the default, and always in production paths) every hook is a
no-op that never even imports this module.  ``$REPRO_CHAOS_PARENT``
pins the arming process id so worker-kind faults only ever fire inside
a *forked worker*, never the serving process itself.

:func:`chaos_phase` is one load phase with faults armed around it:
arm, start a server or cluster, fire the seeded loadgen schedule,
stop, disarm.  :func:`classify` judges a phase against the fault-free
reference run: availability (good/degraded/rejected/failed) and a
zero-SDC assertion, every 200-OK non-degraded body bit-identical to
the reference.  :class:`ChaosCampaign` runs one phase per fault class
(``repro chaos`` is its CLI front end); the cluster benchmark runs its
burst and shard-kill phases through the same two functions.

This module deliberately imports neither ``asyncio`` nor ``threading``
nor ``concurrent.futures``: every effect runs synchronously in
whatever process claimed the token (the concurrency contracts R007-
R011 stay trivially satisfied).
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    Optional, Sequence, Tuple)

import numpy as np

from ..errors import ChaosError
from ..obs.metrics import get_registry

if TYPE_CHECKING:
    from ..serve.loadgen import LoadgenConfig
    from ..serve.server import ServeConfig

#: environment variables the hooks check (hook call sites mirror the
#: ENV_CHAOS_DIR literal to avoid importing this module on hot paths)
ENV_CHAOS_DIR = "REPRO_CHAOS_DIR"
ENV_CHAOS_PARENT = "REPRO_CHAOS_PARENT"

WORKER_KILL = "worker_kill"
WORKER_STALL = "worker_stall"
CACHE_CORRUPT = "cache_corrupt"
CACHE_PERM = "cache_perm"
SLOW_BATCH = "slow_batch"
CONN_DROP = "conn_drop"
WORKER_DOWN = "worker_down"

# worker_down is appended (never inserted) so the per-kind RNG streams
# below stay stable for the pre-existing kinds
SERVICE_FAULT_KINDS: Tuple[str, ...] = (
    WORKER_KILL, WORKER_STALL, CACHE_CORRUPT, CACHE_PERM, SLOW_BATCH,
    CONN_DROP, WORKER_DOWN)

#: fault kinds that must fire inside a forked pool worker, never the
#: process that armed the campaign
_WORKER_KINDS = (WORKER_KILL, WORKER_STALL)

#: fault kinds that need a target cache-entry path that exists
_CACHE_KINDS = (CACHE_CORRUPT, CACHE_PERM)

#: hook name -> fault kinds that hook can fire.  The hooks live in
#: exec/executor.py (worker_task), serve/batcher.py (batch),
#: exec/cache.py (cache_get), serve/server.py (conn) and
#: cluster/supervisor.py (cluster).
HOOK_POINTS: Dict[str, Tuple[str, ...]] = {
    "worker_task": (WORKER_KILL, WORKER_STALL),
    "batch": (SLOW_BATCH,),
    "cache_get": (CACHE_CORRUPT, CACHE_PERM),
    "conn": (CONN_DROP,),
    "cluster": (WORKER_DOWN,),
}

#: bytes written over a cache entry by ``cache_corrupt`` — valid UTF-8,
#: invalid JSON, so the load path must take its corrupt branch
_TORN_ENTRY = b'{"torn": '


@dataclass(frozen=True)
class ServiceFault:
    """One armed service-level fault.

    ``delay_s`` is the sleep duration for the stall kinds
    (``worker_stall`` / ``slow_batch``) and must be positive for them;
    for ``worker_down`` it is how long the cluster supervisor waits
    before killing the victim; the other kinds ignore it.
    """

    kind: str
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ChaosError(
                f"unknown service fault kind {self.kind!r} (choices: "
                f"{', '.join(SERVICE_FAULT_KINDS)})")
        if self.delay_s < 0:
            raise ChaosError(
                f"delay_s must be >= 0, got {self.delay_s}")
        if self.kind in (WORKER_STALL, SLOW_BATCH) and self.delay_s <= 0:
            raise ChaosError(
                f"{self.kind} needs a positive delay_s")

    def to_json(self) -> Dict[str, object]:
        return {"kind": self.kind, "delay_s": self.delay_s}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ServiceFault":
        try:
            return cls(kind=str(data["kind"]),
                       delay_s=float(data.get("delay_s", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise ChaosError(
                f"malformed service fault record: {data!r}") from exc


def generate_service_schedule(seed: int,
                              classes: Sequence[str] = SERVICE_FAULT_KINDS,
                              *, per_class: int = 1,
                              stall_s: float = 10.0,
                              slow_s: float = 0.8,
                              ) -> List[ServiceFault]:
    """A seed-deterministic fault list covering ``classes``.

    Stall durations are drawn in ``[1.0, 1.5] * stall_s`` (so a stall
    armed against a deadline of ``stall_s`` or less always overruns
    it); slow-batch delays in ``[0.5, 1.5] * slow_s``.
    """
    if per_class < 1:
        raise ChaosError(f"per_class must be >= 1, got {per_class}")
    faults: List[ServiceFault] = []
    for kind in classes:
        if kind not in SERVICE_FAULT_KINDS:
            raise ChaosError(
                f"unknown service fault kind {kind!r} (choices: "
                f"{', '.join(SERVICE_FAULT_KINDS)})")
        rng = np.random.default_rng(
            [int(seed), SERVICE_FAULT_KINDS.index(kind)])
        for _ in range(per_class):
            delay = 0.0
            if kind == WORKER_STALL:
                delay = round(stall_s * (1.0 + 0.5 * float(rng.random())), 3)
            elif kind in (SLOW_BATCH, WORKER_DOWN):
                # for worker_down the delay is how long the cluster
                # supervisor waits before killing, so the death lands
                # mid-burst rather than at arm time
                delay = round(slow_s * (0.5 + float(rng.random())), 3)
            faults.append(ServiceFault(kind=kind, delay_s=delay))
    return faults


# --------------------------------------------------------------------------
# The token-file runtime.
# --------------------------------------------------------------------------

class ChaosController:
    """Arms faults as token files and reports what fired.

    A token is claimed by renaming ``NNNN-<kind>.json`` to
    ``NNNN-<kind>.json.fired`` — atomic within a filesystem, so the
    parent process, the batch thread, and every forked pool worker can
    race for the same token and exactly one wins.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def arm(self, faults: Sequence[ServiceFault]) -> List[Path]:
        start = len(list(self.root.glob("*.json"))) \
            + len(list(self.root.glob("*.fired")))
        paths = []
        for offset, fault in enumerate(faults):
            path = self.root / f"{start + offset:04d}-{fault.kind}.json"
            path.write_text(json.dumps(fault.to_json(), sort_keys=True))
            paths.append(path)
        return paths

    def armed(self) -> List[ServiceFault]:
        """Faults still waiting to fire."""
        return [ServiceFault.from_json(json.loads(p.read_text()))
                for p in sorted(self.root.glob("*.json"))]

    def fired(self) -> List[ServiceFault]:
        """Faults that were claimed (by any process)."""
        return [ServiceFault.from_json(json.loads(p.read_text()))
                for p in sorted(self.root.glob("*.fired"))]

    def summary(self) -> Dict[str, object]:
        fired = self.fired()
        return {"armed_left": len(self.armed()),
                "fired": [f.to_json() for f in fired]}


@contextlib.contextmanager
def service_chaos(faults: Sequence[ServiceFault], root,
                  ) -> Iterator[ChaosController]:
    """Arm ``faults`` under ``root`` and expose them via the chaos
    environment for the duration of the block.

    Must wrap server/engine *startup* so forked pool workers inherit
    the variables.  ``$REPRO_CHAOS_PARENT`` records this process id:
    worker-kind faults refuse to fire in it, so a serial (in-process)
    execution path can never SIGKILL the server itself.
    """
    controller = ChaosController(root)
    controller.arm(faults)
    prev_dir = os.environ.get(ENV_CHAOS_DIR)
    prev_parent = os.environ.get(ENV_CHAOS_PARENT)
    os.environ[ENV_CHAOS_DIR] = str(controller.root)
    os.environ[ENV_CHAOS_PARENT] = str(os.getpid())
    try:
        yield controller
    finally:
        for name, prev in ((ENV_CHAOS_DIR, prev_dir),
                           (ENV_CHAOS_PARENT, prev_parent)):
            if prev is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = prev


def _in_worker() -> bool:
    parent = os.environ.get(ENV_CHAOS_PARENT)
    return parent is not None and parent != str(os.getpid())


def _claim(path: Path) -> bool:
    try:
        os.rename(path, str(path) + ".fired")
        return True
    except OSError:
        return False


def _fire(fault: ServiceFault, path: Optional[str]) -> None:
    """Execute a claimed fault's effect (in the claiming process)."""
    get_registry().counter(
        "repro_chaos_faults_fired_total",
        "service-level chaos faults fired").inc(kind=fault.kind)
    if fault.kind == WORKER_KILL:
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.kind in (WORKER_STALL, SLOW_BATCH):
        time.sleep(fault.delay_s)
    elif fault.kind == CACHE_CORRUPT:
        with open(path, "wb") as fh:
            fh.write(_TORN_ENTRY)
    elif fault.kind == CACHE_PERM:
        os.chmod(path, 0)
    # CONN_DROP: the hook's caller drops the connection itself.
    # WORKER_DOWN: the cluster supervisor (the caller) sleeps the
    # fault's delay and kills the victim worker itself.


def chaos_point(hook: str, *, path: Optional[str] = None,
                ) -> Optional[ServiceFault]:
    """Fire at most one armed fault eligible at ``hook``.

    Returns the fault that fired (``None`` almost always).  Called
    from guarded sites that first check ``$REPRO_CHAOS_DIR`` with a
    literal, so disabled runs never pay an import or a listdir.
    """
    root = os.environ.get(ENV_CHAOS_DIR, "")
    kinds = HOOK_POINTS.get(hook, ())
    if not root or not kinds:
        return None
    try:
        tokens = sorted(Path(root).glob("*.json"))
    except OSError:
        return None
    for token in tokens:
        try:
            fault = ServiceFault.from_json(json.loads(token.read_text()))
        except (OSError, json.JSONDecodeError, ChaosError):
            continue                   # claimed by a racer, or junk
        if fault.kind not in kinds:
            continue
        if fault.kind in _WORKER_KINDS and not _in_worker():
            continue
        if fault.kind in _CACHE_KINDS \
                and (path is None or not os.path.exists(path)):
            continue
        if not _claim(token):
            continue
        _fire(fault, path)
        return fault
    return None


# --------------------------------------------------------------------------
# The campaign: one seeded loadgen schedule replayed under each fault
# class, judged against the fault-free reference run.
# --------------------------------------------------------------------------

CHAOS_REPORT_SCHEMA = 1

#: loadgen outcomes -> availability classes.  ``rejected`` means the
#: server answered with a structured refusal (503 overload/draining or
#: 504 deadline) — predictable degradation, not damage.
_REFUSAL_STATUSES = (503, 504)


def chaos_phase(start: Callable[[], object], load,
                faults: Sequence[ServiceFault] = (), chaos_root=None,
                ) -> Dict[str, object]:
    """One load phase with ``faults`` armed around it.

    ``start`` and ``load`` (a ``LoadgenConfig``) go to
    :func:`repro.serve.loadgen.run_phase`; arming wraps the target's
    start so forked pool workers inherit the chaos environment.
    Returns the loadgen ``report``, the target's ``healthz`` after the
    burst, its ``clean_drain``, the ``chaos`` summary and
    ``faults_armed``.
    """
    from ..serve.loadgen import run_phase
    with contextlib.ExitStack() as stack:
        controller = (stack.enter_context(
            service_chaos(faults, chaos_root)) if faults else None)
        phase = run_phase(load, start)
        chaos = (controller.summary() if controller is not None
                 else {"armed_left": 0, "fired": []})
    return {"report": phase.report, "healthz": phase.healthz,
            "clean_drain": phase.clean_drain, "chaos": chaos,
            "faults_armed": len(faults)}


def classify(name: str, phase: Dict[str, object],
             reference: Dict[str, object]) -> Dict[str, object]:
    """Judge one :func:`chaos_phase` against the fault-free
    ``reference`` report: availability counts, hangs, and as SDC every
    full-fidelity body whose digest differs from the reference's."""
    from ..serve.loadgen import diff_bodies
    counts = {"good": 0, "degraded": 0, "rejected": 0, "failed": 0}
    hangs = 0
    for row in phase["report"]["per_request"]:
        outcome = row.get("outcome")
        if outcome == "ok":
            counts["good"] += 1
        elif outcome == "degraded":
            counts["degraded"] += 1
        elif outcome == "error" \
                and row.get("status") in _REFUSAL_STATUSES:
            counts["rejected"] += 1
        else:                           # 4xx/5xx, torn body, no answer
            counts["failed"] += 1
            if "timed out" in str(row.get("error", "")):
                hangs += 1              # exceeded the client hang bound
    total = sum(counts.values())
    available = counts["good"] + counts["degraded"]
    return {
        "fault_class": name,
        "counts": counts,
        "availability": available / total if total else 0.0,
        "sdc": diff_bodies(reference, phase["report"])["mismatched"],
        "hangs": hangs,
        "clean_drain": bool(phase["clean_drain"]),
        "faults_armed": phase["faults_armed"],
        "faults_fired": len(phase["chaos"]["fired"]),
    }


# The serving layer is imported only where a campaign is configured:
# every simulation imports this package (the fault injector), and the
# serve stack would add its import time and memory to each of them.
def _campaign_load() -> LoadgenConfig:
    from ..serve.loadgen import LoadgenConfig
    return LoadgenConfig(requests=24, rate_per_s=30.0, timeout_s=30.0,
                         deadline_ms=6000)


def _campaign_serve() -> ServeConfig:
    from ..serve.server import ServeConfig
    return ServeConfig(workers=2, default_deadline_ms=6000,
                       max_pool_restarts=3)


@dataclass(frozen=True)
class ChaosCampaignConfig:
    """One chaos campaign, fully determined by these fields."""

    #: the seeded schedule every phase fires; ``timeout_s`` is the
    #: client hang bound per request
    load: LoadgenConfig = field(default_factory=_campaign_load)
    #: the server every phase starts (each worker of the worker_down
    #: phase's cluster runs it too); the campaign sets its cache_dir
    serve: ServeConfig = field(default_factory=_campaign_serve)
    fault_classes: Tuple[str, ...] = SERVICE_FAULT_KINDS
    faults_per_class: int = 2
    stall_s: float = 10.0
    slow_batch_s: float = 0.8

    def __post_init__(self) -> None:
        if self.serve.workers is None or self.serve.workers < 2:
            raise ChaosError(
                "chaos campaigns need serve.workers >= 2 (worker "
                "faults only fire in forked pool workers), got "
                f"{self.serve.workers}")
        if not self.fault_classes:
            raise ChaosError("fault_classes must not be empty")
        for kind in self.fault_classes:
            if kind not in SERVICE_FAULT_KINDS:
                raise ChaosError(
                    f"unknown service fault kind {kind!r} (choices: "
                    f"{', '.join(SERVICE_FAULT_KINDS)})")
        # the deadline the engine-bound requests run under
        deadline_ms = (self.load.deadline_ms
                       if self.load.deadline_ms is not None
                       else self.serve.default_deadline_ms)
        if deadline_ms <= 0:
            raise ChaosError(
                f"deadline_ms must be positive, got {deadline_ms}")
        if self.stall_s * 1000.0 <= deadline_ms:
            raise ChaosError(
                f"stall_s ({self.stall_s}s) must exceed deadline_ms "
                f"({deadline_ms}ms) or worker_stall never overruns a "
                f"deadline")

    @classmethod
    def quick(cls, seed: int = 0) -> "ChaosCampaignConfig":
        """The CI smoke shape: small, fast, still every fault class."""
        base = cls()
        return cls(load=replace(base.load, seed=seed, requests=12,
                                rate_per_s=40.0, deadline_ms=2500),
                   serve=replace(base.serve, default_deadline_ms=2500),
                   stall_s=5.0, slow_batch_s=0.5, faults_per_class=1)


class ChaosCampaign:
    """Replays one seeded schedule under each fault class.

    Phase 0 (``none``) runs fault-free and doubles as the reference:
    its per-request body digests are the ground truth for the zero-SDC
    assertion, and its cache directory is reused by the cache-fault
    phases (a cache fault needs warm entries to corrupt).  Every other
    phase gets a cold cache so its faults actually execute work.
    """

    def __init__(self, config: Optional[ChaosCampaignConfig] = None):
        self.config = config if config is not None \
            else ChaosCampaignConfig()

    def run(self) -> Dict[str, object]:
        import tempfile

        from ..cluster.supervisor import Cluster, ClusterConfig
        from ..serve.server import start_in_thread
        cfg = self.config
        # worker_down needs a worker to kill and a survivor to absorb
        # the re-routed traffic; built up front so a template the
        # cluster cannot run fails before any phase does
        shards = ClusterConfig(shards=2, worker_mode="thread",
                               serve=cfg.serve)

        def server(cache_dir: str):
            return lambda: start_in_thread(
                replace(cfg.serve, cache_dir=cache_dir))

        def cluster(cache_dir: str):
            return lambda: Cluster(
                replace(shards, cache_dir=cache_dir)).start()

        phases: List[Dict[str, object]] = []
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as td:
            root = Path(td)
            ref_cache = str(root / "cache-ref")
            reference = chaos_phase(server(ref_cache), cfg.load)
            phases.append(classify("none", reference,
                                   reference["report"]))
            for kind in cfg.fault_classes:
                faults = generate_service_schedule(
                    cfg.load.seed, (kind,),
                    per_class=cfg.faults_per_class,
                    stall_s=cfg.stall_s, slow_s=cfg.slow_batch_s)
                # cache faults need warm entries; everything else
                # needs a cold cache so its work actually executes
                cache_dir = (ref_cache if kind in _CACHE_KINDS
                             else str(root / f"cache-{kind}"))
                target = cluster if kind == WORKER_DOWN else server
                phase = chaos_phase(target(cache_dir), cfg.load,
                                    faults, root / f"chaos-{kind}")
                phases.append(classify(kind, phase,
                                       reference["report"]))
        report: Dict[str, object] = {
            "schema": CHAOS_REPORT_SCHEMA,
            "seed": cfg.load.seed,
            "requests": cfg.load.requests,
            "offered_rate_per_s": cfg.load.rate_per_s,
            "workers": cfg.serve.workers,
            "deadline_ms": cfg.load.deadline_ms,
            "fault_classes": list(cfg.fault_classes),
            "faults_per_class": cfg.faults_per_class,
            "phases": phases,
            "sdc_total": sum(len(p["sdc"]) for p in phases),
            "hangs_total": sum(p["hangs"] for p in phases),
        }
        report["ok"] = (report["sdc_total"] == 0
                        and report["hangs_total"] == 0)
        return report


def run_chaos_campaign(config: Optional[ChaosCampaignConfig] = None,
                       ) -> Dict[str, object]:
    """Convenience wrapper behind ``repro chaos``."""
    return ChaosCampaign(config).run()


def write_chaos_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
