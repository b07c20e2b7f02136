"""Wire protocol for the simulation service (``repro serve``).

Every request body is a JSON object decoded into a frozen dataclass
by one codec that takes the accepted names, defaults and JSON kinds
from the dataclass's own fields; validation happens here, through the
:mod:`repro.errors` taxonomy, so a bad payload fails *before* it
reaches the batcher and maps to a structured error body with a stable
machine-readable code::

    {"ok": false,
     "error": {"code": "bad_request",
               "type": "ConfigError",
               "message": "unknown workload 'xs' (choices: ...)"}}

Successful responses share one envelope::

    {"ok": true, "degraded": false, "source": "engine", "result": {...}}

``source`` is ``"engine"`` for full-fidelity answers and ``"proxy"``
for power-proxy fast-path answers; ``degraded`` is true only when the
server substituted the proxy for a request that *asked* for the engine
(load shedding or a missed deadline), mirroring the paper's
proxy-instead-of-measurement philosophy.
"""

from __future__ import annotations

import functools
import json
import typing
from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional, Tuple, Type

from ..errors import (ClusterError, ConfigError, DeadlineError,
                      DrainingError, OverloadError, ReproError,
                      ResilienceError, ServeError, TraceError)

GENERATIONS = ("power9", "power10")

# Per-request ceilings: the service is interactive, so one request may
# not monopolize the engine the way a batch CLI invocation legitimately
# can.
MAX_INSTRUCTIONS = 2_000_000
MAX_COMPARE_WORKLOADS = 16
MAX_FAULTS = 64
#: one day; past this a deadline is no deadline (and past ~1e308 ms it
#: no longer converts to seconds)
MAX_DEADLINE_MS = 86_400_000


def decode_json(body: bytes) -> Dict[str, object]:
    """Parse a request body; empty bodies mean ``{}`` (all defaults)."""
    if not body:
        return {}
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, or an integer past the digit limit;
        # RecursionError: nesting deeper than the parser's stack
        raise ConfigError(f"malformed JSON request body: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("request body must be a JSON object")
    return data


def _reject_unknown(data: Dict[str, object], allowed: Tuple[str, ...],
                    route: str) -> None:
    # Unknown keys are typos until proven otherwise: silently ignoring
    # them answers a different question than the caller asked (e.g.
    # {"generation": "power9"} falling back to the default config).
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown field(s) for {route}: {', '.join(unknown)} "
            f"(accepted: {', '.join(allowed)})")


#: the JSON value each field type accepts; nothing is coerced (a bool
#: is not a number, neither "300" nor 2.9 is an integer, and null
#: stands only for an optional field's default)
_JSON_KINDS = {int: (int, "an integer"),
               float: ((int, float), "a number"),
               str: (str, "a string")}


def _field(data: Dict[str, object], key: str, kind, default):
    value = data.get(key, default)
    if kind is tuple:                        # a list of names
        if not isinstance(value, (list, tuple)) \
                or not all(isinstance(w, str) for w in value):
            raise ConfigError(f"field {key!r} must be a list of names")
        return tuple(value)
    if value is None and default is None:    # an optional field
        return None
    accepted, label = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"field {key!r} must be {label}, got "
            f"{type(value).__name__}")
    try:
        return kind(value)
    except OverflowError as exc:        # an integer too large for float
        raise ConfigError(f"field {key!r} is out of range") from exc


@functools.cache
def _schema(cls: Type) -> Tuple[Tuple[str, type, object], ...]:
    """``(name, kind, default)`` of each field of a request type, in
    declaration order.  ``kind`` is the type the annotation names
    (``Optional[int]`` -> ``int``), or ``tuple`` for a tuple of names."""
    hints = typing.get_type_hints(cls)
    schema = []
    for f in fields(cls):
        hint = hints[f.name]
        if typing.get_origin(hint) is tuple:
            kind = tuple
        else:
            kind = next(arg for arg in typing.get_args(hint) or (hint,)
                        if arg is not type(None))
        schema.append((f.name, kind, f.default))
    return tuple(schema)


def _decode(cls: Type, data: Dict[str, object]):
    """The one request decoder: accepted names, defaults and JSON kinds
    all come from the fields of request type ``cls``.  Each type still
    defines its own one-line ``from_json``, because the per-layer
    tracer in ``benchmarks/e2e/trace`` times ``<Type>.from_json``."""
    schema = _schema(cls)
    _reject_unknown(data, tuple(name for name, _, _ in schema), cls.ROUTE)
    return cls(**{name: _field(data, name, kind, default)
                  for name, kind, default in schema})


class _JsonRequest:
    """The JSON encoding every request type shares."""

    def to_json(self) -> Dict[str, object]:
        return {name: list(value) if isinstance(value, tuple) else value
                for name, value in asdict(self).items()}


def _check_generation(name: str) -> str:
    if name not in GENERATIONS:
        raise ConfigError(
            f"unknown config {name!r} (choices: {', '.join(GENERATIONS)})")
    return name


def _check_workload(name: str) -> str:
    from ..workloads.resolve import workload_names
    if name not in workload_names():
        choices = ", ".join(workload_names())
        raise ConfigError(f"unknown workload {name!r} (choices: {choices})")
    return name


def _check_instructions(n: int) -> int:
    if not 0 < n <= MAX_INSTRUCTIONS:
        raise ConfigError(
            f"instructions must be in [1, {MAX_INSTRUCTIONS}], got {n}")
    return n


def _check_deadline(ms: Optional[int]) -> Optional[int]:
    if ms is not None and not 0 < ms <= MAX_DEADLINE_MS:
        raise ConfigError(
            f"deadline_ms must be in [1, {MAX_DEADLINE_MS}], got {ms}")
    return ms


@dataclass(frozen=True)
class SimulateRequest(_JsonRequest):
    """``POST /v1/simulate`` — one full-fidelity timing-model run."""

    config: str = "power10"
    workload: str = "xz"
    instructions: int = 2000
    warmup_fraction: float = 0.0
    deadline_ms: Optional[int] = None

    ROUTE = "/v1/simulate"

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "SimulateRequest":
        return _decode(cls, data)

    def __post_init__(self) -> None:
        _check_generation(self.config)
        _check_workload(self.workload)
        _check_instructions(self.instructions)
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ConfigError(
                f"warmup_fraction must be in [0, 1), got "
                f"{self.warmup_fraction}")
        _check_deadline(self.deadline_ms)


@dataclass(frozen=True)
class CompareRequest(_JsonRequest):
    """``POST /v1/compare`` — P9 vs P10 across a workload list."""

    workloads: Tuple[str, ...] = ("daxpy",)
    instructions: int = 2000
    deadline_ms: Optional[int] = None

    ROUTE = "/v1/compare"

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "CompareRequest":
        return _decode(cls, data)

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigError("compare needs at least one workload")
        if len(self.workloads) > MAX_COMPARE_WORKLOADS:
            raise ConfigError(
                f"compare accepts at most {MAX_COMPARE_WORKLOADS} "
                f"workloads, got {len(self.workloads)}")
        for name in self.workloads:
            _check_workload(name)
        _check_instructions(self.instructions)
        _check_deadline(self.deadline_ms)


@dataclass(frozen=True)
class EstimateRequest(_JsonRequest):
    """``POST /v1/estimate`` — the explicit power-proxy fast path."""

    config: str = "power10"
    workload: str = "xz"
    instructions: int = 2000

    ROUTE = "/v1/estimate"

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "EstimateRequest":
        return _decode(cls, data)

    def __post_init__(self) -> None:
        _check_generation(self.config)
        _check_workload(self.workload)
        _check_instructions(self.instructions)


@dataclass(frozen=True)
class InjectRequest(_JsonRequest):
    """``POST /v1/inject`` — one seeded fault-injection run."""

    seed: int = 0
    config: str = "power10"
    workload: str = "xz"
    instructions: int = 2000
    faults: int = 3
    deadline_ms: Optional[int] = None

    ROUTE = "/v1/inject"

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "InjectRequest":
        return _decode(cls, data)

    def __post_init__(self) -> None:
        _check_generation(self.config)
        _check_workload(self.workload)
        _check_instructions(self.instructions)
        if not 0 < self.faults <= MAX_FAULTS:
            raise ConfigError(
                f"faults must be in [1, {MAX_FAULTS}], got {self.faults}")
        _check_deadline(self.deadline_ms)


REQUEST_TYPES: Dict[str, Type] = {
    SimulateRequest.ROUTE: SimulateRequest,
    CompareRequest.ROUTE: CompareRequest,
    EstimateRequest.ROUTE: EstimateRequest,
    InjectRequest.ROUTE: InjectRequest,
}

#: header that carries a request deadline when the body has none
DEADLINE_HEADER = "x-deadline-ms"


def apply_deadline_header(cls: Type, data: Dict[str, object],
                          header: str) -> Dict[str, object]:
    """Fold an ``X-Deadline-Ms`` header into a decoded request body.

    An explicit ``deadline_ms`` in the body wins over the header, and
    routes whose request type has no ``deadline_ms`` field (estimate —
    the fast path needs no budget) ignore the header entirely rather
    than reject it, so one client-side default header works across
    every route.
    """
    names = {f.name for f in fields(cls)}
    if "deadline_ms" not in names or "deadline_ms" in data:
        return data
    try:
        ms = int(str(header).strip())
    except ValueError as exc:
        raise ConfigError(
            f"X-Deadline-Ms must be an integer number of "
            f"milliseconds, got {header!r}") from exc
    out = dict(data)
    out["deadline_ms"] = ms
    return out


# ---- response envelopes --------------------------------------------------

def ok_body(result: Dict[str, object], *, degraded: bool = False,
            source: str = "engine") -> Dict[str, object]:
    return {"ok": True, "degraded": degraded, "source": source,
            "result": result}


# Exception -> (stable code, HTTP status).  Order matters: subclasses
# must precede their bases so e.g. DrainingError does not fall through
# to the generic ServeError mapping.
_ERROR_TABLE: Tuple[Tuple[type, str, int], ...] = (
    (DrainingError, "shutting_down", 503),
    (OverloadError, "overloaded", 503),
    (ClusterError, "cluster_unavailable", 503),
    (DeadlineError, "deadline_exceeded", 504),
    (ConfigError, "bad_request", 400),
    (TraceError, "bad_request", 400),
    (ResilienceError, "bad_request", 400),
    (ServeError, "bad_request", 400),
    (ReproError, "model_error", 500),
)


def error_status(exc: BaseException) -> Tuple[str, int]:
    """The stable error code and HTTP status for an exception."""
    for etype, code, status in _ERROR_TABLE:
        if isinstance(exc, etype):
            return code, status
    return "internal", 500


def error_body(exc: BaseException) -> Dict[str, object]:
    code, _status = error_status(exc)
    return {"ok": False,
            "error": {"code": code,
                      "type": type(exc).__name__,
                      "message": str(exc)}}
