"""Repo-specific semantic rules.

Each rule proves one of the model's bookkeeping contracts *statically*
(PAPER.md §III-D: the power methodology is only trustworthy because
every latch and event is accounted to exactly one of the 39 components,
and the activity streams feeding the counter models are complete and
reproducible):

* R001 — every event/unit string literal handed to the activity
  interface resolves to ``EVENT_NAMES``/``UNIT_NAMES``;
* R002 — the component inventory is a total, disjoint partition of the
  event space over real clock-gating units and known categories;
* R003 — model code (``repro.core``, ``repro.power``, ``repro.pm``,
  ``repro.exec``, and — since PR 7 — ``repro.serve`` minus named
  wall-clock allowances) is deterministic: no wall clocks, no
  unseeded randomness, no iteration over unordered sets;
* R004 — library errors go through the ``repro.errors`` taxonomy;
* R005 — simulator configs are frozen dataclasses and no function has
  a mutable default argument;
* R006 — metric names used in ``obs`` wiring are declared once in
  ``WELL_KNOWN_METRICS`` with the right kind.

The concurrency tier (R007-R011) lives in
:mod:`repro.lint.concurrency`.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Sequence

from .engine import ParsedModule, Rule, register
from .findings import Finding, Severity
from .model_facts import EXPECTED_COMPONENT_COUNT, ModelFacts


def _const_str(node: ast.AST) -> str:
    """The literal string value of a node, or '' if it is not one."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return ""


def _call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of an expression (``np.random.rand``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@register
class EventLiteralRule(Rule):
    """R001: activity event/unit string literals must be declared.

    A typo'd event (``act.count("icache_acess")``) used to surface only
    at runtime, and only on code paths the workload actually exercised;
    in non-strict counters it would silently charge zero energy.  This
    rule resolves every literal against the canonical tables without
    running anything: ``count(...)`` first arguments against
    ``EVENT_NAMES``; ``busy(...)``/``utilization(...)`` against
    ``UNIT_NAMES``; subscripts of ``.events`` / ``.unit_busy_cycles``;
    and string keys/values of module-level dicts whose name mentions
    EVENT (the per-event energy tables and issue-event maps).
    """

    id = "R001"
    title = "event literal must resolve to EVENT_NAMES/UNIT_NAMES"
    severity = Severity.ERROR

    def check_module(self, module: ParsedModule,
                     facts: ModelFacts) -> Iterable[Finding]:
        events, units = facts.event_set, facts.unit_set
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(module, node, events, units)
            elif isinstance(node, ast.Subscript):
                yield from self._check_subscript(module, node,
                                                 events, units)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                yield from self._check_event_dict(module, node, events)

    @staticmethod
    def _is_event_table_name(name: str) -> bool:
        # constant-style names only (_P9_EVENT_PJ, _ISSUE_EVENT); local
        # lowercase variables like Chrome-trace `event` dicts are not
        # activity tables
        return name.isupper() and "EVENT" in name

    def _check_call(self, module, node, events, units):
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr == "update" and isinstance(func.value, ast.Name) \
                and self._is_event_table_name(func.value.id):
            # _P10_EVENT_PJ.update({...}): check the literal dict's keys
            for arg in node.args:
                if isinstance(arg, ast.Dict):
                    yield from self._check_dict_entries(module, arg,
                                                        events)
            return
        if func.attr not in ("count", "busy", "utilization"):
            return
        # skip str.count / list.count on literals and call results, e.g.
        # bin(x).count("1")
        if isinstance(func.value, (ast.Constant, ast.Call)):
            return
        arg = node.args[0] if node.args else None
        if arg is None:
            for kw in node.keywords:
                if kw.arg in ("event", "unit"):
                    arg = kw.value
        name = _const_str(arg) if arg is not None else ""
        if not name or not name.isidentifier():
            return
        if func.attr == "count":
            if name not in events:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f'unknown activity event "{name}" passed to '
                    f".count() — not in EVENT_NAMES "
                    f"(declare it in repro/core/activity.py)")
        else:
            if name not in units:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f'unknown unit "{name}" passed to .{func.attr}() '
                    f"— not in UNIT_NAMES")

    def _check_subscript(self, module, node, events, units):
        value = node.value
        if not isinstance(value, ast.Attribute):
            return
        key = _const_str(node.slice)
        if not key or not key.isidentifier():
            return
        if value.attr == "events" and key not in events:
            yield self.finding(
                module, node.lineno, node.col_offset,
                f'unknown activity event "{key}" in .events[...] '
                f"subscript — not in EVENT_NAMES")
        elif value.attr == "unit_busy_cycles" and key not in units:
            yield self.finding(
                module, node.lineno, node.col_offset,
                f'unknown unit "{key}" in .unit_busy_cycles[...] '
                f"subscript — not in UNIT_NAMES")

    def _check_event_dict(self, module, node, events):
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            targets = [node.target]
            value = node.value
        if not isinstance(value, ast.Dict):
            return
        named = any(isinstance(t, ast.Name)
                    and self._is_event_table_name(t.id)
                    for t in targets)
        if not named:
            return
        yield from self._check_dict_entries(module, value, events)

    def _check_dict_entries(self, module, value, events):
        for part in list(value.keys) + list(value.values):
            if part is None:
                continue
            text = _const_str(part)
            if text and text.isidentifier() and text not in events:
                yield self.finding(
                    module, part.lineno, part.col_offset,
                    f'unknown activity event "{text}" in event-keyed '
                    f"dict — not in EVENT_NAMES")


@register
class ComponentCoverageRule(Rule):
    """R002: the 39-component partition is total and disjoint.

    Every declared activity event must be owned by exactly one
    ``Component``; every component must charge a real clock-gating unit
    and a known Einspower category; and the inventory must stay at the
    paper's 39 entries.  This is ``validate_inventory()`` made static:
    it holds even for a tree too broken to import.
    """

    id = "R002"
    title = "component inventory must partition the event space"
    severity = Severity.ERROR

    def check_project(self, facts: ModelFacts,
                      modules: Sequence[ParsedModule]) -> Iterable[Finding]:
        path = facts.components_path
        if len(facts.components) != EXPECTED_COMPONENT_COUNT:
            yield self.finding(
                path, facts.components_line, 0,
                f"expected {EXPECTED_COMPONENT_COUNT} components "
                f"(paper §III-D), found {len(facts.components)}")
        owners: Dict[str, str] = {}
        for comp in facts.components:
            if comp.unit not in facts.unit_set:
                yield self.finding(
                    path, comp.line, 0,
                    f'component "{comp.name}": unit "{comp.unit}" is '
                    f"not a clock-gating domain in UNIT_NAMES")
            if comp.category not in facts.categories:
                yield self.finding(
                    path, comp.line, 0,
                    f'component "{comp.name}": category '
                    f'"{comp.category}" not in CATEGORIES '
                    f"{tuple(facts.categories)}")
            for event in comp.events:
                if event not in facts.event_set:
                    yield self.finding(
                        path, comp.line, 0,
                        f'component "{comp.name}" charges unknown '
                        f'event "{event}" (not in EVENT_NAMES)')
                elif event in owners:
                    yield self.finding(
                        path, comp.line, 0,
                        f'event "{event}" charged to both '
                        f'"{owners[event]}" and "{comp.name}" — the '
                        f"partition must be disjoint")
                else:
                    owners[event] = comp.name
        for event in facts.event_names:
            if event not in owners:
                yield self.finding(
                    facts.activity_path, facts.event_names_line, 0,
                    f'event "{event}" is declared in EVENT_NAMES but '
                    f"owned by no component in "
                    f"{facts.components_path} — its energy would be "
                    f"charged nowhere")


# Wall-clock and entropy sources banned from model code.
_BANNED_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
}
_BANNED_TIME_NAMES = {
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time",
}
# numpy module-level RNG entry points (global hidden state); the
# Generator API obtained from a *seeded* default_rng is fine.
_NP_RANDOM_FUNCS = {
    "random", "rand", "randn", "randint", "random_sample", "choice",
    "shuffle", "permutation", "seed", "standard_normal", "uniform",
    "normal", "binomial",
}


@register
class DeterminismRule(Rule):
    """R003: model code must be reproducible.

    ``repro.core``, ``repro.power`` and ``repro.pm`` carry the
    "telemetry off => bit-identical results" guarantee (PR 1), and the
    counter-based power models are only validatable if two runs of the
    same trace produce the same activity stream.  Banned here: wall
    clocks, the seedless ``random`` module, numpy's global RNG,
    ``np.random.default_rng()`` without a seed, and iteration over set
    displays/calls (Python set order is not deterministic across
    processes) unless wrapped in ``sorted(...)``.

    Scope policy (revised in PR 7): the observability layer
    (``repro.obs``) measures wall time by design and stays exempt, but
    the serving layer is now *in* scope — the old blanket
    ``repro/serve/`` carve-out is retired in favour of
    ``WALL_CLOCK_ALLOWANCES``, a table of *named functions* that
    legitimately touch wall clocks or jitter RNGs (latency
    measurement, queue-wait accounting, client backoff), each with a
    one-line justification.  Everything else in ``repro.serve`` must
    be deterministic; the concurrency tier (R007-R011,
    :mod:`repro.lint.concurrency`) plus the runtime sanitizer cover
    what a static clock ban cannot.  Allowances excuse *calls* only —
    banned imports and unordered-set iteration are never excused.
    """

    id = "R003"
    title = "model code must be deterministic"
    severity = Severity.ERROR

    SCOPES = ("repro/core/", "repro/power/", "repro/pm/",
              "repro/exec/", "repro/serve/", "repro/cluster/")

    #: relpath -> {function qualname: justification}.  The only wall
    #: clock/RNG escape hatch in scoped code; every entry must say why
    #: the measurement is inherently wall-clock (these feed latency
    #: telemetry, never model results).
    WALL_CLOCK_ALLOWANCES: Dict[str, Dict[str, str]] = {
        "repro/exec/executor.py": {
            "Engine._execute_parallel":
                "wall-clock watchdog for per-batch deadline budgets "
                "(feeds supervision, never model results)",
        },
        "repro/serve/batcher.py": {
            "MicroBatcher.submit":
                "queue-wait vs service split for SLO accounting",
            "MicroBatcher._run_batch":
                "batch service-time measurement for SLO accounting",
        },
        "repro/serve/server.py": {
            "ReproServer._dispatch":
                "end-to-end request latency for access log + metrics",
        },
        "repro/serve/client.py": {
            "ServeClient.__post_init__":
                "seeded jitter RNG for retry backoff (seed is in the "
                "client config, so tests stay reproducible)",
            "ServeClient._once":
                "client-side latency measurement",
        },
        "repro/serve/loadgen.py": {
            "run_loadgen":
                "open-loop pacing and wall-clock throughput",
            "run_loadgen._fire":
                "per-request latency measurement",
        },
        "repro/cluster/router.py": {
            "ClusterRouter._post":
                "routed-request latency measurement for the cluster "
                "histogram (feeds telemetry, never routing decisions)",
        },
        "repro/cluster/workers.py": {
            "ProcessWorker._await_port":
                "wall-clock bound on a child process publishing its "
                "ephemeral port (supervision, never model results)",
        },
        "repro/cluster/supervisor.py": {
            "Cluster._await":
                "wall-clock bound on drain/health settling during "
                "rolling restarts (supervision, never model results)",
        },
    }

    def applies_to(self, module: ParsedModule) -> bool:
        return module.relpath.startswith(self.SCOPES)

    def check_module(self, module: ParsedModule,
                     facts: ModelFacts) -> Iterable[Finding]:
        allowed = self.WALL_CLOCK_ALLOWANCES.get(module.relpath, {})
        scopes = module.function_scopes() if allowed else None
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                if scopes is not None \
                        and scopes.qualname_of(node) in allowed:
                    continue
                yield from self._check_call(module, node)
            elif isinstance(node, ast.ImportFrom):
                yield from self._check_import(module, node)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                yield from self._check_iteration(module, node.iter)
            elif isinstance(node, ast.comprehension):
                yield from self._check_iteration(module, node.iter)

    def _check_call(self, module, node):
        dotted = _dotted(node.func)
        if dotted in _BANNED_CALLS:
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"non-deterministic call {dotted}() in model code — "
                f"route timing through repro.obs spans instead")
            return
        parts = dotted.split(".")
        if len(parts) >= 2 and parts[-2] == "random":
            func = parts[-1]
            if func == "default_rng" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    "np.random.default_rng() without a seed is "
                    "non-reproducible — pass an explicit seed")
            elif parts[0] in ("np", "numpy") and func in _NP_RANDOM_FUNCS:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"numpy global RNG ({dotted}) in model code — use "
                    f"a seeded np.random.default_rng(seed) Generator")
            elif parts[0] == "random":
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f"stdlib random ({dotted}) has hidden global state "
                    f"— use a seeded np.random.default_rng(seed)")

    def _check_import(self, module, node):
        if node.module == "time":
            for alias in node.names:
                if alias.name in _BANNED_TIME_NAMES:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"importing time.{alias.name} into model code "
                        f"— wall clocks belong in repro.obs")
        elif node.module == "random":
            yield self.finding(
                module, node.lineno, node.col_offset,
                "importing from stdlib random in model code — use a "
                "seeded np.random.default_rng(seed)")

    def _check_iteration(self, module, iter_node):
        target = iter_node
        if isinstance(target, ast.Set):
            yield self.finding(
                module, target.lineno, target.col_offset,
                "iterating over a set display — order is not "
                "deterministic; wrap in sorted(...)")
        elif isinstance(target, ast.Call) \
                and _call_name(target) in ("set", "frozenset"):
            yield self.finding(
                module, target.lineno, target.col_offset,
                f"iterating over {_call_name(target)}(...) — order is "
                f"not deterministic; wrap in sorted(...)")


# Builtin exceptions that library code must not raise directly.
_FORBIDDEN_RAISES = {
    "Exception", "BaseException", "ValueError", "TypeError", "KeyError",
    "IndexError", "RuntimeError", "ArithmeticError", "OSError",
    "LookupError", "AttributeError",
}


@register
class ErrorTaxonomyRule(Rule):
    """R004: library errors go through the ``repro.errors`` taxonomy.

    Callers (the CLI, telemetry sessions, suite drivers) catch
    ``ReproError`` to distinguish "the model rejected your input" from
    genuine bugs; a bare ``ValueError`` escaping the library defeats
    that and turns into a traceback for the user.  Bare ``except:``
    clauses are flagged too (they swallow ``KeyboardInterrupt``); the
    ``--fix`` mode rewrites those to ``except Exception:``.
    """

    id = "R004"
    title = "raise ReproError subclasses from library code"
    severity = Severity.WARNING

    def check_module(self, module: ParsedModule,
                     facts: ModelFacts) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Raise):
                exc = node.exc
                if exc is None:
                    continue          # bare re-raise
                name = exc.func if isinstance(exc, ast.Call) else exc
                dotted = _dotted(name)
                base = dotted.split(".")[-1] if dotted else ""
                if base in _FORBIDDEN_RAISES:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        f"raise {base} from library code — raise a "
                        f"repro.errors.ReproError subclass instead")
            elif isinstance(node, ast.ExceptHandler):
                if node.type is None:
                    yield self.finding(
                        module, node.lineno, node.col_offset,
                        "bare except: swallows KeyboardInterrupt/"
                        "SystemExit — use except Exception:",
                        fixable=True)


_CONFIG_CLASS_RE = re.compile(r"(Config|Spec)$")
_MUTABLE_FACTORIES = {"dict", "list", "set", "defaultdict", "OrderedDict"}


def _dataclass_decorator(node: ast.ClassDef):
    """The @dataclass decorator node of a class, or None."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if _dotted(target).split(".")[-1] == "dataclass":
            return dec
    return None


@register
class ConfigHygieneRule(Rule):
    """R005: configs are frozen; no mutable default arguments.

    Simulator configurations (``*Config``, ``*Spec`` dataclasses) are
    shared across runs by session-scoped fixtures and factory caches; a
    mutation through one alias silently changes someone else's
    experiment, so they must be ``frozen=True`` (copy-on-write via
    ``dataclasses.replace``).  Mutable default arguments are the same
    aliasing bug at function granularity.
    """

    id = "R005"
    title = "config dataclasses frozen; no mutable default args"
    severity = Severity.WARNING

    def check_module(self, module: ParsedModule,
                     facts: ModelFacts) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                yield from self._check_defaults(module, node)

    def _check_class(self, module, node):
        if not _CONFIG_CLASS_RE.search(node.name):
            return
        dec = _dataclass_decorator(node)
        if dec is None:
            return
        frozen = False
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "frozen" \
                        and isinstance(kw.value, ast.Constant):
                    frozen = bool(kw.value.value)
        if not frozen:
            yield self.finding(
                module, node.lineno, node.col_offset,
                f"config dataclass {node.name} is not frozen=True — "
                f"configs are shared across runs and must be "
                f"copy-on-write (dataclasses.replace)")

    def _check_defaults(self, module, node):
        defaults = list(node.args.defaults) \
            + [d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            mutable = isinstance(default,
                                 (ast.Dict, ast.List, ast.Set,
                                  ast.DictComp, ast.ListComp, ast.SetComp))
            if isinstance(default, ast.Call) \
                    and _call_name(default) in _MUTABLE_FACTORIES:
                mutable = True
            if mutable:
                name = getattr(node, "name", "<lambda>")
                yield self.finding(
                    module, default.lineno, default.col_offset,
                    f"mutable default argument in {name}() is shared "
                    f"across calls — default to None and create inside",
                    fixable=not isinstance(node, ast.Lambda))


@register
class MetricRegistrationRule(Rule):
    """R006: metric names are declared once, with a fixed kind.

    Mirrors the runtime registry semantics from PR 1 (one name = one
    kind, registration idempotent): every literal name passed to
    ``.counter()`` / ``.gauge()`` / ``.histogram()`` must appear in
    ``WELL_KNOWN_METRICS`` in ``repro/obs/metrics.py`` with the same
    kind, so dashboards and exports have a single source of truth and a
    typo'd name cannot fork a metric family.
    """

    id = "R006"
    title = "metric names declared once in WELL_KNOWN_METRICS"
    severity = Severity.WARNING

    KINDS = ("counter", "gauge", "histogram")

    def applies_to(self, module: ParsedModule) -> bool:
        # the declaration table itself is exempt
        return not module.relpath.endswith("obs/metrics.py")

    def check_module(self, module: ParsedModule,
                     facts: ModelFacts) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) \
                    or func.attr not in self.KINDS:
                continue
            name = _const_str(node.args[0]) if node.args else ""
            if not name:
                continue
            declared = facts.metric_decls.get(name)
            if declared is None:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f'metric "{name}" is not declared in '
                    f"WELL_KNOWN_METRICS ({facts.metrics_path}) — "
                    f"declare it once with its kind")
            elif declared != func.attr:
                yield self.finding(
                    module, node.lineno, node.col_offset,
                    f'metric "{name}" declared as {declared} but used '
                    f"as {func.attr}")
