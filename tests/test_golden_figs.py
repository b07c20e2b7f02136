"""Golden regression harness: every paper figure against committed goldens.

Each scenario in :mod:`repro.exec.figs` runs at its reduced
``quick_scale`` and its scalar summary is compared against
``tests/goldens/<name>.json`` within the scenario's ``rtol``.  Any
model change that moves a figure — an energy coefficient, a pipeline
rule, a derating weight — fails here with the exact scalar that moved.
Each scenario also runs with every simulation on the per-instruction
walk of ``tests/walk_oracle.py`` in place of the replay, and its
scalars must equal the replay run's exactly.

Intentional changes regenerate the files with::

    pytest tests/test_golden_figs.py --update-goldens

and the diff of ``tests/goldens/`` becomes part of code review.

The harness also proves its own sensitivity: a 1% perturbation of one
event-energy coefficient must trip the fig05 comparison.
"""

import json
import math
from pathlib import Path

import pytest

import repro.core.config
import repro.fastsim.replay
from repro.exec import Engine
from repro.exec.figs import SCENARIOS, run_scenario
from tests.walk_oracle import simulate_reference

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch):
    """Goldens must reflect the model, never an ambient result cache."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_WORKERS", raising=False)


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def load_golden(name: str) -> dict:
    return json.loads(golden_path(name).read_text())


def write_golden(name: str, scalars: dict, scale: float,
                 rtol: float) -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    doc = {"scenario": name, "scale": scale, "rtol": rtol,
           "scalars": scalars}
    golden_path(name).write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n")


def compare_scalars(actual: dict, golden: dict, rtol: float):
    """Return the list of mismatch descriptions (empty = match)."""
    problems = []
    for key in sorted(set(golden) | set(actual)):
        if key not in actual:
            problems.append(f"missing scalar {key!r}")
            continue
        if key not in golden:
            problems.append(f"new scalar {key!r} not in golden")
            continue
        a, g = actual[key], golden[key]
        if not math.isclose(a, g, rel_tol=rtol, abs_tol=rtol):
            problems.append(
                f"{key}: got {a!r}, golden {g!r} (rtol {rtol})")
    return problems


# Default-path (replay) scalars per scenario, computed once and shared
# by both ``path`` variants of test_golden.
_DEFAULT_SCALARS: dict = {}


def default_scalars(name: str) -> dict:
    if name not in _DEFAULT_SCALARS:
        spec = SCENARIOS[name]
        _rich, _DEFAULT_SCALARS[name] = run_scenario(
            name, scale=spec.quick_scale, engine=Engine(workers=1))
    return _DEFAULT_SCALARS[name]


@pytest.mark.parametrize("path", ["detailed", "fast"])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_golden(name, path, request, monkeypatch):
    """Every scenario lands on its committed golden both through the
    replay ("fast") and with ``simulate`` running the per-instruction
    walk of ``tests/walk_oracle.py`` in its place ("detailed").  The
    walk's scalars must also equal the replay's exactly: the replay is
    exact at figure level, not merely within ``rtol``."""
    spec = SCENARIOS[name]
    scalars = default_scalars(name)
    assert scalars, f"scenario {name} produced no scalars"
    if path == "detailed":
        monkeypatch.setattr(repro.fastsim.replay, "simulate_fast",
                            simulate_reference)
        _rich, walked = run_scenario(name, scale=spec.quick_scale,
                                     engine=Engine(workers=1))
        assert walked == scalars
        scalars = walked
    if request.config.getoption("--update-goldens"):
        write_golden(name, scalars, spec.quick_scale, spec.rtol)
        return
    if not golden_path(name).is_file():
        pytest.fail(
            f"no golden for {name}; run with --update-goldens")
    golden = load_golden(name)
    assert golden["scale"] == spec.quick_scale, \
        "golden was recorded at a different scale; regenerate it"
    problems = compare_scalars(scalars, golden["scalars"], spec.rtol)
    assert not problems, (
        f"scenario {name} diverged from its golden:\n  "
        + "\n  ".join(problems))


#: Fig. 6 composes a handful of ``lru_cache``d kernel-rate runs under
#: three public ``workloads.ai`` functions; they call ``simulate``
#: directly, so neither workers nor the result cache reach them.
NOT_ON_THE_ENGINE = {"fig06"}


@pytest.mark.parametrize(
    "name", [n for n in SCENARIOS if n not in NOT_ON_THE_ENGINE])
def test_scenario_simulates_only_through_its_engine(name, tmp_path,
                                                    monkeypatch):
    """A cold run on two workers and a cache equals the serial run bit
    for bit, and a warm rerun on that cache simulates nothing: every
    simulation the scenario makes is an engine task."""
    spec = SCENARIOS[name]
    with Engine(workers=2, cache=tmp_path) as cold:
        _rich, scalars = run_scenario(name, scale=spec.quick_scale,
                                      engine=cold)
    assert scalars == default_scalars(name)
    calls = []
    replay = repro.fastsim.replay.simulate_fast

    def counted(*args, **kwargs):
        calls.append(1)
        return replay(*args, **kwargs)

    monkeypatch.setattr(repro.fastsim.replay, "simulate_fast", counted)
    _rich, warm = run_scenario(name, scale=spec.quick_scale,
                               engine=Engine(workers=1, cache=tmp_path))
    assert len(calls) == 0
    assert warm == scalars


class _TaskLog(Engine):
    """A serial engine without a cache directory that records, per
    plan, how each task key was answered ("executed" or "cache")."""

    def __init__(self):
        super().__init__(workers=1)
        self.plans = []

    def run(self, plan, sources=None):
        answered = {}
        results = super().run(plan, answered)
        self.plans.append(answered)
        return results

    def sources(self, start=0):
        """Task key -> every answer it got, over plans ``start:``."""
        out = {}
        for plan in self.plans[start:]:
            for key, source in plan.items():
                out.setdefault(key, []).append(source)
        return out


@pytest.mark.parametrize("first, then", [("fig11", "fig12"),
                                         ("fig15", "table1")])
def test_one_engine_executes_a_repeated_task_once(first, then):
    """``fig12`` re-runs ``fig11``'s 52 training runs and ``table1``
    re-runs ``fig15``'s 52 characterization runs; on one engine the
    second scenario executes none of them."""
    engine = _TaskLog()
    answers = {}
    for name in (first, then):
        start = len(engine.plans)
        _rich, scalars = run_scenario(
            name, scale=SCENARIOS[name].quick_scale, engine=engine)
        assert scalars == default_scalars(name)
        answers[name] = engine.sources(start)
    repeated = set(answers[first]) & set(answers[then])
    assert len(repeated) == 52
    assert {s for key in repeated for s in answers[then][key]} \
        == {"cache"}
    executed = [key for key, got in engine.sources().items()
                for s in got if s == "executed"]
    assert len(executed) == len(set(executed))


def test_proxy_coverage_simulates_its_reference_once():
    """Both validations compare against the same full ``leela`` run,
    which one engine simulates once."""
    engine = _TaskLog()
    _rich, scalars = run_scenario(
        "proxy_coverage", scale=SCENARIOS["proxy_coverage"].quick_scale,
        engine=engine)
    assert scalars == default_scalars("proxy_coverage")
    repeats = [got for got in engine.sources().values() if len(got) > 1]
    assert repeats == [["executed", "cache"]]


def test_goldens_cover_every_scenario():
    """A scenario without a committed golden is an uncovered figure."""
    missing = [n for n in SCENARIOS if not golden_path(n).is_file()]
    assert not missing, (
        f"scenarios without goldens: {missing}; "
        "run pytest tests/test_golden_figs.py --update-goldens")


def test_harness_detects_energy_perturbation(monkeypatch):
    """1% on one event-energy coefficient must trip the comparison.

    This is the harness's own regression test: if a coefficient change
    this small ever stops moving the fig05 power scalars, the goldens
    have lost their sensitivity and the harness is decorative.
    """
    spec = SCENARIOS["fig05"]
    table = repro.core.config._P10_EVENT_PJ
    monkeypatch.setitem(table, "l1d_access",
                        table["l1d_access"] * 1.01)
    _rich, scalars = run_scenario("fig05", scale=spec.quick_scale,
                                  engine=Engine(workers=1))
    golden = load_golden("fig05")
    problems = compare_scalars(scalars, golden["scalars"], spec.rtol)
    assert problems, (
        "a 1% l1d_access energy perturbation did not move any fig05 "
        "scalar beyond rtol — the golden harness is not sensitive "
        "enough")
