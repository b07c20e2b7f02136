"""The figure studies reach the simulator only through engine plans.

Power, reliability, tracegen and analysis submit their simulations as
``sim_task`` lists to ``run_sim_plan``, so the result cache, the
``--workers`` fan-out and the engine's bit-identity tests cover every
simulation they make.  This test reads their sources with ``ast`` and
fails on any import of the simulator entry points, at module level or
inside a function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = ("repro.power", "repro.reliability", "repro.tracegen",
            "repro.analysis")
#: (module, name) imports that bypass the engine
FORBIDDEN = {("repro.core.pipeline", "simulate"),
             ("repro.core", "simulate"),
             ("repro.core", "pipeline"),
             ("repro.core.simulator", "simulate_trace"),
             ("repro.core", "simulate_trace")}


def _modules():
    """``(package, source)`` for every module of the studies."""
    for package in PACKAGES:
        root = SRC.joinpath(*package.split("."))
        for path in sorted(root.rglob("*.py")):
            parts = path.relative_to(SRC).parent.parts
            yield ".".join(parts), path.read_text()


def _imports(package: str, source: str):
    """Every ``(module, name)`` the source imports; relative imports
    resolve against ``package``, the module's own package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            for alias in node.names:
                yield base, alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module, _, name = alias.name.rpartition(".")
                yield module, name


def test_guard_sees_the_imports_it_forbids():
    """The imports the studies used to make, relative and absolute,
    at module level and inside a function."""
    source = ("from ..core.pipeline import simulate\n"
              "def run():\n"
              "    from repro.core import simulate_trace\n"
              "    import repro.core.pipeline\n")
    assert set(_imports("repro.power", source)) == {
        ("repro.core.pipeline", "simulate"),
        ("repro.core", "simulate_trace"),
        ("repro.core", "pipeline")}


def test_no_study_imports_the_simulator():
    modules = list(_modules())
    assert {package.split(".")[1] for package, _ in modules} \
        == {p.split(".")[1] for p in PACKAGES}
    offenders = sorted({f"{package}: {module}.{name}"
                        for package, source in modules
                        for module, name in _imports(package, source)
                        if (module, name) in FORBIDDEN})
    assert offenders == []
