"""The traced benchmark ledger wraps every target it names.

``benchmarks/e2e/trace/sitecustomize.py`` wraps each ``TARGETS`` entry
by looking it up in its owner's own namespace (``vars(owner)``).  A
target that is renamed, moved or inherited from a base class is skipped
without a word: its layer records no calls and reads as faster.  This
test reads ``TARGETS`` with ``ast`` (importing the file would
instrument the process) and resolves every entry the same way.
"""

import ast
import importlib
from pathlib import Path

SITECUSTOMIZE = (Path(__file__).resolve().parents[1] / "benchmarks"
                 / "e2e" / "trace" / "sitecustomize.py")

#: targets known not to resolve.  ``repro.fastsim.power_eval`` was
#: deleted; dropping the entry and its per-layer rows is ROADMAP item 5
#: (the benchmark's files change only with the benchmark).
KNOWN_MISSING = {
    ("fastsim.batch_power", "repro.fastsim.power_eval", "batch_power"),
}


def _targets():
    tree = ast.parse(SITECUSTOMIZE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS"
                for t in node.targets):
            return [tuple(entry) for entry in ast.literal_eval(node.value)]
    raise AssertionError("sitecustomize.py defines no TARGETS")


def _resolves(modname: str, attr: str) -> bool:
    """The lookup ``_instrument`` does: the owner's own namespace."""
    try:
        owner = importlib.import_module(modname)
    except ModuleNotFoundError:
        return False
    owner_path, _, name = attr.rpartition(".")
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    raw = vars(owner).get(name)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    return callable(raw)


def test_every_target_resolves_in_its_owner():
    unresolved = {t for t in _targets() if not _resolves(t[1], t[2])}
    assert unresolved == KNOWN_MISSING
