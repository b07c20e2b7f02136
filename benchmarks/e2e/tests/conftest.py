"""The benchmark's own tests.  Run them explicitly, from the repository
root::

    python3 -m pytest benchmarks/e2e/tests -q

They are not part of the tier-1 suite: two of them run the benchmark
end to end (about a minute each).
"""

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))


@pytest.fixture
def root() -> Path:
    return ROOT
