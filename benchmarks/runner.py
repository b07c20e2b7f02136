"""Standalone benchmark driver: ``python benchmarks/runner.py``.

A thin wrapper over :mod:`repro.exec.benchrun` (the same backend the
``repro bench`` CLI subcommand uses) so the benchmark suite can be run
without installing the package — only ``src/`` on ``sys.path`` is
needed.  Writes one ``BENCH_<scenario>.json`` per scenario plus
``BENCH_sweep.json``; see ``repro bench --help`` for options.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.exec.benchrun import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
