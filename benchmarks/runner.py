"""Standalone benchmark driver: ``python benchmarks/runner.py``.

Runs ``repro bench`` with the same arguments (see ``repro bench
--help``) so the benchmark suite can be run without installing the
package — only ``src/`` on ``sys.path`` is needed.  Writes one
``BENCH_<scenario>.json`` per scenario plus ``BENCH_sweep.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import repro.cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(repro.cli.main(["bench", *sys.argv[1:]]))
