"""Columnar activity extraction + vectorized replay: the repo's APEX.

:func:`repro.core.pipeline.simulate` is the one simulation entry point,
and every run lands here: the *stateful event derivation* (caches,
TLBs, branch predictors, fusion — all independent of instruction
timing) is extracted once per run as numpy tensors, and only the serial
occupancy recurrence is replayed over them.  Interval samplers and
fault injectors are served from the replay's per-group taps.  The
per-instruction walk the replay was derived from is the test oracle
(``tests/walk_oracle.py``); ``tests/test_fastsim_diff.py`` and
``tests/test_replay_taps.py`` check the replay against it, bit for bit.

Public surface:

* :func:`simulate_fast` — the replay ``simulate`` runs.
* :func:`extract_stream` — the per-run activity tensor.
"""

from .extract import ActivityStream, extract_stream
from .replay import simulate_fast

__all__ = ["ActivityStream", "extract_stream", "simulate_fast"]
