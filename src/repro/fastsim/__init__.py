"""Columnar activity extraction + vectorized replay: the repo's APEX.

:func:`repro.core.pipeline.simulate` is the one simulation entry point.
A plain run lands here: the *stateful event derivation* (caches, TLBs,
branch predictors, fusion — all independent of instruction timing) is
extracted once per run as numpy tensors, and only the serial occupancy
recurrence is replayed over them.  Runs with an interval sampler or
under an active fault-injection campaign take the per-instruction walk
(:func:`repro.core.pipeline.simulate_reference`) instead, which is also
the reference ``tests/test_fastsim_diff.py`` checks the replay against,
bit for bit.

Public surface:

* :func:`simulate_fast` — the replay ``simulate`` dispatches to.
* :func:`extract_stream` — the per-run activity tensor.
"""

from .extract import ActivityStream, extract_stream
from .replay import simulate_fast

__all__ = ["ActivityStream", "extract_stream", "simulate_fast"]
