"""Chopstix-style proxy extraction (Section III-A).

The paper generated 1935 SPECint proxy workloads by (1) profiling each
benchmark, (2) taking the top-10 most-executed functions, (3) capturing
their code+data state, and (4) turning each captured invocation into an
L1-contained endless loop runnable on RTLSim.

Our synthetic applications don't have real functions, so we model a
"function" as a contiguous region of the dynamic trace that repeatedly
exercises the same static code lines.  Extraction:

1. bucket the dynamic trace by static code line (``pc >> 5``) into
   pseudo-functions,
2. rank by dynamic execution share and keep the top N,
3. for each kept function, cut a representative snippet and unroll it
   into an L1-contained loop (addresses re-based into a small footprint,
   per the paper's real-mode/no-translation transformation),
4. attach the function's share of the application as the proxy weight.

Coverage below 100% (e.g. gcc's 41%) is modeled by truncating the kept
set once the requested coverage is reached.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterator, List

import numpy as np

from ..core.isa import TraceColumns
from ..errors import TraceError
from .trace import Trace

_L1_FOOTPRINT_BYTES = 16 * 1024      # proxies must be L1-contained
_SNIPPET_MIN = 50                    # paper: few hundred ... 22K instrs
_SNIPPET_MAX = 22000


@dataclass
class FunctionProfile:
    """One pseudo-function found in an application trace."""

    function_id: int
    first_index: int
    dynamic_count: int
    share: float


def profile_functions(trace: Trace, *,
                      lines_per_function: int = 64) -> List[FunctionProfile]:
    """Bucket a trace into pseudo-functions and rank by execution share.

    Ties in execution count keep first-appearance order.
    """
    fn = (trace.columns.pc >> 5) // lines_per_function
    ids, first, counts = np.unique(fn, return_index=True,
                                   return_counts=True)
    seen = np.argsort(first)
    total = len(trace)
    profiles = [FunctionProfile(f, i, c, c / total) for f, i, c in zip(
        ids[seen].tolist(), first[seen].tolist(), counts[seen].tolist())]
    profiles.sort(key=lambda p: p.dynamic_count, reverse=True)
    return profiles


def _first_seen_rank(values: np.ndarray) -> np.ndarray:
    """Per element: how many distinct values first appeared before its
    own value did (a dict filled in order, as an array)."""
    uniq, first, inverse = np.unique(values, return_index=True,
                                     return_inverse=True)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(uniq))
    return rank[inverse]


def _rebase_snippet(columns: TraceColumns) -> TraceColumns:
    """Re-base code and data addresses into an L1-contained footprint.

    Mirrors the paper's transformation of captured state into real-mode
    (translation-free, repeatable) loops: every distinct code line and
    data chunk of the original snippet, numbered by first appearance, is
    mapped into a footprint that fits in the L1s.
    """
    pc = columns.pc
    line = _first_seen_rank(pc >> 5) % (_L1_FOOTPRINT_BYTES // 32)
    address = columns.address.copy()
    has = address >= 0
    data = address[has]
    chunk = _first_seen_rank(data >> 7) % (_L1_FOOTPRINT_BYTES // 128)
    address[has] = 0x2000000 + chunk * 128 + (data & 0x7f)
    return dataclasses.replace(
        columns, pc=0x1000 + line * 32 + (pc & 0x1f), address=address)


def iter_proxies(trace: Trace, *, top_functions: int = 10,
                 coverage: float = 1.0, snippet_instructions: int = 1500,
                 loop_iterations: int = 2) -> Iterator[Trace]:
    """Chopstix-style proxy workloads of an application trace, most
    executed function first, each built only when it is asked for.

    Yields up to ``top_functions`` proxies whose cumulative share does
    not exceed ``coverage``; each proxy's ``weight`` is its function's
    share of the application, so suite-level projections can reweight
    (Section III-A: "based on the weight assigned to each snippet").
    """
    if not 0.0 < coverage <= 1.0:
        raise TraceError("coverage must be in (0, 1]")
    profiles = profile_functions(trace)
    covered = 0.0
    for profile in profiles[:top_functions]:
        if covered >= coverage:
            break
        start = profile.first_index
        end = min(len(trace), start + snippet_instructions)
        if end - start < _SNIPPET_MIN:
            continue
        proxy = Trace(
            name=f"{trace.name}.f{profile.function_id}",
            columns=_rebase_snippet(trace.columns[start:end]),
            suite=f"{trace.suite}-proxy",
            weight=profile.share,
            metadata={"application": trace.name,
                      "function": profile.function_id,
                      "share": profile.share})
        proxy = proxy.repeated(loop_iterations)
        proxy.weight = profile.share
        proxy.columns = proxy.columns[:_SNIPPET_MAX]
        yield proxy
        covered += profile.share


def extract_proxies(trace: Trace, **options) -> List[Trace]:
    """Every proxy :func:`iter_proxies` yields for ``trace``, as a list
    (same options); an application with none is an error."""
    proxies = list(iter_proxies(trace, **options))
    if not proxies:
        raise TraceError(f"no proxies extracted from {trace.name!r}")
    return proxies


def suite_coverage(proxies: List[Trace]) -> float:
    """Total application share covered by a proxy set."""
    return sum(p.weight for p in proxies)
