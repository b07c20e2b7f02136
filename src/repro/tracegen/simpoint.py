"""SimPoint: representative-interval selection via BBV clustering.

The baseline methodology the paper's Tracepoints improves on
(Section III-A).  Pipeline: BBVs per interval -> random projection ->
k-means -> pick the interval closest to each centroid, weighted by
cluster population.  Fig. 10 runs "160 simpoints" of SPECint through
the APEX core and chip models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..errors import TraceError
from ..workloads.trace import Trace
from .bbv import basic_block_vectors, project_bbvs


def kmeans(points: np.ndarray, k: int, *, iterations: int = 50,
           seed: int = 7) -> np.ndarray:
    """Plain Lloyd's k-means; returns per-point cluster labels."""
    if k <= 0:
        raise TraceError("k must be positive")
    n = points.shape[0]
    k = min(k, n)
    rng = np.random.default_rng(seed)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.zeros(n, dtype=int)
    for _ in range(iterations):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        new_labels = dists.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:   # re-seed empty cluster at the farthest point
                centers[c] = points[dists.min(axis=1).argmax()]
    return labels


@dataclass
class Simpoint:
    """One representative interval."""

    trace: Trace
    cluster: int
    weight: float
    interval_index: int


@dataclass
class SimpointResult:
    simpoints: List[Simpoint]
    labels: np.ndarray = field(repr=False)

    @property
    def total_weight(self) -> float:
        return sum(s.weight for s in self.simpoints)


def pick_simpoints(trace: Trace, *, interval: int = 1000,
                   max_clusters: int = 8, seed: int = 7,
                   dimensions: int = 15) -> SimpointResult:
    """Select representative intervals of a workload."""
    matrix, intervals = basic_block_vectors(trace, interval=interval)
    projected = project_bbvs(matrix, dimensions=dimensions, seed=seed)
    k = min(max_clusters, len(intervals))
    labels = kmeans(projected, k, seed=seed)
    simpoints: List[Simpoint] = []
    for cluster in sorted(set(labels.tolist())):
        members = np.flatnonzero(labels == cluster)
        center = projected[members].mean(axis=0)
        dists = ((projected[members] - center) ** 2).sum(axis=1)
        representative = int(members[dists.argmin()])
        start = representative * interval
        simpoints.append(Simpoint(
            trace=Trace(
                name=f"{trace.name}.sp{cluster}",
                columns=trace.columns[start:start + interval],
                suite=f"{trace.suite}-simpoint",
                weight=len(members) / len(intervals),
                metadata={"source": trace.name,
                          "interval": representative}),
            cluster=int(cluster),
            weight=len(members) / len(intervals),
            interval_index=representative))
    return SimpointResult(simpoints=simpoints, labels=labels)


def simpoint_suite(traces, *, interval: int = 1000,
                   max_clusters: int = 8,
                   limit: Optional[int] = None) -> List[Trace]:
    """SimPoints for a whole suite (Fig. 10's 160-simpoint set)."""
    out: List[Trace] = []
    for trace in traces:
        result = pick_simpoints(trace, interval=interval,
                                max_clusters=max_clusters)
        out.extend(s.trace for s in result.simpoints)
    if limit is not None:
        out = out[:limit]
    return out
