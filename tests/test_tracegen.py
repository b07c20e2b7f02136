"""Tests for BBVs, SimPoint and Tracepoints."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import TraceError
from repro.tracegen import (aggregate_counters, basic_block_vectors,
                            build_tracepoint, collect_epochs, kmeans,
                            pick_simpoints, project_bbvs, simpoint_suite,
                            validate_against_reference)
from repro.workloads import resolve_workload, specint_suite, workload_names
from repro.workloads.ai import bert_large_profile  # noqa: F401  (api check)
from tests.test_fastsim_diff import synthetic_traces


@pytest.fixture(scope="module")
def workload():
    return specint_suite(instructions=12000, footprint_scale=8,
                         names=["leela"])[0]


class TestBbv:
    def test_rows_normalized(self, workload):
        matrix, intervals = basic_block_vectors(workload, interval=1000)
        assert matrix.shape[0] == len(intervals)
        sums = matrix.sum(axis=1)
        np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_projection_reduces_dims(self, workload):
        matrix, _ = basic_block_vectors(workload, interval=1000)
        projected = project_bbvs(matrix, dimensions=10)
        assert projected.shape == (matrix.shape[0], 10)

    def test_bad_interval(self, workload):
        with pytest.raises(TraceError):
            basic_block_vectors(workload, interval=0)


def ref_basic_block_vectors(trace, interval):
    """The record-walking BBVs the column version replaced."""
    instrs = trace.instructions
    intervals = [instrs[i:i + interval]
                 for i in range(0, len(instrs), interval)
                 if len(instrs[i:i + interval]) >= interval // 2]
    block_ids, rows = {}, []
    for chunk in intervals:
        counts = {}
        leader = chunk[0].pc
        block_len = 0
        for instr in chunk:
            block_len += 1
            if instr.iclass.is_branch:
                bid = block_ids.setdefault(leader, len(block_ids))
                counts[bid] = counts.get(bid, 0) + block_len
                leader = instr.target if instr.taken else instr.pc + 4
                block_len = 0
        if block_len:
            bid = block_ids.setdefault(leader, len(block_ids))
            counts[bid] = counts.get(bid, 0) + block_len
        rows.append(counts)
    matrix = np.zeros((len(rows), len(block_ids)))
    for i, counts in enumerate(rows):
        for bid, count in counts.items():
            matrix[i, bid] = count
        total = matrix[i].sum()
        if total > 0:
            matrix[i] /= total
    return matrix, intervals


class TestBbvColumns:
    """BBVs read the trace's columns; the matrix and the intervals must
    be those of the record walk, bit for bit."""

    @pytest.mark.parametrize("name", workload_names())
    def test_registered_workloads(self, name):
        trace = resolve_workload(name, 2600)
        for interval in (100, 333, 1000):
            matrix, intervals = basic_block_vectors(trace,
                                                    interval=interval)
            want, chunks = ref_basic_block_vectors(trace, interval)
            assert matrix.tobytes() == want.tobytes()
            assert matrix.shape == want.shape
            assert [len(c) for c in intervals] == [len(c) for c in chunks]

    @settings(max_examples=60, deadline=None)
    @given(synthetic_traces())
    def test_synthetic_traces(self, case):
        """Branch targets of 0, none, and taken branches without one."""
        _cfg, trace, _warmup = case
        for interval in (7, 40):
            matrix, _ = basic_block_vectors(trace, interval=interval)
            want, _ = ref_basic_block_vectors(trace, interval)
            assert matrix.tobytes() == want.tobytes()


class TestKmeans:
    def test_separates_obvious_clusters(self):
        rng = np.random.default_rng(0)
        a = rng.normal(0, 0.1, (30, 2))
        b = rng.normal(5, 0.1, (30, 2))
        labels = kmeans(np.vstack([a, b]), 2)
        assert len(set(labels[:30])) == 1
        assert labels[0] != labels[30]

    def test_k_capped_at_points(self):
        pts = np.zeros((3, 2))
        labels = kmeans(pts, 10)
        assert len(labels) == 3


class TestSimpoint:
    def test_weights_sum_to_one(self, workload):
        result = pick_simpoints(workload, interval=1000, max_clusters=4)
        assert result.total_weight == pytest.approx(1.0)

    def test_simpoints_are_subtraces(self, workload):
        result = pick_simpoints(workload, interval=1000, max_clusters=4)
        for sp in result.simpoints:
            assert len(sp.trace) == 1000
            assert sp.trace.metadata["source"] == workload.name

    def test_suite_with_limit(self, workload):
        suite = simpoint_suite([workload], max_clusters=6, limit=3)
        assert len(suite) <= 3


class TestCounters:
    def test_epochs_cover_trace(self, p9, workload):
        epochs = collect_epochs(p9, workload, epoch_instructions=2000)
        assert len(epochs) == 6
        assert all(e.cpi > 0 for e in epochs)

    def test_aggregate(self, p9, workload):
        epochs = collect_epochs(p9, workload, epoch_instructions=3000)
        agg = aggregate_counters(epochs)
        assert agg["cpi"] > 0
        assert agg["int_ops"] > 0

    def test_bad_epoch_size(self, p9, workload):
        with pytest.raises(TraceError):
            collect_epochs(p9, workload, epoch_instructions=0)


class TestTracepoints:
    def test_cpi_matching(self, p9, workload):
        result = build_tracepoint(p9, workload,
                                  epoch_instructions=1500,
                                  epochs_to_select=4)
        # the representative must match the application CPI reasonably
        assert result.cpi_error_pct < 30.0
        assert len(result.selected_epochs) <= 4

    def test_selection_is_sorted_and_unique(self, p9, workload):
        result = build_tracepoint(p9, workload,
                                  epoch_instructions=1500,
                                  epochs_to_select=5)
        sel = result.selected_epochs
        assert sel == sorted(sel)
        assert len(set(sel)) == len(sel)

    def test_mma_aware_flag(self, p9, workload):
        result = build_tracepoint(p9, workload, mma_aware=True,
                                  epoch_instructions=1500,
                                  epochs_to_select=4)
        assert "blas_calls" in result.trace.metadata

    def test_validation_roundtrip(self, p9, workload):
        result = build_tracepoint(p9, workload,
                                  epoch_instructions=1500,
                                  epochs_to_select=6)
        stats = validate_against_reference(p9, workload, result.trace)
        assert stats["cpi_error_pct"] < 50.0

    def test_bad_selection_count(self, p9, workload):
        with pytest.raises(TraceError):
            build_tracepoint(p9, workload, epochs_to_select=0)
