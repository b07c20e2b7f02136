"""Tests for the core timing model."""

import pytest

from repro.core import power9_config, power10_config
from repro.core.pipeline import _Ports, simulate
from repro.errors import ConfigError, SimulationError
from repro.workloads import (daxpy_trace, dgemm_mma_trace,
                             dgemm_vsu_trace, max_power_stressmark,
                             merge_smt, pointer_chase_trace)
from tests.walk_oracle import _Pool, _Ring


class TestRing:
    def test_no_wait_under_capacity(self):
        ring = _Ring(4)
        for i in range(4):
            assert ring.earliest_alloc() == 0
            ring.alloc(100 + i)

    def test_waits_for_oldest(self):
        ring = _Ring(2)
        ring.alloc(50)
        ring.alloc(90)
        assert ring.earliest_alloc() == 50
        ring.alloc(120)
        assert ring.earliest_alloc() == 90

    def test_positive_capacity(self):
        with pytest.raises(ConfigError):
            _Ring(0)


class TestPool:
    def test_out_of_order_release(self):
        pool = _Pool(2)
        pool.alloc(500)      # long occupant
        pool.alloc(10)       # short occupant
        # the *short* occupant gates the next allocation
        assert pool.earliest_alloc() == 10

    def test_under_capacity_free(self):
        pool = _Pool(3)
        pool.alloc(100)
        assert pool.earliest_alloc() == 0


class TestPorts:
    def test_bandwidth_per_cycle(self):
        ports = _Ports(2)
        assert ports.issue(5) == 5
        assert ports.issue(5) == 5
        assert ports.issue(5) == 6      # third op spills to next cycle

    def test_backfill(self):
        ports = _Ports(1)
        assert ports.issue(10) == 10
        # an earlier-ready op can still use the idle cycle before 10
        assert ports.issue(3) == 3

    def test_initiation_interval(self):
        ports = _Ports(1, initiation_interval=4)
        assert ports.issue(0) == 0
        assert ports.issue(0) == 4


class TestSimulate:
    def test_empty_trace_rejected(self, p9, daxpy):
        with pytest.raises(SimulationError):
            simulate(p9, daxpy, max_instructions=0)

    def test_bad_warmup_rejected(self, p9, daxpy):
        with pytest.raises(SimulationError):
            simulate(p9, daxpy, warmup_fraction=1.0)

    def test_daxpy_ipc_reasonable(self, p9, daxpy):
        result = simulate(p9, daxpy, warmup_fraction=0.2)
        assert 1.0 < result.ipc < 5.0

    def test_determinism(self, p9, small_trace):
        a = simulate(p9, small_trace)
        b = simulate(p9, small_trace)
        assert a.cycles == b.cycles
        assert a.activity.events == b.activity.events

    def test_warmup_improves_ipc(self, p9, small_trace):
        cold = simulate(p9, small_trace)
        warm = simulate(p9, small_trace, warmup_fraction=0.5)
        assert warm.ipc > cold.ipc

    def test_p10_faster_than_p9(self, p9, p10, small_trace):
        r9 = simulate(p9, small_trace, warmup_fraction=0.3)
        r10 = simulate(p10, small_trace, warmup_fraction=0.3)
        assert r10.ipc > r9.ipc

    def test_pointer_chase_is_latency_bound(self, p9):
        result = simulate(p9, pointer_chase_trace(800))
        assert result.ipc < 0.25

    def test_stressmark_beats_typical(self, p10, small_trace):
        stress = simulate(p10, max_power_stressmark(1500),
                          warmup_fraction=0.2)
        typical = simulate(p10, small_trace, warmup_fraction=0.2)
        assert stress.ipc > typical.ipc

    def test_flops_accounting(self, p10, mma_kernel):
        result = simulate(p10, mma_kernel)
        assert result.flops > 0
        assert result.flops_per_cycle > 8

    def test_mma_trace_on_p9_rejected(self, p9, mma_kernel):
        with pytest.raises(SimulationError):
            simulate(p9, mma_kernel)

    def test_translation_policy_ra_vs_ea(self, p9, p10, small_trace):
        r9 = simulate(p9, small_trace)
        r10 = simulate(p10, small_trace)
        # RA-tagged L1s translate on every access; EA-tagged only on miss
        per_access9 = r9.activity.events["erat_lookup"] \
            / r9.activity.events["l1d_access"]
        per_access10 = r10.activity.events["erat_lookup"] \
            / r10.activity.events["l1d_access"]
        assert per_access9 > 0.9
        assert per_access10 < 0.5

    def test_fusion_only_on_p10(self, p9, p10, small_trace):
        assert simulate(p9, small_trace).fusion_rate == 0.0
        assert simulate(p10, small_trace).fusion_rate > 0.0

    def test_store_merge_events_only_p10(self, p9, p10, daxpy):
        assert simulate(p9, daxpy).activity.events["storeq_merge"] == 0

    def test_max_instructions_truncates(self, p9, small_trace):
        result = simulate(p9, small_trace, max_instructions=1000)
        assert result.instructions == 1000

    def test_metadata(self, p9, small_trace):
        result = simulate(p9, small_trace)
        assert result.metadata["trace"] == small_trace.name
        assert result.metadata["frequency_ghz"] == 4.0


class TestSmt:
    def test_smt_increases_throughput(self, daxpy):
        st = simulate(power10_config(smt=1), daxpy, warmup_fraction=0.2)
        smt_trace = merge_smt([daxpy, daxpy], name="daxpy-smt2")
        smt = simulate(power10_config(smt=2), smt_trace,
                       warmup_fraction=0.2)
        assert smt.ipc > st.ipc

    def test_smt_per_thread_slowdown(self, daxpy):
        st = simulate(power10_config(smt=1), daxpy, warmup_fraction=0.2)
        smt_trace = merge_smt([daxpy] * 4, name="daxpy-smt4")
        smt = simulate(power10_config(smt=4), smt_trace,
                       warmup_fraction=0.2)
        per_thread = smt.ipc / 4
        assert per_thread < st.ipc


class TestGemmKernels:
    def test_p9_vsu_utilization_band(self, p9, vsu_kernel):
        result = simulate(p9, vsu_kernel, warmup_fraction=0.25)
        utilization = result.flops_per_cycle / 8
        assert 0.45 < utilization < 0.85

    def test_p10_mma_utilization_band(self, p10, mma_kernel):
        result = simulate(p10, mma_kernel, warmup_fraction=0.25)
        utilization = result.flops_per_cycle / 32
        assert 0.75 < utilization < 1.0

    def test_vsu_ratio_band(self, p9, p10, vsu_kernel):
        r9 = simulate(p9, vsu_kernel, warmup_fraction=0.25)
        r10 = simulate(p10, vsu_kernel, warmup_fraction=0.25)
        ratio = r10.flops_per_cycle / r9.flops_per_cycle
        assert 1.6 < ratio < 2.3          # paper: 1.95x
