"""Tests for V/f scaling, the pipeline-depth study, the socket model
and the simulator wrappers."""

import pytest

from repro.core import (POWER9_SOCKET, POWER10_SOCKET, power9_config,
                        power10_config, precision_speedup, project_socket,
                        simulate_trace, weighted_comparison)
from repro.core.simulator import measurement_from_result
from repro.core.socket import SocketConfig
from repro.errors import ConfigError, ModelError, SimulationError
from repro.exec import Engine, run_sim_plan, sim_task
from repro.power.pipeline_depth import (BASELINE_FO4, analyze_depth,
                                        depth_study, optimal_fo4)
from repro.power.scaling import (VFCurve, VFPoint,
                                 apply_technology_scaling,
                                 dynamic_power_scale, frequency_at_power)


class TestVFCurve:
    def test_voltage_monotone_in_frequency(self):
        curve = VFCurve(VFPoint(4.0, 1.0))
        assert curve.voltage_at(4.4) > curve.voltage_at(4.0) \
            > curve.voltage_at(3.0)

    def test_out_of_range(self):
        curve = VFCurve(VFPoint(4.0, 1.0))
        with pytest.raises(ModelError):
            curve.voltage_at(10.0)

    def test_dynamic_power_supralinear(self):
        curve = VFCurve(VFPoint(4.0, 1.0))
        scale = dynamic_power_scale(curve, 4.0, 4.4)
        assert scale > 4.4 / 4.0        # V^2 effect on top of f

    def test_frequency_at_power_inverts(self):
        curve = VFCurve(VFPoint(4.0, 1.0))
        freq = frequency_at_power(curve, 4.0, 1.2)
        assert 4.0 < freq <= curve.fmax_ghz
        assert dynamic_power_scale(curve, 4.0, freq) \
            <= 1.2 + 1e-3

    def test_no_headroom_returns_fmin_side(self):
        curve = VFCurve(VFPoint(4.0, 1.0))
        assert frequency_at_power(curve, 4.0, 0.1) == curve.fmin_ghz

    def test_technology_scaling_reduces_power(self):
        assert apply_technology_scaling(10.0) < 10.0


class TestPipelineDepth:
    def test_optimum_near_27_fo4(self):
        curves = depth_study()
        for budget, points in curves.items():
            opt = optimal_fo4(points)
            assert 23 <= opt <= 31, (budget, opt)

    def test_power_limit_enforced(self):
        points = analyze_depth(range(9, 46, 4), 0.5)
        budget = analyze_depth([BASELINE_FO4], 1.0)[0].power_w * 0.5
        for p in points:
            assert p.power_w <= budget * 1.02

    def test_deep_pipes_throttled(self):
        points = analyze_depth([9, 27], 0.7)
        deep, shallow = points[0], points[1]
        assert deep.voltage_ratio < shallow.voltage_ratio

    def test_validation(self):
        with pytest.raises(ModelError):
            analyze_depth([27], 0.0)
        with pytest.raises(ModelError):
            optimal_fo4([])


class TestSocket:
    def test_projection(self):
        proj = project_socket(POWER10_SOCKET, core_throughput=1.0,
                              core_power_w=3.0)
        assert proj.throughput == pytest.approx(60 * 1.1)
        assert proj.power_w == pytest.approx(60 * 3.0 + 55.0)
        assert proj.efficiency > 0

    def test_socket_validation(self):
        with pytest.raises(ConfigError):
            SocketConfig(name="x", cores=0, core_power_w=1,
                         uncore_power_w=1)

    def test_socket_efficiency_story(self):
        # per-core: POWER10 1.3x perf at 0.5x power; with 2.5x cores the
        # socket-level efficiency lands "up to 3x" (Table I)
        p9 = project_socket(POWER9_SOCKET, 1.0, 4.0)
        p10 = project_socket(POWER10_SOCKET, 1.3, 2.0)
        gain = p10.efficiency / p9.efficiency
        assert 2.0 < gain < 3.5

    def test_precision_speedups(self):
        assert precision_speedup("fp32") == 1.0
        assert precision_speedup("int8") == pytest.approx(2.12)
        with pytest.raises(ConfigError):
            precision_speedup("fp4")


class TestSimulatorWrappers:
    def test_simulate_trace_with_power(self, p10, daxpy):
        run = simulate_trace(p10, daxpy)
        assert run.power_w > 0
        assert run.perf_per_watt > 0
        assert run.energy_per_instruction_nj > 0

    def test_simulate_trace_without_power(self, p10, daxpy):
        run = simulate_trace(p10, daxpy, with_power=False)
        assert run.power_w is None
        with pytest.raises(SimulationError):
            _ = run.perf_per_watt

    def test_suite_aggregation(self, p9, p10, mini_suite):
        results = run_sim_plan(Engine(), [sim_task(c, t)
                                          for t in mini_suite
                                          for c in (p9, p10)])
        assert sum(r.instructions for r in results) == 2 * sum(
            len(t) for t in mini_suite)
        rows = [(t.name, t.weight,
                 r9.ipc, measurement_from_result(p9, r9).power_w,
                 r10.ipc, measurement_from_result(p10, r10).power_w)
                for t, r9, r10 in zip(mini_suite, results[::2],
                                      results[1::2])]
        assert all(row[3] > 0 and row[5] > 0 for row in rows)
        agg = weighted_comparison(rows)["aggregate"]
        wsum = sum(t.weight for t in mini_suite)
        assert agg["perf_ratio"] == pytest.approx(
            sum(w * i10 / i9 for _n, w, i9, _w9, i10, _w10 in rows) / wsum)
        assert agg["power_ratio"] == pytest.approx(
            sum(w * w10 / w9 for _n, w, _i9, w9, _i10, w10 in rows) / wsum)
        assert agg["perf_per_watt_ratio"] == pytest.approx(
            agg["perf_ratio"] / agg["power_ratio"])

    def test_compare_configs(self, p9, p10, mini_suite):
        trace = mini_suite[0]
        m9, m10 = [measurement_from_result(c, r) for c, r in zip(
            (p9, p10), run_sim_plan(Engine(), [sim_task(c, trace)
                                               for c in (p9, p10)]))]
        aggregate = weighted_comparison(
            [(trace.name, trace.weight, m9.ipc, m9.power_w,
              m10.ipc, m10.power_w)])["aggregate"]
        assert aggregate["perf_ratio"] > 1.0
        assert aggregate["power_ratio"] < 1.0

    def test_weighted_comparison_is_the_compare_answer(self):
        comparison = weighted_comparison(
            [("a", 3.0, 1.2, 6.0, 1.5, 3.0),
             ("b", 1.0, 0.9, 5.0, 1.0, 2.0)])
        assert comparison["workloads"][0] == {
            "workload": "a", "weight": 3.0,
            "p9_ipc": 1.2, "p10_ipc": 1.5,
            "p9_power_w": 6.0, "p10_power_w": 3.0,
            "perf_ratio": 1.5 / 1.2, "power_ratio": 3.0 / 6.0}
        assert list(comparison["workloads"][1]) == [
            "workload", "weight", "p9_ipc", "p10_ipc", "p9_power_w",
            "p10_power_w", "perf_ratio", "power_ratio"]
        # the served arithmetic: (weight * ipc10) / ipc9, summed from 0.0
        perf = 0.0 + 3.0 * 1.5 / 1.2 + 1.0 * 1.0 / 0.9
        power = 0.0 + 3.0 * 3.0 / 6.0 + 1.0 * 2.0 / 5.0
        assert comparison["aggregate"] == {
            "perf_ratio": perf / 4.0, "power_ratio": power / 4.0,
            "perf_per_watt_ratio": perf / power}
