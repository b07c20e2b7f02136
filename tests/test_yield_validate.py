"""Tests for PFLY/CLY yield analysis and cross-model validation."""

import pytest

from repro.analysis import (cross_model_power, generational_goal_check,
                            regression_check)
from repro.core import power9_config, power10_config
from repro.errors import ModelError
from repro.power.apex import compare_core_vs_chip
from repro.pm import (Offering, ProcessVariation, YieldAnalyzer,
                      find_max_frequency_offering, sample_dies)


@pytest.fixture(scope="module")
def dies():
    return sample_dies(ProcessVariation(), 2000, seed=3)


@pytest.fixture(scope="module")
def analyzer():
    return YieldAnalyzer(core_dynamic_w=2.0, core_leakage_w=0.5,
                         uncore_power_w=50.0)


class TestSampling:
    def test_deterministic(self):
        a = sample_dies(ProcessVariation(), 100, seed=1)
        b = sample_dies(ProcessVariation(), 100, seed=1)
        assert [d.leakage_scale for d in a] == \
            [d.leakage_scale for d in b]

    def test_frequency_leakage_correlation(self, dies):
        import numpy as np
        freq = np.array([d.frequency_capability_ghz for d in dies])
        leak = np.array([d.leakage_scale for d in dies])
        assert np.corrcoef(freq, leak)[0, 1] > 0.3

    def test_core_defects(self, dies):
        counts = {d.functional_cores for d in dies}
        assert max(counts) == 16
        assert min(counts) < 16

    def test_validation(self):
        with pytest.raises(ModelError):
            sample_dies(ProcessVariation(), 0)
        with pytest.raises(ModelError):
            ProcessVariation(core_defect_rate=1.5)


class TestYield:
    def test_easy_offering_high_yield(self, analyzer, dies):
        easy = Offering("easy", frequency_ghz=3.4, good_cores=12,
                        socket_power_budget_w=400.0)
        result = analyzer.evaluate(easy, dies)
        assert result.yield_fraction > 0.9

    def test_aggressive_offering_low_yield(self, analyzer, dies):
        hard = Offering("hard", frequency_ghz=4.4, good_cores=16,
                        socket_power_budget_w=90.0)
        result = analyzer.evaluate(hard, dies)
        assert result.yield_fraction < 0.3

    def test_loss_attribution_sums(self, analyzer, dies):
        offering = Offering("mid", frequency_ghz=4.1, good_cores=15,
                            socket_power_budget_w=110.0)
        result = analyzer.evaluate(offering, dies)
        total = result.yield_fraction + sum(result.limited_by.values())
        assert total == pytest.approx(1.0)

    def test_frequency_monotone(self, analyzer, dies):
        yields = []
        for freq in (3.6, 4.0, 4.4):
            offering = Offering("f", frequency_ghz=freq, good_cores=12,
                                socket_power_budget_w=120.0)
            yields.append(analyzer.evaluate(offering, dies)
                          .yield_fraction)
        assert yields[0] >= yields[1] >= yields[2]

    def test_find_max_frequency(self, analyzer, dies):
        offering = find_max_frequency_offering(
            analyzer, dies, good_cores=12,
            socket_power_budget_w=150.0, min_yield=0.7)
        result = analyzer.evaluate(offering, dies)
        assert result.yield_fraction >= 0.7

    def test_impossible_floor(self, analyzer, dies):
        with pytest.raises(ModelError):
            find_max_frequency_offering(
                analyzer, dies, good_cores=16,
                socket_power_budget_w=10.0, min_yield=0.99)


class TestCrossModelValidation:
    def test_apex_agrees_with_einspower(self, p10, mini_suite):
        rows = cross_model_power(p10, mini_suite[:2])
        for row in rows:
            assert row.apex_error_pct < 15.0

    def test_environment_comparison(self, mini_suite):
        """The same traces at two fidelities: the infinite-L2 core model
        never falls far below the full-hierarchy chip model."""
        chip = power10_config(cache_scale=8)
        core = power10_config(cache_scale=8, infinite_l2=True)
        points = compare_core_vs_chip(core, chip, mini_suite[:2],
                                      warmup_fraction=0.3)
        assert [p["workload"] for p in points] == \
            [t.name for t in mini_suite[:2]]
        for point in points:
            assert point["core_ipc"] >= point["chip_ipc"] * 0.9

    def test_empty_rejected(self, p10):
        with pytest.raises(ModelError):
            cross_model_power(p10, [])


class TestRegressionCheck:
    def test_classification(self):
        report = regression_check(
            {"a": 0.90, "b": 1.10, "c": 1.005},
            {"a": 1.0, "b": 1.0, "c": 1.0})
        assert report.regressions == {"a": pytest.approx(0.90)}
        assert "b" in report.improvements
        assert "c" in report.unchanged
        assert report.has_regressions

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ModelError):
            regression_check({"a": 1.0}, {"b": 1.0})

    def test_bad_baseline_rejected(self):
        with pytest.raises(ModelError):
            regression_check({"a": 1.0}, {"a": 0.0})

    def test_generational_goal(self):
        shortfalls = generational_goal_check(
            {"a": 1.0, "b": 1.0}, {"a": 1.4, "b": 1.1}, goal=1.25)
        assert list(shortfalls) == ["b"]
