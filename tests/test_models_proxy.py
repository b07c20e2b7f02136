"""Tests for the M1-linked counter models and the hardware power proxy."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.power.models import (build_training_set,
                                compare_top_down_bottom_up,
                                fit_bottom_up, fit_top_down, input_sweep)
from repro.power.proxy import (PowerProxyDesigner,
                               candidate_counter_names)
from repro.workloads import specint_proxies


@pytest.fixture(scope="module")
def training(p9_module):
    return build_training_set(p9_module, _traces())


@pytest.fixture(scope="module")
def p9_module():
    from repro.core import power9_config
    return power9_config()


def _traces():
    return specint_proxies(instructions=4000,
                           names=["xz", "leela", "exchange2", "x264"])


class TestTrainingSet:
    def test_shapes(self, training):
        n = len(training.workload_names)
        assert training.features.shape[0] == n
        assert training.active_power_w.shape == (n,)
        assert len(training.component_power_w) == 39

    def test_requires_traces(self, p9_module):
        with pytest.raises(ModelError):
            build_training_set(p9_module, [])


class TestTopDown:
    def test_error_decreases_with_inputs(self, training):
        errors = input_sweep(training, (1, 4, 16))
        assert errors[16] <= errors[4] <= errors[1]

    def test_rich_model_is_accurate(self, training):
        errors = input_sweep(training, (24,))
        # paper: <2.5% active-power error at the largest input budget
        assert errors[24] < 5.0

    def test_model_reports_inputs(self, training):
        model = fit_top_down(training, max_inputs=6)
        assert 1 <= model.num_inputs <= 6


class TestBottomUp:
    def test_component_coverage(self, training):
        model = fit_bottom_up(training)
        assert model.num_components == 39
        # paper's bottom-up model used 72 events in total
        assert model.total_events_used <= 80

    def test_comparison_against_top_down(self, training):
        top = fit_top_down(training, max_inputs=16)
        bottom = fit_bottom_up(training)
        stats = compare_top_down_bottom_up(top, bottom, training)
        # paper: the two approaches differ by 3.42% on average
        assert stats["mean_model_difference_pct"] < 12.0
        assert stats["bottom_up_error_pct"] < 12.0


class TestProxy:
    def test_candidates_include_derived(self):
        names = candidate_counter_names()
        assert "mem_ops" in names and "issue_fx" in names

    def test_characterize_and_select(self, p9_module):
        designer = PowerProxyDesigner(p9_module)
        feats, active, total = designer.characterize(_traces())
        design = designer.select(feats, active, total, num_counters=16)
        assert design.num_counters <= 16
        # hardware-friendly: non-negative counter weights
        weights = design.fit.coefficients[:-1]
        assert np.all(weights >= -1e-9)
        pred = design.predict_total_w(feats)
        assert np.all(pred > 0)

    def test_design_space_has_all_constraint_combos(self, p9_module):
        designer = PowerProxyDesigner(p9_module)
        feats, active, total = designer.characterize(_traces())
        points = designer.design_space(feats, active, total,
                                       counter_budgets=(2, 8))
        combos = {(p.nonnegative, p.intercept) for p in points}
        assert len(combos) == 4

    def test_total_error_below_active_error(self, p9_module):
        # adding the static contribution shrinks the *relative* error,
        # the paper's 9.8% -> <5% observation
        designer = PowerProxyDesigner(p9_module)
        feats, active, total = designer.characterize(_traces())
        points = designer.design_space(feats, active, total,
                                       counter_budgets=(8,))
        for p in points:
            assert p.total_error_pct <= p.active_error_pct + 1e-9

    def test_granularity_error_runs_on_one_engine(self, p9_module,
                                                  monkeypatch):
        """Without an engine, the base run and every granularity share
        one ``Engine()``, closed when the call returns."""
        import repro.exec.executor as executor
        built, closed = [], []

        class Counted(executor.Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

            def close(self, wait=True):
                closed.append(self)
                super().close(wait)

        designer = PowerProxyDesigner(p9_module)
        traces = _traces()
        feats, active, total = designer.characterize(traces)
        design = designer.select(feats, active, total, num_counters=8)
        monkeypatch.setattr(executor, "Engine", Counted)
        errors = designer.granularity_error(design, traces[0],
                                            (50, 400))
        assert sorted(errors) == [50, 400]
        assert len(built) == 1 and closed == built
        # an engine that is passed in is used, never closed
        built.clear(), closed.clear()
        mine = executor.Engine(workers=1)
        assert designer.granularity_error(design, traces[0], (50, 400),
                                          engine=mine) == errors
        assert built == [mine] and closed == []
