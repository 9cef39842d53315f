"""Tests for the sensitivity-study experiment drivers."""

import pytest

from repro.experiments import ExperimentScale
from repro.experiments.executor import RunResultCache, SweepExecutor
from repro.experiments.manifest import experiment_registry
from repro.experiments.sensitivity import (
    mispredict_penalty_sensitivity,
    plan_mispredict_penalty_sensitivity,
    plan_smt4_noisy_xor,
    plan_switch_interval_sensitivity,
    smt4_noisy_xor,
    switch_interval_sensitivity,
)


@pytest.fixture(scope="module")
def tiny_scale():
    """A very small scale so the sensitivity runs stay fast in CI."""
    return ExperimentScale().scaled_by(0.15)


@pytest.fixture(scope="module")
def executor():
    """One executor for the module, so shared baselines simulate once."""
    return SweepExecutor(jobs=1, cache=RunResultCache(store=False))


class TestRegistration:
    @pytest.mark.parametrize("key, plan", [
        ("ablation_switch_interval", plan_switch_interval_sensitivity),
        ("ablation_penalty", plan_mispredict_penalty_sensitivity),
        ("smt4_noisy_xor", plan_smt4_noisy_xor)])
    def test_sensitivity_experiments_registered(self, key, plan, tiny_scale):
        registered = experiment_registry()[key].plan(tiny_scale)
        assert [spec.cache_key() for spec in registered] == \
            [spec.cache_key() for spec in plan(tiny_scale)]


class TestSwitchIntervalSensitivity:
    def test_structure_and_bounds(self, tiny_scale, executor):
        result = switch_interval_sensitivity(
            tiny_scale, cases=("case6",), intervals_m=(4, 12), predictor="gshare",
            executor=executor)
        assert result.figure is not None
        assert result.figure.categories == ["4M", "12M"]
        assert set(result.figure.series) == {"case6"}
        # Single-thread overheads stay small in magnitude even at this scale.
        for value in result.figure.series["case6"]:
            assert -0.2 < value < 0.3
        # The table carries one row per case plus the mean row.
        assert len(result.rows) == 2
        assert result.rows[-1][0] == "mean"

    def test_render_mentions_preset(self, tiny_scale, executor):
        result = switch_interval_sensitivity(
            tiny_scale, cases=("case6",), intervals_m=(8,), predictor="gshare",
            executor=executor)
        assert "noisy_xor_bp" in result.render()


class TestPenaltySensitivity:
    def test_rows_follow_penalties(self, tiny_scale, executor):
        result = mispredict_penalty_sensitivity(
            tiny_scale, case="case6", penalties=(8, 20), predictor="gshare",
            executor=executor)
        assert [row[0] for row in result.rows] == ["8 cycles", "20 cycles"]
        assert result.figure is not None
        assert len(result.figure.series["noisy_xor_bp"]) == 2

    def test_reports_baseline_mpki(self, tiny_scale, executor):
        result = mispredict_penalty_sensitivity(
            tiny_scale, case="case6", penalties=(11,), predictor="gshare",
            executor=executor)
        mpki = float(result.rows[0][2])
        assert mpki > 0.0


class TestSmt4NoisyXor:
    def test_structure(self, tiny_scale, executor):
        result = smt4_noisy_xor(tiny_scale, predictor="gshare",
                                presets=("noisy_xor_bp",), max_quads=1,
                                executor=executor)
        assert result.figure is not None
        assert len(result.figure.categories) == 1
        assert set(result.figure.series) == {"noisy_xor_bp"}
        assert result.rows[0][0] == "noisy_xor_bp"

    def test_flush_costs_more_than_noisy_xor_on_smt4(self, tiny_scale,
                                                     executor):
        result = smt4_noisy_xor(tiny_scale, predictor="gshare",
                                presets=("complete_flush", "noisy_xor_bp"),
                                max_quads=2, executor=executor)
        averages = result.figure.averages()
        assert averages["complete_flush"] >= averages["noisy_xor_bp"] - 0.01
