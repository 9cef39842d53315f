"""Tests for the experiment drivers.

The heavyweight sweeps (all cases, all predictors) belong to the benchmark
harness; here every driver is exercised on a reduced problem size to verify
the plumbing, the result structure and the cheap experiments' correctness.
"""

import pytest

from repro.experiments import (
    ExperimentResult,
    ExperimentScale,
    default_scale,
    env_scale_factor,
    quick_scale,
)
from repro.experiments import (
    ablations,
    fig1_flush_single,
    fig7_xor_btb,
    fig10_smt_predictors,
    poc_attacks,
    table2_configs,
    table3_benchmarks,
    table4_privilege,
    table5_hwcost,
)
from repro.experiments.executor import RunResultCache, SweepExecutor
from repro.experiments.manifest import experiment_registry
from repro.testing.drivers import run_driver
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS

#: A deliberately tiny scale so driver tests stay fast.
TINY = ExperimentScale(
    time_scale=800.0, smt_time_scale=800.0, syscall_time_scale=100.0,
    st_target_branches=4_000, st_warmup_branches=1_000,
    smt_instructions=30_000, smt_warmup_instructions=8_000,
    poc_iterations=200, table1_iterations=40, seed=7)


@pytest.fixture(scope="module")
def executor():
    """One executor for the module, so shared baselines simulate once."""
    return SweepExecutor(jobs=1, cache=RunResultCache(store=False))


class TestScaling:
    def test_default_scale_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert env_scale_factor() == 0.5
        scale = default_scale()
        assert scale.st_target_branches == ExperimentScale().st_target_branches // 2

    @pytest.mark.parametrize("bad", ["banana", "0", "-1", "inf", "nan"])
    def test_invalid_env_value_is_rejected_by_name(self, bad, monkeypatch):
        # A typo'd REPRO_SCALE used to silently run at full fidelity; now it
        # fails at parse time, naming the variable.
        monkeypatch.setenv("REPRO_SCALE", bad)
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            env_scale_factor()

    def test_env_value_is_clamped(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "1e9")
        assert env_scale_factor() == 100.0

    def test_quick_scale_is_smaller(self):
        assert quick_scale().st_target_branches < ExperimentScale().st_target_branches

    def test_scaled_by_has_floors(self):
        tiny = ExperimentScale().scaled_by(1e-9)
        assert tiny.st_target_branches >= 1_000


class TestRegistry:
    def test_all_fourteen_paper_artifacts_plus_ablations_registered(self):
        expected = {"figure1", "figure2", "figure3", "figure7", "figure8",
                    "figure9", "figure10", "table1", "table2", "table3",
                    "table4", "table5", "poc_attacks", "ablation_encoder",
                    "ablation_key_refresh", "ablation_pht_granularity"}
        assert expected <= set(experiment_registry())


class TestCheapExperiments:
    def test_table2_lists_both_machines(self):
        result = table2_configs.run()
        assert isinstance(result, ExperimentResult)
        assert len(result.headers) == 3
        assert any("BTB" in str(row[0]) for row in result.rows)

    def test_table3_lists_twelve_cases(self):
        result = table3_benchmarks.run()
        assert len(result.rows) == 12
        assert result.rows[0][1] == "gcc+calculix"

    def test_table5_matches_paper_trends(self):
        result = table5_hwcost.run()
        assert len(result.rows) == 6
        timings = [float(row[1].rstrip("%")) for row in result.rows[:3]]
        assert timings[0] < timings[1] < timings[2]
        areas = [float(row[3].rstrip("%")) for row in result.rows[:3]]
        assert areas[0] > areas[2]

    def test_render_produces_text(self):
        text = table5_hwcost.run().render()
        assert "Table 5" in text and "paper" in text.lower()

    def test_poc_attacks_reproduce_headline_numbers(self):
        result = poc_attacks.run(TINY)
        by_mechanism = {row[0]: row for row in result.rows}
        baseline_btb = float(by_mechanism["baseline"][1].rstrip("%"))
        protected_btb = float(by_mechanism["noisy_xor_bp"][1].rstrip("%"))
        assert baseline_btb > 90.0
        assert protected_btb < 5.0


class TestFigureDrivers:
    def test_fig1_structure_on_reduced_problem(self, executor):
        result = run_driver(executor, fig1_flush_single.plan,
                            fig1_flush_single.assemble, TINY,
                            pairs=SINGLE_THREAD_PAIRS[:2])
        assert result.figure is not None
        assert result.figure.categories == ["case1", "case2"]
        assert set(result.figure.series) == {"flush-4M", "flush-8M", "flush-12M"}

    def test_fig7_honours_interval_subset(self, executor):
        result = run_driver(executor, fig7_xor_btb.plan, fig7_xor_btb.assemble,
                            TINY, pairs=SINGLE_THREAD_PAIRS[5:6],
                            intervals=["8M"])
        assert set(result.figure.series) == {"XOR-BTB-8M", "Noisy-XOR-BTB-8M"}
        assert result.figure.categories == ["case6"]

    def test_fig10_reduced_run_reports_mpki_ordering(self, executor):
        result = run_driver(executor, fig10_smt_predictors.plan,
                            fig10_smt_predictors.assemble, TINY,
                            predictors=["gshare", "tage"],
                            pairs=SMT2_PAIRS[7:9])
        mpki = {row[0]: float(row[1]) for row in result.rows[:2]}
        assert mpki["gshare"] > mpki["tage"]
        assert len(result.figure.series) == 2 * 3


class TestAblations:
    def test_encoder_ablation_runs(self, executor):
        result = run_driver(executor, ablations.plan_encoder_ablation,
                            ablations.assemble_encoder_ablation, TINY,
                            case="case6")
        assert [row[0] for row in result.rows] == ["xor", "shift_xor", "sbox"]

    def test_key_refresh_ablation_shows_security_gap(self, executor):
        result = run_driver(executor, ablations.plan_key_refresh_ablation,
                            ablations.assemble_key_refresh_ablation, TINY,
                            case="case5")
        by_policy = {row[0]: row for row in result.rows}
        paper_policy = by_policy["context + privilege switches (paper)"]
        weak_policy = by_policy["context switches only"]
        assert float(paper_policy[2].rstrip("%")) < 5.0
        assert float(weak_policy[2].rstrip("%")) > 50.0

    def test_pht_granularity_ablation_separates_schemes(self):
        result = ablations.pht_granularity_ablation(TINY, iterations=120)
        by_scheme = {row[0]: row for row in result.rows}
        naive = float(by_scheme["XOR-PHT (2-bit words, fixed key)"][2].rstrip("%"))
        noisy = float(by_scheme["Noisy-XOR-PHT"][2].rstrip("%"))
        assert naive > 80.0
        assert noisy < 75.0
