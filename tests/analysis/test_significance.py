"""Tests for the paired significance layer.

Every closed-form path is pinned against hand-computed textbook values (the
t statistic and p-value of a worked example, the Wilcoxon rank arithmetic,
the Holm step-down), and every stochastic path (bootstraps) is pinned for
determinism: the same seed must reproduce the interval exactly.
"""

import math

import pytest

from repro.analysis.figures import FigureSeries
from repro.analysis.significance import (
    PairwiseComparison,
    bootstrap_ci,
    compare_paired,
    holm_adjust,
    jarque_bera,
    leakage_mi_ci,
    looks_normal,
    normal_sf,
    paired_t,
    significance_matrix,
    student_t_sf,
    suffix_groups,
    t_p_value_two_sided,
    wilcoxon_signed_rank,
)
from repro.analysis.significance import TestResult as SigTestResult
from repro.experiments.base import ExperimentResult


class TestDistributionFunctions:
    def test_t_sf_is_half_at_zero(self):
        assert student_t_sf(0.0, 5) == pytest.approx(0.5)

    def test_t_sf_symmetry(self):
        assert student_t_sf(1.7, 9) == pytest.approx(
            1.0 - student_t_sf(-1.7, 9))

    def test_two_sided_p_matches_the_critical_value(self):
        # t=2.776 is the textbook 97.5th percentile for df=4, so the
        # two-sided p-value there is 0.05 by construction.
        assert t_p_value_two_sided(2.776, 4) == pytest.approx(0.05, abs=1e-4)

    def test_normal_sf_textbook_values(self):
        assert normal_sf(0.0) == pytest.approx(0.5)
        assert normal_sf(1.959964) == pytest.approx(0.025, abs=1e-6)

    def test_invalid_df_rejected(self):
        with pytest.raises(ValueError):
            t_p_value_two_sided(1.0, 0)


class TestPairedT:
    def test_worked_example(self):
        # diffs = [1..5]: mean 3, sd sqrt(2.5), t = 3/sqrt(2.5/5) = 4.2426;
        # two-sided p with df=4 is 0.01324 (hand-checked against tables).
        result = paired_t([1, 2, 3, 4, 5], [0, 0, 0, 0, 0])
        assert result.method == "paired-t"
        assert result.statistic == pytest.approx(3.0 * math.sqrt(2.0))
        assert result.p_value == pytest.approx(0.01324, abs=1e-4)
        assert result.n == 5
        assert result.significant()

    def test_identical_samples_report_no_evidence(self):
        result = paired_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert not result.significant()

    def test_constant_nonzero_shift_is_certain(self):
        result = paired_t([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert result.statistic == math.inf
        assert result.p_value == 0.0

    def test_length_mismatch_and_tiny_samples_rejected(self):
        with pytest.raises(ValueError):
            paired_t([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            paired_t([1.0], [2.0])


class TestWilcoxon:
    def test_worked_example(self):
        # diffs = [1, -2, 3, -4, 5]: abs ranks 1..5, W+ = 1+3+5 = 9,
        # mean 7.5, variance 13.75, continuity-corrected
        # z = (9 - 7.5 - 0.5)/sqrt(13.75) = 0.26968.
        result = wilcoxon_signed_rank([1, -2, 3, -4, 5], [0, 0, 0, 0, 0])
        assert result.method == "wilcoxon"
        assert result.statistic == pytest.approx(1.0 / math.sqrt(13.75))
        assert result.p_value == pytest.approx(
            2.0 * normal_sf(1.0 / math.sqrt(13.75)))
        assert result.n == 5

    def test_zero_differences_are_dropped(self):
        result = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0],
                                      [1.0, 2.0, 3.0, 0.0])
        assert result.n == 1

    def test_all_zero_differences_report_no_evidence(self):
        result = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert result.p_value == 1.0
        assert result.n == 0

    def test_sign_symmetry(self):
        forward = wilcoxon_signed_rank([5, 1, 4, 2, 6], [0, 0, 0, 0, 0])
        reverse = wilcoxon_signed_rank([0, 0, 0, 0, 0], [5, 1, 4, 2, 6])
        assert forward.p_value == pytest.approx(reverse.p_value)
        assert forward.statistic == pytest.approx(-reverse.statistic)


class TestNormalityScreen:
    def test_small_samples_always_look_normal(self):
        assert looks_normal([0.0, 100.0, 0.0])

    def test_symmetric_sample_passes(self):
        values = [-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 1.0, 2.0]
        assert jarque_bera(values) <= 5.991
        assert looks_normal(values)

    def test_extreme_outlier_fails(self):
        values = [0.0] * 11 + [100.0]
        assert jarque_bera(values) > 5.991
        assert not looks_normal(values)

    def test_compare_paired_switches_on_the_screen(self):
        normalish = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
        zeros = [0.0] * 8
        assert compare_paired(normalish, zeros).method == "paired-t"
        skewed = [0.1, 0.2, 0.1, 0.2, 0.1, 0.2, 0.1, 100.0]
        assert compare_paired(skewed, zeros).method == "wilcoxon"


class TestHolm:
    def test_worked_example(self):
        # Sorted: 0.01*3=0.03; 0.03*2=0.06; 0.04*1=0.04 -> monotone 0.06.
        assert holm_adjust([0.01, 0.04, 0.03]) == pytest.approx(
            [0.03, 0.06, 0.06])

    def test_adjusted_values_capped_at_one(self):
        assert holm_adjust([0.5, 0.9]) == pytest.approx([1.0, 1.0])

    def test_empty_and_single(self):
        assert holm_adjust([]) == []
        assert holm_adjust([0.02]) == [0.02]


class _FakeEstimate:
    def __init__(self, joint_counts, trials):
        self.joint_counts = joint_counts
        self.trials = trials


class TestBootstrap:
    def test_same_seed_reproduces_the_interval(self):
        sample = [0.1, 0.4, 0.2, 0.9, 0.3]
        first = bootstrap_ci(sample, seed=7, n_boot=300)
        second = bootstrap_ci(sample, seed=7, n_boot=300)
        assert first == second

    def test_interval_brackets_a_constant_sample_exactly(self):
        assert bootstrap_ci([2.5, 2.5, 2.5], n_boot=50) == (2.5, 2.5)

    def test_interval_is_ordered_and_within_range(self):
        low, high = bootstrap_ci([1.0, 2.0, 3.0, 4.0], seed=1, n_boot=200)
        assert 1.0 <= low <= high <= 4.0

    def test_custom_statistic(self):
        low, high = bootstrap_ci([1.0, 5.0, 9.0], seed=3, n_boot=100,
                                 statistic=max)
        assert high == 9.0
        assert low >= 1.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_leakage_mi_ci_deterministic_and_nonnegative(self):
        estimate = _FakeEstimate([[40, 10], [12, 38]], 100)
        first = leakage_mi_ci(estimate, seed=5, n_boot=100)
        second = leakage_mi_ci(estimate, seed=5, n_boot=100)
        assert first == second
        assert 0.0 <= first[0] <= first[1] <= 1.0

    def test_leakage_mi_ci_empty_counts(self):
        assert leakage_mi_ci(_FakeEstimate([[0, 0], [0, 0]], 0)) == (0.0, 0.0)

    @pytest.mark.parametrize("counts", [
        [[40, 10], [12, 38]], [[87, 0], [0, 113]], [[0, 0], [0, 7]],
        [[5, 0], [3, 0]], [[1, 2], [3, 4]], [[3, 0, 2], [0, 0, 5]]])
    def test_leakage_mi_ci_matches_the_linear_scan(self, counts):
        estimate = _FakeEstimate(counts, sum(map(sum, counts)))
        assert leakage_mi_ci(estimate, seed=9, n_boot=60) \
            == _linear_scan_mi_ci(estimate, seed=9, n_boot=60)


def _linear_scan_mi_ci(estimate, *, seed, n_boot, confidence=0.95):
    """Reference multinomial bootstrap: each draw scans the cumulative
    cell bounds in order (the implementation ``leakage_mi_ci`` replaced)."""
    import random

    from repro.analysis.significance import _percentile
    from repro.security.leakage import mutual_information

    counts = [count for row in estimate.joint_counts for count in row]
    total = sum(counts)
    width = len(estimate.joint_counts[0])
    cumulative, running = [], 0
    for count in counts:
        running += count
        cumulative.append(running / total)
    rng = random.Random(seed)
    estimates = []
    for _ in range(n_boot):
        tally = [0] * len(counts)
        for _ in range(total):
            draw = rng.random()
            for index, bound in enumerate(cumulative):
                if draw < bound:
                    tally[index] += 1
                    break
            else:
                tally[-1] += 1
        estimates.append(mutual_information(
            [tally[row:row + width] for row in range(0, len(tally), width)]))
    estimates.sort()
    return (_percentile(estimates, (1.0 - confidence) / 2.0),
            _percentile(estimates, 1.0 - (1.0 - confidence) / 2.0))


class TestSuffixGroups:
    def test_figure10_style_grid(self):
        labels = ["gshare-CF", "gshare-PF", "ltage-CF", "ltage-PF"]
        assert suffix_groups(labels) == {"CF": ["gshare-CF", "ltage-CF"],
                                         "PF": ["gshare-PF", "ltage-PF"]}

    def test_plain_labels_do_not_group(self):
        assert suffix_groups(["Complete Flush", "Precise Flush"]) is None

    def test_incomplete_grid_does_not_group(self):
        assert suffix_groups(["a-x", "a-y", "b-x"]) is None

    def test_single_suffix_does_not_group(self):
        assert suffix_groups(["a-x", "b-x"]) is None


def _replicated_result(series_sets, categories=("c1", "c2")):
    """Result whose folded figure + replicates carry the given series values."""
    replicates = []
    for series in series_sets:
        figure = FigureSeries(name="Fig S", description="sig test",
                              categories=list(categories))
        for label, values in series.items():
            figure.add_series(label, values)
        replicates.append(figure)
    return ExperimentResult(name="Fig S", description="sig test",
                            figure=replicates[0], replicates=replicates)


class TestSignificanceMatrix:
    def test_paired_coordinates_and_holm(self):
        # Two replicates, conditions a/b/c: a sits ~0.01 above b at every
        # paired coordinate (overwhelmingly significant) while c equals b
        # exactly (p = 1).
        reps = [{"a": [0.03, 0.05], "b": [0.02, 0.04], "c": [0.02, 0.04]},
                {"a": [0.04, 0.02], "b": [0.03, 0.01], "c": [0.03, 0.01]}]
        matrix = significance_matrix(_replicated_result(reps))
        assert matrix.conditions == ["a", "b", "c"]
        assert matrix.observations == 4
        assert matrix.repetitions == 2
        ab = matrix.comparison("a", "b")
        assert ab.mean_diff == pytest.approx(0.01)
        assert ab.test.p_value < 1e-6
        assert ab.significant()
        bc = matrix.comparison("c", "b")  # order-insensitive lookup
        assert bc.test.p_value == 1.0
        assert not bc.significant()
        assert bc.adjusted_p == 1.0

    def test_grouped_conditions_pool_member_series(self):
        reps = [{"gshare-CF": [0.05, 0.06], "ltage-CF": [0.04, 0.05],
                 "gshare-PF": [0.01, 0.02], "ltage-PF": [0.02, 0.01]}]
        matrix = significance_matrix(_replicated_result(reps))
        assert matrix.conditions == ["CF", "PF"]
        assert matrix.observations == 4  # 1 rep x 2 predictors x 2 cases
        assert matrix.comparison("CF", "PF").mean_a == pytest.approx(0.05)

    def test_single_replicate_falls_back_to_the_folded_figure(self):
        figure = FigureSeries(name="Fig S", description="d",
                              categories=["c1", "c2", "c3"])
        figure.add_series("a", [0.3, 0.2, 0.4])
        figure.add_series("b", [0.1, 0.1, 0.2])
        result = ExperimentResult(name="Fig S", description="d", figure=figure)
        matrix = significance_matrix(result)
        assert matrix.repetitions == 1
        assert matrix.observations == 3

    def test_no_figure_returns_none(self):
        result = ExperimentResult(name="T", description="d",
                                  headers=["k"], rows=[["v"]])
        assert significance_matrix(result) is None

    def test_single_condition_returns_none(self):
        figure = FigureSeries(name="F", description="d", categories=["c1", "c2"])
        figure.add_series("only", [0.1, 0.2])
        result = ExperimentResult(name="F", description="d", figure=figure)
        assert significance_matrix(result) is None

    def test_rows_and_headers_align(self):
        reps = [{"a": [0.2, 0.4], "b": [0.1, 0.3]},
                {"a": [0.3, 0.5], "b": [0.2, 0.2]}]
        matrix = significance_matrix(_replicated_result(reps))
        rows = matrix.rows()
        assert len(rows) == 1
        assert len(rows[0]) == len(matrix.headers())
        assert rows[0][0] == "a vs b"
        assert rows[0][-1] in ("yes", "no")

    def test_explicit_groups_override_auto_grouping(self):
        reps = [{"a-x": [0.2, 0.3], "a-y": [0.1, 0.2],
                 "b-x": [0.4, 0.5], "b-y": [0.3, 0.4]}]
        matrix = significance_matrix(
            _replicated_result(reps),
            groups={"a": ["a-x", "a-y"], "b": ["b-x", "b-y"]})
        assert matrix.conditions == ["a", "b"]


class TestDataclasses:
    def test_test_result_significance_threshold(self):
        assert SigTestResult("paired-t", 3.0, 0.01, 5).significant()
        assert not SigTestResult("paired-t", 1.0, 0.2, 5).significant()

    def test_pairwise_comparison_uses_adjusted_p(self):
        raw = SigTestResult("paired-t", 3.0, 0.01, 5)
        cell = PairwiseComparison(a="a", b="b", mean_a=1.0, mean_b=0.5,
                                  mean_diff=0.5, test=raw, adjusted_p=0.2)
        assert not cell.significant()
