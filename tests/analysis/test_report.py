"""Tests for the paper-vs-measured report: one executable check per claim."""

import os
import re

import pytest

from repro.analysis import (
    KNOWN_DIVERGENCES,
    PAPER_EXPECTATIONS,
    FigureSeries,
    PaperExpectation,
    Verdict,
    evaluate,
    markdown_report,
    summarise_overhead_figure,
    verdict_line,
)
from repro.experiments.base import ExperimentResult
from repro.experiments.manifest import experiment_registry

EXPERIMENTS_MD = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, os.pardir, "EXPERIMENTS.md")

CASES = ["case1", "case2", "case4", "case6"]


def _figure(series, categories=CASES):
    figure = FigureSeries(name="test", description="test",
                          categories=list(categories))
    for label, values in series.items():
        figure.add_series(label, list(values))
    return figure


def _result(figure=None, rows=(), headers=(), notes="", description="test"):
    return ExperimentResult(name="test", description=description,
                            headers=list(headers), rows=[list(r) for r in rows],
                            figure=figure, notes=notes)


def _sweep(prefixes, averages, worst_case="case1", low="case4", case2=None):
    """Interval-sweep figure: each ``prefix-<N>M`` series averages to the
    given value, with ``worst_case`` the costliest cell and ``low`` the
    cheapest; ``case2`` (when given) sets case2's cell, the worst case
    absorbing the difference."""
    series = {}
    for prefix in prefixes:
        for interval, average in zip(("4M", "8M", "12M"), averages):
            values = dict.fromkeys(CASES, average)
            values[worst_case] += 0.001
            values[low] -= 0.001
            if case2 is not None:
                values[worst_case] += values["case2"] - case2
                values["case2"] = case2
            series[f"{prefix}-{interval}"] = [values[case] for case in CASES]
    return _figure(series)


def _figure10(noisy_share, predictors=("gshare", "tournament", "ltage",
                                       "tage_sc_l")):
    series = {}
    for rank, predictor in enumerate(predictors):
        cf = 0.05
        series[f"{predictor}-CF"] = [cf] * 4
        series[f"{predictor}-PF"] = [cf / 2] * 4
        share = noisy_share.get(predictor, 0.5)
        series[f"{predictor}-Noisy-XOR-BP"] = [cf * share + 0.001 * rank] * 4
    return _figure(series)


_TABLE1_HEADERS = ["structure", "mechanism", "single/reuse",
                   "single/contention", "smt/reuse", "smt/contention",
                   "matches paper"]


def _table1(noisy_pht_smt_reuse="Mitigate"):
    return _result(headers=_TABLE1_HEADERS, rows=[
        ["BTB", "Complete Flush", "Defend", "Defend", "No Protection",
         "No Protection", "yes"],
        ["BTB", "Noisy-XOR-BTB", "Defend", "Defend", "Defend",
         "Defend (paper: Mitigate)", "no"],
        ["PHT", "Complete Flush", "Defend", "Defend", "No Protection",
         "Defend", "yes"],
        ["PHT", "Noisy-XOR-PHT", "Defend", "Defend", noisy_pht_smt_reuse,
         "Defend", "yes"],
    ])


def _table2(issue_width=4):
    return _result(headers=["parameter", "FPGA prototype", "gem5 SMT model"],
                   rows=[["Issue width", issue_width, 8],
                         ["Pipeline depth (stages)", 10, 19],
                         ["Hardware threads", 1, 2],
                         ["BTB", "256 x 2-way", "1024 x 4-way"]])


def _table3(n_cases=12):
    return _result(rows=[[f"case{i}", f"a{i}+b{i}", f"c{i}+d{i}"]
                         for i in range(1, n_cases + 1)])


def _table4(rates):
    return _result(rows=[[f"case{i}", "a+b", f"{privilege:.1f}", 2.0,
                          f"{context:.2f}"]
                         for i, (privilege, context) in enumerate(rates, 1)])


def _table5(small_btb_area="0.20%"):
    rows = [["BTB 2w128", "0.70%", "0.70%", small_btb_area, "0.24%"],
            ["BTB 2w512", "1.46%", "1.46%", "0.11%", "0.13%"],
            ["TAGE 6x1024", "1.98%", "2.10%", "0.13%", "0.11%"],
            ["TAGE 6x4096", "1.98%", "2.01%", "0.03%", "0.03%"]]
    return _result(rows=rows)


def _poc(protected_btb="0.60%"):
    return _result(rows=[
        ["baseline", "97.60%", "96.5%", "97.64%", "97.2%", "100.00%"],
        ["xor_bp", protected_btb, "< 1%", "46.36%", "< 1%", "0.00%"],
        ["noisy_xor_bp", "0.60%", "< 1%", "49.04%", "< 1%", "0.00%"],
    ])


def _encoders(*overheads):
    return _result(rows=[[name, f"{value:+.2f}%"] for name, value
                         in zip(("xor", "shift_xor", "sbox"), overheads)])


def _key_refresh(weak="100.0%"):
    return _result(rows=[
        ["context + privilege switches (paper)", "+3.69%", "0.0%"],
        ["context switches only", "+1.97%", weak]])


def _pht_granularity(noisy="50.0%"):
    return _result(rows=[
        ["XOR-PHT (2-bit words, fixed key)", "55.2%", "98.4%"],
        ["Enhanced-XOR-PHT (32-bit words)", "55.2%", "98.4%"],
        ["Noisy-XOR-PHT", "55.2%", noisy]])


def _switch_interval(first, last):
    return _result(figure=_figure({"case1": [first, 0.03, last],
                                   "case6": [first, 0.03, last]},
                                  categories=["2M", "8M", "24M"]))


def _penalty(values):
    return _result(figure=_figure({"noisy_xor_bp": values},
                                  categories=["8", "11", "17", "24"]))


def _smt4(noisy, predictor="tournament"):
    figure = _figure({"complete_flush": [0.02] * 4, "precise_flush": [0.2] * 4,
                      "noisy_xor_bp": [noisy] * 4},
                     categories=["quad1", "quad2", "quad3", "quad4"])
    return _result(figure=figure, description=f"SMT-4 ({predictor} predictor)")


#: (experiment, hand-built result, expected verdict label).
CASES_BY_OUTCOME = [
    ("figure1", _result(_sweep(["flush"], [0.008, 0.004, 0.001])), "holds"),
    ("figure1", _result(_sweep(["flush"], [0.015, 0.004, 0.001])),
     "known (scaled-magnitudes)"),
    ("figure1", _result(_sweep(["flush"], [0.001, 0.004, 0.002])), "diverges"),
    ("figure2", _result(_figure({"Complete Flush": [0.03, 0.05]},
                                ["SMT-2", "SMT-4"])), "holds"),
    ("figure2", _result(_figure({"Complete Flush": [0.03, 0.02]},
                                ["SMT-2", "SMT-4"])), "known (smt4-quads)"),
    ("figure2", _result(_figure({"Complete Flush": [0.03, 0.005]},
                                ["SMT-2", "SMT-4"])), "diverges"),
    ("figure3", _result(_figure({"Complete Flush": [0.05] * 4,
                                 "Precise Flush": [0.02] * 4}),
                        notes="Predictor: tournament."), "holds"),
    ("figure3", _result(_figure({"Complete Flush": [0.02] * 4,
                                 "Precise Flush": [0.2] * 4}),
                        notes="Predictor: tournament."),
     "known (tournament-pf-inversion)"),
    ("figure3", _result(_figure({"Complete Flush": [0.02] * 4,
                                 "Precise Flush": [0.2] * 4}),
                        notes="Predictor: gshare."), "diverges"),
    ("figure7", _result(_sweep(["XOR-BTB", "Noisy-XOR-BTB"],
                               [0.0015, 0.001, 0.0005], worst_case="case6",
                               case2=-0.001)), "holds"),
    ("figure7", _result(_sweep(["XOR-BTB", "Noisy-XOR-BTB"],
                               [0.0015, 0.001, 0.0005], worst_case="case4",
                               low="case1", case2=-0.001)),
     "known (worst-case-shift)"),
    ("figure7", _result(_sweep(["XOR-BTB", "Noisy-XOR-BTB"],
                               [0.005, 0.001, 0.0005], worst_case="case6",
                               case2=0.001)), "known (scaled-magnitudes)"),
    ("figure7", _result(_figure({
        **_sweep(["XOR-BTB"], [0.0015, 0.001, 0.0005], worst_case="case6",
                 case2=-0.001).series,
        **_sweep(["Noisy-XOR-BTB"], [0.0015, 0.003, 0.0005],
                 worst_case="case6", case2=-0.001).series})), "diverges"),
    ("figure8", _result(_sweep(["XOR-PHT", "Noisy-XOR-PHT"],
                               [0.010, 0.008, 0.006])), "holds"),
    ("figure8", _result(_sweep(["XOR-PHT", "Noisy-XOR-PHT"],
                               [0.020, 0.015, 0.010])),
     "known (scaled-magnitudes)"),
    ("figure8", _result(_sweep(["XOR-PHT", "Noisy-XOR-PHT"],
                               [0.006, 0.008, 0.010])), "diverges"),
    # The worst case moved and the paper's case1 is now the cheapest.
    ("figure8", _result(_sweep(["XOR-PHT", "Noisy-XOR-PHT"],
                               [0.010, 0.008, 0.006], worst_case="case6",
                               low="case1")), "diverges"),
    ("figure9", _result(_sweep(["XOR-BP", "Noisy-XOR-BP"],
                               [0.012, 0.010, 0.009])), "holds"),
    ("figure9", _result(_sweep(["XOR-BP", "Noisy-XOR-BP"],
                               [0.012, 0.010, 0.009], worst_case="case6")),
     "known (worst-case-shift)"),
    ("figure9", _result(_sweep(["XOR-BP", "Noisy-XOR-BP"],
                               [0.012, 0.014, 0.016])), "diverges"),
    ("figure10", _result(_figure10({})), "holds"),
    ("figure10", _result(_figure10({"tournament": 2.0, "tage_sc_l": 1.5})),
     "known (history-aliasing)"),
    ("figure10", _result(_figure10({"ltage": 1.2})), "diverges"),
    ("table1", _table1(), "holds"),
    ("table1", _table1("No Protection"), "diverges"),
    ("table2", _table2(), "holds"),
    ("table2", _table2(issue_width=6), "diverges"),
    ("table3", _table3(), "holds"),
    ("table3", _table3(n_cases=11), "diverges"),
    ("table4", _table4([(4.3, 0.0), (1.4, 0.09)]), "holds"),
    ("table4", _table4([(4.3, 0.0), (0.0, 0.0)]),
     "known (short-trace-zero-rates)"),
    ("table4", _table4([(4.3, 0.0), (0.5, 0.08)]), "diverges"),
    ("table5", _table5(), "holds"),
    ("table5", _table5("0.29%"), "known (hwcost-small-btb-area)"),
    ("table5", _table5("0.40%"), "diverges"),
    ("poc_attacks", _poc(), "holds"),
    ("poc_attacks", _poc("5.00%"), "diverges"),
    ("ablation_encoder", _encoders(3.99, 2.56, 2.90), "holds"),
    ("ablation_encoder", _encoders(3.99, 1.00, 2.90), "diverges"),
    ("ablation_key_refresh", _key_refresh(), "holds"),
    ("ablation_key_refresh", _key_refresh("10.0%"), "diverges"),
    ("ablation_pht_granularity", _pht_granularity(), "holds"),
    ("ablation_pht_granularity", _pht_granularity("80.0%"), "diverges"),
    ("ablation_switch_interval", _switch_interval(0.05, 0.03), "holds"),
    ("ablation_switch_interval", _switch_interval(0.03, 0.05), "diverges"),
    ("ablation_penalty", _penalty([0.02, 0.03, 0.05, 0.06]), "holds"),
    ("ablation_penalty", _penalty([0.02, 0.05, 0.03, 0.06]), "diverges"),
    ("smt4_noisy_xor", _smt4(0.01), "holds"),
    ("smt4_noisy_xor", _smt4(0.05), "known (history-aliasing)"),
    ("smt4_noisy_xor", _smt4(0.05, predictor="gshare"), "diverges"),
]


class TestCoverage:
    def test_every_registered_experiment_has_exactly_one_check(self):
        assert list(PAPER_EXPECTATIONS) == list(experiment_registry())
        for key, expectation in PAPER_EXPECTATIONS.items():
            assert expectation.experiment == key
            assert callable(expectation.check)
            assert expectation.claim and expectation.artefact

    def test_prose_shapes_are_gone(self):
        assert "shape" not in PaperExpectation.__dataclass_fields__

    def test_every_check_is_driven_to_holds_and_diverges(self):
        outcomes = {}
        for key, _, label in CASES_BY_OUTCOME:
            outcomes.setdefault(key, set()).add(label.split(" ")[0])
        assert set(outcomes) == set(PAPER_EXPECTATIONS)
        assert all({"holds", "diverges"} <= seen for seen in outcomes.values())

    def test_every_known_divergence_is_reachable(self):
        reached = {reason for _, _, label in CASES_BY_OUTCOME
                   if label.startswith("known")
                   for reason in label[len("known ("):-1].split(", ")}
        assert reached == set(KNOWN_DIVERGENCES)

    def test_every_known_divergence_is_explained_in_experiments_md(self):
        with open(EXPERIMENTS_MD, "r", encoding="utf-8") as handle:
            text = handle.read()
        section = re.search(r"^## Known divergences\n(.*?)(?=^## )", text,
                            re.S | re.M)
        assert section is not None
        for reason in KNOWN_DIVERGENCES:
            assert f"`{reason}`" in section.group(1), reason


class TestChecks:
    @pytest.mark.parametrize(
        "key,result,label", CASES_BY_OUTCOME,
        ids=[f"{key}-{label.split(' ')[0]}-{index}"
             for index, (key, _, label) in enumerate(CASES_BY_OUTCOME)])
    def test_outcome(self, key, result, label):
        verdict = PAPER_EXPECTATIONS[key].check(result)
        assert verdict.label == label, verdict.detail
        assert verdict.detail
        assert ("✗" in verdict.detail) == (verdict.outcome != "holds")


class TestEvaluate:
    def test_figure_result_summarised_by_series_averages(self):
        result = _result(_figure({"Complete Flush": [0.03, 0.05]},
                                 ["SMT-2", "SMT-4"]))
        measured, verdict = evaluate("figure2", result)
        assert measured == "Complete Flush avg +4.00%"
        assert verdict.outcome == "holds"

    def test_table_result_summarised_by_row_count(self):
        measured, verdict = evaluate("table2", _table2())
        assert measured == "4 rows reproduced"
        assert verdict.outcome == "holds"

    def test_empty_result_diverges(self):
        measured, verdict = evaluate("figure8", _result())
        assert measured == "(empty result)"
        assert verdict.outcome == "diverges"

    def test_result_missing_what_the_check_reads_diverges(self):
        result = _result(_figure({"Complete Flush": [0.03]}, ["SMT-2"]))
        _, verdict = evaluate("figure2", result)
        assert verdict.outcome == "diverges"
        assert "lacks" in verdict.detail

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            evaluate("figure99", _table2())

    def test_summary_without_figure(self):
        assert summarise_overhead_figure(_table2()) == "(no figure data)"

    def test_verdict_line_counts_each_outcome(self):
        verdicts = [Verdict("holds", "a"), Verdict("known", "b", ("x",)),
                    Verdict("known", "c", ("y",)), Verdict("holds", "d")]
        assert verdict_line(verdicts) == \
            "verdicts: 2 hold, 2 known divergence(s), 0 diverge"


class TestMarkdownReport:
    def test_markdown_shows_every_verdict(self):
        markdown = markdown_report({"table2": _table2(),
                                    "table5": _table5("0.29%"),
                                    "table3": _table3(n_cases=11)})
        assert markdown.startswith("# Reproduction report\n")
        assert "| holds: Issue width 4/8" in markdown
        assert "| known (hwcost-small-btb-area): ✗ area BTB 2w128" in markdown
        assert "| **diverges**: ✗ 11 distinct cases" in markdown
        assert "| — |" not in markdown
        assert markdown.endswith(
            "\nverdicts: 1 hold, 1 known divergence(s), 1 diverge\n")

    def test_keys_without_a_paper_claim_are_left_out(self):
        # ``bench:<selector>`` results carry no paper claim: no row, and no
        # verdict counted.
        markdown = markdown_report({"bench:int": _table2(),
                                    "table2": _table2()})
        assert markdown.count("| Table 2 |") == 1
        assert "bench:int" not in markdown
        assert "verdicts: 1 hold, 0 known divergence(s), 0 diverge" \
            in markdown
