"""Tests for the self-contained HTML report renderer.

The load-bearing property is byte-stability: the report is a pure function
of its inputs, so rendering the same results twice must produce identical
bytes (this is what lets CI diff and grep report artifacts).  The rest pins
the structural contract — valid inline SVG, whiskers only when error bars
exist, faceting over the palette budget, escaping, and the self-containment
guarantee (no external fetches).
"""

import re
import xml.etree.ElementTree as ET

import pytest

from repro.analysis.figures import FigureSeries
from repro.analysis.htmlreport import (
    PALETTE_DARK,
    PALETTE_LIGHT,
    build_html_report,
    render_figure_svg,
    render_html_report,
)
from repro.analysis.report import PAPER_EXPECTATIONS
from repro.experiments.base import ExperimentResult


def _figure(series, errors=None, categories=("gcc", "mcf"), name="Figure 3"):
    figure = FigureSeries(name=name, description="overhead",
                          categories=list(categories))
    errors = errors or {}
    for label, values in series.items():
        figure.add_series(label, values, errors=errors.get(label))
    return figure


def _results():
    folded = _figure({"Complete Flush": [0.031, 0.045],
                      "Precise Flush": [0.009, 0.013]},
                     errors={"Complete Flush": [0.004, 0.006],
                             "Precise Flush": [0.002, 0.002]})
    replicates = [
        _figure({"Complete Flush": [0.029, 0.042],
                 "Precise Flush": [0.008, 0.012]}),
        _figure({"Complete Flush": [0.033, 0.048],
                 "Precise Flush": [0.010, 0.014]}),
    ]
    figure3 = ExperimentResult(
        name="Figure 3", description="flush overheads", figure=folded,
        replicates=replicates, paper_claim="CF ~8x PF",
        notes="2 repetitions")
    table5 = ExperimentResult(
        name="Table 5", description="hardware cost",
        headers=["structure", "area"], rows=[["BTB", "0.15%"]])
    return {"figure3": figure3, "table5": table5}


_PROVENANCE = {"Engine": "test-engine", "Manifest": "cafe" * 16,
               "Executor": "cases: 4 unique, 0 simulated, 4 store hit(s)"}


class TestFigureSvg:
    def test_svg_is_well_formed_xml(self):
        svg = render_figure_svg(_figure({"a": [0.01, -0.02]}))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")

    def test_whiskers_only_with_error_bars(self):
        plain = render_figure_svg(_figure({"a": [0.01, 0.02]}))
        assert 'stroke="var(--ink-2)"' not in plain
        with_ci = render_figure_svg(_figure({"a": [0.01, 0.02]},
                                            errors={"a": [0.002, 0.003]}))
        # One vertical whisker + two caps per bar, two bars.
        assert with_ci.count('stroke="var(--ink-2)"') == 6

    def test_tooltips_name_category_series_and_value(self):
        svg = render_figure_svg(_figure({"CF": [0.0123, 0.02]}))
        assert "<title>gcc · CF: +1.23%</title>" in svg

    def test_escaping_of_hostile_labels(self):
        svg = render_figure_svg(_figure({"<b>&": [0.01, 0.02]},
                                        categories=("a<c", "d&e")))
        assert "<b>&" not in svg.replace("&lt;b&gt;&amp;", "")
        ET.fromstring(svg)  # still well-formed after escaping

    def test_fraction_axis_labelled_in_percent(self):
        svg = render_figure_svg(_figure({"a": [0.01, 0.02]}))
        assert "%</text>" in svg

    def test_fills_use_palette_variables_only(self):
        svg = render_figure_svg(_figure({"a": [0.01, 0.02],
                                         "b": [0.02, 0.03]}))
        assert "fill:var(--s1)" in svg
        assert "fill:var(--s2)" in svg
        for hex_color in PALETTE_LIGHT + PALETTE_DARK:
            assert hex_color not in svg


class TestRenderReport:
    def test_byte_stability(self):
        first = render_html_report(_results(), _PROVENANCE)
        second = render_html_report(_results(), _PROVENANCE)
        assert first == second

    def test_self_contained(self):
        html = render_html_report(_results(), _PROVENANCE)
        assert re.search(r'\bsrc=|\bhref=|url\(|@import', html) is None
        assert "<script" not in html

    def test_provenance_block_embeds_every_field(self):
        html = render_html_report(_results(), _PROVENANCE)
        for field, value in _PROVENANCE.items():
            assert field in html
            assert value in html

    def test_dark_mode_palette_is_present(self):
        html = render_html_report(_results(), _PROVENANCE)
        assert "prefers-color-scheme: dark" in html
        assert PALETTE_LIGHT[0] in html
        assert PALETTE_DARK[0] in html

    def test_expectations_table_covers_every_paper_artefact(self):
        html = render_html_report(_results(), _PROVENANCE)
        assert html.count("(not run)") == len(PAPER_EXPECTATIONS) - 2
        for expectation in PAPER_EXPECTATIONS.values():
            assert expectation.artefact in html

    def test_expectations_carry_a_verdict_column(self):
        html = render_html_report(_results(), _PROVENANCE)
        assert "<th>Verdict</th>" in html
        # Figure 3's fixture keeps 0 < PF < CF; the one-column Table 5
        # fixture lacks the area cells its check reads.
        assert "<td>holds: PF +1.10% &lt; CF +3.80%; PF +1.10% &gt; 0</td>" \
            in html
        assert "<td>diverges: the result lacks what the check reads" in html

    def test_expectations_mark_empty_results(self):
        results = {"figure1": ExperimentResult(name="Figure 1",
                                               description="empty")}
        html = render_html_report(results, _PROVENANCE)
        assert "(empty result)" in html
        assert "(empty result: no figure and no rows)" in html

    def test_value_table_accompanies_each_chart(self):
        html = render_html_report(_results(), _PROVENANCE)
        assert "Value table · Figure 3" in html
        assert "+3.10±0.40%" in html  # chart value readable as text

    def test_without_matrices_suggests_repetitions(self):
        results = {"table5": _results()["table5"]}
        html = render_html_report(results, _PROVENANCE)
        assert "--repetitions N" in html

    def test_significance_matrices_render_as_tables(self):
        html = build_html_report(_results(), _PROVENANCE, include_pareto=False)
        assert "p (Holm)" in html
        assert "per-seed" in html
        assert "Complete Flush vs Precise Flush" in html

    def test_pareto_table_rows_flagged(self):
        pareto = (["mechanism", "Pareto-optimal"],
                  [["Baseline", "yes"], ["Complete Flush", "no"]],
                  [True, False])
        html = render_html_report(_results(), _PROVENANCE, pareto=pareto)
        assert 'class="frontier"' in html
        assert "Pareto" in html


class TestFaceting:
    def _wide_result(self):
        series = {f"{predictor}-{suffix}": [0.01 * (i + 1), 0.02]
                  for i, predictor in enumerate(
                      ("gshare", "tournament", "ltage", "tage"))
                  for suffix in ("CF", "PF", "Noisy")}
        figure = _figure(series, name="Figure 10")
        return {"figure10": ExperimentResult(name="Figure 10",
                                             description="smt", figure=figure)}

    def test_twelve_series_facet_per_mechanism_suffix(self):
        html = render_html_report(self._wide_result(), _PROVENANCE)
        # One panel per suffix, captioned by the mechanism.
        for suffix in ("CF", "PF", "Noisy"):
            assert f"<figcaption>{suffix}</figcaption>" in html
        # Prefixes are the colour-stable legend entries, not 12 series.
        assert html.count('<div class="legend">') == 1
        assert ">gshare<" in html

    def test_ungroupable_overflow_chunks_into_panels(self):
        series = {f"s{i:02d}": [0.01, 0.02] for i in range(10)}
        figure = _figure(series, name="Wide")
        results = {"figure9": ExperimentResult(name="Wide", description="d",
                                               figure=figure)}
        html = render_html_report(results, _PROVENANCE)
        assert html.count("<svg") == 2  # 8 + 2 series panels


class TestBuildReport:
    def test_full_build_is_deterministic_including_pareto(self):
        first = build_html_report(_results(), _PROVENANCE,
                                  leakage_trials=20, bootstrap_resamples=10)
        second = build_html_report(_results(), _PROVENANCE,
                                   leakage_trials=20, bootstrap_resamples=10)
        assert first == second
        assert "Pareto" in first
        assert "bits/trial" in first

    def test_single_repetition_report_has_no_whiskers(self):
        figure = _figure({"Complete Flush": [0.03, 0.04],
                          "Precise Flush": [0.01, 0.01]})
        results = {"figure3": ExperimentResult(name="Figure 3",
                                               description="d", figure=figure)}
        html = build_html_report(results, _PROVENANCE, include_pareto=False)
        assert 'stroke="var(--ink-2)"' not in html
        assert "per-case (single seed)" in html
