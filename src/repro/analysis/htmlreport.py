"""Self-contained HTML reproduction report (inline CSS + inline SVG).

``repro report`` renders every reproduced figure and table, the
mechanism significance matrices, the security/overhead/hw-cost Pareto table,
the paper-vs-measured expectations and the run's provenance into **one**
HTML file with zero external fetches and zero JavaScript — pure stdlib, in
the spirit of :mod:`repro.service`.  Charts are grouped bar SVGs generated
from :class:`repro.analysis.figures.FigureSeries`, with 95%-CI whiskers when
the figure carries repetition error bars.

Rendering is a pure function of its inputs — no timestamps, no environment
reads, stable iteration orders — so a report rebuilt from the same result
store is byte-identical (pinned by the golden-file test in
``tests/analysis/test_htmlreport.py``).

Chart styling follows a validated categorical palette (8 slots, CVD-checked
in light and dark mode); figures with more series than palette slots are
faceted into small multiples (Figure 10's twelve ``predictor-mechanism``
series become one panel per mechanism), and every chart is paired with a
value table so no reading depends on colour alone.
"""

from __future__ import annotations

import html
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .figures import FigureSeries, format_value
from .report import PAPER_EXPECTATIONS, evaluate
from .significance import SignificanceMatrix, significance_matrix, suffix_groups

__all__ = [
    "PALETTE_LIGHT",
    "PALETTE_DARK",
    "render_figure_svg",
    "figure_section_html",
    "render_html_report",
    "build_html_report",
]

#: Validated categorical palette (light mode) — 8 slots in fixed order; the
#: ordering is the colour-vision-deficiency safety mechanism, do not cycle
#: or reorder.  Dark mode uses the same hues re-stepped for the dark surface.
PALETTE_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                 "#e87ba4", "#008300", "#4a3aa7", "#e34948")
PALETTE_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
                "#d55181", "#008300", "#9085e9", "#e66767")

_CHART_WIDTH = 760
_CHART_HEIGHT = 280
_MARGIN_LEFT = 58
_MARGIN_RIGHT = 12
_MARGIN_TOP = 16
_MARGIN_BOTTOM = 30
_MAX_BAR_PX = 24.0
_BAR_GAP_PX = 2.0

_CSS = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --surface-2: #f0efec; --grid: #e4e3df;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #8a8984;
  --good: #008300; --bad: #b3261e;
""" + "".join(f"  --s{i + 1}: {hex};\n" for i, hex in enumerate(PALETTE_LIGHT)) + """}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --surface-2: #242423; --grid: #343430;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #8a8984;
    --good: #4caf50; --bad: #e66767;
""" + "".join(f"    --s{i + 1}: {hex};\n" for i, hex in enumerate(PALETTE_DARK)) + """  }
}
html { background: var(--surface); }
body { margin: 0 auto; max-width: 900px; padding: 24px 16px 64px;
       color: var(--ink); background: var(--surface);
       font: 15px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 26px; margin: 8px 0 2px; }
h2 { font-size: 20px; margin: 40px 0 8px; border-bottom: 1px solid var(--grid);
     padding-bottom: 4px; }
h3 { font-size: 16px; margin: 24px 0 6px; }
p, dd { color: var(--ink-2); }
.subtitle { color: var(--ink-2); margin-top: 0; }
dl.provenance { display: grid; grid-template-columns: max-content 1fr;
                gap: 2px 16px; margin: 8px 0;
                background: var(--surface-2); border-radius: 8px;
                padding: 12px 16px; }
dl.provenance dt { color: var(--ink-3); }
dl.provenance dd { margin: 0; color: var(--ink);
                   font-family: ui-monospace, monospace; font-size: 13px;
                   overflow-wrap: anywhere; }
table { border-collapse: collapse; margin: 10px 0; width: 100%;
        font-size: 13.5px; }
th { text-align: left; color: var(--ink-2); font-weight: 600;
     border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0; }
td { border-bottom: 1px solid var(--grid); padding: 4px 10px 4px 0;
     font-variant-numeric: tabular-nums; }
tr.frontier td { font-weight: 600; }
.sig-yes { color: var(--good); font-weight: 600; }
.sig-no { color: var(--ink-3); }
.legend { display: flex; flex-wrap: wrap; gap: 4px 16px; margin: 6px 0;
          font-size: 13px; color: var(--ink-2); }
.legend .key { display: inline-flex; align-items: center; gap: 6px; }
.legend .swatch { width: 12px; height: 12px; border-radius: 3px;
                  display: inline-block; }
figure { margin: 12px 0; }
figure figcaption { font-size: 13px; color: var(--ink-3); margin-top: 2px; }
svg { display: block; max-width: 100%; height: auto; }
.notes { font-size: 13px; color: var(--ink-3); }
details > summary { cursor: pointer; color: var(--ink-2); font-size: 13px; }
footer { margin-top: 48px; border-top: 1px solid var(--grid);
         padding-top: 12px; font-size: 13px; color: var(--ink-3); }
"""


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _num(value: float) -> str:
    """Stable short coordinate formatting for SVG attributes."""
    formatted = f"{value:.2f}"
    return formatted.rstrip("0").rstrip(".") if "." in formatted else formatted


def _nice_ticks(low: float, high: float, target: int = 5) -> List[float]:
    """Round tick positions covering [low, high] (both included loosely)."""
    if high <= low:
        high = low + 1.0
    span = high - low
    raw_step = span / max(1, target)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    step = magnitude * 10.0
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        if magnitude * multiple >= raw_step:
            step = magnitude * multiple
            break
    first = math.floor(low / step)
    last = math.ceil(high / step)
    return [round(i * step, 12) for i in range(int(first), int(last) + 1)]


def _tick_label(value: float, unit: str) -> str:
    if unit == "fraction":
        return f"{100 * value:g}%"
    return f"{value:g}"


def _bar_path(x: float, width: float, y_value: float, y_base: float,
              radius: float = 4.0) -> str:
    """A bar with a 4px-rounded data end and a square baseline end.

    Handles bars growing up (value above baseline) and down (negative
    values); the rounded corners always sit at the data end.
    """
    radius = min(radius, width / 2.0, abs(y_value - y_base))
    if y_value <= y_base:  # upward bar
        top = y_value
        return (f"M{_num(x)},{_num(y_base)} "
                f"L{_num(x)},{_num(top + radius)} "
                f"Q{_num(x)},{_num(top)} {_num(x + radius)},{_num(top)} "
                f"L{_num(x + width - radius)},{_num(top)} "
                f"Q{_num(x + width)},{_num(top)} "
                f"{_num(x + width)},{_num(top + radius)} "
                f"L{_num(x + width)},{_num(y_base)} Z")
    bottom = y_value
    return (f"M{_num(x)},{_num(y_base)} "
            f"L{_num(x)},{_num(bottom - radius)} "
            f"Q{_num(x)},{_num(bottom)} {_num(x + radius)},{_num(bottom)} "
            f"L{_num(x + width - radius)},{_num(bottom)} "
            f"Q{_num(x + width)},{_num(bottom)} "
            f"{_num(x + width)},{_num(bottom - radius)} "
            f"L{_num(x + width)},{_num(y_base)} Z")


def render_figure_svg(figure: FigureSeries, *,
                      labels: Optional[Sequence[str]] = None,
                      display_names: Optional[Mapping[str, str]] = None,
                      color_of: Optional[Mapping[str, int]] = None,
                      width: int = _CHART_WIDTH,
                      height: int = _CHART_HEIGHT) -> str:
    """Render one grouped-bar SVG panel from a figure's series.

    Args:
        figure: the data (categories × series, optional error bars).
        labels: subset/order of series to draw (all by default).
        display_names: per-label display name (used by faceted charts where
            the panel title carries the shared suffix).
        color_of: per-label palette slot index; defaults to position.
        width: total SVG width in px.
        height: total SVG height in px.

    Returns:
        An ``<svg>`` fragment (no external references, CSS-variable fills).
    """
    labels = list(labels if labels is not None else figure.series)
    display_names = display_names or {}
    if color_of is None:
        color_of = {label: index for index, label in enumerate(labels)}
    categories = list(figure.categories)
    values = {label: [float(v) for v in figure.series[label]]
              for label in labels}
    errors = {label: [float(e) for e in figure.errors[label]]
              if label in figure.errors else [0.0] * len(categories)
              for label in labels}

    low = min(0.0, min(min(v - e for v, e in zip(values[label], errors[label]))
                       for label in labels))
    high = max(0.0, max(max(v + e for v, e in zip(values[label], errors[label]))
                        for label in labels))
    ticks = _nice_ticks(low, high)
    low, high = min(ticks[0], low), max(ticks[-1], high)

    plot_w = width - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = height - _MARGIN_TOP - _MARGIN_BOTTOM

    def y_of(value: float) -> float:
        return _MARGIN_TOP + plot_h * (high - value) / (high - low)

    band_w = plot_w / max(1, len(categories))
    bar_w = min(_MAX_BAR_PX,
                (band_w * 0.82 - _BAR_GAP_PX * (len(labels) - 1)) / len(labels))
    group_w = bar_w * len(labels) + _BAR_GAP_PX * (len(labels) - 1)

    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} '
        f'{height}" width="{width}" height="{height}" role="img" '
        f'aria-label="{_esc(figure.name)}">')
    # Gridlines + y tick labels (recessive hairlines).
    for tick in ticks:
        y = y_of(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" x2="{width - _MARGIN_RIGHT}" '
            f'y1="{_num(y)}" y2="{_num(y)}" stroke="var(--grid)" '
            'stroke-width="1"/>')
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{_num(y + 3.5)}" '
            'text-anchor="end" font-size="11" fill="var(--ink-3)">'
            f'{_esc(_tick_label(tick, figure.unit))}</text>')
    # Baseline (zero) emphasised one step over the grid.
    zero_y = y_of(0.0)
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" x2="{width - _MARGIN_RIGHT}" '
        f'y1="{_num(zero_y)}" y2="{_num(zero_y)}" stroke="var(--ink-3)" '
        'stroke-width="1"/>')
    # Bars with CI whiskers.
    for cat_index, category in enumerate(categories):
        group_x = (_MARGIN_LEFT + band_w * cat_index
                   + (band_w - group_w) / 2.0)
        for pos, label in enumerate(labels):
            value = values[label][cat_index]
            error = errors[label][cat_index]
            x = group_x + pos * (bar_w + _BAR_GAP_PX)
            slot = color_of[label] % len(PALETTE_LIGHT) + 1
            shown = display_names.get(label, label)
            tooltip = (f"{category} · {shown}: "
                       f"{format_value(value, figure.unit, error=error if error else None)}")
            parts.append('<g>')
            parts.append(
                f'<path d="{_bar_path(x, bar_w, y_of(value), zero_y)}" '
                f'style="fill:var(--s{slot})"/>')
            if error:
                cx = x + bar_w / 2.0
                y_lo, y_hi = y_of(value - error), y_of(value + error)
                cap = min(6.0, bar_w * 0.4)
                parts.append(
                    f'<line x1="{_num(cx)}" x2="{_num(cx)}" '
                    f'y1="{_num(y_hi)}" y2="{_num(y_lo)}" '
                    'stroke="var(--ink-2)" stroke-width="1.5"/>')
                for y_cap in (y_hi, y_lo):
                    parts.append(
                        f'<line x1="{_num(cx - cap)}" x2="{_num(cx + cap)}" '
                        f'y1="{_num(y_cap)}" y2="{_num(y_cap)}" '
                        'stroke="var(--ink-2)" stroke-width="1.5"/>')
            parts.append(f'<title>{_esc(tooltip)}</title>')
            parts.append('</g>')
        parts.append(
            f'<text x="{_num(_MARGIN_LEFT + band_w * (cat_index + 0.5))}" '
            f'y="{height - _MARGIN_BOTTOM + 16}" text-anchor="middle" '
            f'font-size="11" fill="var(--ink-2)">{_esc(category)}</text>')
    parts.append('</svg>')
    return "".join(parts)


def _legend_html(entries: Sequence[Tuple[str, int]]) -> str:
    """Legend keys: (display name, palette slot index starting at 0)."""
    keys = "".join(
        f'<span class="key"><span class="swatch" '
        f'style="background:var(--s{slot % len(PALETTE_LIGHT) + 1})"></span>'
        f'{_esc(name)}</span>'
        for name, slot in entries)
    return f'<div class="legend">{keys}</div>'


def _figure_charts_html(figure: FigureSeries) -> str:
    """Chart(s) + legend for one figure; facets when series exceed slots.

    A ``prefix-suffix`` labelling (Figure 10, the interval sweeps) with more
    series than palette slots becomes one panel per suffix with the prefixes
    as the coloured — and colour-stable — series; anything else over the
    slot budget is chunked into panels of at most eight series.
    """
    labels = list(figure.series)
    slots = len(PALETTE_LIGHT)
    if len(labels) <= slots:
        svg = render_figure_svg(figure)
        chart = f"<figure>{svg}</figure>"
        if len(labels) >= 2:
            chart += _legend_html([(label, index)
                                   for index, label in enumerate(labels)])
        return chart
    groups = suffix_groups(labels)
    parts: List[str] = []
    if groups is not None and all(len(members) <= slots
                                  for members in groups.values()):
        prefixes = list(dict.fromkeys(
            label.rpartition("-")[0] for label in labels))
        color_index = {prefix: index for index, prefix in enumerate(prefixes)}
        for suffix, members in groups.items():
            display = {label: label.rpartition("-")[0] for label in members}
            color_of = {label: color_index[display[label]]
                        for label in members}
            svg = render_figure_svg(figure, labels=members,
                                    display_names=display, color_of=color_of,
                                    height=220)
            parts.append(f"<figure>{svg}<figcaption>{_esc(suffix)}"
                         "</figcaption></figure>")
        parts.append(_legend_html([(prefix, color_index[prefix])
                                   for prefix in prefixes]))
        return "".join(parts)
    for start in range(0, len(labels), slots):
        chunk = labels[start:start + slots]
        color_of = {label: index for index, label in enumerate(chunk)}
        svg = render_figure_svg(figure, labels=chunk, color_of=color_of,
                                height=220)
        parts.append(f"<figure>{svg}</figure>")
        parts.append(_legend_html([(label, index)
                                   for index, label in enumerate(chunk)]))
    return "".join(parts)


def _table_html(headers: Sequence[str], rows: Sequence[Sequence],
                row_classes: Optional[Sequence[str]] = None) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body: List[str] = []
    for index, row in enumerate(rows):
        cls = f' class="{row_classes[index]}"' if row_classes and row_classes[index] else ""
        cells = "".join(f"<td>{_esc(cell)}</td>" for cell in row)
        body.append(f"<tr{cls}>{cells}</tr>")
    return (f"<table><thead><tr>{head}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _figure_values_table(figure: FigureSeries) -> str:
    """The chart's table view (every chart is also readable without colour)."""
    headers = ["case"] + list(figure.series)
    rows: List[List[str]] = []
    for index, category in enumerate(figure.categories):
        row = [category]
        for label in figure.series:
            error = (figure.errors[label][index]
                     if label in figure.errors else None)
            row.append(format_value(figure.series[label][index], figure.unit,
                                    error=error))
        rows.append(row)
    average_row = ["average"]
    for label in figure.series:
        average_row.append(format_value(figure.average(label), figure.unit))
    rows.append(average_row)
    return (f"<details><summary>Value table · {_esc(figure.name)}</summary>"
            f"{_table_html(headers, rows)}</details>")


def _experiment_section(key: str, result) -> str:
    parts = [f'<h3 id="{_esc(key)}">{_esc(result.name)}: '
             f'{_esc(result.description)}</h3>']
    if result.paper_claim:
        parts.append(f'<p class="notes">Paper: {_esc(result.paper_claim)}</p>')
    if result.figure is not None:
        parts.append(_figure_charts_html(result.figure))
        parts.append(_figure_values_table(result.figure))
    if result.rows:
        parts.append(_table_html(result.headers, result.rows))
    elif result.figure is None:
        parts.append('<p class="notes">(empty result: no figure and no '
                     'rows)</p>')
    if result.notes:
        parts.append(f'<p class="notes">Notes: {_esc(result.notes)}</p>')
    return "".join(parts)


def _expectations_table(results: Mapping[str, object]) -> str:
    headers = ["Artefact", "Paper reports", "Measured here", "Verdict"]
    rows: List[List[str]] = []
    for key, expectation in PAPER_EXPECTATIONS.items():
        result = results.get(key)
        if result is None:
            rows.append([expectation.artefact, expectation.claim, "(not run)",
                         "—"])
            continue
        measured, verdict = evaluate(key, result)
        rows.append([expectation.artefact, expectation.claim, measured,
                     f"{verdict.label}: {verdict.detail}"])
    return _table_html(headers, rows)


def _significance_section(matrices: Mapping[str, SignificanceMatrix]) -> str:
    if not matrices:
        return ("<p class=\"notes\">No repeated figures to test — rerun with "
                "<code>--repetitions N</code> (N ≥ 2) for per-seed paired "
                "tests.</p>")
    parts: List[str] = []
    for key, matrix in matrices.items():
        pairing = ("per-seed" if matrix.repetitions > 1
                   else "per-case (single seed)")
        parts.append(
            f"<h3>{_esc(matrix.name)}</h3>"
            f'<p class="notes">{matrix.observations} paired {pairing} '
            f"observations per condition over {matrix.repetitions} "
            "repetition(s); p-values are Holm-adjusted across the "
            "matrix.</p>")
        rows = matrix.rows()
        classes = ["frontier" if row[-1] == "yes" else "" for row in rows]
        for row in rows:
            row[-1] = row[-1]
        parts.append(_table_html(matrix.headers(), rows, classes))
    return "".join(parts)


def render_html_report(results: Mapping[str, object],
                       provenance: Mapping[str, str], *,
                       matrices: Optional[Mapping[str, SignificanceMatrix]] = None,
                       pareto: Optional[Tuple[Sequence[str], Sequence[Sequence[str]],
                                              Sequence[bool]]] = None,
                       title: str = "Secure branch predictor — reproduction report"
                       ) -> str:
    """Assemble the report HTML from pre-computed pieces (pure function).

    Args:
        results: ``{experiment key: ExperimentResult}`` in display order.
        provenance: ordered ``{field: value}`` block (engine version,
            manifest hash, store stats line, ...).
        matrices: significance matrices keyed by experiment.
        pareto: ``(headers, rows, frontier flags)`` from
            :func:`repro.analysis.pareto.pareto_table`.
        title: page title.

    Returns:
        The complete HTML document as a string.
    """
    parts: List[str] = []
    parts.append("<!DOCTYPE html>")
    parts.append('<html lang="en"><head><meta charset="utf-8">')
    parts.append('<meta name="viewport" content="width=device-width, '
                 'initial-scale=1">')
    parts.append(f"<title>{_esc(title)}</title>")
    parts.append(f"<style>{_CSS}</style></head><body>")
    parts.append(f"<h1>{_esc(title)}</h1>")
    parts.append('<p class="subtitle">A Lightweight Isolation Mechanism for '
                 'Secure Branch Predictors (DAC 2021) — measured here, with '
                 '95% CIs, paired significance tests and Pareto analysis. '
                 'See <code>docs/report.md</code> for how to read this '
                 'report.</p>')

    parts.append("<h2>Provenance</h2>")
    items = "".join(f"<dt>{_esc(field)}</dt><dd>{_esc(value)}</dd>"
                    for field, value in provenance.items())
    parts.append(f'<dl class="provenance">{items}</dl>')

    parts.append("<h2>Paper vs. measured</h2>")
    parts.append(_expectations_table(results))

    parts.append("<h2>Experiments</h2>")
    for key, result in results.items():
        parts.append(_experiment_section(key, result))

    parts.append("<h2>Significance</h2>")
    parts.append('<p class="notes">Paired tests between mechanism conditions '
                 'on the same (seed, benchmark) observations: Student '
                 't when the paired differences pass a normality screen, '
                 'Wilcoxon signed-rank otherwise. "yes" means the '
                 'Holm-adjusted p-value is below α=0.05.</p>')
    parts.append(_significance_section(matrices or {}))

    if pareto is not None:
        headers, rows, frontier = pareto
        parts.append("<h2>Security / overhead / hardware-cost Pareto</h2>")
        parts.append('<p class="notes">Leakage is the summed mutual '
                     'information of the PHT-direction and BTB-occupancy '
                     'channels under a concurrent (SMT) attacker, with '
                     'seeded bootstrap CIs; bold rows are Pareto-optimal '
                     '(no mechanism is at least as good on every axis and '
                     'better on one).</p>')
        classes = ["frontier" if flag else "" for flag in frontier]
        parts.append(_table_html(headers, rows, classes))

    parts.append("<footer>Self-contained report: inline CSS + SVG, no "
                 "external fetches, no scripts. Every number is "
                 "deterministic given the manifest, seeds and result store "
                 "named in the provenance block.</footer>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def build_html_report(results: Mapping[str, object],
                      provenance: Mapping[str, str], *,
                      include_pareto: bool = True,
                      leakage_trials: int = 200,
                      bootstrap_resamples: int = 500,
                      seed: int = 0xD1CE) -> str:
    """Compute significance matrices (+ optionally Pareto) and render.

    The convenience entry point used by the CLI and the service: takes the
    assembled experiment results and the provenance block, derives every
    analysis artefact deterministically, and returns the final HTML.

    Args:
        results: ``{experiment key: ExperimentResult}`` in display order.
        provenance: ordered provenance fields for the header block.
        include_pareto: run the (seeded) leakage measurements backing the
            Pareto table; disable for fast paths that only need figures.
        leakage_trials: prime–probe trials per leakage channel.
        bootstrap_resamples: resamples per leakage bootstrap CI.
        seed: base RNG seed for leakage and bootstrap.

    Returns:
        The complete HTML document as a string.
    """
    matrices: Dict[str, SignificanceMatrix] = {}
    for key, result in results.items():
        matrix = significance_matrix(result)
        if matrix is not None:
            matrices[key] = matrix
    pareto_block = None
    if include_pareto:
        from .pareto import mechanism_profiles, pareto_table

        profiles = mechanism_profiles(results, trials=leakage_trials,
                                      n_boot=bootstrap_resamples, seed=seed)
        headers, rows = pareto_table(profiles)
        pareto_block = (headers, rows,
                        [profile.on_frontier for profile in profiles])
    return render_html_report(results, provenance, matrices=matrices,
                              pareto=pareto_block)
