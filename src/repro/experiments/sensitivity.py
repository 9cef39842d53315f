"""Sensitivity studies beyond the paper's headline figures.

The paper sweeps the context-switch interval only over 4M/8M/12M cycles and
evaluates SMT-4 only for Complete Flush (Figure 2).  These experiments extend
the evaluation along the axes DESIGN.md calls out:

* switch interval (:func:`assemble_switch_interval_sensitivity`) —
  Noisy-XOR-BP overhead as the timer period varies from 2M to 24M cycles
  (does the "insignificant on a single-threaded core" conclusion hold at
  much higher switch rates?);
* mispredict penalty (:func:`assemble_mispredict_penalty_sensitivity`) — how
  the overhead scales with the pipeline's misprediction penalty (deeper
  pipelines pay more per lost prediction, the reason the Sunny-Cove model
  shows larger numbers);
* SMT-4 (:func:`assemble_smt4_noisy_xor`) — Noisy-XOR-BP versus the flush
  mechanisms on an SMT-4 core, completing the comparison the paper only
  shows for flushes.

Each study is a ``plan_*``/``assemble_*`` pair registered in
:func:`repro.experiments.manifest.experiment_registry`; ``assemble_*``
builds an :class:`repro.experiments.base.ExperimentResult` from the plan's
results.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence, Tuple

from ..analysis.figures import FigureSeries
from ..analysis.metrics import arithmetic_mean, percent
from ..cpu.config import fpga_prototype, sunny_cove_smt
from ..cpu.stats import RunResult
from ..workloads.pairs import case_names, get_pair
from .base import ExperimentResult
from .executor import CaseSpec
from .scaling import ExperimentScale, default_scale

__all__ = [
    "plan_switch_interval_sensitivity",
    "assemble_switch_interval_sensitivity",
    "plan_mispredict_penalty_sensitivity",
    "assemble_mispredict_penalty_sensitivity",
    "plan_smt4_noisy_xor",
    "assemble_smt4_noisy_xor",
]

_MILLION = 1_000_000


def plan_switch_interval_sensitivity(
        scale: Optional[ExperimentScale] = None, *,
        preset: str = "noisy_xor_bp",
        cases: Sequence[str] = ("case1", "case6", "case7"),
        intervals_m: Sequence[int] = (2, 4, 8, 12, 24),
        predictor: str = "tage") -> List[CaseSpec]:
    """Cases for :func:`assemble_switch_interval_sensitivity` (same knobs).

    Plan order: per case, per interval, baseline then protected.
    """
    scale = scale or default_scale()
    config = fpga_prototype(predictor)
    specs: List[CaseSpec] = []
    for case in cases:
        pair = get_pair(case, "single")
        for m in intervals_m:
            interval = m * _MILLION
            specs.append(CaseSpec("single", pair, config, "baseline", scale,
                                  switch_interval=interval,
                                  label=f"baseline-{m}M"))
            specs.append(CaseSpec("single", pair, config, preset, scale,
                                  switch_interval=interval,
                                  label=f"{preset}-{m}M"))
    return specs


def assemble_switch_interval_sensitivity(
        scale: ExperimentScale, results: Sequence[RunResult], *,
        preset: str = "noisy_xor_bp",
        cases: Sequence[str] = ("case1", "case6", "case7"),
        intervals_m: Sequence[int] = (2, 4, 8, 12, 24),
        predictor: str = "tage") -> ExperimentResult:
    """Noisy-XOR-BP overhead versus context-switch interval (single-thread).

    For every case and interval, both the baseline and the protected core run
    with the *same* timer period, so the reported overhead isolates the cost
    of key regeneration rather than of the scheduling change.

    Args:
        scale: experiment scale the plan was enumerated at.
        results: one result per case of
            :func:`plan_switch_interval_sensitivity` (same knobs), in plan
            order.
        preset: protection preset under study.
        cases: Table 3 single-thread cases to include.
        intervals_m: timer periods in millions of cycles.
        predictor: direction predictor of the core.

    Returns:
        An :class:`ExperimentResult` whose figure has one series per case
        (plus the per-interval mean row in the table).
    """
    categories = [f"{m}M" for m in intervals_m]
    figure = FigureSeries(
        name="Ablation: switch-interval sensitivity",
        description=f"{preset} overhead vs context-switch interval",
        categories=categories)
    rows = []
    position = 0
    for case in cases:
        pair = get_pair(case, "single")
        overheads = []
        for _m in intervals_m:
            baseline, protected = results[position], results[position + 1]
            position += 2
            overheads.append(protected.overhead_vs(baseline, pair.target))
        figure.add_series(case, overheads)
        rows.append([case] + [percent(value) for value in overheads])
    means = [arithmetic_mean(figure.series[case][i] for case in cases)
             for i in range(len(intervals_m))]
    rows.append(["mean"] + [percent(value) for value in means])
    return ExperimentResult(
        name="Ablation: switch-interval sensitivity",
        description=f"{preset} overhead on the single-threaded core as the "
                    "timer period varies",
        headers=["case"] + categories,
        rows=rows,
        figure=figure,
        paper_claim="Figures 7-9 sweep only 4M/8M/12M and find the overhead "
                    "largely insensitive to the timer period because privilege "
                    "switches dominate key regeneration (Table 4).",
        notes="Extension beyond the paper: a wider interval sweep, including "
              "a 2M-cycle period (1 kHz timer).")


def plan_mispredict_penalty_sensitivity(
        scale: Optional[ExperimentScale] = None, *,
        preset: str = "noisy_xor_bp",
        case: str = "case1",
        penalties: Sequence[int] = (8, 11, 17, 24),
        predictor: str = "tage") -> List[CaseSpec]:
    """Cases for :func:`assemble_mispredict_penalty_sensitivity` (same knobs).

    Plan order: per penalty, baseline then protected.
    """
    scale = scale or default_scale()
    base_config = fpga_prototype(predictor)
    pair = get_pair(case, "single")
    specs: List[CaseSpec] = []
    for penalty in penalties:
        config = replace(base_config, mispredict_penalty=penalty,
                         name=f"fpga_prototype_p{penalty}")
        specs.append(CaseSpec("single", pair, config, "baseline", scale,
                              label=f"baseline-p{penalty}"))
        specs.append(CaseSpec("single", pair, config, preset, scale,
                              label=f"{preset}-p{penalty}"))
    return specs


def assemble_mispredict_penalty_sensitivity(
        scale: ExperimentScale, results: Sequence[RunResult], *,
        preset: str = "noisy_xor_bp",
        case: str = "case1",
        penalties: Sequence[int] = (8, 11, 17, 24),
        predictor: str = "tage") -> ExperimentResult:
    """Isolation overhead versus the core's misprediction penalty.

    The paper's two platforms differ mainly in pipeline depth (10 versus 19
    stages), and its Figure 10 discussion notes that more accurate predictors
    — i.e. cores that lose more per extra misprediction — pay more for
    protection.  This study isolates that effect by sweeping the redirect
    penalty on an otherwise fixed core.

    Args:
        scale: experiment scale the plan was enumerated at.
        results: one result per case of
            :func:`plan_mispredict_penalty_sensitivity` (same knobs), in plan
            order.
        preset: protection preset under study.
        case: Table 3 single-thread case to run.
        penalties: redirect penalties (cycles) to sweep.
        predictor: direction predictor of the core.
    """
    pair = get_pair(case, "single")
    rows = []
    overheads = []
    for i, penalty in enumerate(penalties):
        baseline, protected = results[2 * i], results[2 * i + 1]
        overhead = protected.overhead_vs(baseline, pair.target)
        overheads.append(overhead)
        rows.append([f"{penalty} cycles", percent(overhead),
                     f"{baseline.thread(pair.target).mpki:.2f}"])
    figure = FigureSeries(
        name="Ablation: misprediction-penalty sensitivity",
        description=f"{preset} overhead on {case} vs redirect penalty",
        categories=[f"{penalty}" for penalty in penalties])
    figure.add_series(preset, overheads)
    return ExperimentResult(
        name="Ablation: misprediction-penalty sensitivity",
        description=f"{preset} overhead on {case} as the redirect penalty grows",
        headers=["mispredict penalty", "overhead", "baseline MPKI"],
        rows=rows,
        figure=figure,
        paper_claim="Deeper pipelines amplify every extra misprediction; the "
                    "19-stage SMT model shows larger protection costs than "
                    "the 10-stage FPGA core.",
        notes="Extension beyond the paper: explicit penalty sweep on one core.")


def plan_smt4_noisy_xor(scale: Optional[ExperimentScale] = None, *,
                        predictor: str = "tournament",
                        presets: Tuple[str, ...] = ("complete_flush",
                                                    "precise_flush",
                                                    "noisy_xor_bp"),
                        max_quads: int = 4) -> List[CaseSpec]:
    """Cases for :func:`assemble_smt4_noisy_xor` (same knobs).

    Plan order: per quad, baseline then one case per preset.
    """
    scale = scale or default_scale()
    config = sunny_cove_smt(predictor, smt_threads=4)
    specs: List[CaseSpec] = []
    for case in case_names("smt4")[:max_quads]:
        pair = get_pair(case, "smt4")
        specs.append(CaseSpec("smt", pair, config, "baseline", scale,
                              label="baseline"))
        specs.extend(CaseSpec("smt", pair, config, preset, scale, label=preset)
                     for preset in presets)
    return specs


def assemble_smt4_noisy_xor(
        scale: ExperimentScale, results: Sequence[RunResult], *,
        predictor: str = "tournament",
        presets: Tuple[str, ...] = ("complete_flush", "precise_flush",
                                    "noisy_xor_bp"),
        max_quads: int = 4) -> ExperimentResult:
    """Noisy-XOR-BP versus flush mechanisms on an SMT-4 core.

    Figure 2 shows that Complete Flush degrades further from SMT-2 to SMT-4
    but evaluates no XOR-based mechanism there; this experiment completes the
    comparison on the SMT-4 quads of the benchmark set.

    Args:
        scale: experiment scale the plan was enumerated at.
        results: one result per case of :func:`plan_smt4_noisy_xor` (same
            knobs), in plan order.
        predictor: shared direction predictor of the SMT core.
        presets: protection presets to compare (baseline is always run).
        max_quads: number of SMT-4 quads to include.
    """
    quads = case_names("smt4")[:max_quads]
    figure = FigureSeries(
        name="Ablation: SMT-4 isolation comparison",
        description=f"overhead of {', '.join(presets)} on an SMT-4 core",
        categories=list(quads))
    per_preset = {preset: [] for preset in presets}
    stride = 1 + len(presets)
    for i, case in enumerate(quads):
        baseline = results[stride * i]
        for j, preset in enumerate(presets):
            protected = results[stride * i + 1 + j]
            per_preset[preset].append(protected.overhead_vs(baseline))
    for preset in presets:
        figure.add_series(preset, per_preset[preset])
    rows = [[preset, percent(arithmetic_mean(values))]
            for preset, values in per_preset.items()]
    return ExperimentResult(
        name="Ablation: SMT-4 isolation comparison",
        description="Noisy-XOR-BP vs flush-based isolation on an SMT-4 core "
                    f"({predictor} predictor)",
        headers=["mechanism", "mean overhead"],
        rows=rows,
        figure=figure,
        paper_claim="Figure 2: flushing costs grow with the SMT thread count; "
                    "Figure 10: Noisy-XOR-BP costs 26-37% less than Complete "
                    "Flush on SMT-2.",
        notes="Extension beyond the paper: the paper evaluates SMT-4 only for "
              "Complete Flush.")
