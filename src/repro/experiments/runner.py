"""Shared experiment plumbing: building systems and running cases."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.registry import make_bpu
from ..core.secure import BranchPredictionUnit
from ..cpu.config import CoreConfig, fpga_prototype, sunny_cove_smt
from ..cpu.core import SingleThreadCore
from ..cpu.smt import SmtCore
from ..cpu.stats import RunResult
from ..workloads.pairs import BenchmarkPair, make_pair_workloads
from .executor import CaseSpec, SweepExecutor
from .scaling import ExperimentScale, default_scale

__all__ = ["build_bpu", "run_single_thread_case", "run_smt_case",
           "plan_overhead_single_thread", "assemble_overhead_single_thread",
           "plan_overhead_smt", "assemble_overhead_smt",
           "overhead_figure_single_thread", "overhead_figure_smt"]


def build_bpu(config: CoreConfig, preset: str, seed: int,
              overrides: Optional[Dict] = None) -> BranchPredictionUnit:
    """Build a branch prediction unit matching a core configuration."""
    return make_bpu(config.predictor, preset, seed=seed,
                    btb_sets=config.btb_sets, btb_ways=config.btb_ways,
                    btb_miss_forces_not_taken=config.btb_miss_forces_not_taken,
                    predictor_kwargs=dict(config.predictor_kwargs),
                    config_overrides=dict(overrides) if overrides else None)


def run_single_thread_case(pair: BenchmarkPair, config: CoreConfig, preset: str,
                           scale: ExperimentScale, *,
                           switch_interval: Optional[int] = None,
                           seed_offset: int = 0,
                           bpu_overrides: Optional[Dict] = None) -> RunResult:
    """Run one Table 3 pair on the single-threaded core under one mechanism.

    Args:
        pair: the benchmark pair; the first benchmark is the measured target.
        config: core configuration (usually the FPGA prototype).
        preset: protection preset name.
        scale: experiment scale.
        switch_interval: context-switch period in (real) cycles; defaults to
            the configuration's standard Linux period.
        seed_offset: varies workload and key seeds between repetitions.
        bpu_overrides: isolation-config overrides for the BPU (ablations).
    """
    if switch_interval is not None:
        config = config.with_switch_interval(switch_interval)
    workloads = make_pair_workloads(pair, seed=scale.seed + seed_offset)
    bpu = build_bpu(config, preset, seed=scale.seed + 7 * seed_offset + 1,
                    overrides=bpu_overrides)
    core = SingleThreadCore(config, bpu, workloads,
                            time_scale=scale.time_scale,
                            syscall_time_scale=scale.syscall_time_scale)
    try:
        return core.run(target_branches=scale.st_target_branches,
                        warmup_branches=scale.st_warmup_branches,
                        mechanism_name=preset)
    finally:
        bpu.release_kernels()


def run_smt_case(pair: BenchmarkPair, config: CoreConfig, preset: str,
                 scale: ExperimentScale, *, se_mode: bool = True,
                 seed_offset: int = 0,
                 bpu_overrides: Optional[Dict] = None) -> RunResult:
    """Run one Table 3 pair/quad on the SMT core under one mechanism."""
    workloads = make_pair_workloads(pair, seed=scale.seed + seed_offset)
    if len(workloads) != config.smt_threads:
        raise ValueError(
            f"pair {pair.case} has {len(workloads)} benchmarks but the core has "
            f"{config.smt_threads} hardware threads")
    bpu = build_bpu(config, preset, seed=scale.seed + 7 * seed_offset + 1,
                    overrides=bpu_overrides)
    core = SmtCore(config, bpu, workloads, time_scale=scale.smt_time_scale,
                   se_mode=se_mode)
    try:
        return core.run(instructions=scale.smt_instructions,
                        warmup_instructions=scale.smt_warmup_instructions,
                        mechanism_name=preset)
    finally:
        bpu.release_kernels()


def plan_overhead_single_thread(mechanisms: "Sequence[Tuple[str, str, Optional[int]]]",
                                pairs: Sequence[BenchmarkPair],
                                config: CoreConfig,
                                scale: ExperimentScale) -> List[CaseSpec]:
    """Enumerate the cases behind a single-thread overhead figure.

    The order is the contract between :func:`plan_overhead_single_thread` and
    :func:`assemble_overhead_single_thread`: one baseline per pair first, then
    one block of pairs per mechanism series.
    """
    specs = [CaseSpec("single", pair, config, "baseline", scale,
                      label="baseline") for pair in pairs]
    for label, preset, interval in mechanisms:
        specs.extend(CaseSpec("single", pair, config, preset, scale,
                              switch_interval=interval, label=label)
                     for pair in pairs)
    return specs


def assemble_overhead_single_thread(name: str, description: str,
                                    mechanisms: "Sequence[Tuple[str, str, Optional[int]]]",
                                    pairs: Sequence[BenchmarkPair],
                                    results: Sequence[RunResult]):
    """Build the overhead figure from results ordered as the plan emits them."""
    from ..analysis.figures import FigureSeries

    figure = FigureSeries(name=name, description=description,
                          categories=[pair.case for pair in pairs])
    baselines: Dict[str, RunResult] = {
        pair.case: result for pair, result in zip(pairs, results[:len(pairs)])}
    position = len(pairs)
    for label, _preset, _interval in mechanisms:
        values = []
        for pair in pairs:
            result = results[position]
            position += 1
            values.append(result.overhead_vs(baselines[pair.case],
                                             workload=pair.target))
        figure.add_series(label, values)
    return figure, baselines


def overhead_figure_single_thread(name: str, description: str,
                                  mechanisms: "List[Tuple[str, str, Optional[int]]]",
                                  pairs: List[BenchmarkPair],
                                  config: Optional[CoreConfig] = None,
                                  scale: Optional[ExperimentScale] = None,
                                  *, executor: SweepExecutor):
    """Build a per-case overhead figure on the single-threaded core.

    All cases — the per-pair baselines and every mechanism series — are
    planned by :func:`plan_overhead_single_thread`, submitted to a
    :class:`repro.experiments.executor.SweepExecutor` in one batch (so they
    deduplicate against each other and against previously cached runs, and
    fan out over worker processes when ``REPRO_JOBS > 1``), then assembled by
    :func:`assemble_overhead_single_thread`.

    Args:
        name: figure name.
        description: figure description.
        mechanisms: list of ``(series label, preset, switch_interval)``; the
            interval is in real cycles (``None`` keeps the default).
        pairs: benchmark pairs (x-axis categories).
        config: core configuration; the FPGA prototype by default.
        scale: experiment scale.
        executor: sweep executor.

    Returns:
        A tuple ``(figure, baselines)`` where ``figure`` is the populated
        :class:`repro.analysis.figures.FigureSeries` of overheads versus the
        per-case baseline and ``baselines`` maps case name to its baseline
        :class:`repro.cpu.stats.RunResult`.
    """
    scale = scale or default_scale()
    config = config or fpga_prototype()
    specs = plan_overhead_single_thread(mechanisms, pairs, config, scale)
    results = executor.run_specs(specs)
    return assemble_overhead_single_thread(name, description, mechanisms,
                                           pairs, results)


def plan_overhead_smt(mechanisms: "Sequence[Tuple[str, str]]",
                      pairs: Sequence[BenchmarkPair],
                      config: CoreConfig,
                      scale: ExperimentScale) -> List[CaseSpec]:
    """Enumerate the cases behind an SMT overhead figure (same order contract
    as :func:`plan_overhead_single_thread`)."""
    specs = [CaseSpec("smt", pair, config, "baseline", scale,
                      label="baseline") for pair in pairs]
    for label, preset in mechanisms:
        specs.extend(CaseSpec("smt", pair, config, preset, scale, label=label)
                     for pair in pairs)
    return specs


def assemble_overhead_smt(name: str, description: str,
                          mechanisms: "Sequence[Tuple[str, str]]",
                          pairs: Sequence[BenchmarkPair],
                          results: Sequence[RunResult]):
    """Build the SMT overhead figure from plan-ordered results."""
    from ..analysis.figures import FigureSeries

    figure = FigureSeries(name=name, description=description,
                          categories=[pair.case for pair in pairs])
    baselines: Dict[str, RunResult] = {
        pair.case: result for pair, result in zip(pairs, results[:len(pairs)])}
    position = len(pairs)
    for label, _preset in mechanisms:
        values = []
        for pair in pairs:
            result = results[position]
            position += 1
            values.append(result.overhead_vs(baselines[pair.case]))
        figure.add_series(label, values)
    return figure, baselines


def overhead_figure_smt(name: str, description: str,
                        mechanisms: "List[Tuple[str, str]]",
                        pairs: List[BenchmarkPair],
                        config: Optional[CoreConfig] = None,
                        scale: Optional[ExperimentScale] = None,
                        *, executor: SweepExecutor):
    """Build a per-case overhead figure on the SMT core.

    Args:
        name: figure name.
        description: figure description.
        mechanisms: list of ``(series label, preset)``.
        pairs: benchmark pairs or quads (must match the core's thread count).
        config: core configuration; the Sunny-Cove-like SMT-2 core by default.
        scale: experiment scale.
        executor: sweep executor.

    Returns:
        ``(figure, baselines)`` as for :func:`overhead_figure_single_thread`,
        with overheads computed on total elapsed cycles.
    """
    scale = scale or default_scale()
    config = config or sunny_cove_smt()
    specs = plan_overhead_smt(mechanisms, pairs, config, scale)
    results = executor.run_specs(specs)
    return assemble_overhead_smt(name, description, mechanisms, pairs, results)
