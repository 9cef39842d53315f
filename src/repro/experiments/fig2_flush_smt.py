"""Figure 2: Complete-Flush overhead on SMT-2 and SMT-4 cores.

Observation 2: the flush cost grows sharply on an SMT core, because every
hardware thread's timer tick wipes the state of *all* co-running threads, and
grows further with the thread count.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.figures import FigureSeries
from ..analysis.metrics import arithmetic_mean
from ..cpu.config import sunny_cove_smt
from ..workloads.pairs import SMT2_PAIRS, SMT4_QUADS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec, SweepExecutor
from .scaling import ExperimentScale, default_scale

__all__ = ["run", "plan"]


def _group_specs(pairs: Sequence[BenchmarkPair], smt_threads: int,
                 predictor: str, scale: ExperimentScale) -> List[CaseSpec]:
    """Baseline + Complete-Flush specs for one SMT thread-count group."""
    config = sunny_cove_smt(predictor, smt_threads)
    specs: List[CaseSpec] = []
    for pair in pairs:
        specs.append(CaseSpec("smt", pair, config, "baseline", scale,
                              label="baseline"))
        specs.append(CaseSpec("smt", pair, config, "complete_flush", scale,
                              label="complete_flush"))
    return specs


def _setup(scale, smt2_pairs, smt4_quads):
    scale = scale or default_scale()
    smt2 = list(smt2_pairs) if smt2_pairs is not None else list(SMT2_PAIRS)
    smt4 = list(smt4_quads) if smt4_quads is not None else list(SMT4_QUADS)
    return scale, smt2, smt4


def plan(scale: Optional[ExperimentScale] = None, predictor: str = "tournament",
         smt2_pairs: Optional[Sequence[BenchmarkPair]] = None,
         smt4_quads: Optional[Sequence[BenchmarkPair]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Figure 2 needs (same knobs as ``run``)."""
    scale, smt2, smt4 = _setup(scale, smt2_pairs, smt4_quads)
    return (_group_specs(smt2, 2, predictor, scale)
            + _group_specs(smt4, 4, predictor, scale))


def _assemble_overheads(results: Sequence) -> tuple:
    """Per-pair overheads from (baseline, flushed) result pairs, plus mean."""
    overheads = [flushed.overhead_vs(baseline)
                 for baseline, flushed in zip(results[::2], results[1::2])]
    return overheads, arithmetic_mean(overheads)


def run(scale: Optional[ExperimentScale] = None, predictor: str = "tournament",
        smt2_pairs: Optional[Sequence[BenchmarkPair]] = None,
        smt4_quads: Optional[Sequence[BenchmarkPair]] = None,
        *, executor: SweepExecutor) -> ExperimentResult:
    """Reproduce Figure 2.

    Args:
        scale: experiment scale.
        predictor: direction predictor of the SMT core (the paper does not
            name the one used for this figure; the Tournament predictor keeps
            the run time moderate and the conclusion is predictor-independent).
        smt2_pairs: subset of the SMT-2 pairs (all 12 by default).
        smt4_quads: subset of the SMT-4 quads (all 6 by default).
        executor: sweep executor.
    """
    scale, smt2, smt4 = _setup(scale, smt2_pairs, smt4_quads)
    specs = plan(scale, predictor, smt2, smt4)
    results = executor.run_specs(specs)

    split = 2 * len(smt2)
    smt2_overheads, smt2_avg = _assemble_overheads(results[:split])
    smt4_overheads, smt4_avg = _assemble_overheads(results[split:])

    figure = FigureSeries(
        name="Figure 2",
        description="Complete Flush overhead on SMT cores",
        categories=["SMT-2", "SMT-4"])
    figure.add_series("Complete Flush", [smt2_avg, smt4_avg])

    rows = [["SMT-2", f"{100 * smt2_avg:+.2f}%", len(smt2)],
            ["SMT-4", f"{100 * smt4_avg:+.2f}%", len(smt4)]]
    per_case = [[pair.case, pair.label(), f"{100 * ov:+.2f}%"]
                for pair, ov in zip(smt2, smt2_overheads)]
    per_case += [[pair.case, pair.label(), f"{100 * ov:+.2f}%"]
                 for pair, ov in zip(smt4, smt4_overheads)]
    return ExperimentResult(
        name="Figure 2",
        description="Performance overhead of flushing branch history on an SMT core",
        headers=["core", "average overhead", "workload sets"],
        rows=rows + [["--- per case ---", "", ""]] + per_case,
        figure=figure,
        paper_claim="flush overhead grows markedly versus the single-threaded "
                    "core and increases again from SMT-2 to SMT-4 "
                    "(several percent up to ~13%)",
        notes=f"Predictor: {predictor}. SMT-4 sets are formed by merging "
              "consecutive SMT-2 pairs (the paper does not list its SMT-4 sets).")
