"""Figure 3: Complete Flush versus Precise Flush on the SMT-2 core.

Observation 3: tagging every entry with a thread ID and flushing only the
switching thread's entries reduces — but does not eliminate — the SMT flush
cost, at the price of extra storage and control logic, and still does not
protect against contention-based attacks.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cpu.config import sunny_cove_smt
from ..workloads.pairs import SMT2_PAIRS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec, SweepExecutor
from .runner import overhead_figure_smt, plan_overhead_smt
from .scaling import ExperimentScale, default_scale

__all__ = ["run", "plan"]

_MECHANISMS = [("Complete Flush", "complete_flush"),
               ("Precise Flush", "precise_flush")]


def _setup(scale, predictor, pairs):
    scale = scale or default_scale()
    pairs = list(pairs) if pairs is not None else list(SMT2_PAIRS)
    return scale, sunny_cove_smt(predictor, 2), pairs


def plan(scale: Optional[ExperimentScale] = None, predictor: str = "tournament",
         pairs: Optional[Sequence[BenchmarkPair]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Figure 3 needs (same knobs as ``run``)."""
    scale, config, pairs = _setup(scale, predictor, pairs)
    return plan_overhead_smt(_MECHANISMS, pairs, config, scale)


def run(scale: Optional[ExperimentScale] = None, predictor: str = "tournament",
        pairs: Optional[Sequence[BenchmarkPair]] = None,
        *, executor: SweepExecutor) -> ExperimentResult:
    """Reproduce Figure 3.

    Args:
        scale: experiment scale.
        predictor: direction predictor of the SMT core.
        pairs: subset of the SMT-2 pairs (all 12 by default).
        executor: sweep executor.
    """
    scale, config, pairs = _setup(scale, predictor, pairs)
    figure, _ = overhead_figure_smt(
        "Figure 3", "Complete Flush vs Precise Flush on the SMT-2 core",
        list(_MECHANISMS), pairs, config=config, scale=scale,
        executor=executor)
    rows = [[label, f"{100 * value:+.2f}%"] for label, value in figure.averages().items()]
    return ExperimentResult(
        name="Figure 3",
        description="Comparison between Complete Flush and Precise Flush on SMT-2 "
                    "(normalised to the unprotected baseline)",
        headers=["mechanism", "average overhead"],
        rows=rows,
        figure=figure,
        paper_claim="Precise Flush reduces the loss relative to Complete Flush "
                    "but it remains elevated",
        notes=f"Predictor: {predictor}.")
