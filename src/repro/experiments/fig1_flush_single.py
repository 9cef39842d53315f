"""Figure 1: Complete-Flush overhead on the single-threaded core.

The paper flushes the whole predictor at every timer context switch and
sweeps the switch period (4 M / 8 M / 12 M cycles at 2 GHz).  The headline
observation is Observation 1: on a single-threaded core the loss is under 1%
on average, because each scheduling window is long enough to re-warm the
predictor.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cpu.config import fpga_prototype
from ..cpu.stats import RunResult
from ..workloads.pairs import SINGLE_THREAD_PAIRS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec
from .runner import (assemble_overhead_single_thread,
                     plan_overhead_single_thread)
from .scaling import ExperimentScale, default_scale

__all__ = ["plan", "assemble", "FLUSH_INTERVALS"]

#: Flush periods swept by the paper, in real cycles.
FLUSH_INTERVALS = {"flush-4M": 4_000_000, "flush-8M": 8_000_000,
                   "flush-12M": 12_000_000}


def _setup(scale, pairs):
    scale = scale or default_scale()
    pairs = list(pairs) if pairs is not None else list(SINGLE_THREAD_PAIRS)
    mechanisms: List = [(label, "complete_flush", interval)
                        for label, interval in FLUSH_INTERVALS.items()]
    return scale, pairs, mechanisms


def plan(scale: Optional[ExperimentScale] = None,
         pairs: Optional[Sequence[BenchmarkPair]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Figure 1 needs, in the order
    :func:`assemble` reads them."""
    scale, pairs, mechanisms = _setup(scale, pairs)
    return plan_overhead_single_thread(mechanisms, pairs, fpga_prototype(),
                                       scale)


def assemble(scale: ExperimentScale, results: Sequence[RunResult],
             pairs: Optional[Sequence[BenchmarkPair]] = None
             ) -> ExperimentResult:
    """Reproduce Figure 1 from the results of :func:`plan` (same knobs).

    Args:
        scale: experiment scale the plan was enumerated at.
        results: one result per planned case, in plan order.
        pairs: subset of the Table 3 single-thread pairs (all 12 by default).

    Returns:
        An :class:`repro.experiments.base.ExperimentResult` whose figure holds
        one overhead series per flush period.
    """
    scale, pairs, mechanisms = _setup(scale, pairs)
    figure = assemble_overhead_single_thread(
        "Figure 1", "Complete Flush overhead on a single-threaded core",
        mechanisms, pairs, results)
    averages = figure.averages()
    rows = [[label, f"{100 * value:+.2f}%"] for label, value in averages.items()]
    return ExperimentResult(
        name="Figure 1",
        description="Performance overhead of flushing the branch predictor on a "
                    "single-threaded core, by flush period",
        headers=["flush period", "average overhead"],
        rows=rows,
        figure=figure,
        paper_claim="average performance loss below 1%, shrinking as the flush "
                    "period grows from 4M to 12M cycles",
        notes="Scaled simulation (one simulated cycle = "
              f"{scale.time_scale:.0f} real cycles) inflates absolute "
              "percentages; the per-period ordering is the reproduced shape.")
