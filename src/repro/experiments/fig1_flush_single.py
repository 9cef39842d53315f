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
from ..workloads.pairs import SINGLE_THREAD_PAIRS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec, SweepExecutor
from .runner import overhead_figure_single_thread, plan_overhead_single_thread
from .scaling import ExperimentScale, default_scale

__all__ = ["run", "plan", "FLUSH_INTERVALS"]

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
    """Enumerate every simulation case Figure 1 needs (same knobs as ``run``)."""
    scale, pairs, mechanisms = _setup(scale, pairs)
    return plan_overhead_single_thread(mechanisms, pairs, fpga_prototype(),
                                       scale)


def run(scale: Optional[ExperimentScale] = None,
        pairs: Optional[Sequence[BenchmarkPair]] = None,
        *, executor: SweepExecutor) -> ExperimentResult:
    """Reproduce Figure 1.

    Args:
        scale: experiment scale (default honours ``REPRO_SCALE``).
        pairs: subset of the Table 3 single-thread pairs (all 12 by default).
        executor: sweep executor (the merge step of the sharded
            pipeline passes a replay-only executor).

    Returns:
        An :class:`repro.experiments.base.ExperimentResult` whose figure holds
        one overhead series per flush period.
    """
    scale, pairs, mechanisms = _setup(scale, pairs)
    figure, _ = overhead_figure_single_thread(
        "Figure 1", "Complete Flush overhead on a single-threaded core",
        mechanisms, pairs, config=fpga_prototype(), scale=scale,
        executor=executor)
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
