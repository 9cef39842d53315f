"""Figure 9: combined XOR-BP / Noisy-XOR-BP overhead on the single-threaded core.

Both the BTB and the direction predictor are protected.  The paper reports an
average loss below 1.3% with a worst case around 2.5% (case1), notes that the
impact is largely the sum of the BTB-only and PHT-only overheads, and that it
barely depends on the timer period because privilege switches (Table 4)
dominate the key regenerations.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..analysis.metrics import arithmetic_mean
from ..cpu.config import fpga_prototype
from ..workloads.pairs import SINGLE_THREAD_PAIRS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec, SweepExecutor
from .fig7_xor_btb import setup_interval_sweep
from .runner import overhead_figure_single_thread, plan_overhead_single_thread
from .scaling import ExperimentScale

__all__ = ["run", "plan"]

_PRESETS = [("XOR-BP", "xor_bp"), ("Noisy-XOR-BP", "noisy_xor_bp")]


def plan(scale: Optional[ExperimentScale] = None,
         pairs: Optional[Sequence[BenchmarkPair]] = None,
         intervals: Optional[Sequence[str]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Figure 9 needs (same knobs as ``run``)."""
    scale, pairs, mechanisms = setup_interval_sweep(scale, pairs, intervals, _PRESETS)
    return plan_overhead_single_thread(mechanisms, pairs, fpga_prototype(),
                                       scale)


def run(scale: Optional[ExperimentScale] = None,
        pairs: Optional[Sequence[BenchmarkPair]] = None,
        intervals: Optional[Sequence[str]] = None,
        *, executor: SweepExecutor) -> ExperimentResult:
    """Reproduce Figure 9 (same knobs as Figures 7 and 8)."""
    scale, pairs, mechanisms = setup_interval_sweep(scale, pairs, intervals, _PRESETS)
    figure, _ = overhead_figure_single_thread(
        "Figure 9", "XOR-BP / Noisy-XOR-BP overhead on the single-threaded core",
        mechanisms, pairs, config=fpga_prototype(), scale=scale,
        executor=executor)
    rows = [[label, f"{100 * value:+.2f}%"] for label, value in figure.averages().items()]
    overall = arithmetic_mean(list(figure.averages().values()))
    rows.append(["overall average", f"{100 * overall:+.2f}%"])
    return ExperimentResult(
        name="Figure 9",
        description="Performance overhead of the combined XOR-BP and Noisy-XOR-BP",
        headers=["configuration", "average overhead"],
        rows=rows,
        figure=figure,
        paper_claim="average loss below 1.3%; worst case about 2.5% (case1); "
                    "little sensitivity to the timer period because privilege "
                    "switches dominate key regeneration",
        notes="Scaled simulation inflates absolute percentages; per-case "
              "ordering, near-additivity of the BTB and PHT costs and the "
              "weak dependence on the timer period are the reproduced shapes.")
