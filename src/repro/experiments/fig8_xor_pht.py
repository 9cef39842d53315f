"""Figure 8: XOR-PHT and Noisy-XOR-PHT overhead on the single-threaded core.

Only the direction predictor is protected (with word-basis Enhanced-XOR-PHT
content encoding); the BTB is untouched.  The paper reports an average loss
below 1.1%, decreasing with the context-switch period, with case1
(gcc+calculix — high static-branch ratios of 12.1% / 8.1%) the costliest and
case7 (gromacs+GemsFDTD, whose training scratches each other anyway) barely
affected.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cpu.config import fpga_prototype
from ..cpu.stats import RunResult
from ..workloads.pairs import SINGLE_THREAD_PAIRS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec
from .fig7_xor_btb import setup_interval_sweep
from .runner import (assemble_overhead_single_thread,
                     plan_overhead_single_thread)
from .scaling import ExperimentScale

__all__ = ["plan", "assemble"]

_PRESETS = [("XOR-PHT", "xor_pht"), ("Noisy-XOR-PHT", "noisy_xor_pht")]


def plan(scale: Optional[ExperimentScale] = None,
         pairs: Optional[Sequence[BenchmarkPair]] = None,
         intervals: Optional[Sequence[str]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Figure 8 needs, in the order
    :func:`assemble` reads them."""
    scale, pairs, mechanisms = setup_interval_sweep(scale, pairs, intervals, _PRESETS)
    return plan_overhead_single_thread(mechanisms, pairs, fpga_prototype(),
                                       scale)


def assemble(scale: ExperimentScale, results: Sequence[RunResult],
             pairs: Optional[Sequence[BenchmarkPair]] = None,
             intervals: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Reproduce Figure 8 from the results of :func:`plan` (same knobs
    as Figure 7)."""
    _scale, pairs, mechanisms = setup_interval_sweep(scale, pairs, intervals,
                                                     _PRESETS)
    figure = assemble_overhead_single_thread(
        "Figure 8", "XOR-PHT / Noisy-XOR-PHT overhead on the single-threaded core",
        mechanisms, pairs, results)
    rows = [[label, f"{100 * value:+.2f}%"] for label, value in figure.averages().items()]
    return ExperimentResult(
        name="Figure 8",
        description="Performance overhead of XOR-PHT and Noisy-XOR-PHT",
        headers=["configuration", "average overhead"],
        rows=rows,
        figure=figure,
        paper_claim="average overhead below 1.1%, decreasing with longer switch "
                    "intervals; case1 (gcc+calculix) is the costliest case",
        notes="Scaled simulation inflates absolute percentages; the per-case "
              "ordering (case1 worst) and the interval trend are the "
              "reproduced shapes.")
