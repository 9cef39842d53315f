"""Figure 7: XOR-BTB and Noisy-XOR-BTB overhead on the single-threaded core.

Only the BTB is protected; the direction predictor is untouched.  The paper
reports an average loss below 0.2%, a worst case of about 1% for case6
(gobmk+libquantum, which keeps 500–800 useful residual BTB entries across
switches), and a small *speed-up* for case2 (milc+povray) because losing BTB
state makes the front end fall through, overriding some wrong taken
predictions.
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

__all__ = ["plan", "assemble", "setup_interval_sweep", "SWITCH_INTERVALS"]

#: Context-switch periods swept by the paper, in real cycles.
SWITCH_INTERVALS = {"4M": 4_000_000, "8M": 8_000_000, "12M": 12_000_000}


def setup_interval_sweep(scale, pairs, intervals, prefix_presets):
    """Shared plan/assemble setup for the Figure 7/8/9 interval-sweep drivers.

    Resolves the scale/pair/interval defaults and expands ``prefix_presets``
    (``(series-label prefix, preset)`` pairs) into the ``(label, preset,
    switch_interval)`` mechanism tuples the overhead-figure helpers expect,
    one per swept interval.  Figures 8 and 9 import this: the three drivers
    differ only in their preset pairs.
    """
    scale = scale or default_scale()
    pairs = list(pairs) if pairs is not None else list(SINGLE_THREAD_PAIRS)
    labels = list(intervals) if intervals is not None else list(SWITCH_INTERVALS)
    mechanisms: List = []
    for label in labels:
        cycles = SWITCH_INTERVALS[label]
        for prefix, preset in prefix_presets:
            mechanisms.append((f"{prefix}-{label}", preset, cycles))
    return scale, pairs, mechanisms


_PRESETS = [("XOR-BTB", "xor_btb"), ("Noisy-XOR-BTB", "noisy_xor_btb")]


def plan(scale: Optional[ExperimentScale] = None,
         pairs: Optional[Sequence[BenchmarkPair]] = None,
         intervals: Optional[Sequence[str]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Figure 7 needs, in the order
    :func:`assemble` reads them."""
    scale, pairs, mechanisms = setup_interval_sweep(scale, pairs, intervals, _PRESETS)
    return plan_overhead_single_thread(mechanisms, pairs, fpga_prototype(),
                                       scale)


def assemble(scale: ExperimentScale, results: Sequence[RunResult],
             pairs: Optional[Sequence[BenchmarkPair]] = None,
             intervals: Optional[Sequence[str]] = None) -> ExperimentResult:
    """Reproduce Figure 7 from the results of :func:`plan` (same knobs).

    Args:
        scale: experiment scale the plan was enumerated at.
        results: one result per planned case, in plan order.
        pairs: subset of the single-thread pairs (all 12 by default).
        intervals: subset of the switch-period labels (``"4M"``, ``"8M"``,
            ``"12M"``); all three by default.
    """
    _scale, pairs, mechanisms = setup_interval_sweep(scale, pairs, intervals,
                                                     _PRESETS)
    figure = assemble_overhead_single_thread(
        "Figure 7", "XOR-BTB / Noisy-XOR-BTB overhead on the single-threaded core",
        mechanisms, pairs, results)
    rows = [[label, f"{100 * value:+.2f}%"] for label, value in figure.averages().items()]
    return ExperimentResult(
        name="Figure 7",
        description="Performance overhead of XOR-BTB and Noisy-XOR-BTB",
        headers=["configuration", "average overhead"],
        rows=rows,
        figure=figure,
        paper_claim="average loss below 0.2%; worst case about 1% (case6); "
                    "index randomisation adds no extra loss; case2 can speed up",
        notes="Scaled simulation inflates absolute percentages; the per-case "
              "ordering (case6 worst, case2 smallest/negative) and the "
              "XOR-vs-Noisy equivalence are the reproduced shapes.")
