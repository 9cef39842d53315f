"""Table 4: privilege switches per million cycles (Noisy-XOR-BP-12M runs).

The paper counts privilege transitions while running each single-thread pair
under Noisy-XOR-BP with a 12 M-cycle timer period, and observes that they are
one to two orders of magnitude more frequent than context switches (0.08 per
million cycles) — which is why the XOR-BP overhead barely depends on the
timer setting.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..cpu.config import fpga_prototype
from ..workloads.pairs import SINGLE_THREAD_PAIRS, BenchmarkPair
from .base import ExperimentResult
from .executor import CaseSpec, SweepExecutor
from .scaling import ExperimentScale, default_scale

__all__ = ["run", "plan", "PAPER_PRIVILEGE_SWITCH_RATES"]

#: The paper's Table 4: privilege switches per million cycles per case.
PAPER_PRIVILEGE_SWITCH_RATES = {
    "case1": 4.9, "case2": 7.0, "case3": 1.9, "case4": 2.0,
    "case5": 1.7, "case6": 1.6, "case7": 1.7, "case8": 2.0,
    "case9": 1.8, "case10": 2.7, "case11": 3.5, "case12": 1.9,
}


def _setup(scale, pairs):
    scale = scale or default_scale()
    pairs = list(pairs) if pairs is not None else list(SINGLE_THREAD_PAIRS)
    return scale, pairs


def plan(scale: Optional[ExperimentScale] = None,
         pairs: Optional[Sequence[BenchmarkPair]] = None) -> List[CaseSpec]:
    """Enumerate every simulation case Table 4 needs (same knobs as ``run``)."""
    scale, pairs = _setup(scale, pairs)
    config = fpga_prototype()
    return [CaseSpec("single", pair, config, "noisy_xor_bp", scale,
                     switch_interval=12_000_000, label="noisy_xor_bp-12M")
            for pair in pairs]


def run(scale: Optional[ExperimentScale] = None,
        pairs: Optional[Sequence[BenchmarkPair]] = None,
        *, executor: SweepExecutor) -> ExperimentResult:
    """Reproduce Table 4.

    Args:
        scale: experiment scale.
        pairs: subset of the single-thread pairs (all 12 by default).
        executor: sweep executor.
    """
    scale, pairs = _setup(scale, pairs)
    results = executor.run_specs(plan(scale, pairs))
    rows = []
    for pair, result in zip(pairs, results):
        # The syscall schedule is scaled by ``syscall_time_scale``; convert the
        # measured count back to a per-million-*real*-cycle rate.
        rate = 1e6 * result.privilege_switches \
            / (result.cycles * scale.syscall_time_scale)
        context_rate = 1e6 * result.context_switches \
            / (result.cycles * scale.time_scale)
        rows.append([pair.case, pair.label(), f"{rate:.1f}",
                     PAPER_PRIVILEGE_SWITCH_RATES.get(pair.case, float("nan")),
                     f"{context_rate:.2f}"])
    return ExperimentResult(
        name="Table 4",
        description="Privilege switches per million cycles under Noisy-XOR-BP-12M",
        headers=["case", "pair", "measured privilege switches / M cycles",
                 "paper", "measured context switches / M cycles"],
        rows=rows,
        paper_claim="1.6 to 7.0 privilege switches per million cycles — far more "
                    "than the 0.08 context switches per million cycles",
        notes="Rates are converted back to real-cycle terms using the "
              "experiment's time scales.")
