#!/usr/bin/env python3
"""SMT study: what does isolation cost on a simultaneous-multithreading core?

This example reproduces a slice of the paper's Figure 10 interactively: it
runs a few Table 3 SMT-2 pairs on the Sunny-Cove-like simulated core, under
three isolation mechanisms (Complete Flush, Precise Flush, Noisy-XOR-BP) and
two direction predictors, and prints the per-pair and average overheads.

It also demonstrates the SMT-4 extension experiment the paper only sketches
(Figure 2 evaluates SMT-4 for Complete Flush alone).

Run:  python examples/smt_predictor_study.py
"""

from repro.analysis import percent, render_table
from repro.cpu import sunny_cove_smt
from repro.experiments import SweepExecutor, quick_scale, run_smt_case
from repro.experiments.sensitivity import smt4_noisy_xor
from repro.workloads import get_pair

#: SMT-2 cases to include (a subset keeps the example fast; all twelve cases
#: run in the full Figure 10 driver: ``python -m repro run figure10``).
CASES = ("case1", "case5", "case8", "case11")
PREDICTORS = ("gshare", "tage_sc_l")
MECHANISMS = ("complete_flush", "precise_flush", "noisy_xor_bp")


def smt2_study() -> None:
    """Per-pair overhead of each mechanism on the SMT-2 core."""
    scale = quick_scale()
    for predictor in PREDICTORS:
        config = sunny_cove_smt(predictor, smt_threads=2)
        rows = []
        sums = {mechanism: 0.0 for mechanism in MECHANISMS}
        for case in CASES:
            pair = get_pair(case, "smt2")
            baseline = run_smt_case(pair, config, "baseline", scale)
            row = [case, f"{baseline.mpki:.2f}"]
            for mechanism in MECHANISMS:
                result = run_smt_case(pair, config, mechanism, scale)
                overhead = result.overhead_vs(baseline)
                sums[mechanism] += overhead
                row.append(percent(overhead))
            rows.append(row)
        rows.append(["average", ""] + [percent(sums[m] / len(CASES)) for m in MECHANISMS])
        print(render_table(
            ["case", "baseline MPKI"] + list(MECHANISMS), rows,
            title=f"SMT-2 isolation overhead with the {predictor} predictor"))
        print()


def smt4_study() -> None:
    """The SMT-4 extension: Noisy-XOR-BP vs the flush mechanisms."""
    # The sweep executor deduplicates the cases, fans them out over
    # REPRO_JOBS workers and reuses REPRO_STORE_DIR results when set.
    result = smt4_noisy_xor(quick_scale(), max_quads=2,
                            executor=SweepExecutor())
    print(result.render())


def main() -> None:
    print("== Figure 10 slice: SMT-2 isolation overhead ==")
    smt2_study()
    print("== Extension: SMT-4 comparison ==")
    smt4_study()


if __name__ == "__main__":
    main()
