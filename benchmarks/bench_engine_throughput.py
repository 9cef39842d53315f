"""Fast-path smoke for the batched single-thread engine.

Runs a reduced-scale batched simulation of the default single-thread case
(Table 3 case1, gcc+calculix, FPGA-prototype core) for one preset on one
direction predictor, and fails unless every structure runs on its intended
fast path: every structure's storage ``arm`` (passthrough, fused-XOR or
owner) and the specialisation arm of every generated kernel are asserted
before and after the run.  A silent fallback to the generic
``TableIsolation`` dispatch fails the script rather than quietly passing.
CI runs it once per storage and kernel arm::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --smoke --preset noisy_xor_bp
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --smoke --preset baseline --predictor tage_sc_l

The branches/s it prints is indicative only; end-to-end performance is
measured by ``perfbench/``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.registry import resolve_preset  # noqa: E402
from repro.cpu.config import fpga_prototype  # noqa: E402
from repro.cpu.core import SingleThreadCore  # noqa: E402
from repro.experiments.runner import build_bpu  # noqa: E402
from repro.experiments.scaling import ExperimentScale  # noqa: E402
from repro.workloads.pairs import SINGLE_THREAD_PAIRS, make_pair_workloads  # noqa: E402

PAIR = SINGLE_THREAD_PAIRS[0]
SCALE = ExperimentScale(st_target_branches=4_000, st_warmup_branches=1_000)
REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))

#: Direction predictors with a generated ``exec_kernel`` (``--predictor``).
KERNEL_PREDICTORS = ("tage", "gshare", "tournament", "ltage", "tage_sc_l",
                     "bimodal")


def _build_core(preset: str, predictor: str) -> SingleThreadCore:
    config = fpga_prototype(predictor)
    workloads = make_pair_workloads(PAIR, seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    return SingleThreadCore(config, bpu, workloads,
                            time_scale=SCALE.time_scale,
                            syscall_time_scale=SCALE.syscall_time_scale)


def _expected_arm(mechanism: str) -> str:
    if mechanism in ("xor", "noisy_xor"):
        return "fused-xor"
    if mechanism == "precise_flush":
        return "owner"
    return "passthrough"


def assert_fast_path(core: SingleThreadCore, preset: str) -> None:
    """Fail loudly unless the intended monomorphic storage arms are active.

    Expectations are derived per structure from the preset's protection
    config: an XOR-mechanism structure must ride the fused-XOR arm, a
    Precise Flush one the owner arm, anything else the passthrough one.
    On top of every structure's storage ``arm``, the packed-BTB probe
    kernel and the direction predictor's execute kernel must report the
    matching specialisation arm.  Guards the benchmark and the CI smoke
    step against silent fallbacks to the generic dispatch.
    """
    bpu = core.bpu
    config = resolve_preset(preset)
    want_pht = _expected_arm(config.pht_mechanism)
    want_btb = _expected_arm(config.btb_mechanism)
    for table in bpu.direction.tables():
        if table.arm != want_pht:
            raise AssertionError(
                f"{preset}: table {table.name!r} is on the {table.arm!r} "
                f"arm, expected {want_pht!r}")
    if bpu.btb.arm != want_btb:
        raise AssertionError(
            f"{preset}: BTB is on the {bpu.btb.arm!r} arm, "
            f"expected {want_btb!r}")
    btb_arm = bpu.btb.exec_conditional_kernel(0).arm
    if btb_arm != want_btb:
        raise AssertionError(
            f"{preset}: packed-BTB probe kernel runs the {btb_arm!r} arm, "
            f"expected {want_btb!r}")
    dir_arm = getattr(bpu.direction.exec_kernel(0), "arm", None)
    if dir_arm != want_pht:
        raise AssertionError(
            f"{preset}: {bpu.direction.name} kernel runs the "
            f"{dir_arm!r} arm, expected {want_pht!r}")


def run_smoke(preset: str, repeats: int, predictor: str = "tage") -> None:
    """Measure one preset at reduced scale, verifying its fast path."""
    best = 0.0
    branches = 0
    for _ in range(repeats):
        core = _build_core(preset, predictor)
        assert_fast_path(core, preset)
        start = time.perf_counter()
        result = core.run(target_branches=SCALE.st_target_branches,
                          warmup_branches=SCALE.st_warmup_branches)
        elapsed = time.perf_counter() - start
        # Re-check after the run: switches re-randomise masks mid-run and
        # must land back on the fast path, not the generic one.
        assert_fast_path(core, preset)
        branches = sum(t.branches for t in result.threads.values())
        best = max(best, branches / elapsed)
    print(f"smoke {predictor}/{preset}: {best:,.0f} branches/s "
          f"({branches} branches), fast path verified")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", required=True,
                        help="reduced-scale fast-path smoke (the only mode)")
    parser.add_argument("--preset", default="noisy_xor_bp",
                        help="preset to run (default: noisy_xor_bp)")
    parser.add_argument("--predictor", default="tage",
                        choices=KERNEL_PREDICTORS,
                        help="direction predictor (default: tage)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)
    run_smoke(args.preset, args.repeats, args.predictor)


if __name__ == "__main__":
    main()
