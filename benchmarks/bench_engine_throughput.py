"""Engine throughput benchmark: branches per second across engines/presets.

Two measurement groups, both on the default single-thread case (Table 3
case1, gcc+calculix, FPGA-prototype core):

* **Engine comparison** (TAGE, baseline preset) under three configurations:

  - ``seed_scalar`` — the per-record reference loop with the storage-layer
    fast paths disabled, i.e. every table access goes through the
    ``TableIsolation`` virtual dispatch exactly as in the seed engine;
  - ``scalar`` — the same per-record loop with this repo's storage fast
    paths active (what ``engine="scalar"`` runs today);
  - ``batched`` — the chunked-trace fast engine (the default).

* **Preset sweep** (batched engine): presets × predictors, so the perf
  trajectory tracks the paper's encoded mechanisms — which ride the fused
  XOR fast paths — and not just the baseline.

* **Backend sweep** (batched engine, larger budget): the ``python``
  reference backend versus the ``numpy`` vectorized backend on the TAGE
  presets the numpy window kernels target.  Skipped (and recorded as
  unavailable) when numpy is not importable.

Every swept configuration is asserted to actually run on its intended fast
path (monomorphic passthrough or fused-XOR), and every numpy arm is
asserted to really receive the vectorized window kernels; a silent
fallback to the generic dispatch or the reference backend fails the
benchmark rather than quietly reporting wrong numbers.

Writes ``BENCH_engine.json`` at the repository root.  Run with::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

CI runs the reduced-scale smoke mode, which measures one preset on one
direction predictor and verifies the fast path without touching
``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --smoke --preset noisy_xor_bp --backend numpy
    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --smoke --preset baseline --predictor tage_sc_l
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.registry import resolve_preset  # noqa: E402
from repro.cpu.config import fpga_prototype  # noqa: E402
from repro.cpu.core import SingleThreadCore  # noqa: E402
from repro.experiments.executor import ENGINE_VERSION  # noqa: E402
from repro.experiments.runner import build_bpu  # noqa: E402
from repro.experiments.scaling import ExperimentScale  # noqa: E402
from repro.workloads.pairs import SINGLE_THREAD_PAIRS, make_pair_workloads  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OUTPUT = os.path.join(REPO_ROOT, "BENCH_engine.json")

PAIR = SINGLE_THREAD_PAIRS[0]
SCALE = ExperimentScale()
REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))

#: Preset sweep: baseline (passthrough fast path), the paper's headline
#: full-BP XOR mechanisms (fused-XOR fast path on every structure) and the
#: BTB-heavy presets (fused-XOR packed BTB, passthrough direction tables).
SWEEP_PRESETS = ("baseline", "xor_bp", "noisy_xor_bp", "xor_btb",
                 "noisy_xor_btb")
SWEEP_PREDICTORS = ("tage", "gshare")

#: Direction predictors with a generated ``exec_kernel`` (``--predictor``);
#: the numpy backend vectorizes only the first two.
KERNEL_PREDICTORS = ("tage", "gshare", "tournament", "ltage", "tage_sc_l",
                     "bimodal")
NUMPY_PREDICTORS = ("tage", "gshare")

#: Backend sweep: the presets whose hot loop the numpy window kernels
#: target (TAGE table walk, passthrough and fused-XOR arms).  Measured at
#: a larger branch budget than the other groups — the backend gap is a few
#: tens of percent, which the default budget cannot resolve reliably.
BACKEND_PRESETS = ("baseline", "xor_bp", "noisy_xor_bp")
BACKEND_SCALE = ExperimentScale(st_target_branches=60_000,
                                st_warmup_branches=5_000)

try:
    import numpy  # noqa: F401
    _HAS_NUMPY = True
except ImportError:
    _HAS_NUMPY = False


def _build_core(preset: str = "baseline", predictor: str = "tage",
                scale: ExperimentScale = SCALE,
                backend: str = "python") -> SingleThreadCore:
    config = fpga_prototype(predictor)
    workloads = make_pair_workloads(PAIR, seed=scale.seed)
    bpu = build_bpu(config, preset, seed=scale.seed + 1)
    return SingleThreadCore(config, bpu, workloads,
                            time_scale=scale.time_scale,
                            syscall_time_scale=scale.syscall_time_scale,
                            backend=backend)


def _disable_fast_paths(core: SingleThreadCore) -> None:
    """Force every storage access through the isolation virtual dispatch.

    This reverts the monomorphic fast paths added on top of the seed engine,
    so the scalar loop measured afterwards is a faithful stand-in for the
    seed per-record engine (slightly optimistic: it still benefits from
    ``slots`` dataclasses, which makes the reported speedup conservative).
    """
    core.bpu.force_generic_dispatch()


#: Storage flag that must be set for each expected arm.
_ARM_FLAGS = {"passthrough": "_fast", "fused-xor": "_xor_fast",
              "owner": "_owner_fast"}


def _expected_arm(mechanism: str) -> str:
    if mechanism in ("xor", "noisy_xor"):
        return "fused-xor"
    if mechanism == "precise_flush":
        return "owner"
    return "passthrough"


def assert_fast_path(core: SingleThreadCore, preset: str) -> None:
    """Fail loudly unless the intended monomorphic fast paths are active.

    Expectations are derived per structure from the preset's protection
    config: an XOR-mechanism structure must ride the fused-XOR fast path,
    a Precise Flush one the owner arm, anything else the passthrough one.
    On top of the storage flags, the packed-BTB probe kernel and the
    direction predictor's execute kernel must report the matching
    specialisation arm.  Guards the benchmark and the CI smoke step
    against silent fallbacks to the generic dispatch.
    """
    bpu = core.bpu
    config = resolve_preset(preset)
    want_pht = _expected_arm(config.pht_mechanism)
    want_btb = _expected_arm(config.btb_mechanism)
    for table in bpu.direction.tables():
        if not getattr(table, _ARM_FLAGS[want_pht]):
            raise AssertionError(
                f"{preset}: table {table.name!r} is not on the "
                f"{want_pht} fast path")
    if not getattr(bpu.btb, _ARM_FLAGS[want_btb]):
        raise AssertionError(f"{preset}: BTB is not on the fast path")
    btb_arm = bpu.btb.exec_conditional_kernel(0).arm
    if btb_arm != want_btb:
        raise AssertionError(
            f"{preset}: packed-BTB probe kernel runs the {btb_arm!r} arm, "
            f"expected {want_btb!r}")
    exec_kernel = getattr(bpu.direction, "exec_kernel", None)
    if exec_kernel is not None:
        dir_arm = getattr(exec_kernel(0), "arm", None)
        if dir_arm != want_pht:
            raise AssertionError(
                f"{preset}: {bpu.direction.name} kernel runs the "
                f"{dir_arm!r} arm, expected {want_pht!r}")
    build_masks = getattr(bpu.direction, "_build_kernel_masks", None)
    if build_masks is not None:
        bundle = build_masks(0)
        if bundle is False:
            raise AssertionError(
                f"{preset}: TAGE kernel fell back to generic dispatch")
        if bundle[0] != want_pht:
            raise AssertionError(
                f"{preset}: TAGE kernel compiled the {bundle[0]!r} arm, "
                f"expected {want_pht!r}")


def assert_backend_kernels(core: SingleThreadCore, preset: str,
                           backend: str) -> None:
    """Fail loudly unless the numpy backend hands out vectorized kernels.

    The numpy arms are only a benchmark of the vectorized window kernels
    if those kernels really reach the engine: each one must report
    ``backend == "numpy"`` while preserving the reference kernel's
    dispatch arm.
    """
    if backend != "numpy":
        return
    bpu = core.bpu
    if bpu.direction.name not in NUMPY_PREDICTORS:
        raise AssertionError(
            f"the numpy backend has no window kernel for "
            f"{bpu.direction.name}")
    base = bpu.direction.exec_kernel(0)
    kernel = core.backend.direction_kernel_fetch(bpu.direction)(0)
    if getattr(kernel, "backend", None) != "numpy":
        raise AssertionError(
            f"{preset}: {bpu.direction.name} fell back to the reference "
            f"kernel under the numpy backend")
    if kernel.arm != base.arm:
        raise AssertionError(
            f"{preset}: numpy {bpu.direction.name} kernel runs the "
            f"{kernel.arm!r} arm, reference runs {base.arm!r}")
    probe = core.backend.conditional_kernel_fetch(bpu.btb)(0)
    if getattr(probe, "backend", None) != "numpy":
        raise AssertionError(
            f"{preset}: BTB probe fell back to the reference kernel "
            f"under the numpy backend")


def _measure(engine: str, *, preset: str = "baseline", predictor: str = "tage",
             seed_equivalent: bool = False, repeats: int = REPEATS,
             scale: ExperimentScale = SCALE, check_fast_path: bool = False,
             backend: str = "python") -> dict:
    best = 0.0
    branches = 0
    for _ in range(repeats):
        core = _build_core(preset, predictor, scale, backend)
        if seed_equivalent:
            _disable_fast_paths(core)
        elif check_fast_path:
            assert_fast_path(core, preset)
            assert_backend_kernels(core, preset, backend)
        start = time.perf_counter()
        result = core.run(target_branches=scale.st_target_branches,
                          warmup_branches=scale.st_warmup_branches,
                          engine=engine)
        elapsed = time.perf_counter() - start
        branches = sum(t.branches for t in result.threads.values())
        best = max(best, branches / elapsed)
        if check_fast_path and not seed_equivalent:
            # Re-check after the run: switches re-randomise masks mid-run
            # and must land back on the fast path, not the generic one.
            assert_fast_path(core, preset)
            assert_backend_kernels(core, preset, backend)
    return {"branches_per_second": round(best, 1),
            "branches_simulated": branches}


def run_smoke(preset: str, repeats: int, backend: str,
              predictor: str = "tage") -> None:
    """Reduced-scale CI smoke: measure one preset, verify its fast path."""
    scale = ExperimentScale(st_target_branches=4_000, st_warmup_branches=1_000)
    entry = _measure("batched", preset=preset, predictor=predictor,
                     repeats=repeats, scale=scale, check_fast_path=True,
                     backend=backend)
    print(f"smoke {predictor}/{preset} ({backend} backend): "
          f"{entry['branches_per_second']:,.0f} branches/s "
          f"({entry['branches_simulated']} branches), fast path verified")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale fast-path smoke (no JSON output)")
    parser.add_argument("--preset", default="noisy_xor_bp",
                        help="preset used by --smoke (default: noisy_xor_bp)")
    parser.add_argument("--backend", default="python",
                        help="execution backend used by --smoke "
                             "(default: python)")
    parser.add_argument("--predictor", default="tage",
                        choices=KERNEL_PREDICTORS,
                        help="direction predictor used by --smoke "
                             "(default: tage)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)

    if args.smoke:
        run_smoke(args.preset, args.repeats, args.backend, args.predictor)
        return {}

    print(f"case={PAIR.case} ({PAIR.label()}), config=fpga_prototype, "
          f"engine={ENGINE_VERSION}, repeats={args.repeats}")
    engines = {}
    for label, engine, seed_equivalent in (
            ("seed_scalar", "scalar", True),
            ("scalar", "scalar", False),
            ("batched", "batched", False)):
        engines[label] = _measure(engine, seed_equivalent=seed_equivalent,
                                  repeats=args.repeats,
                                  check_fast_path=not seed_equivalent)
        print(f"  {label:12s} {engines[label]['branches_per_second']:>12,.0f} "
              "branches/s")

    presets = {}
    for predictor in SWEEP_PREDICTORS:
        presets[predictor] = {}
        for preset in SWEEP_PRESETS:
            entry = _measure("batched", preset=preset, predictor=predictor,
                             repeats=args.repeats, check_fast_path=True)
            presets[predictor][preset] = entry
            print(f"  {predictor:7s}/{preset:12s} "
                  f"{entry['branches_per_second']:>12,.0f} branches/s")

    backends = {}
    if _HAS_NUMPY:
        for preset in BACKEND_PRESETS:
            row = {}
            for backend in ("python", "numpy"):
                row[backend] = _measure(
                    "batched", preset=preset, repeats=args.repeats,
                    scale=BACKEND_SCALE, check_fast_path=True,
                    backend=backend)
            row["speedup_numpy_vs_python"] = round(
                row["numpy"]["branches_per_second"]
                / row["python"]["branches_per_second"], 2)
            backends[preset] = row
            print(f"  tage/{preset:12s} numpy "
                  f"{row['speedup_numpy_vs_python']:.2f}x vs python "
                  f"({row['numpy']['branches_per_second']:,.0f} vs "
                  f"{row['python']['branches_per_second']:,.0f} branches/s)")
    else:
        print("  numpy unavailable; backend sweep skipped")

    batched = engines["batched"]["branches_per_second"]
    payload = {
        "benchmark": "engine_throughput",
        "engine_version": ENGINE_VERSION,
        "case": PAIR.case,
        "pair": PAIR.label(),
        "preset": "baseline",
        "config": "fpga_prototype",
        "target_branches": SCALE.st_target_branches,
        "warmup_branches": SCALE.st_warmup_branches,
        "engines": engines,
        "presets": presets,
        "backends": backends if _HAS_NUMPY else "numpy unavailable",
        "backend_target_branches": BACKEND_SCALE.st_target_branches,
        "speedup_batched_vs_seed_scalar": round(
            batched / engines["seed_scalar"]["branches_per_second"], 2),
        "speedup_batched_vs_scalar": round(
            batched / engines["scalar"]["branches_per_second"], 2),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"speedup vs seed scalar loop: "
          f"{payload['speedup_batched_vs_seed_scalar']}x")
    print(f"wrote {OUTPUT}")
    return payload


if __name__ == "__main__":
    main()
