"""A finished case's branch prediction unit dies by reference counting.

Generated kernels bind the structure that caches them, and isolation
policies are shared by every structure they protect; unless those links
are broken, each case leaves its whole BPU (TAGE tables included) as cyclic
garbage that only a full collection reclaims.  With the cyclic collector
disabled, every predictor, BTB and isolation policy of a case must be gone
the moment the case returns.
"""

import gc
import weakref

import pytest

from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.experiments import runner
from repro.experiments.scaling import ExperimentScale
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS

SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=400.0, syscall_time_scale=25.0,
    st_target_branches=600, st_warmup_branches=200,
    smt_instructions=6_000, smt_warmup_instructions=2_000, seed=2021)

PREDICTORS = ("tage", "gshare", "tournament", "ltage", "tage_sc_l")
PRESETS = ("baseline", "complete_flush", "precise_flush", "xor_bp",
           "noisy_xor_bp")
CASES = ([(predictor, preset, None)
          for predictor in PREDICTORS for preset in PRESETS]
         + [("tage", "xor_bp", {"encoder": "sbox"})])


@pytest.fixture
def built_units(monkeypatch):
    """Weak references to the structures of every BPU a case builds."""
    refs = []
    build = runner.build_bpu

    def spy(*args, **kwargs):
        bpu = build(*args, **kwargs)
        refs.append({"direction": weakref.ref(bpu.direction),
                     "btb": weakref.ref(bpu.btb),
                     "isolation": weakref.ref(bpu.isolation)})
        return bpu

    monkeypatch.setattr(runner, "build_bpu", spy)
    return refs


def _assert_freed_without_gc(run, built_units):
    """Run one case with the cyclic collector off; its BPU must already be
    gone when the case returns."""
    gc.collect()
    built_units.clear()
    gc.disable()
    try:
        run()
        assert len(built_units) == 1
        alive = sorted(name for name, ref in built_units[0].items()
                       if ref() is not None)
    finally:
        gc.enable()
    assert alive == []


#: The runner entry point of each core model; full-system SMT also rekeys
#: on the per-thread syscalls that SE mode leaves out.
RUNNERS = {
    "single_thread": lambda predictor, preset, overrides:
        runner.run_single_thread_case(
            SINGLE_THREAD_PAIRS[0], fpga_prototype(predictor), preset, SCALE,
            bpu_overrides=overrides),
    "smt": lambda predictor, preset, overrides: runner.run_smt_case(
        SMT2_PAIRS[0], sunny_cove_smt(predictor), preset, SCALE,
        bpu_overrides=overrides),
    "smt_full_system": lambda predictor, preset, overrides:
        runner.run_smt_case(
            SMT2_PAIRS[0], sunny_cove_smt(predictor), preset, SCALE,
            se_mode=False, bpu_overrides=overrides),
}


@pytest.mark.parametrize("core", list(RUNNERS))
@pytest.mark.parametrize("predictor,preset,overrides", CASES)
def test_case_frees_its_bpu_by_refcount(core, predictor, preset, overrides,
                                        built_units):
    _assert_freed_without_gc(
        lambda: RUNNERS[core](predictor, preset, overrides), built_units)
