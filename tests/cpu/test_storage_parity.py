"""Batched-vs-scalar parity down to the raw predictor storage.

``test_engine_parity.py`` compares :class:`RunResult` snapshots on a curated
preset subset.  This suite runs *every* protection preset through both
engines and additionally compares the raw (still encoded) storage of every
direction table and the BTB once the run is over: two runs can agree on
every counter while leaving different bits behind, which would surface as
drift only in a later experiment that reuses the trained state.

It also pins how the batched cores fetch their kernels: directly from the
predictor (``exec_kernel``) and the BTB (``exec_conditional_kernel``), with
``DirectionPredictor.execute`` as the fallback for predictors that generate
no kernel, and store entries that do not depend on the engine that
produced them.
"""

import pytest

from repro.core.registry import make_bpu, preset_names
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore
from repro.cpu.smt import SmtCore
from repro.experiments.runner import build_bpu
from repro.experiments.scaling import ExperimentScale
from repro.workloads import (
    SINGLE_THREAD_PAIRS,
    SMT2_PAIRS,
    make_pair_workloads,
)

PRESETS = sorted(preset_names())

#: Direction predictors that generate an ``exec_kernel``.
KERNEL_PREDICTORS = ["tage", "gshare", "tournament", "ltage", "tage_sc_l",
                     "bimodal"]

SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=400.0, syscall_time_scale=25.0,
    st_target_branches=2_000, st_warmup_branches=500,
    smt_instructions=20_000, smt_warmup_instructions=5_000, seed=2021)


def _snapshot(result):
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "context_switches": result.context_switches,
        "privilege_switches": result.privilege_switches,
        "threads": {
            name: (t.cycles, t.instructions, t.branches,
                   t.conditional_branches, t.direction_mispredicts,
                   t.target_mispredicts, t.btb_lookups, t.btb_hits,
                   t.syscalls, t.context_switches)
            for name, t in result.threads.items()},
    }


def _raw_state(bpu):
    return ([list(table.rows()) for table in bpu.direction.tables()],
            bpu.btb.raw_sets())


def _without_kernels(bpu):
    """Shadow the kernel fetch methods: this is exactly what a predictor
    that generates no kernel looks like to the cores."""
    bpu.direction.exec_kernel = None
    bpu.btb.exec_conditional_kernel = None


def _build(config, preset, kernels):
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    if not kernels:
        _without_kernels(bpu)
    return bpu


def _single_thread(preset, predictor, engine, kernels=True):
    config = fpga_prototype(predictor)
    workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0], seed=SCALE.seed)
    bpu = _build(config, preset, kernels)
    core = SingleThreadCore(config, bpu, workloads,
                            time_scale=SCALE.time_scale,
                            syscall_time_scale=SCALE.syscall_time_scale)
    result = core.run(target_branches=SCALE.st_target_branches,
                      warmup_branches=SCALE.st_warmup_branches,
                      mechanism_name=preset, engine=engine)
    return result, bpu


def _smt(preset, predictor, engine, kernels=True, pair=SMT2_PAIRS[0],
         force_generic=False):
    config = sunny_cove_smt(predictor)
    workloads = make_pair_workloads(pair, seed=SCALE.seed)
    bpu = _build(config, preset, kernels)
    if force_generic:
        bpu.force_generic_dispatch()
    core = SmtCore(config, bpu, workloads, time_scale=SCALE.smt_time_scale)
    result = core.run(instructions=SCALE.smt_instructions,
                      warmup_instructions=SCALE.smt_warmup_instructions,
                      mechanism_name=preset, engine=engine)
    return result, bpu


def _assert_engines_agree(run):
    res_scalar, bpu_scalar = run("scalar")
    res_batched, bpu_batched = run("batched")
    assert _snapshot(res_batched) == _snapshot(res_scalar)
    assert _raw_state(bpu_batched) == _raw_state(bpu_scalar)


class TestSingleThreadParity:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("predictor", ["tage", "gshare"])
    def test_results_and_raw_storage_identical(self, preset, predictor):
        _assert_engines_agree(
            lambda engine: _single_thread(preset, predictor, engine))


class TestSmtParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_results_and_raw_storage_identical(self, preset):
        _assert_engines_agree(lambda engine: _smt(preset, "tage", engine))


class TestSmtKeyDrawOrder:
    """SMT keys are drawn in hardware-thread order, whatever touches them
    first.

    Under ``xor_btb`` the direction predictor never reads a key, so the
    first BTB access decides which thread would draw first: the fused
    kernels draw at fetch time, the scalar loop and the generic arm at
    the first update, which in some pairs belongs to thread 1.  Stale
    entries encoded under swapped keys never change a statistic, so only
    the raw storage shows the difference.
    """

    @pytest.mark.parametrize("pair", SMT2_PAIRS, ids=lambda p: p.case)
    def test_every_pair_leaves_identical_raw_storage(self, pair):
        res_scalar, bpu_scalar = _smt("xor_btb", "tage", "scalar", pair=pair)
        for force_generic in (False, True):
            res, bpu = _smt("xor_btb", "tage", "batched", pair=pair,
                            force_generic=force_generic)
            assert _snapshot(res) == _snapshot(res_scalar)
            assert _raw_state(bpu) == _raw_state(bpu_scalar)
            assert list(bpu.isolation.key_manager._states) == [0, 1]


class TestExecuteFallbackParity:
    """Without kernels the cores run ``direction.execute`` and
    ``btb.execute_conditional_fast``; that path must match the scalar loop
    just as the kernels do."""

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_single_thread_fallback_is_bit_identical(self, predictor):
        _assert_engines_agree(lambda engine: _single_thread(
            "xor_bp", predictor, engine, kernels=False))

    @pytest.mark.parametrize("predictor", ["tage", "gshare"])
    def test_smt_fallback_is_bit_identical(self, predictor):
        _assert_engines_agree(lambda engine: _smt(
            "xor_bp", predictor, engine, kernels=False))

    def test_fallback_engine_matches_kernel_engine(self):
        with_kernels, _ = _single_thread("noisy_xor_bp", "tage", "batched")
        without, _ = _single_thread("noisy_xor_bp", "tage", "batched",
                                    kernels=False)
        assert _snapshot(without) == _snapshot(with_kernels)


class TestKernelFetch:
    """The kernels the cores fetch straight from the predictor structures."""

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_direction_kernel_cached_per_thread(self, predictor):
        bpu = make_bpu(predictor, "xor_bp", seed=7)
        first = bpu.direction.exec_kernel(0)
        assert bpu.direction.exec_kernel(0) is first
        assert bpu.direction.exec_kernel(1) is not first

    def test_btb_kernel_cached_per_thread(self):
        bpu = make_bpu("tage", "xor_bp", seed=7)
        first = bpu.btb.exec_conditional_kernel(0)
        assert bpu.btb.exec_conditional_kernel(0) is first
        assert bpu.btb.exec_conditional_kernel(1) is not first

    def test_btb_rekey_rebinds_the_same_kernel(self):
        """A rekey writes the thread's new masks into the kernel it already
        has instead of generating a new one."""
        bpu = make_bpu("tage", "xor_bp", seed=7)
        before = bpu.btb.exec_conditional_kernel(0)
        assert before.arm == "fused-xor"
        old_masks = bpu.btb._xor_masks[0]
        bpu.notify_context_switch(0)
        after = bpu.btb.exec_conditional_kernel(0)
        new_masks = bpu.btb._xor_masks[0]
        assert after is before
        assert new_masks != old_masks
        assert (after.__globals__["IK"], after.__globals__["TK"],
                after.__globals__["GK"]) == new_masks

    def test_btb_invalidate_drops_the_kernel(self):
        bpu = make_bpu("tage", "xor_bp", seed=7)
        before = bpu.btb.exec_conditional_kernel(0)
        bpu.btb.invalidate_kernels()
        assert bpu.btb.exec_conditional_kernel(0) is not before


class TestStoreRoundTrip:
    """Store entries do not depend on the engine that produced them.

    ``CaseSpec.cache_key()`` and the store digest never mention the
    engine, so a scalar-produced entry must be byte-identical to the
    batched one: ``put``-ing both under one key must succeed, since the
    store rejects a conflicting digest.
    """

    @pytest.mark.parametrize("kind", ["single", "smt"])
    def test_scalar_and_batched_entries_byte_identical(self, tmp_path, kind):
        from repro.cpu.stats import run_result_to_dict
        from repro.experiments.store import ResultStore

        run = _single_thread if kind == "single" else _smt
        res_scalar, _ = run("xor_bp", "tage", "scalar")
        res_batched, _ = run("xor_bp", "tage", "batched")
        key = f"{kind}-xor_bp-tage"

        store = ResultStore(str(tmp_path / "scalar-first"))
        store.put(key, res_scalar)
        store.put(key, res_batched)
        assert run_result_to_dict(store.get(key)) == \
            run_result_to_dict(res_batched)

        store = ResultStore(str(tmp_path / "batched-first"))
        store.put(key, res_batched)
        store.put(key, res_scalar)
        assert run_result_to_dict(store.get(key)) == \
            run_result_to_dict(res_scalar)
