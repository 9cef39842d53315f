"""python-vs-numpy backend parity at the engine level.

The numpy backend's contract is *bit-identity*: the same
:class:`RunResult`, the same raw (still encoded) predictor storage, the
same figures — only the wall-clock differs.  This suite runs curated
small configurations through both backends and compares complete result
snapshots plus raw storage; the randomized cross-product lives in
``tests/cpu/test_differential_fuzz.py`` and the full-scale pin in the
golden-trace suite.
"""

import pytest

pytest.importorskip("numpy")

from repro.core.registry import preset_names  # noqa: E402
from repro.cpu.config import fpga_prototype, sunny_cove_smt  # noqa: E402
from repro.cpu.core import SingleThreadCore  # noqa: E402
from repro.cpu.smt import SmtCore  # noqa: E402
from repro.engine import get_backend  # noqa: E402
from repro.experiments.runner import build_bpu  # noqa: E402
from repro.experiments.scaling import ExperimentScale  # noqa: E402
from repro.workloads import (  # noqa: E402
    SINGLE_THREAD_PAIRS,
    SMT2_PAIRS,
    make_pair_workloads,
)

PRESETS = sorted(preset_names())

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


def _single_thread(preset, predictor, backend):
    config = fpga_prototype(predictor)
    workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    core = SingleThreadCore(config, bpu, workloads,
                            time_scale=SCALE.time_scale,
                            syscall_time_scale=SCALE.syscall_time_scale,
                            backend=backend)
    result = core.run(target_branches=SCALE.st_target_branches,
                      warmup_branches=SCALE.st_warmup_branches,
                      mechanism_name=preset, engine="batched")
    return result, bpu


def _smt(preset, predictor, backend):
    config = sunny_cove_smt(predictor)
    workloads = make_pair_workloads(SMT2_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    core = SmtCore(config, bpu, workloads, time_scale=SCALE.smt_time_scale,
                   backend=backend)
    result = core.run(instructions=SCALE.smt_instructions,
                      warmup_instructions=SCALE.smt_warmup_instructions,
                      mechanism_name=preset, engine="batched")
    return result, bpu


class TestSingleThreadParity:
    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("predictor", ["tage", "gshare"])
    def test_results_and_raw_storage_identical(self, preset, predictor):
        res_py, bpu_py = _single_thread(preset, predictor, "python")
        res_np, bpu_np = _single_thread(preset, predictor, "numpy")
        assert _snapshot(res_np) == _snapshot(res_py)
        assert _raw_state(bpu_np) == _raw_state(bpu_py)


class TestSmtParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_results_and_raw_storage_identical(self, preset):
        res_py, bpu_py = _smt(preset, "tage", "python")
        res_np, bpu_np = _smt(preset, "tage", "numpy")
        assert _snapshot(res_np) == _snapshot(res_py)
        assert _raw_state(bpu_np) == _raw_state(bpu_py)


class TestGenericPredictorsParity:
    """Predictors without vectorized kernels fall through untouched."""

    @pytest.mark.parametrize("predictor", ["tournament", "bimodal"])
    def test_fallthrough_is_bit_identical(self, predictor):
        res_py, bpu_py = _single_thread("xor_bp", predictor, "python")
        res_np, bpu_np = _single_thread("xor_bp", predictor, "numpy")
        assert _snapshot(res_np) == _snapshot(res_py)
        assert _raw_state(bpu_np) == _raw_state(bpu_py)


class TestKernelEngagement:
    """The accelerated kernels really are what the backend hands out.

    A silent fall-through to the reference kernels would pass every
    parity test while losing the speedup — pin the dispatch itself.
    """

    def test_tage_kernel_is_vectorized(self):
        backend = get_backend("numpy")
        bpu = build_bpu(fpga_prototype(), "xor_bp", seed=7)
        fetch = backend.direction_kernel_fetch(bpu.direction)
        kernel = fetch(0)
        base = bpu.direction.exec_kernel(0)
        assert getattr(kernel, "backend", None) == "numpy"
        assert kernel.arm == base.arm  # dispatch arm is preserved
        assert callable(kernel.feed)
        assert fetch(0) is kernel  # cached per (predictor, thread)

    def test_gshare_kernel_is_vectorized(self):
        backend = get_backend("numpy")
        bpu = build_bpu(fpga_prototype("gshare"), "xor_bp", seed=7)
        kernel = backend.direction_kernel_fetch(bpu.direction)(0)
        assert getattr(kernel, "backend", None) == "numpy"
        assert callable(kernel.feed)

    def test_btb_kernel_is_vectorized(self):
        backend = get_backend("numpy")
        bpu = build_bpu(fpga_prototype(), "xor_bp", seed=7)
        kernel = backend.conditional_kernel_fetch(bpu.btb)(0)
        assert getattr(kernel, "backend", None) == "numpy"
        assert callable(kernel.feed)

    def test_flush_invalidates_cached_kernel(self):
        backend = get_backend("numpy")
        bpu = build_bpu(fpga_prototype(), "xor_bp", seed=7)
        fetch = backend.direction_kernel_fetch(bpu.direction)
        before = fetch(0)
        bpu.notify_context_switch(0)  # flush/rekey drops the base kernel
        after = fetch(0)
        assert after is not before

    def test_btb_rekey_rebuilds_the_window_over_the_rebound_kernel(self):
        """A rekey rebinds the reference BTB kernel's masks in place (same
        object); the window kernel, whose precompute captured the old
        masks, must be rebuilt all the same."""
        backend = get_backend("numpy")
        bpu = build_bpu(fpga_prototype(), "xor_bp", seed=7)
        fetch = backend.conditional_kernel_fetch(bpu.btb)
        base = bpu.btb.exec_conditional_kernel(0)
        before = fetch(0)
        assert fetch(0) is before
        bpu.notify_context_switch(0)
        after = fetch(0)
        assert bpu.btb.exec_conditional_kernel(0) is base
        assert after is not before
        assert after.feed.__self__.precompute.tag_key \
            == bpu.btb._xor_masks[0][1]

    def test_generic_direction_predictor_falls_through(self):
        """Tournament has no vectorized kernel: numpy serves the reference."""
        backend = get_backend("numpy")
        bpu = build_bpu(fpga_prototype("tournament"), "xor_bp", seed=7)
        fetch = backend.direction_kernel_fetch(bpu.direction)
        assert fetch == get_backend("python").direction_kernel_fetch(
            bpu.direction)
        assert getattr(fetch(0), "backend", None) is None


class TestBackendSelectionThroughCore:
    def test_env_selected_backend_matches_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        res_env, _ = _single_thread("baseline", "tage", None)
        monkeypatch.delenv("REPRO_BACKEND")
        res_py, _ = _single_thread("baseline", "tage", "python")
        assert _snapshot(res_env) == _snapshot(res_py)

    def test_backend_instance_accepted(self):
        backend = get_backend("numpy")
        res_obj, _ = _single_thread("baseline", "tage", backend)
        res_py, _ = _single_thread("baseline", "tage", "python")
        assert _snapshot(res_obj) == _snapshot(res_py)


class TestStoreRoundTrip:
    """Store entries are backend-agnostic down to the digest.

    Backends are a pure execution strategy: ``CaseSpec.cache_key()`` and
    the store digest never mention them.  A numpy-produced entry must
    therefore be byte-identical to (and replayable as) the python-produced
    one — the content-addressed store's conflicting-digest rejection is the
    enforcement mechanism, so ``put``-ing both under one key must succeed.
    """

    def test_cross_backend_entries_byte_identical(self, tmp_path,
                                                  monkeypatch):
        from repro.cpu.stats import run_result_to_dict
        from repro.experiments.executor import (
            CaseSpec,
            RunResultCache,
            SweepExecutor,
        )
        from repro.experiments.store import ResultStore

        spec = CaseSpec(kind="single", pair=SINGLE_THREAD_PAIRS[0],
                        config=fpga_prototype(), preset="xor_bp",
                        scale=SCALE)

        def simulate(backend):
            monkeypatch.setenv("REPRO_BACKEND", backend)
            executor = SweepExecutor(
                jobs=1, cache=RunResultCache(directory=False, store=False))
            return executor.run_spec(spec)

        res_np = simulate("numpy")
        res_py = simulate("python")
        key = spec.cache_key()  # backend never enters the key

        # numpy publishes first; the python replay must land as a clean
        # identical no-op (a digest conflict would raise) — and vice versa.
        store = ResultStore(str(tmp_path / "np-first"))
        store.put(key, res_np)
        store.put(key, res_py)
        assert run_result_to_dict(store.get(key)) == \
            run_result_to_dict(res_py)

        store = ResultStore(str(tmp_path / "py-first"))
        store.put(key, res_py)
        store.put(key, res_np)
        assert run_result_to_dict(store.get(key)) == \
            run_result_to_dict(res_np)
