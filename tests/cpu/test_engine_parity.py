"""Batched-engine parity: the fast engine must be bit-identical to the
scalar reference loop.

The batched engine restructures the hot path (tuple trace batches, fused
predictor execute, inline timing arithmetic, due-checked OS events) but must
not change a single statistic: these tests run both engines on freshly built
systems with the same seeds and compare every field of the resulting
:class:`repro.cpu.stats.RunResult`, across the baseline, an encoding preset
and a flush preset, on both core models and for the default (TAGE /
TAGE-SC-L) and Gshare predictors.
"""

import pytest

from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.cpu.core import SingleThreadCore, record_batch_stream
from repro.cpu.smt import SmtCore
from repro.experiments.runner import build_bpu
from repro.experiments.scaling import ExperimentScale
from repro.predictors.tage import TageConfig
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS, make_pair_workloads
from repro.workloads.generator import make_workload

#: Small but non-trivial budgets: enough branches for context switches,
#: syscalls, warm-up resets and (for flush presets) several flushes.
SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=400.0, syscall_time_scale=25.0,
    st_target_branches=3_000, st_warmup_branches=800,
    smt_instructions=30_000, smt_warmup_instructions=8_000, seed=2021)

#: Baseline + one encoding-based + one flush-based preset (distinct engine
#: fast-path behaviour: passthrough, encode/decode dispatch, owner-agnostic
#: flushes), plus precise_flush to cover owner tracking and noisy_xor_bp to
#: cover index randomization (the only policy overriding map_index).
PRESETS = ["baseline", "xor_bp", "complete_flush", "precise_flush",
           "noisy_xor_bp"]


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


def _single_thread(preset, engine, predictor=None):
    config = fpga_prototype() if predictor is None else fpga_prototype(predictor)
    workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    core = SingleThreadCore(config, bpu, workloads,
                            time_scale=SCALE.time_scale,
                            syscall_time_scale=SCALE.syscall_time_scale)
    return core.run(target_branches=SCALE.st_target_branches,
                    warmup_branches=SCALE.st_warmup_branches,
                    mechanism_name=preset, engine=engine)


def _smt(preset, engine, predictor=None, se_mode=True):
    config = (sunny_cove_smt() if predictor is None
              else sunny_cove_smt(predictor))
    workloads = make_pair_workloads(SMT2_PAIRS[0], seed=SCALE.seed)
    bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
    core = SmtCore(config, bpu, workloads, time_scale=SCALE.smt_time_scale,
                   se_mode=se_mode)
    return core.run(instructions=SCALE.smt_instructions,
                    warmup_instructions=SCALE.smt_warmup_instructions,
                    mechanism_name=preset, engine=engine)


class TestSingleThreadParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_batched_matches_scalar(self, preset):
        scalar = _single_thread(preset, "scalar")
        batched = _single_thread(preset, "batched")
        assert _snapshot(batched) == _snapshot(scalar)

    # Each has its own generated kernel; the ``execute`` fallback the cores
    # take without one is pinned in test_storage_parity.py.
    @pytest.mark.parametrize("predictor", ["gshare", "tournament", "bimodal",
                                           "ltage", "tage_sc_l"])
    def test_other_predictor_parity(self, predictor):
        scalar = _single_thread("baseline", "scalar", predictor=predictor)
        batched = _single_thread("baseline", "batched", predictor=predictor)
        assert _snapshot(batched) == _snapshot(scalar)

    def test_tage_useful_reset_parity(self):
        # A reset period far below the branch budget forces many graceful
        # useful-counter resets inside both the warm-up and measured phases,
        # exercising the fused execute()'s reset_fired provider re-read path
        # (the default 1<<18 period never fires at these test budgets).
        def run(engine):
            config = fpga_prototype(
                "tage", config=TageConfig(useful_reset_period=512))
            workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0],
                                            seed=SCALE.seed)
            bpu = build_bpu(config, "baseline", seed=SCALE.seed + 1)
            core = SingleThreadCore(config, bpu, workloads,
                                    time_scale=SCALE.time_scale,
                                    syscall_time_scale=SCALE.syscall_time_scale)
            return core.run(target_branches=SCALE.st_target_branches,
                            warmup_branches=SCALE.st_warmup_branches,
                            mechanism_name="baseline", engine=engine)

        assert _snapshot(run("batched")) == _snapshot(run("scalar"))

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            _single_thread("baseline", "vectorised")


class TestSmtParity:
    @pytest.mark.parametrize("preset", PRESETS)
    def test_batched_matches_scalar(self, preset):
        scalar = _smt(preset, "scalar")
        batched = _smt(preset, "batched")
        assert _snapshot(batched) == _snapshot(scalar)

    def test_full_system_mode_parity(self):
        # se_mode=False exercises the per-thread syscall path.
        scalar = _smt("xor_bp", "scalar", se_mode=False)
        batched = _smt("xor_bp", "batched", se_mode=False)
        assert _snapshot(batched) == _snapshot(scalar)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            _smt("baseline", "vectorised")


class TestBpuFastPathParity:
    def test_execute_branch_fast_matches_execute_branch(self):
        # The engines inline the conditional arm of execute_branch_fast, so
        # this drives the method itself over every branch type against the
        # BranchOutcome reference path to pin it from drifting.
        config = fpga_prototype()
        records = make_workload("gcc", seed=9).segment(2_000)
        ref_bpu = build_bpu(config, "baseline", seed=11)
        fast_bpu = build_bpu(config, "baseline", seed=11)
        for record in records:
            ref = ref_bpu.execute_branch(record.pc, record.taken,
                                         record.target, record.branch_type, 0)
            fast = fast_bpu.execute_branch_fast(record.pc, record.taken,
                                                record.target,
                                                record.branch_type, 0)
            assert fast == (ref.direction_mispredicted,
                            ref.target_mispredicted,
                            ref.btb_accessed, ref.btb_hit)
        assert (fast_bpu.direction.stats(0).mispredictions
                == ref_bpu.direction.stats(0).mispredictions)
        assert fast_bpu.btb.hits == ref_bpu.btb.hits


class TestTraceApiParity:
    def test_record_batches_match_records(self):
        workload = make_workload("gcc", seed=5)
        records = workload.segment(3_000, seed_offset=2)
        flat = []
        for batch in workload.record_batches(257, seed_offset=2):
            flat.extend(batch)
            if len(flat) >= 3_000:
                break
        for record, row in zip(records, flat):
            assert row == (record.pc, record.taken, record.target,
                           record.branch_type, record.instructions,
                           record.syscall_after)

    def test_batch_sizes_respect_minimum(self):
        workload = make_workload("milc", seed=1)
        stream = workload.record_batches(100)
        for _ in range(5):
            assert len(next(stream)) >= 100

    def test_fallback_wrapper_for_records_only_workloads(self):
        class RecordsOnly:
            def __init__(self, inner):
                self._inner = inner

            def records(self, seed_offset=0):
                return self._inner.records(seed_offset=seed_offset)

        workload = make_workload("gobmk", seed=3)
        native = record_batch_stream(workload, 128, seed_offset=1)
        wrapped = record_batch_stream(RecordsOnly(workload), 128, seed_offset=1)
        native_flat = []
        wrapped_flat = []
        while len(native_flat) < 1_000:
            native_flat.extend(next(native))
        while len(wrapped_flat) < 1_000:
            wrapped_flat.extend(next(wrapped))
        assert native_flat[:1_000] == wrapped_flat[:1_000]
