"""Fused-XOR fast path vs generic ``TableIsolation`` dispatch.

The XOR-family presets (``xor_bp``, ``noisy_xor_bp``, ``noisy_xor_btb``,
``noisy_xor_pht``) are served by the generated kernels' fused-XOR arm:
precomputed per-(thread, table) encode/decode masks inlined into the
direction kernels' storage accesses and the BTB's probe kernels.  The masks
are re-randomised at switch time via the isolation mask-cache protocol.

These tests build twin systems — one on the fused-XOR arm, one with every
structure's storage arm forced to ``"generic"`` so all accesses take the
virtual dispatch — and drive both through identical branch streams interleaved with
context switches and privilege switches (mask re-randomisation boundaries).
Per-branch outcomes, statistics and the raw (still encoded) storage bits
must match exactly, on the bare BPU and through both batched core engines.
The TAGE allocation test instead drives each kernel arm against the scalar
``lookup``/``update`` oracle, because every arm's kernel allocates inline.
"""

import random

import pytest

from repro.core.registry import make_bpu, resolve_preset
from repro.cpu.config import fpga_prototype, sunny_cove_smt
from repro.predictors.tage import TageConfig
from repro.cpu.core import SingleThreadCore
from repro.cpu.smt import SmtCore
from repro.experiments.runner import build_bpu
from repro.experiments.scaling import ExperimentScale
from repro.types import BranchType, Privilege
from repro.workloads import SINGLE_THREAD_PAIRS, SMT2_PAIRS, make_pair_workloads
from repro.workloads.generator import make_workload

#: Every preset whose mechanisms are plain-XOR encoders (the paper's
#: headline defenses); ``noisy_xor_btb``/``noisy_xor_pht`` protect only one
#: structure, so the other side runs the passthrough fast path.
XOR_PRESETS = ["xor_bp", "noisy_xor_bp", "noisy_xor_btb", "noisy_xor_pht"]

#: Direction predictors with generated execute kernels.
KERNEL_PREDICTORS = ["tage", "gshare", "tournament", "ltage", "tage_sc_l"]

SCALE = ExperimentScale(
    time_scale=200.0, smt_time_scale=400.0, syscall_time_scale=25.0,
    st_target_branches=2_000, st_warmup_branches=500,
    smt_instructions=20_000, smt_warmup_instructions=5_000, seed=4242)


def _force_generic_dispatch(bpu):
    """Put every structure on the generic arm (virtual dispatch)."""
    bpu.force_generic_dispatch()


def _drive(bpu, records, *, thread_id=0, priv_every=41, switch_every=97):
    """Run a record stream with interleaved switch notifications."""
    outcomes = []
    for i, record in enumerate(records):
        outcomes.append(bpu.execute_branch_fast(
            record.pc, record.taken, record.target, record.branch_type,
            thread_id))
        if i % priv_every == 0:
            # A system call: two privilege transitions, each re-randomising
            # the thread's key material (and therefore the fused masks).
            bpu.notify_privilege_switch(thread_id, Privilege.KERNEL)
            bpu.notify_privilege_switch(thread_id, Privilege.USER)
        if i % switch_every == 0:
            bpu.notify_context_switch(thread_id)
    return outcomes


def _raw_direction_state(bpu):
    """Raw (encoded) contents of every direction-predictor table."""
    return [list(table.rows()) for table in bpu.direction.tables()]


def _raw_btb_state(bpu):
    """Raw (encoded) BTB entries."""
    return bpu.btb.raw_sets()


class TestBpuFastPathVsGenericDispatch:
    @pytest.mark.parametrize("preset", XOR_PRESETS)
    @pytest.mark.parametrize("predictor", ["tage", "gshare"])
    def test_outcomes_stats_and_storage_match(self, preset, predictor):
        records = make_workload("gcc", seed=13).segment(2_500)
        fast = make_bpu(predictor, preset, seed=99)
        slow = make_bpu(predictor, preset, seed=99)
        _force_generic_dispatch(slow)

        assert _drive(fast, records) == _drive(slow, records)
        assert (fast.direction.stats(0).lookups
                == slow.direction.stats(0).lookups)
        assert (fast.direction.stats(0).mispredictions
                == slow.direction.stats(0).mispredictions)
        assert fast.btb.lookups == slow.btb.lookups
        assert fast.btb.hits == slow.btb.hits
        # The stored bits (encoded under the same thread keys) are identical,
        # so the fast paths encode exactly what the generic dispatch does.
        assert _raw_direction_state(fast) == _raw_direction_state(slow)
        assert _raw_btb_state(fast) == _raw_btb_state(slow)

    @pytest.mark.parametrize("preset", ["xor_bp", "noisy_xor_bp"])
    def test_multi_thread_mask_isolation(self, preset):
        # Two hardware threads with interleaved re-randomisation: thread 0's
        # rekey must not disturb thread 1's masks on either path.
        records = make_workload("mcf", seed=3).segment(1_200)
        fast = make_bpu("tage", preset, seed=7)
        slow = make_bpu("tage", preset, seed=7)
        _force_generic_dispatch(slow)
        for bpu in (fast, slow):
            for i, record in enumerate(records):
                thread = i & 1
                bpu.execute_branch_fast(record.pc, record.taken,
                                        record.target, record.branch_type,
                                        thread)
                if i % 53 == 0:
                    bpu.notify_context_switch(0)
                if i % 89 == 0:
                    bpu.notify_privilege_switch(1, Privilege.KERNEL)
                    bpu.notify_privilege_switch(1, Privilege.USER)
        for thread in (0, 1):
            assert (fast.direction.stats(thread).mispredictions
                    == slow.direction.stats(thread).mispredictions)
        assert _raw_direction_state(fast) == _raw_direction_state(slow)
        assert _raw_btb_state(fast) == _raw_btb_state(slow)


class TestPackedKernelArms:
    """The packed-BTB and direction-predictor kernels must run their intended arm.

    Silent fallback to the generic dispatch would keep results correct but
    quietly lose the packed fast paths; these assertions (mirrored by the
    throughput benchmark) pin the specialisation choice itself.
    """

    @pytest.mark.parametrize("preset", XOR_PRESETS + [
        "baseline", "complete_flush", "xor_pht", "xor_pht_simple", "xor_btb"])
    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_kernel_arms_match_preset(self, preset, predictor):
        config = resolve_preset(preset)
        bpu = make_bpu(predictor, preset, seed=11)
        want_btb = ("fused-xor" if config.btb_mechanism in ("xor", "noisy_xor")
                    else "passthrough")
        want_pht = ("fused-xor" if config.pht_mechanism in ("xor", "noisy_xor")
                    else "passthrough")
        assert bpu.btb.exec_conditional_kernel(0).arm == want_btb
        assert bpu.direction.exec_kernel(0).arm == want_pht
        # Re-randomisation rebuilds the same arm (never a generic fallback).
        bpu.notify_context_switch(0)
        assert bpu.btb.exec_conditional_kernel(0).arm == want_btb
        assert bpu.direction.exec_kernel(0).arm == want_pht

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_non_xor_encoder_takes_generic_arm(self, predictor):
        # S-box content encoding is reversible but not plain XOR, so it must
        # not be fused into the packed kernels.
        bpu = make_bpu(predictor, "xor_bp", seed=11,
                       config_overrides={"encoder": "sbox"})
        assert bpu.btb.exec_conditional_kernel(0).arm == "generic"
        assert bpu.direction.exec_kernel(0).arm == "generic"

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_precise_flush_takes_owner_arm(self, predictor):
        bpu = make_bpu(predictor, "precise_flush", seed=11)
        for _ in range(2):
            for thread in (0, 1):
                assert bpu.btb.exec_conditional_kernel(thread).arm == "owner"
                assert bpu.direction.exec_kernel(thread).arm == "owner"
            # A switch flushes the thread's entries and rebuilds its
            # kernels on the same arm.
            bpu.notify_context_switch(0)
        # Forced generic dispatch still reaches the generic arm.
        bpu.force_generic_dispatch()
        assert bpu.btb.exec_conditional_kernel(0).arm == "generic"
        for thread in (0, 1):
            assert bpu.direction.exec_kernel(thread).arm == "generic"


class TestNonXorFallbackEquivalence:
    """Generic-arm kernels must equal the two-phase scalar protocol.

    When isolation is *not* plain XOR (S-box ablation encoder), every kernel
    drops to its generic arm; driving the fused entry points must then be
    indistinguishable — outcome for outcome, bit for bit — from the
    ``lookup``/``update`` reference flow.
    """

    @pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
    def test_fast_entry_points_match_reference(self, predictor):
        records = make_workload("gobmk", seed=21).segment(1_500)
        fast = make_bpu(predictor, "xor_bp", seed=33,
                        config_overrides={"encoder": "sbox"})
        ref = make_bpu(predictor, "xor_bp", seed=33,
                       config_overrides={"encoder": "sbox"})
        for i, record in enumerate(records):
            out = fast.execute_branch_fast(record.pc, record.taken,
                                           record.target, record.branch_type,
                                           0)
            expected = ref.execute_branch(record.pc, record.taken,
                                          record.target, record.branch_type,
                                          0)
            assert out == (expected.direction_mispredicted,
                           expected.target_mispredicted,
                           expected.btb_accessed, expected.btb_hit)
            if i % 67 == 0:
                fast.notify_context_switch(0)
                ref.notify_context_switch(0)
        assert _raw_direction_state(fast) == _raw_direction_state(ref)
        assert _raw_btb_state(fast) == _raw_btb_state(ref)


#: TAGE kernel arm -> (preset, config overrides, hardware threads): every
#: storage arm, with the fused-XOR arm's plain and row-diversified variants.
ALLOCATION_ARMS = [
    ("passthrough", "baseline", None, 1),
    ("fused-xor", "xor_bp", None, 1),
    ("fused-xor", "noisy_xor_bp", None, 1),
    ("fused-xor", "xor_pht_simple", None, 1),
    ("owner", "precise_flush", None, 2),
    ("generic", "xor_bp", {"encoder": "sbox"}, 1),
]


def _count_allocations(predictor, counts):
    """Wrap ``predictor._allocate`` to count each call's outcome: ageing (no
    free entry), a single candidate, an LFSR tie-break between two or more
    candidates, and calls on a branch whose useful-counter reset fired."""
    allocate = predictor._allocate
    tables = predictor.tagged_tables
    period = predictor.config.useful_reset_period

    def counting(pc, taken, provider, indices, tags, thread_id):
        free = sum(1 for t in range(provider + 1, len(tables))
                   if not tables[t].read(indices[t], thread_id)
                   & predictor._u_mask)
        counts["tie" if free > 1 else "single" if free else "age"] += 1
        if predictor._update_count % period == 0:
            counts["reset"] += 1
        allocate(pc, taken, provider, indices, tags, thread_id)

    predictor._allocate = counting


def _check_kernel_allocation(predictor, predictor_kwargs, arm, preset,
                             overrides, threads):
    """Drive ``predictor``'s kernel against the scalar lookup/update oracle
    on generic dispatch; storage, owners, the tie-break LFSR, USE_ALT_ON_NA
    and stats must stay bit-identical, and every allocation outcome must
    occur."""

    def build():
        return make_bpu(predictor, preset, seed=5,
                        predictor_kwargs=predictor_kwargs,
                        config_overrides=overrides)

    fast, oracle = build(), build()
    oracle.force_generic_dispatch()
    # The TAGE component allocates; a composite records stats on itself.
    fast_tage = getattr(fast.direction, "tage", fast.direction)
    oracle_tage = getattr(oracle.direction, "tage", oracle.direction)
    counts = {"age": 0, "single": 0, "tie": 0, "reset": 0}
    _count_allocations(oracle_tage, counts)
    kernel_calls = {"age": 0, "single": 0, "tie": 0, "reset": 0}
    _count_allocations(fast_tage, kernel_calls)
    records = [r for r in make_workload("mcf", seed=3).segment(8_000)
               if r.branch_type is BranchType.CONDITIONAL]
    for i, record in enumerate(records):
        pc, taken = record.pc, record.taken
        thread = (i // 400) % threads
        prediction = oracle.direction.lookup(pc, thread)
        oracle.direction.stats(thread).record(prediction.taken == taken)
        oracle.direction.update(pc, taken, prediction, thread)
        kernel = fast.direction.exec_kernel(thread)
        assert kernel.arm == arm
        assert kernel(pc, taken) == prediction.taken, f"record {i}"
        if i % 499 == 0:
            # Rekey boundary (and, under Precise Flush, a flush of the
            # switching thread's entries).
            for bpu in (fast, oracle):
                bpu.notify_context_switch(thread)
                bpu.notify_privilege_switch(thread, Privilege.KERNEL)
                bpu.notify_privilege_switch(thread, Privilege.USER)
    tables = [(t.name, list(t.rows()), list(t._owner))
              for t in fast.direction.tables()]
    assert tables == [(t.name, list(t.rows()), list(t._owner))
                      for t in oracle.direction.tables()]
    for thread in range(threads):
        assert (fast.direction.stats(thread).lookups,
                fast.direction.stats(thread).mispredictions) == \
            (oracle.direction.stats(thread).lookups,
             oracle.direction.stats(thread).mispredictions)
    assert fast_tage._lfsr._state == oracle_tage._lfsr._state
    assert fast_tage._use_alt == oracle_tage._use_alt
    # Every allocation outcome occurred, and the kernel called out to the
    # scalar allocator exactly on the reset branches.
    assert all(counts.values()), counts
    assert kernel_calls["reset"] == sum(
        kernel_calls[k] for k in ("age", "single", "tie")) \
        == counts["reset"]


#: Tiny tagged tables on a real branch stream: entries become useful and
#: are then contended, so allocation ages, installs in a single free table
#: and breaks ties.  The short reset period makes the kernel's cold path
#: (allocation right after a useful-counter reset) fire.
ALLOCATION_CONFIG = TageConfig(n_tables=4, table_entries=16, base_entries=512,
                               min_history=4, max_history=24,
                               useful_reset_period=509)


class TestAllocateParityHighMispredict:
    @pytest.mark.parametrize("arm,preset,overrides,threads", ALLOCATION_ARMS)
    def test_kernel_allocation_matches_scalar_oracle(self, arm, preset,
                                                     overrides, threads):
        # The kernel allocates inline from its lookup's rows and words; the
        # oracle is the scalar lookup/update protocol on generic dispatch.
        _check_kernel_allocation("tage", {"config": ALLOCATION_CONFIG},
                                 arm, preset, overrides, threads)

    @pytest.mark.parametrize("arm,preset,overrides,threads", ALLOCATION_ARMS)
    @pytest.mark.parametrize("predictor", ["ltage", "tage_sc_l"])
    def test_composite_kernel_allocation_matches_scalar_oracle(
            self, predictor, arm, preset, overrides, threads):
        # LTAGE and TAGE-SC-L run the TAGE kernel body, allocation included,
        # with their side components inlined after it.
        _check_kernel_allocation(predictor,
                                 {"tage_config": ALLOCATION_CONFIG},
                                 arm, preset, overrides, threads)


def _engine_snapshot(result):
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


class TestEngineFastPathVsGenericDispatch:
    """The batched engines must produce identical results either way.

    This covers the engine-level plumbing on top of the storage layer: the
    per-thread kernel fetch/refresh around switch notifications and the
    silent-fallback dispatcher (forcing generic dispatch mid-stack must not
    change a single statistic, only throughput).
    """

    @pytest.mark.parametrize("preset", XOR_PRESETS)
    def test_single_thread_core(self, preset):
        def run(force_generic):
            config = fpga_prototype()
            workloads = make_pair_workloads(SINGLE_THREAD_PAIRS[0],
                                            seed=SCALE.seed)
            bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
            if force_generic:
                _force_generic_dispatch(bpu)
            core = SingleThreadCore(
                config, bpu, workloads, time_scale=SCALE.time_scale,
                syscall_time_scale=SCALE.syscall_time_scale)
            return core.run(target_branches=SCALE.st_target_branches,
                            warmup_branches=SCALE.st_warmup_branches,
                            mechanism_name=preset, engine="batched")

        assert _engine_snapshot(run(False)) == _engine_snapshot(run(True))

    @pytest.mark.parametrize("preset", ["xor_bp", "noisy_xor_bp"])
    def test_smt_core(self, preset):
        def run(force_generic):
            config = sunny_cove_smt()
            workloads = make_pair_workloads(SMT2_PAIRS[0], seed=SCALE.seed)
            bpu = build_bpu(config, preset, seed=SCALE.seed + 1)
            if force_generic:
                _force_generic_dispatch(bpu)
            core = SmtCore(config, bpu, workloads,
                           time_scale=SCALE.smt_time_scale, se_mode=False)
            return core.run(instructions=SCALE.smt_instructions,
                            warmup_instructions=SCALE.smt_warmup_instructions,
                            mechanism_name=preset, engine="batched")

        assert _engine_snapshot(run(False)) == _engine_snapshot(run(True))
