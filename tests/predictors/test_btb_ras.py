"""Tests for the branch target buffer and the return address stack."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.isolation import NoisyXorIsolation, PreciseFlushIsolation, XorContentIsolation
from repro.core.keys import KeyManager
from repro.core.registry import make_bpu
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.ras import ReturnAddressStack
from repro.types import BranchType


class TestBtbBasics:
    def test_miss_on_empty(self):
        btb = BranchTargetBuffer(64, 2)
        assert not btb.lookup(0x4000).hit

    def test_hit_after_update(self):
        btb = BranchTargetBuffer(64, 2)
        btb.update(0x4000, 0x5000)
        result = btb.lookup(0x4000)
        assert result.hit and result.target == 0x5000

    def test_update_overwrites_same_branch(self):
        btb = BranchTargetBuffer(64, 2)
        btb.update(0x4000, 0x5000)
        btb.update(0x4000, 0x6000)
        assert btb.lookup(0x4000).target == 0x6000
        assert btb.valid_entry_count() == 1

    def test_different_tags_use_different_ways(self):
        btb = BranchTargetBuffer(64, 2)
        pc_a = 0x4000
        pc_b = pc_a + 64 * 4  # same set, different tag
        btb.update(pc_a, 0x1111)
        btb.update(pc_b, 0x2222)
        assert btb.lookup(pc_a).target == 0x1111
        assert btb.lookup(pc_b).target == 0x2222

    def test_lru_eviction_when_set_is_full(self):
        btb = BranchTargetBuffer(64, 2)
        stride = 64 * 4
        pcs = [0x4000 + i * stride for i in range(3)]
        btb.update(pcs[0], 0xA)
        btb.update(pcs[1], 0xB)
        btb.lookup(pcs[1])          # touch pcs[1] so pcs[0] is LRU
        btb.update(pcs[2], 0xC)     # evicts pcs[0]
        assert not btb.lookup(pcs[0]).hit
        assert btb.lookup(pcs[1]).hit
        assert btb.lookup(pcs[2]).hit

    def test_geometry_and_storage(self):
        btb = BranchTargetBuffer(256, 2, tag_bits=16, target_bits=32)
        assert btb.n_sets == 256
        assert btb.n_ways == 2
        assert btb.index_bits == 8
        assert btb.entry_bits == 1 + 3 + 16 + 32
        assert btb.storage_bits == 256 * 2 * (1 + 3 + 16 + 32)

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(100, 2)

    def test_hit_rate_statistics(self):
        btb = BranchTargetBuffer(64, 2)
        btb.update(0x4000, 0x5000)
        btb.lookup(0x4000)
        btb.lookup(0x8000)
        assert btb.lookups == 2 and btb.hits == 1
        assert btb.hit_rate == 0.5
        btb.reset_stats()
        assert btb.lookups == 0

    def test_flush_invalidates_all(self):
        btb = BranchTargetBuffer(64, 2)
        btb.update(0x4000, 0x5000)
        btb.flush()
        assert not btb.lookup(0x4000).hit
        assert btb.valid_entry_count() == 0

    def test_flush_thread_only_removes_that_owner(self):
        btb = BranchTargetBuffer(64, 2)
        btb.update(0x4000, 0x5000, thread_id=0)
        btb.update(0x8000, 0x9000, thread_id=1)
        btb.flush_thread(0)
        assert not btb.lookup(0x4000, 0).hit
        assert btb.lookup(0x8000, 1).hit

    def test_snapshot_is_independent_copy(self):
        btb = BranchTargetBuffer(16, 2)
        btb.update(0x4000, 0x5000)
        snapshot = btb.snapshot()
        btb.flush()
        assert any(e.valid for ways in snapshot for e in ways)

    @given(st.integers(min_value=0x1000, max_value=0xFFFFF0),
           st.integers(min_value=0, max_value=(1 << 32) - 1))
    @settings(max_examples=50)
    def test_update_then_lookup_property(self, pc, target):
        pc &= ~0x3
        btb = BranchTargetBuffer(128, 2)
        btb.update(pc, target)
        result = btb.lookup(pc)
        assert result.hit and result.target == target & ((1 << 32) - 1)


class TestBtbWithIsolation:
    def test_same_geometry_shares_kernel_code_and_row_keys(self):
        first, second = (
            BranchTargetBuffer(64, 2, isolation=XorContentIsolation(
                KeyManager(seed=seed)))
            for seed in (4, 5))
        for btb in (first, second):
            assert btb.exec_conditional_kernel(0).arm == "fused-xor"
        key = ("btb", "fused-xor")
        # One compile per distinct kernel source and process.
        assert first._kernel_code[key] is second._kernel_code[key]
        assert first._tag_row_keys is second._tag_row_keys
        assert isinstance(first._target_row_keys, tuple)

    def test_same_thread_roundtrip_under_xor(self):
        btb = BranchTargetBuffer(64, 2, isolation=XorContentIsolation(KeyManager(seed=4)))
        btb.update(0x4000, 0x12345678, thread_id=0)
        result = btb.lookup(0x4000, thread_id=0)
        assert result.hit and result.target == 0x12345678

    def test_other_thread_cannot_reuse_entry_under_xor(self):
        btb = BranchTargetBuffer(64, 2, isolation=XorContentIsolation(KeyManager(seed=4)))
        btb.update(0x4000, 0x12345678, thread_id=0)
        assert not btb.lookup(0x4000, thread_id=1).hit

    def test_key_rotation_invalidates_residual_entries(self):
        iso = XorContentIsolation(KeyManager(seed=4))
        btb = BranchTargetBuffer(64, 2, isolation=iso)
        btb.update(0x4000, 0x12345678, thread_id=0)
        iso.on_context_switch(0)
        assert not btb.lookup(0x4000, thread_id=0).hit

    def test_index_randomisation_hides_set_mapping(self):
        iso = NoisyXorIsolation(KeyManager(seed=4))
        btb = BranchTargetBuffer(256, 2, isolation=iso)
        differing = sum(btb.set_of(0x4000 + 4 * i, 0) != btb.logical_set_of(0x4000 + 4 * i)
                        for i in range(64))
        assert differing > 32  # almost every index is remapped

    def test_owner_visibility_under_precise_flush(self):
        iso = PreciseFlushIsolation(KeyManager(seed=4))
        btb = BranchTargetBuffer(64, 2, isolation=iso)
        btb.update(0x4000, 0x5000, thread_id=1)
        assert not btb.lookup(0x4000, thread_id=0).hit
        assert btb.lookup(0x4000, thread_id=1).hit

    @pytest.mark.parametrize("overrides", [None, {"row_diversified": False}],
                             ids=["xor_btb", "xor_btb_flat"])
    def test_scalar_and_kernel_paths_draw_the_same_thread_keys(self,
                                                               overrides):
        # No draw_keys: thread 0's first branch misses and is not taken
        # (nothing to decode, nothing to install) before thread 1 installs
        # one, so each thread's key is drawn at its first BTB access only if
        # the scalar path draws where the fused-XOR kernel does.
        script = [(0x4000, False, 0x5000, 0), (0x8000, True, 0x9000, 1),
                  (0x4000, True, 0x5000, 0)]
        masters = {}
        for path in ("execute_branch", "execute_branch_fast"):
            bpu = make_bpu("bimodal", "xor_btb", config_overrides=overrides)
            for pc, taken, target, thread in script:
                getattr(bpu, path)(pc, taken, target, BranchType.CONDITIONAL,
                                   thread)
            keys = bpu.isolation.key_manager
            masters[path] = [keys.master_key(thread) for thread in (0, 1)]
        assert masters["execute_branch"] == masters["execute_branch_fast"]


class TestRas:
    def test_push_pop_lifo(self):
        ras = ReturnAddressStack(8)
        ras.push(0x100)
        ras.push(0x200)
        assert ras.pop() == 0x200
        assert ras.pop() == 0x100

    def test_empty_pop_returns_none(self):
        assert ReturnAddressStack(8).pop() is None

    def test_overflow_wraps_and_keeps_most_recent(self):
        ras = ReturnAddressStack(4)
        for i in range(6):
            ras.push(0x1000 + i)
        assert ras.pop() == 0x1005
        assert ras.occupancy() == 3

    def test_per_thread_stacks(self):
        ras = ReturnAddressStack(8)
        ras.push(0xA, thread_id=0)
        ras.push(0xB, thread_id=1)
        assert ras.pop(thread_id=1) == 0xB
        assert ras.pop(thread_id=0) == 0xA

    def test_flush_thread(self):
        ras = ReturnAddressStack(8)
        ras.push(0xA, 0)
        ras.push(0xB, 1)
        ras.flush_thread(0)
        assert ras.pop(0) is None
        assert ras.pop(1) == 0xB

    def test_invalid_depth_rejected(self):
        with pytest.raises(ValueError):
            ReturnAddressStack(0)


class TestBranchTypeHelpers:
    def test_conditional_uses_direction_predictor(self):
        assert BranchType.CONDITIONAL.uses_direction_predictor
        assert not BranchType.INDIRECT.uses_direction_predictor

    def test_return_uses_ras_not_btb(self):
        assert BranchType.RETURN.uses_ras
        assert not BranchType.RETURN.uses_btb

    def test_indirect_uses_btb(self):
        assert BranchType.INDIRECT.uses_btb


class TestKernelFetch:
    """The probe kernels the cores fetch straight from the BTB."""

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


def _small_btb(ways):
    # Eight sets: the workload's branches collide constantly, and threads
    # running the same code install the same tags in the same sets.
    return BranchTargetBuffer(8, ways,
                              isolation=PreciseFlushIsolation(KeyManager(seed=1)))


def _btb_state(btb):
    return btb.snapshot(), btb.lookups, btb.hits, btb._clock


@pytest.mark.parametrize("path", ["conditional", "indirect"])
def test_btb_same_tag_from_two_threads_in_one_set(path):
    """A taken branch takes over the way holding its tag, whoever owns it."""
    fast, oracle = _small_btb(2), _small_btb(2)
    pc = 0x4000
    other_pc = pc + 8 * 4  # same set, different tag

    def step(thread, branch_pc, target):
        result = oracle.lookup(branch_pc, thread)
        if path == "conditional":
            oracle.update(branch_pc, target, thread, BranchType.CONDITIONAL)
            got = fast.exec_conditional_kernel(thread)(branch_pc, target, True)
        else:
            oracle.update(branch_pc, target, thread, BranchType.INDIRECT)
            got = fast.execute_indirect_fast(branch_pc, target,
                                             BranchType.INDIRECT, thread)
        assert got == (result.hit, result.target)
        return got

    assert step(1, pc, 0x1000) == (False, None)       # thread 1: way 0
    assert step(0, other_pc, 0x2000) == (False, None)  # thread 0: way 1
    assert step(1, pc, 0x1000) == (True, 0x1000)
    # Thread 0 cannot see thread 1's entry, but its install re-uses way 0
    # (same tag) instead of evicting the LRU way 1 and duplicating the tag.
    assert step(0, pc, 0x3000) == (False, None)
    assert _btb_state(fast) == _btb_state(oracle)
    ways = fast.entries_in_set(fast.set_of(pc))
    assert [(way.valid, way.owner) for way in ways] == [(True, 0), (True, 0)]
    assert step(0, pc, 0x3000) == (True, 0x3000)
    assert step(1, pc, 0x1000) == (False, None)
    assert _btb_state(fast) == _btb_state(oracle)
