"""Tests for the branch prediction unit wrapper and the configuration registry."""

import pytest

from repro.core.keys import KeyManager
from repro.core.registry import (
    PROTECTION_PRESETS,
    _IsolationGroup,
    make_bpu,
    make_isolation,
    preset_names,
    resolve_preset,
)
from repro.core.secure import BranchOutcome
from repro.types import BranchType, Privilege


class TestBranchPredictionUnit:
    def test_conditional_branch_flow(self):
        bpu = make_bpu("bimodal", "baseline")
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert isinstance(outcome, BranchOutcome)
        assert outcome.btb_accessed

    def test_conditional_learns_direction_and_target(self):
        bpu = make_bpu("bimodal", "baseline")
        for _ in range(6):
            bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert not outcome.mispredicted

    def test_btb_miss_forces_fall_through_policy(self):
        bpu = make_bpu("bimodal", "baseline", btb_miss_forces_not_taken=True)
        # Train the direction predictor without installing a BTB entry by
        # training a *different* aliasing branch... simpler: first execution
        # of a taken branch must fall through (BTB cold).
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert outcome.predicted_taken is False
        assert outcome.direction_mispredicted

    def test_gem5_policy_does_not_force_fall_through(self):
        bpu = make_bpu("bimodal", "baseline", btb_miss_forces_not_taken=False)
        for _ in range(4):
            bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        bpu.btb.flush()
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert outcome.predicted_taken is True
        assert not outcome.direction_mispredicted
        assert not outcome.btb_hit

    def test_indirect_branch_uses_btb(self):
        bpu = make_bpu("bimodal", "baseline")
        first = bpu.execute_branch(0x6000, True, 0x7000, BranchType.INDIRECT)
        assert first.target_mispredicted
        second = bpu.execute_branch(0x6000, True, 0x7000, BranchType.INDIRECT)
        assert not second.target_mispredicted

    def test_call_and_return_use_ras(self):
        bpu = make_bpu("bimodal", "baseline")
        bpu.execute_branch(0x6000, True, 0x9000, BranchType.CALL)
        outcome = bpu.execute_branch(0x9040, True, 0x6004, BranchType.RETURN)
        assert not outcome.target_mispredicted

    def test_return_with_empty_ras_mispredicts(self):
        bpu = make_bpu("bimodal", "baseline")
        outcome = bpu.execute_branch(0x9040, True, 0x6004, BranchType.RETURN)
        assert outcome.target_mispredicted

    def test_notifications_are_forwarded_and_counted(self):
        bpu = make_bpu("bimodal", "noisy_xor_bp")
        bpu.notify_context_switch(0)
        bpu.notify_privilege_switch(0, Privilege.KERNEL)
        assert bpu.context_switches == 1
        assert bpu.privilege_switches == 1

    def test_context_switch_invalidates_residual_state_under_xor(self):
        bpu = make_bpu("bimodal", "xor_bp")
        for _ in range(6):
            bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        bpu.notify_context_switch(0)
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert outcome.mispredicted

    def test_context_switch_keeps_state_under_baseline(self):
        bpu = make_bpu("bimodal", "baseline")
        for _ in range(6):
            bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        bpu.notify_context_switch(0)
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert not outcome.mispredicted

    def test_flush_and_reset_stats(self):
        bpu = make_bpu("bimodal", "baseline")
        bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        bpu.flush()
        bpu.reset_stats()
        assert bpu.direction.total_stats().lookups == 0
        assert bpu.btb.lookups == 0

    def test_mispredicted_property(self):
        outcome = BranchOutcome(BranchType.CONDITIONAL, True, True,
                                direction_mispredicted=False,
                                target_mispredicted=True)
        assert outcome.mispredicted


class TestRegistry:
    def test_all_presets_resolve(self):
        for name in preset_names():
            assert resolve_preset(name).name == name

    def test_paper_aliases(self):
        assert resolve_preset("CF").name == "complete_flush"
        assert resolve_preset("PF").name == "precise_flush"
        assert resolve_preset("Noisy-XOR-BP").name == "noisy_xor_bp"

    def test_unknown_preset_rejected(self):
        with pytest.raises(KeyError):
            resolve_preset("quantum_flush")

    def test_unknown_mechanism_rejected(self):
        with pytest.raises(KeyError):
            make_isolation("quantum")

    @pytest.mark.parametrize("preset", sorted(PROTECTION_PRESETS))
    def test_every_preset_builds_a_working_bpu(self, preset):
        bpu = make_bpu("gshare", preset, btb_sets=64)
        outcome = bpu.execute_branch(0x4000, True, 0x5000, BranchType.CONDITIONAL)
        assert isinstance(outcome, BranchOutcome)
        bpu.notify_context_switch(0)
        bpu.notify_privilege_switch(0, Privilege.KERNEL)

    def test_btb_and_pht_share_one_key_manager(self):
        bpu = make_bpu("gshare", "noisy_xor_bp")
        mechanisms = bpu.isolation.mechanisms
        assert mechanisms[0].key_manager is mechanisms[1].key_manager

    @pytest.mark.parametrize("switch", ["context", "privilege"])
    def test_group_notifies_each_mechanism_once_in_order(self, switch):
        calls = []

        class Spy:
            def __init__(self, name):
                self.name = name

            def on_context_switch(self, thread_id):
                calls.append((self.name, thread_id))

            def on_privilege_switch(self, thread_id, privilege):
                calls.append((self.name, thread_id))

        first, second = Spy("first"), Spy("second")
        group = _IsolationGroup([first, second, first, second], KeyManager())
        if switch == "context":
            group.on_context_switch(1)
        else:
            group.on_privilege_switch(1, Privilege.KERNEL)
        assert calls == [("first", 1), ("second", 1)]

    def test_group_exposes_preset_name(self):
        bpu = make_bpu("gshare", "noisy_xor_bp")
        assert bpu.isolation.name == "noisy_xor_bp"

    def test_config_overrides_change_encoder(self):
        bpu = make_bpu("bimodal", "xor_bp", config_overrides={"encoder": "sbox"})
        # The PHT mechanism should carry an S-box encoder.
        pht_mechanism = bpu.direction.isolation
        assert pht_mechanism.encoder.name == "sbox"

    def test_xor_pht_simple_disables_row_diversification(self):
        bpu = make_bpu("bimodal", "xor_pht_simple")
        assert bpu.direction.isolation._row_diversified is False

    def test_btb_only_preset_leaves_pht_unprotected(self):
        bpu = make_bpu("bimodal", "xor_btb")
        assert bpu.btb.isolation.protects_content
        assert not bpu.direction.isolation.protects_content

    def test_pht_only_preset_leaves_btb_unprotected(self):
        bpu = make_bpu("bimodal", "noisy_xor_pht")
        assert not bpu.btb.isolation.protects_content
        assert bpu.direction.isolation.protects_content

    def test_seed_controls_keys(self):
        a = make_bpu("bimodal", "xor_bp", seed=1)
        b = make_bpu("bimodal", "xor_bp", seed=1)
        c = make_bpu("bimodal", "xor_bp", seed=2)
        key = lambda bpu: bpu.isolation.key_manager.master_key(0)
        assert key(a) == key(b)
        assert key(a) != key(c)


#: Direction predictors with generated execute kernels.
KERNEL_PREDICTORS = ["tage", "gshare", "tournament", "ltage", "tage_sc_l"]

#: Every preset whose mechanisms are plain-XOR encoders (the paper's
#: headline defenses); ``noisy_xor_btb``/``noisy_xor_pht`` protect only one
#: structure, so the other side runs the passthrough fast path.
XOR_PRESETS = ["xor_bp", "noisy_xor_bp", "noisy_xor_btb", "noisy_xor_pht"]


@pytest.mark.parametrize("predictor", KERNEL_PREDICTORS)
@pytest.mark.parametrize("preset", ["baseline", "noisy_xor_bp"])
def test_force_generic_dispatch_reaches_every_kernel(predictor, preset):
    bpu = make_bpu(predictor, preset, seed=3)
    for thread in (0, 1):
        assert bpu.direction.exec_kernel(thread).arm != "generic"
    bpu.force_generic_dispatch()
    for thread in (0, 1):
        assert bpu.direction.exec_kernel(thread).arm == "generic"


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
