"""Tests for the attack framework: primitives, individual attacks, harness."""

import gc
import weakref

import pytest

import repro.attacks.covert_channel as covert_channel
import repro.attacks.harness as harness
import repro.experiments.ablations as ablations
import repro.security.leakage as leakage

from repro.attacks import (
    ALL_ATTACKS,
    AttackEnvironment,
    AttackResult,
    AttackScenario,
    TimingChannel,
    make_attack,
    run_attack,
    run_attack_matrix,
    summarise,
)
from repro.core.registry import make_bpu
from repro.types import BranchType


class TestTimingChannel:
    def test_noiseless_channel_is_faithful(self):
        channel = TimingChannel(false_positive=0.0, false_negative=0.0)
        assert channel.observe(True) is True
        assert channel.observe(False) is False

    def test_noise_rates_are_approximately_respected(self):
        channel = TimingChannel(false_positive=0.1, false_negative=0.2, seed=1)
        fp = sum(channel.observe(False) for _ in range(3000)) / 3000
        fn = sum(not channel.observe(True) for _ in range(3000)) / 3000
        assert fp == pytest.approx(0.1, abs=0.03)
        assert fn == pytest.approx(0.2, abs=0.03)


class TestAttackEnvironment:
    def test_single_thread_handoff_triggers_context_switch(self):
        bpu = make_bpu("bimodal", "baseline")
        env = AttackEnvironment(bpu, smt=False)
        env.attacker_branch(0x4000, True, 0x5000)
        env.victim_branch(0x4000, True, 0x5000)
        env.attacker_branch(0x4000, True, 0x5000)
        assert env.context_switches == 2

    def test_smt_mode_never_switches(self):
        bpu = make_bpu("bimodal", "baseline")
        env = AttackEnvironment(bpu, smt=True)
        env.attacker_branch(0x4000, True, 0x5000)
        env.victim_branch(0x4000, True, 0x5000)
        assert env.context_switches == 0
        assert env.attacker_thread == 1 and env.victim_thread == 0

    def test_repeated_handoff_to_same_party_is_free(self):
        bpu = make_bpu("bimodal", "baseline")
        env = AttackEnvironment(bpu, smt=False)
        env.attacker_branch(0x4000, True, 0x5000)
        env.attacker_branch(0x4000, True, 0x5000)
        assert env.context_switches == 0

    def test_victim_syscall_rotates_keys(self):
        bpu = make_bpu("bimodal", "xor_bp")
        env = AttackEnvironment(bpu, smt=False)
        generation_before = bpu.isolation.key_manager.generation(0)
        env.victim_syscall()
        assert bpu.isolation.key_manager.generation(0) > generation_before

    @pytest.mark.parametrize("smt", [False, True], ids=["st", "smt"])
    def test_threads_hold_keys_from_the_start_in_thread_order(self, smt):
        """Keys are drawn at construction, victim first, so which thread
        touches a keyed structure first cannot decide who gets which draw."""
        bpu = make_bpu("bimodal", "xor_btb")
        AttackEnvironment(bpu, smt=smt)
        assert list(bpu.isolation.key_manager._states) == (
            [0, 1] if smt else [0])

    @pytest.mark.parametrize("smt", [False, True], ids=["st", "smt"])
    @pytest.mark.parametrize("preset", ["baseline", "precise_flush",
                                        "noisy_xor_bp"])
    @pytest.mark.parametrize("predictor", ["gshare", "tage_sc_l"])
    def test_victim_branch_returns_the_raw_prediction(self, predictor, preset,
                                                      smt):
        """A conditional ``victim_branch`` returns what the direction
        predictor's ``lookup`` gave just before it; other types ``None``."""
        bpu = make_bpu(predictor, preset)
        env = AttackEnvironment(bpu, smt=smt)
        pc, target = 0x4000, 0x5000
        seen = set()
        for step, taken in enumerate([True] * 24 + [False] * 24):
            if step % 8 == 0:
                env.attacker_branch(pc, True, target)
            env.run_as_victim()
            expected = bpu.direction.lookup(pc, env.victim_thread).taken
            assert env.victim_branch(pc, taken, target) is expected
            seen.add(expected)
        assert seen == {False, True}
        for branch_type in BranchType:
            if branch_type is not BranchType.CONDITIONAL:
                assert env.victim_branch(pc + 0x100, True, target,
                                         branch_type) is None

    def test_probe_helpers(self):
        bpu = make_bpu("bimodal", "baseline")
        env = AttackEnvironment(bpu, smt=False,
                                channel=TimingChannel(0.0, 0.0))
        env.attacker_branch(0x4000, True, 0x5000, BranchType.DIRECT)
        assert env.attacker_btb_probe(0x4000) is True
        assert env.attacker_btb_predicted_target(0x4000) == 0x5000
        assert env.attacker_btb_probe(0x8888) is False


class TestHarness:
    def test_all_attacks_construct(self):
        for name in ALL_ATTACKS:
            assert make_attack(name).name == name

    def test_unknown_attack_rejected(self):
        with pytest.raises(KeyError):
            make_attack("rowhammer")

    def test_scenario_builds_environment(self):
        env = AttackScenario(mechanism="noisy_xor_bp", smt=True).build_environment()
        assert env.smt

    def test_run_attack_returns_result(self):
        result = run_attack("branch_shadowing", "baseline", iterations=50)
        assert isinstance(result, AttackResult)
        assert result.iterations == 50
        assert 0.0 <= result.success_rate <= 1.0

    def test_attack_matrix_and_summary(self):
        results = run_attack_matrix(["branch_shadowing"], ["baseline", "xor_btb"],
                                    iterations=40)
        table = summarise(results)
        assert set(table) == {"baseline", "xor_btb"}
        assert table["baseline"]["branch_shadowing"] > table["xor_btb"]["branch_shadowing"]

    def test_result_advantage(self):
        result = AttackResult("a", "m", False, 100, 75, chance_level=0.5)
        assert result.advantage == pytest.approx(0.25)


class TestReuseAttacksSingleThread:
    """PoC behaviour on the single-threaded core (Section 5.5)."""

    def test_btb_training_succeeds_on_baseline(self):
        result = run_attack("spectre_v2_btb_training", "baseline", iterations=200)
        assert result.success_rate > 0.9

    @pytest.mark.parametrize("mechanism", ["xor_btb", "noisy_xor_btb", "xor_bp",
                                           "noisy_xor_bp", "complete_flush",
                                           "precise_flush"])
    def test_btb_training_defeated_by_protection(self, mechanism):
        result = run_attack("spectre_v2_btb_training", mechanism, iterations=200)
        assert result.success_rate < 0.05

    def test_pht_training_succeeds_on_baseline(self):
        result = run_attack("pht_training", "baseline", iterations=15)
        assert result.success_rate > 0.9
        assert result.details["training_accuracy"] > 0.9

    @pytest.mark.parametrize("mechanism", ["xor_pht", "noisy_xor_pht", "xor_bp",
                                           "noisy_xor_bp", "complete_flush"])
    def test_pht_training_defeated_by_protection(self, mechanism):
        result = run_attack("pht_training", mechanism, iterations=15)
        assert result.success_rate < 0.05

    def test_branchscope_perceives_direction_on_baseline(self):
        result = run_attack("branchscope", "baseline", iterations=200)
        assert result.success_rate > 0.9

    @pytest.mark.parametrize("mechanism", ["xor_pht", "noisy_xor_pht",
                                           "complete_flush", "precise_flush"])
    def test_branchscope_defeated_by_protection(self, mechanism):
        result = run_attack("branchscope", mechanism, iterations=200)
        assert abs(result.success_rate - 0.5) < 0.15

    def test_branch_shadowing_on_baseline_and_protected(self):
        baseline = run_attack("branch_shadowing", "baseline", iterations=200)
        protected = run_attack("branch_shadowing", "noisy_xor_btb", iterations=200)
        assert baseline.success_rate > 0.9
        assert abs(protected.success_rate - 0.5) < 0.15


class TestContentionAttacks:
    def test_sbpa_succeeds_on_baseline(self):
        result = run_attack("sbpa", "baseline", iterations=200)
        assert result.success_rate > 0.9

    @pytest.mark.parametrize("mechanism", ["complete_flush", "precise_flush",
                                           "xor_btb", "noisy_xor_btb"])
    def test_sbpa_defeated_on_single_thread(self, mechanism):
        result = run_attack("sbpa", mechanism, iterations=200)
        assert abs(result.success_rate - 0.5) < 0.15

    def test_sbpa_on_smt_defeated_only_by_index_randomisation(self):
        flush = run_attack("sbpa", "complete_flush", smt=True, iterations=150)
        content = run_attack("sbpa", "xor_btb", smt=True, iterations=150)
        noisy = run_attack("sbpa", "noisy_xor_btb", smt=True, iterations=150)
        assert flush.success_rate > 0.9
        assert content.success_rate > 0.9
        assert abs(noisy.success_rate - 0.5) < 0.15

    def test_jump_over_aslr_recovers_address_bits_without_index_keys(self):
        baseline = run_attack("jump_over_aslr", "baseline", smt=True, iterations=60)
        content = run_attack("jump_over_aslr", "xor_btb", smt=True, iterations=60)
        assert baseline.success_rate > 0.8
        assert content.success_rate > 0.8

    def test_jump_over_aslr_defeated_by_noisy_xor(self):
        result = run_attack("jump_over_aslr", "noisy_xor_btb", smt=True, iterations=60)
        assert result.success_rate < 0.3


class TestSmtReuseAttacks:
    def test_flush_mechanisms_do_not_protect_reuse_on_smt(self):
        result = run_attack("spectre_v2_btb_training", "complete_flush", smt=True,
                            iterations=150)
        assert result.success_rate > 0.9

    def test_thread_id_tagging_protects_reuse_on_smt(self):
        result = run_attack("spectre_v2_btb_training", "precise_flush", smt=True,
                            iterations=150)
        assert result.success_rate < 0.05

    def test_xor_btb_protects_reuse_on_smt(self):
        result = run_attack("spectre_v2_btb_training", "xor_btb", smt=True,
                            iterations=150)
        assert result.success_rate < 0.05

    def test_calibrated_branchscope_breaks_naive_xor_pht(self):
        naive = run_attack("branchscope_calibrated", "xor_pht_simple", smt=True,
                           iterations=150)
        enhanced = run_attack("branchscope_calibrated", "noisy_xor_pht", smt=True,
                              iterations=150)
        assert naive.success_rate > 0.85
        assert enhanced.success_rate < 0.75


#: Every driver that builds an attack unit, one call each.
STUDIES = {
    "run_attack": lambda preset: run_attack("branchscope", preset, smt=True,
                                            iterations=4),
    "covert_channel": lambda preset: covert_channel.run_covert_channel(
        preset, payload_bits=16),
    "direction_leakage": lambda preset: leakage.measure_direction_leakage(
        preset, trials=8, smt=True),
    "btb_occupancy_leakage": lambda preset:
        leakage.measure_btb_occupancy_leakage(preset, trials=8),
    "key_refresh": lambda preset: ablations._cross_privilege_training_rate(
        True, iterations=4),
}


@pytest.mark.parametrize("preset", ["baseline", "precise_flush", "xor_bp",
                                    "noisy_xor_bp"])
@pytest.mark.parametrize("study", sorted(STUDIES))
def test_study_frees_its_unit_by_refcount(study, preset, monkeypatch):
    """The fast path caches BTB kernels that bind the BTB; each study drops
    them, so its unit is gone on return even with the cyclic GC off."""
    refs = []
    for module in (harness, covert_channel, leakage, ablations):
        def spy(*args, _real=module.make_bpu, **kwargs):
            bpu = _real(*args, **kwargs)
            refs.append(weakref.ref(bpu.btb))
            return bpu

        monkeypatch.setattr(module, "make_bpu", spy)
    gc.collect()
    gc.disable()
    try:
        STUDIES[study](preset)
        alive = [ref for ref in refs if ref() is not None]
    finally:
        gc.enable()
    assert len(refs) == 1
    assert alive == []
