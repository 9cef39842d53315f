"""Attack drivers on the kernel path vs the scalar ``execute_branch`` oracle.

``AttackEnvironment.commit`` is the single commit point of every attacker
and victim branch: conditional branches run the thread's direction and BTB
probe kernels (the batched engines' path), other types the unit's fused
``execute_branch_fast``.  Each test here runs one attack study twice: once
as shipped, and once with ``AttackEnvironment.commit`` monkeypatched onto
the scalar ``execute_branch`` (unfused ``lookup``/``update`` pairs on every
structure).  The attack results and the final state of every unit the study
built must be equal: raw direction-table rows and owners, every BTB way
(stored fields, owner, LRU stamp), BTB hit counters and per-thread predictor
statistics.
"""

import gc
import weakref

import pytest

import repro.attacks.covert_channel as covert_channel
import repro.attacks.harness as harness
import repro.experiments.ablations as ablations
import repro.security.leakage as leakage
from repro.attacks import ALL_ATTACKS, AttackEnvironment, run_attack
from repro.core.secure import BranchPredictionUnit

#: (preset, config overrides): the Table 1 mechanisms, the 2-bit XOR-PHT and
#: one non-XOR encoder, which keeps every storage access on the generic
#: isolation dispatch.
PRESETS = [
    ("baseline", None),
    ("complete_flush", None),
    ("precise_flush", None),
    ("xor_bp", None),
    ("noisy_xor_bp", None),
    ("xor_pht_simple", None),
    ("noisy_xor_bp", {"encoder": "sbox"}),
]
PRESET_IDS = [preset if overrides is None else f"{preset}-sbox"
              for preset, overrides in PRESETS]

ITERATIONS = 12


def _scalar_commit(self, pc, taken, target, branch_type, thread_id):
    self.bpu.execute_branch(pc, taken, target, branch_type, thread_id)


def _bpu_state(bpu):
    direction = bpu.direction
    tables = [(list(table.rows()),
               [table.owner_of(row) for row in range(len(table))])
              for table in direction.tables()]
    stats = {thread: (s.lookups, s.mispredictions)
             for thread, s in sorted(direction._stats.items())}
    btb = bpu.btb
    return {"tables": tables, "stats": stats, "btb": btb.snapshot(),
            "btb_counts": (btb.lookups, btb.hits),
            "switches": (bpu.context_switches, bpu.privilege_switches)}


def _run(study, monkeypatch, overrides, *, scalar):
    """Run ``study()``; returns its result and the state of each unit built."""
    built = []
    with monkeypatch.context() as patch:
        for module in (harness, covert_channel, leakage):
            real = module.make_bpu

            def capture(*args, _real=real, **kwargs):
                if overrides:
                    kwargs["config_overrides"] = overrides
                bpu = _real(*args, **kwargs)
                built.append(bpu)
                return bpu

            patch.setattr(module, "make_bpu", capture)
        if scalar:
            patch.setattr(AttackEnvironment, "commit", _scalar_commit)
        result = study()
    assert built, "the study built no branch prediction unit"
    return result, [_bpu_state(bpu) for bpu in built]


def _assert_parity(study, monkeypatch, overrides):
    fast = _run(study, monkeypatch, overrides, scalar=False)
    scalar = _run(study, monkeypatch, overrides, scalar=True)
    assert fast[0] == scalar[0]
    assert fast[1] == scalar[1]


@pytest.mark.parametrize("smt", [False, True], ids=["st", "smt"])
@pytest.mark.parametrize("preset,overrides", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("attack", sorted(ALL_ATTACKS))
def test_attack_matches_scalar_oracle(attack, preset, overrides, smt,
                                      monkeypatch):
    _assert_parity(lambda: run_attack(attack, preset, smt=smt,
                                      iterations=ITERATIONS),
                   monkeypatch, overrides)


@pytest.mark.parametrize("smt", [False, True], ids=["st", "smt"])
@pytest.mark.parametrize("preset,overrides", PRESETS, ids=PRESET_IDS)
def test_covert_channel_matches_scalar_oracle(preset, overrides, smt,
                                              monkeypatch):
    _assert_parity(lambda: covert_channel.run_covert_channel(
        preset, payload_bits=64, smt=smt), monkeypatch, overrides)


@pytest.mark.parametrize("smt", [False, True], ids=["st", "smt"])
@pytest.mark.parametrize("preset,overrides", PRESETS, ids=PRESET_IDS)
@pytest.mark.parametrize("measure", ["measure_direction_leakage",
                                     "measure_btb_occupancy_leakage"])
def test_leakage_matches_scalar_oracle(measure, preset, overrides, smt,
                                       monkeypatch):
    _assert_parity(lambda: getattr(leakage, measure)(preset, trials=40,
                                                     smt=smt),
                   monkeypatch, overrides)


@pytest.mark.parametrize("scalar", [False, True], ids=["fast", "oracle"])
def test_only_the_oracle_run_takes_the_scalar_path(scalar, monkeypatch):
    """The oracle run commits every branch through ``execute_branch`` and
    the fast run commits none that way."""
    calls = []
    real = BranchPredictionUnit.execute_branch

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(BranchPredictionUnit, "execute_branch", counting)
    branches = []
    for method in ("victim_branch", "attacker_branch"):
        def counted(self, *args, _real=getattr(AttackEnvironment, method)):
            branches.append(args)
            return _real(self, *args)

        monkeypatch.setattr(AttackEnvironment, method, counted)
    # A PHT attack (conditional branches) and a BTB one (indirect).
    for attack in ("pht_training", "spectre_v2_btb_training"):
        _run(lambda: run_attack(attack, "baseline", iterations=1),
             monkeypatch, None, scalar=scalar)
    assert branches
    assert len(calls) == (len(branches) if scalar else 0)


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
