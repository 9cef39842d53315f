"""Attack experiment harness.

The harness builds a branch prediction unit for a given protection preset,
wires an :class:`repro.attacks.primitives.AttackEnvironment` around it
(single-threaded or SMT scenario) and runs an attack for many iterations.
It is used by the Section 5.5 proof-of-concept experiment, by the Table 1
security-classification analysis, and directly by the examples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from ..core.registry import make_bpu
from .base import Attack, AttackResult
from .branch_shadowing import BranchShadowingAttack
from .branchscope import BranchScopeAttack, CalibratedBranchScopeAttack
from .jump_aslr import JumpOverAslrAttack
from .pht_training import PhtTrainingAttack
from .primitives import AttackEnvironment, TimingChannel
from .sbpa import SbpaAttack
from .spectre_v2 import BtbTrainingAttack

__all__ = ["AttackScenario", "ALL_ATTACKS", "make_attack", "run_attack",
           "run_attack_matrix"]

#: Attack constructors by name.
ALL_ATTACKS = {
    "pht_training": PhtTrainingAttack,
    "spectre_v2_btb_training": BtbTrainingAttack,
    "branchscope": BranchScopeAttack,
    "branchscope_calibrated": CalibratedBranchScopeAttack,
    "sbpa": SbpaAttack,
    "branch_shadowing": BranchShadowingAttack,
    "jump_over_aslr": JumpOverAslrAttack,
}


def make_attack(name: str, **kwargs) -> Attack:
    """Construct an attack by name.

    Raises:
        KeyError: when ``name`` is not a known attack.
    """
    if name not in ALL_ATTACKS:
        raise KeyError(f"unknown attack: {name!r}")
    return ALL_ATTACKS[name](**kwargs)


@dataclass
class AttackScenario:
    """A (mechanism, core-type) configuration to attack.

    Attributes:
        mechanism: protection preset name (``baseline``, ``noisy_xor_bp``, ...).
        smt: SMT (concurrent attacker) scenario when True; single-threaded
            time-sharing scenario when False.
        predictor: direction predictor used for PHT attacks (the PoC targets
            the per-address component, so a bimodal PHT is the default).
        btb_sets: BTB geometry for BTB attacks (the FPGA prototype's 256×2).
        btb_ways: BTB associativity.
        seed: hardware-key RNG seed.
    """

    mechanism: str = "baseline"
    smt: bool = False
    predictor: str = "bimodal"
    btb_sets: int = 256
    btb_ways: int = 2
    seed: int = 0xC0FFEE

    def build_environment(self, channel: Optional[TimingChannel] = None
                          ) -> AttackEnvironment:
        """Construct the branch prediction unit and attack environment."""
        bpu = make_bpu(self.predictor, self.mechanism, seed=self.seed,
                       btb_sets=self.btb_sets, btb_ways=self.btb_ways,
                       btb_miss_forces_not_taken=True)
        return AttackEnvironment(bpu, smt=self.smt, channel=channel)


def run_attack(attack_name: str, mechanism: str = "baseline", *,
               smt: bool = False, iterations: int = 1000,
               predictor: str = "bimodal",
               channel: Optional[TimingChannel] = None,
               attack_kwargs: Optional[dict] = None,
               scenario_kwargs: Optional[dict] = None) -> AttackResult:
    """Run one attack against one protection configuration.

    Args:
        attack_name: one of :data:`ALL_ATTACKS`.
        mechanism: protection preset name.
        smt: concurrent-attacker (SMT) scenario.
        iterations: number of attack iterations.
        predictor: direction predictor for the unit under attack.
        channel: timing-channel noise model (defaults per attack harness).
        attack_kwargs: extra arguments for the attack constructor.
        scenario_kwargs: extra arguments for :class:`AttackScenario`.

    Returns:
        The :class:`repro.attacks.base.AttackResult`.
    """
    scenario = AttackScenario(mechanism=mechanism, smt=smt, predictor=predictor,
                              **(scenario_kwargs or {}))
    env = scenario.build_environment(channel)
    attack = make_attack(attack_name, **(attack_kwargs or {}))
    result = attack.run(env, iterations=iterations, mechanism=mechanism)
    # The fast path cached BTB kernels that bind the BTB; dropping them lets
    # the unit die by reference counting instead of waiting for the GC.
    env.bpu.release_kernels()
    return result


def run_attack_matrix(attack_names: Iterable[str], mechanisms: Iterable[str], *,
                      smt: bool = False, iterations: int = 300,
                      predictor: str = "bimodal") -> List[AttackResult]:
    """Run every (attack, mechanism) combination and collect the results."""
    results: List[AttackResult] = []
    for mechanism in mechanisms:
        for attack_name in attack_names:
            results.append(run_attack(attack_name, mechanism, smt=smt,
                                      iterations=iterations, predictor=predictor))
    return results


def summarise(results: Iterable[AttackResult]) -> Dict[str, Dict[str, float]]:
    """Success rates keyed by mechanism then attack name."""
    table: Dict[str, Dict[str, float]] = {}
    for result in results:
        table.setdefault(result.mechanism, {})[result.attack] = result.success_rate
    return table
