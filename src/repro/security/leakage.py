"""Information-theoretic leakage measurement for branch-predictor channels.

Table 1 classifies each mechanism qualitatively (Defend / Mitigate / No
Protection).  This module backs those verdicts with a quantitative measure:
the *mutual information* between a victim secret and what an attacker can
observe through the predictor, estimated empirically by replaying the
prime–victim–probe cycle many times with a randomly drawn secret bit.

Two channels are modelled, matching the paper's two attack families
(Section 2.1):

* the **direction channel** (reuse-based, PHT): the attacker primes a shared
  PHT entry and later reads back the predicted direction, BranchScope style;
* the **occupancy channel** (contention-based, BTB): the attacker primes a
  BTB set and senses whether the victim's taken branch evicted one of its
  entries, SBPA style.

The paper's Scenario 5 argument — that Noisy-XOR-PHT lowers the *leakage
bandwidth* because the attacker must traverse every entry — is quantified by
:func:`leakage_bandwidth`, which converts per-trial mutual information and
the per-trial probe cost into bits per unit time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..attacks.primitives import AttackEnvironment
from ..core.registry import make_bpu
from ..types import BranchType

__all__ = [
    "binary_entropy",
    "mutual_information",
    "LeakageEstimate",
    "measure_direction_leakage",
    "measure_btb_occupancy_leakage",
    "leakage_bandwidth",
    "leakage_report",
]

#: Addresses used by the synthetic victim/attacker code in the probes.  They
#: mirror the PoC listings: one shared conditional branch, one shared indirect
#: call site, and a pool of attacker-owned branches used for priming.
_SHARED_CONDITIONAL_PC = 0x0040_1A40
_SHARED_INDIRECT_PC = 0x0040_2B80
_VICTIM_TARGET = 0x0041_0000
_ATTACKER_PRIME_BASE = 0x7F00_0000


def binary_entropy(p: float) -> float:
    """Entropy in bits of a Bernoulli(p) variable."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log2(1.0 - p))


def mutual_information(joint_counts: Sequence[Sequence[int]]) -> float:
    """Mutual information in bits from a 2×2 (secret × observation) count table.

    Args:
        joint_counts: ``joint_counts[s][o]`` is the number of trials with
            secret ``s`` and observation ``o``.

    Returns:
        The plug-in mutual-information estimate in bits (0 for empty input).
    """
    total = sum(sum(row) for row in joint_counts)
    if total == 0:
        return 0.0
    info = 0.0
    marg_s = [sum(row) / total for row in joint_counts]
    marg_o = [sum(joint_counts[s][o] for s in range(len(joint_counts))) / total
              for o in range(len(joint_counts[0]))]
    for s, row in enumerate(joint_counts):
        for o, count in enumerate(row):
            if count == 0 or marg_s[s] == 0 or marg_o[o] == 0:
                continue
            p_joint = count / total
            info += p_joint * math.log2(p_joint / (marg_s[s] * marg_o[o]))
    return max(0.0, info)


@dataclass
class LeakageEstimate:
    """Empirical leakage of one predictor channel under one mechanism.

    Attributes:
        channel: ``"pht_direction"`` or ``"btb_occupancy"``.
        mechanism: protection preset name.
        smt: whether the concurrent-attacker (SMT) scenario was used.
        trials: number of prime–victim–probe trials.
        joint_counts: 2×2 (secret × observation) count table.
        probes_per_trial: attacker predictor accesses per trial (used for the
            bandwidth estimate; Noisy-XOR forces full-table traversals).
    """

    channel: str
    mechanism: str
    smt: bool
    trials: int
    joint_counts: List[List[int]] = field(default_factory=lambda: [[0, 0], [0, 0]])
    probes_per_trial: float = 1.0

    @property
    def mutual_information_bits(self) -> float:
        """Bits of information about the secret leaked per trial."""
        return mutual_information(self.joint_counts)

    @property
    def guess_accuracy(self) -> float:
        """Accuracy of the attacker's maximum-likelihood guess of the secret."""
        if self.trials == 0:
            return 0.5
        # Best guess maps each observation to the majority secret for it.
        correct = 0
        for o in (0, 1):
            column = [self.joint_counts[s][o] for s in (0, 1)]
            correct += max(column)
        return correct / self.trials

    def observation_rate(self) -> float:
        """Fraction of trials in which the attacker observed a positive signal."""
        if self.trials == 0:
            return 0.0
        positives = self.joint_counts[0][1] + self.joint_counts[1][1]
        return positives / self.trials


def _prime_direction(env: AttackEnvironment, rounds: int) -> None:
    """Drive the shared conditional branch to a known strong state."""
    for _ in range(rounds):
        env.attacker_branch(_SHARED_CONDITIONAL_PC, False, _VICTIM_TARGET,
                            BranchType.CONDITIONAL)


def measure_direction_leakage(mechanism: str = "baseline", *,
                              trials: int = 400, smt: bool = False,
                              predictor: str = "bimodal",
                              prime_rounds: int = 4,
                              victim_executions: int = 3,
                              seed: int = 0xD1CE,
                              btb_sets: int = 256, btb_ways: int = 2
                              ) -> LeakageEstimate:
    """Estimate the PHT direction-channel leakage (BranchScope-style reuse).

    Each trial primes the shared conditional branch to strongly-not-taken,
    lets the victim execute it with a freshly drawn secret direction, and then
    reads the attacker-visible predicted direction.  Under the baseline the
    observation tracks the secret; under XOR/Noisy-XOR isolation the key
    rotation on the role switch decorrelates them.

    Args:
        mechanism: protection preset name.
        trials: number of prime–victim–probe trials.
        smt: concurrent-attacker scenario (no context switch between roles).
        predictor: direction predictor of the unit under attack.
        prime_rounds: attacker training executions per trial.
        victim_executions: victim executions of the secret branch per trial.
        seed: RNG seed for the secret sequence and the hardware keys.
        btb_sets: BTB geometry of the unit under attack.
        btb_ways: BTB associativity.

    Returns:
        A :class:`LeakageEstimate` for the ``pht_direction`` channel.
    """
    rng = random.Random(seed)
    bpu = make_bpu(predictor, mechanism, seed=seed, btb_sets=btb_sets,
                   btb_ways=btb_ways, btb_miss_forces_not_taken=True)
    env = AttackEnvironment(bpu, smt=smt)
    estimate = LeakageEstimate(channel="pht_direction", mechanism=mechanism,
                               smt=smt, trials=trials,
                               probes_per_trial=float(prime_rounds + 1))
    for _ in range(trials):
        secret = rng.getrandbits(1)
        env.run_as_attacker()
        _prime_direction(env, prime_rounds)
        env.run_as_victim()
        for _ in range(victim_executions):
            env.victim_branch(_SHARED_CONDITIONAL_PC, bool(secret), _VICTIM_TARGET,
                              BranchType.CONDITIONAL)
        env.run_as_attacker()
        observed = int(env.attacker_predicted_direction(_SHARED_CONDITIONAL_PC))
        estimate.joint_counts[secret][observed] += 1
    bpu.release_kernels()
    return estimate


def measure_btb_occupancy_leakage(mechanism: str = "baseline", *,
                                  trials: int = 400, smt: bool = False,
                                  predictor: str = "bimodal",
                                  seed: int = 0xD1CE,
                                  btb_sets: int = 256, btb_ways: int = 2
                                  ) -> LeakageEstimate:
    """Estimate the BTB occupancy-channel leakage (SBPA-style contention).

    Each trial primes every way of the BTB set the attacker associates with
    the victim branch, lets the victim execute the branch taken or not taken
    according to a fresh secret bit, and then probes whether any primed entry
    was evicted.  Under the baseline an eviction reveals the secret; with a
    private index key the attacker primes the wrong set, and with key rotation
    its own primed entries become unrecognisable.

    Args:
        mechanism: protection preset name.
        trials: number of prime–victim–probe trials.
        smt: concurrent-attacker scenario.
        predictor: direction predictor of the unit under attack (irrelevant to
            the BTB channel but required to build the unit).
        seed: RNG seed for the secret sequence and the hardware keys.
        btb_sets: number of BTB sets.
        btb_ways: BTB associativity.

    Returns:
        A :class:`LeakageEstimate` for the ``btb_occupancy`` channel.
    """
    rng = random.Random(seed)
    bpu = make_bpu(predictor, mechanism, seed=seed, btb_sets=btb_sets,
                   btb_ways=btb_ways, btb_miss_forces_not_taken=True)
    env = AttackEnvironment(bpu, smt=smt)
    btb = bpu.btb
    victim_pc = _SHARED_INDIRECT_PC
    # Attacker-controlled branches that map to the same *logical* set as the
    # victim branch (the attacker can compute this from the victim's address
    # layout per the threat model).
    victim_set = btb.logical_set_of(victim_pc)
    prime_pcs = []
    candidate = _ATTACKER_PRIME_BASE | (victim_pc & ((btb.n_sets - 1) << 2))
    stride = btb.n_sets << 2
    while len(prime_pcs) < btb.n_ways:
        if btb.logical_set_of(candidate) == victim_set:
            prime_pcs.append(candidate)
        candidate += stride
    estimate = LeakageEstimate(channel="btb_occupancy", mechanism=mechanism,
                               smt=smt, trials=trials,
                               probes_per_trial=float(2 * len(prime_pcs)))
    for _ in range(trials):
        secret = rng.getrandbits(1)
        env.run_as_attacker()
        for pc in prime_pcs:
            env.attacker_branch(pc, True, _VICTIM_TARGET, BranchType.DIRECT)
        env.run_as_victim()
        # A taken branch updates the BTB (potentially evicting a primed entry);
        # a not-taken branch leaves the BTB untouched (Section 2.1).
        env.victim_branch(victim_pc, bool(secret),
                          _VICTIM_TARGET if secret else victim_pc + 4,
                          BranchType.CONDITIONAL)
        env.run_as_attacker()
        evicted = any(not env.attacker_btb_probe(pc) for pc in prime_pcs)
        estimate.joint_counts[secret][int(evicted)] += 1
    bpu.release_kernels()
    return estimate


def leakage_bandwidth(estimate: LeakageEstimate, *,
                      probe_cost_cycles: float = 50.0,
                      victim_window_cycles: float = 10_000.0,
                      cycles_per_second: float = 2.0e9) -> float:
    """Convert a per-trial leakage estimate into bits per second.

    The trial period is the victim execution window plus the attacker's probe
    work; Noisy-XOR raises ``probes_per_trial`` (full-table traversal), which
    is exactly the bandwidth-reduction argument of Scenario 5.

    Args:
        estimate: the measured per-trial leakage.
        probe_cost_cycles: cycles per attacker predictor probe.
        victim_window_cycles: victim execution window per trial.
        cycles_per_second: clock frequency used for the conversion.

    Returns:
        Estimated leakage bandwidth in bits per second.
    """
    trial_cycles = victim_window_cycles + probe_cost_cycles * estimate.probes_per_trial
    trials_per_second = cycles_per_second / trial_cycles
    return estimate.mutual_information_bits * trials_per_second


def leakage_report(mechanisms: Sequence[str], *, trials: int = 300,
                   smt: bool = False, seed: int = 0xD1CE
                   ) -> Dict[str, Dict[str, LeakageEstimate]]:
    """Measure both channels for several mechanisms.

    Returns:
        ``{mechanism: {"pht_direction": ..., "btb_occupancy": ...}}``.
    """
    report: Dict[str, Dict[str, LeakageEstimate]] = {}
    for mechanism in mechanisms:
        report[mechanism] = {
            "pht_direction": measure_direction_leakage(
                mechanism, trials=trials, smt=smt, seed=seed),
            "btb_occupancy": measure_btb_occupancy_leakage(
                mechanism, trials=trials, smt=smt, seed=seed),
        }
    return report
