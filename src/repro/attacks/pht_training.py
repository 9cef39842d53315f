"""Malicious PHT training (the paper's PoC Listing 2, Spectre-V1 style).

The attacker and the victim share a function containing a bounds-check-like
conditional branch.  The attacker repeatedly calls it with in-bounds arguments
to train the branch *taken*; when the victim later calls it with an
out-of-bounds argument, the predictor steers the victim down the taken
(secret-accessing) path speculatively, and the leak is observed through a
Flush+Reload probe line.

Following the paper's measurement protocol: one hundred train-and-trigger
attempts form one iteration, and the iteration counts as a successful attack
when the victim followed the trained direction more than ninety times.
"""

from __future__ import annotations

import random

from ..types import BranchType
from .base import Attack
from .primitives import AttackEnvironment

__all__ = ["PhtTrainingAttack"]

#: Address of the shared bounds-check branch.
SHARED_BRANCH_PC = 0x0041_2340
#: Taken-path target (the secret-dependent access).
TAKEN_TARGET = 0x0041_2380


class PhtTrainingAttack(Attack):
    """Reuse-based malicious training of a shared PHT entry.

    Args:
        attempts_per_iteration: train-and-trigger attempts per iteration
            (the paper uses 100).
        success_threshold: attempts that must follow the trained direction
            for the iteration to count as successful (the paper uses > 90).
        training_runs: attacker executions of the shared branch per attempt.
        seed: RNG seed for the victim's argument pattern.
    """

    name = "pht_training"
    target_structure = "pht"
    kind = "reuse"
    chance_level = 0.0  # P(>90 of 100 followed | random prediction) is ~0.

    def __init__(self, attempts_per_iteration: int = 100,
                 success_threshold: int = 90, training_runs: int = 6,
                 seed: int = 99) -> None:
        self.attempts_per_iteration = attempts_per_iteration
        self.success_threshold = success_threshold
        self.training_runs = training_runs
        self._rng = random.Random(seed)
        self._attempts = 0
        self._followed = 0

    def reset(self) -> None:
        self._attempts = 0
        self._followed = 0

    def run_iteration(self, env: AttackEnvironment, iteration: int) -> bool:
        followed = 0
        for _ in range(self.attempts_per_iteration):
            # Prime: the attacker trains the shared branch taken (in-bounds calls).
            for _ in range(self.training_runs):
                env.attacker_branch(SHARED_BRANCH_PC, True, TAKEN_TARGET,
                                    BranchType.CONDITIONAL)
            # Trigger: the victim calls the shared function with an
            # out-of-bounds argument; the *prediction* decides its speculative
            # path, the resolved direction is not-taken.
            predicted = env.victim_branch(SHARED_BRANCH_PC, False,
                                          TAKEN_TARGET, BranchType.CONDITIONAL)
            # The attacker observes the speculative leak via Flush+Reload.
            if env.channel.observe(predicted):
                followed += 1
            self._attempts += 1
        self._followed += followed
        return followed > self.success_threshold

    def extra_details(self) -> dict:
        if self._attempts == 0:
            return {}
        return {"training_accuracy": self._followed / self._attempts}
