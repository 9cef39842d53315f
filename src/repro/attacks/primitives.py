"""Attack primitives: victim/attacker scheduling and the timing side channel.

The paper's attacks (Section 2) all follow the Locate → Prime → Probe
structure and observe predictor state indirectly, through execution-time
differences (e.g. Flush+Reload on a probe array, or timing the attacker's own
branches).  This module provides:

* :class:`AttackEnvironment` — wires an attacker context and a victim context
  onto a :class:`repro.core.secure.BranchPredictionUnit`, either time-sharing
  one hardware thread (the single-threaded-core scenario, where every switch
  between attacker and victim is a context switch the isolation mechanism
  sees) or running concurrently on two hardware threads (the SMT scenario,
  where no switch separates prime and probe);
* :class:`TimingChannel` — a noisy observation channel that converts a
  microarchitectural hit/miss into what the attacker actually measures,
  with configurable false-positive/false-negative rates (the paper's RISC-V
  platform cannot flush single cache lines, which is why its baseline attack
  accuracy is 96.5–97.2% rather than ~100%).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from ..core.secure import BranchPredictionUnit
from ..types import BranchType, Privilege

__all__ = ["TimingChannel", "AttackEnvironment"]


class TimingChannel:
    """Noisy observation of a microarchitectural event.

    Args:
        false_positive: probability a "miss" is observed as a "hit".
        false_negative: probability a "hit" is observed as a "miss".
        seed: RNG seed for reproducible noise.
    """

    def __init__(self, false_positive: float = 0.008, false_negative: float = 0.03,
                 seed: int = 1234) -> None:
        self.false_positive = false_positive
        self.false_negative = false_negative
        self._rng = random.Random(seed)

    def observe(self, hit: bool) -> bool:
        """Return the attacker's measurement of a hit/miss event."""
        if hit:
            return self._rng.random() >= self.false_negative
        return self._rng.random() < self.false_positive


@dataclass
class VictimBranch:
    """The victim branch under attack.

    Attributes:
        pc: address of the victim branch (known to the attacker per the
            threat model: source code and address layout are known).
        taken_target: target when the branch is taken / the legitimate
            indirect-call target.
        branch_type: conditional (PHT attacks) or indirect (BTB attacks).
    """

    pc: int
    taken_target: int
    branch_type: BranchType = BranchType.CONDITIONAL


class AttackEnvironment:
    """Attacker and victim contexts sharing a branch prediction unit.

    Args:
        bpu: the branch prediction unit under attack.
        smt: when False (single-threaded core), the attacker and victim
            time-share hardware thread 0 and every hand-off is a context
            switch; when True (SMT core), the victim runs on hardware thread 0
            and the attacker on hardware thread 1 concurrently, with no
            switches between prime and probe.
        channel: the timing side channel; defaults to a mildly noisy channel.
        single_step: the attacker can single-step the victim (BranchScope /
            SBPA assumption); modelled by letting the attacker interleave
            probes between individual victim branches.
    """

    def __init__(self, bpu: BranchPredictionUnit, *, smt: bool = False,
                 channel: Optional[TimingChannel] = None,
                 single_step: bool = True) -> None:
        self.bpu = bpu
        self.smt = smt
        self.channel = channel if channel is not None else TimingChannel()
        self.single_step = single_step
        self.victim_thread = 0
        self.attacker_thread = 1 if smt else 0
        self._running = "attacker"
        self.context_switches = 0
        # Per-thread (direction kernel, BTB probe kernel) pairs, fetched on
        # a thread's first conditional commit and dropped after every
        # switch notification this environment issues (the engines' rule).
        self._kernels: dict = {}
        # Both threads hold a key from the start, drawn in thread order (the
        # SMT core's rule), whichever commits or probes first.
        bpu.draw_keys(self.attacker_thread + 1)

    # -- scheduling -------------------------------------------------------------
    def _switch(self, to: str) -> None:
        if self.smt or self._running == to:
            return
        # On a single-threaded core the OS switches contexts; the isolation
        # mechanism regenerates keys / flushes at this point.
        self.bpu.notify_context_switch(self.victim_thread)
        self._kernels.clear()
        self.context_switches += 1
        self._running = to

    def run_as_victim(self) -> None:
        """Schedule the victim context (a context switch on a single-threaded core)."""
        self._switch("victim")

    def run_as_attacker(self) -> None:
        """Schedule the attacker context."""
        self._switch("attacker")

    def victim_privilege_switch(self, privilege: Privilege) -> None:
        """The victim's context changes privilege level (no context switch)."""
        self.bpu.notify_privilege_switch(self.victim_thread, privilege)
        self._kernels.clear()

    def victim_syscall(self) -> None:
        """The victim performs a system call (privilege round trip)."""
        self.victim_privilege_switch(Privilege.KERNEL)
        self.victim_privilege_switch(Privilege.USER)

    # -- execution helpers --------------------------------------------------------
    def commit(self, pc: int, taken: bool, target: int,
               branch_type: BranchType, thread_id: int) -> Optional[bool]:
        """Commit one branch on a hardware thread, with no scheduling.

        The single commit point of every attacker and victim branch.  A
        conditional branch runs the thread's direction and BTB probe
        kernels, as the batched engines do, and returns the direction
        predictor's raw prediction (before training, and not overridden by
        a BTB miss): the direction the branch is speculated down.  Other
        branch types go through the unit's fused ``execute_branch_fast``
        and return ``None``.  The scalar ``execute_branch`` is the parity
        oracle swapped in here by the ``attack`` rows of
        tests/parity/test_parity.py.
        """
        if branch_type is not BranchType.CONDITIONAL:
            self.bpu.execute_branch_fast(pc, taken, target, branch_type,
                                         thread_id)
            return None
        kernels = self._kernels.get(thread_id)
        if kernels is None:
            kernels = self._kernels[thread_id] = (
                self.bpu.direction.exec_kernel(thread_id),
                self.bpu.btb.exec_conditional_kernel(thread_id))
        predicted = kernels[0](pc, taken)
        kernels[1](pc, target, taken)
        return predicted

    def victim_branch(self, pc: int, taken: bool, target: int,
                      branch_type: BranchType = BranchType.CONDITIONAL
                      ) -> Optional[bool]:
        """The victim commits one branch; returns :meth:`commit`'s raw
        prediction (``None`` unless conditional)."""
        if self._running != "victim":  # run_as_victim(), minus two calls
            self._switch("victim")
        return self.commit(pc, taken, target, branch_type, self.victim_thread)

    def attacker_branch(self, pc: int, taken: bool, target: int,
                        branch_type: BranchType = BranchType.CONDITIONAL
                        ) -> Optional[bool]:
        """The attacker commits one branch; returns :meth:`commit`'s raw
        prediction (``None`` unless conditional)."""
        if self._running != "attacker":
            self._switch("attacker")
        return self.commit(pc, taken, target, branch_type,
                           self.attacker_thread)

    # -- attacker observations -----------------------------------------------------
    def attacker_predicted_direction(self, pc: int) -> bool:
        """Direction the predictor currently gives the attacker for ``pc``.

        The real attacker learns this by executing the branch and timing it;
        reading the prediction directly models a noise-free timing probe, and
        noise is added where the attack measures through the cache channel.
        """
        self.run_as_attacker()
        return self.bpu.direction.lookup(pc, self.attacker_thread).taken

    def attacker_btb_probe(self, pc: int) -> bool:
        """True when the attacker's BTB probe of ``pc`` hits (through the channel)."""
        self.run_as_attacker()
        result = self.bpu.btb.lookup(pc, self.attacker_thread)
        return self.channel.observe(result.hit)

    def attacker_btb_predicted_target(self, pc: int) -> Optional[int]:
        """Target the BTB currently predicts for the attacker at ``pc``."""
        self.run_as_attacker()
        result = self.bpu.btb.lookup(pc, self.attacker_thread)
        return result.target if result.hit else None

    def victim_btb_predicted_target(self, pc: int) -> Optional[int]:
        """Target the BTB predicts for the *victim* at ``pc``.

        Used to decide whether malicious training succeeded in steering the
        victim's speculative control flow (the victim would fetch from this
        address before the branch resolves).
        """
        self.run_as_victim()
        result = self.bpu.btb.lookup(pc, self.victim_thread)
        return result.target if result.hit else None
