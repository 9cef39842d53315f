"""Secure branch-prediction unit (BPU).

This module bundles a direction predictor, a BTB and a RAS — all built on the
same isolation policy and key manager — into one front-end unit with the
switch-notification protocol the paper requires:

* ``notify_context_switch(thread_id)`` — the OS scheduled a new software
  context onto a hardware thread: flush-based mechanisms flush, XOR-based
  mechanisms regenerate that thread's keys;
* ``notify_privilege_switch(thread_id, privilege)`` — a system call,
  exception or hypervisor transition: XOR-based mechanisms regenerate keys
  (Section 5.4); flush-based mechanisms optionally flush.

The unit also implements the per-branch prediction/update flow used by the
CPU timing model, including the BTB update rule (update only on taken
branches) that contention-based attacks exploit and the fall-through policy
on BTB misses that explains the paper's case2 anomaly (Section 6.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..predictors.base import DirectionPredictor
from ..predictors.btb import BranchTargetBuffer
from ..predictors.ras import ReturnAddressStack
from ..types import BranchType, Privilege
from .isolation import IsolationMechanism

__all__ = ["BranchOutcome", "BranchPredictionUnit"]


@dataclass(slots=True)
class BranchOutcome:
    """Per-branch prediction outcome consumed by the CPU timing model.

    Attributes:
        branch_type: the executed branch's type.
        taken: resolved direction (always True for unconditional branches).
        predicted_taken: direction the front end followed.
        direction_mispredicted: the followed direction was wrong.
        target_mispredicted: the branch was (correctly) predicted taken but
            the predicted target was wrong or unavailable.
        btb_accessed: the BTB was probed for this branch.
        btb_hit: the BTB probe hit.
    """

    branch_type: BranchType
    taken: bool
    predicted_taken: bool
    direction_mispredicted: bool = False
    target_mispredicted: bool = False
    btb_accessed: bool = False
    btb_hit: bool = False

    @property
    def mispredicted(self) -> bool:
        """True when the front end must be redirected at execute/commit."""
        return self.direction_mispredicted or self.target_mispredicted


class BranchPredictionUnit:
    """Front-end branch prediction unit with pluggable isolation.

    Args:
        direction_predictor: the conditional-branch predictor.
        btb: the branch target buffer.
        ras: the (thread-private) return address stack.
        isolation: the isolation mechanism shared by all structures.
        btb_miss_forces_not_taken: when True (the FPGA prototype's policy),
            a conditional branch whose target misses in the BTB is treated as
            not-taken regardless of the PHT, because the front end has no
            target to redirect to.  This reproduces the paper's observation
            that flushing the BTB can occasionally *improve* performance by
            overriding bad direction predictions (case2).
    """

    def __init__(self, direction_predictor: DirectionPredictor,
                 btb: BranchTargetBuffer,
                 ras: Optional[ReturnAddressStack] = None, *,
                 isolation: Optional[IsolationMechanism] = None,
                 btb_miss_forces_not_taken: bool = True) -> None:
        self.direction = direction_predictor
        self.btb = btb
        self.ras = ras if ras is not None else ReturnAddressStack()
        self.isolation = isolation
        self._btb_miss_forces_not_taken = btb_miss_forces_not_taken
        self.context_switches = 0
        self.privilege_switches = 0

    # -- switch notification protocol -----------------------------------------
    def notify_context_switch(self, thread_id: int) -> None:
        """The OS switched the software context on a hardware thread.

        Key-rotating mechanisms invalidate the thread's fused-XOR masks (and
        the specialised kernels bound to them) here; the caches rebuild once
        on the next access, so mask re-randomisation is a switch-time cost,
        never a per-branch one.
        """
        self.context_switches += 1
        if self.isolation is not None:
            self.isolation.on_context_switch(thread_id)

    def notify_privilege_switch(self, thread_id: int,
                                privilege: Privilege) -> None:
        """The software on a hardware thread changed privilege level.

        Key-rotating mechanisms regenerate the thread's key material here,
        invalidating its fused-XOR mask caches; rebuilding is lazy (first
        access after the switch), which also keeps the enter/exit
        notification pair of one system call to a single rebuild.
        """
        self.privilege_switches += 1
        if self.isolation is not None:
            self.isolation.on_privilege_switch(thread_id, privilege)

    # -- per-branch prediction flow --------------------------------------------
    def execute_branch(self, pc: int, taken: bool, target: int,
                       branch_type: BranchType = BranchType.CONDITIONAL,
                       thread_id: int = 0) -> BranchOutcome:
        """Predict, resolve and train one committed branch.

        Args:
            pc: branch instruction address.
            taken: resolved direction (unconditional branches pass True).
            target: resolved target address of the taken branch.
            branch_type: kind of branch.
            thread_id: hardware thread executing the branch.

        Returns:
            A :class:`BranchOutcome` describing what the front end got wrong.
        """
        if branch_type is BranchType.CONDITIONAL:
            return self._execute_conditional(pc, taken, target, thread_id)
        if branch_type is BranchType.RETURN:
            return self._execute_return(pc, target, thread_id)
        return self._execute_unconditional(pc, target, branch_type, thread_id)

    def execute_branch_fast(self, pc: int, taken: bool, target: int,
                            branch_type: BranchType = BranchType.CONDITIONAL,
                            thread_id: int = 0) -> tuple:
        """Allocation-light :meth:`execute_branch` for the batched engine.

        Performs the exact same prediction/training flow (same table accesses,
        same statistics) but returns a plain tuple
        ``(direction_mispredicted, target_mispredicted, btb_accessed,
        btb_hit)`` instead of building a :class:`BranchOutcome`, and drives
        the predictors through their fused ``execute`` and
        ``execute_*_fast`` entry points.
        """
        if branch_type is BranchType.CONDITIONAL:
            # The direction predictor and the BTB are disjoint structures, so
            # fusing the direction lookup+train before the BTB access leaves
            # the state evolution identical to the scalar interleaving.
            predicted_taken = self.direction.execute(pc, taken, thread_id)
            hit, btb_target = self.btb.execute_conditional_fast(pc, target,
                                                                taken, thread_id)
            if predicted_taken and not hit and self._btb_miss_forces_not_taken:
                predicted_taken = False
            direction_mispredicted = predicted_taken != taken
            target_mispredicted = (not direction_mispredicted and taken
                                   and (not hit or btb_target != target))
            return direction_mispredicted, target_mispredicted, True, hit
        if branch_type is BranchType.RETURN:
            return False, self.ras.pop(thread_id) != target, False, False
        # Fused probe + unconditional install on the packed BTB arrays
        # (identical to the lookup / update pair it replaces).
        hit, btb_target = self.btb.execute_indirect_fast(pc, target,
                                                         branch_type, thread_id)
        target_mispredicted = not hit or btb_target != target
        if branch_type is BranchType.CALL:
            self.ras.push(pc + 4, thread_id)
        return False, target_mispredicted, True, hit

    def _execute_conditional(self, pc: int, taken: bool, target: int,
                             thread_id: int) -> BranchOutcome:
        prediction = self.direction.lookup(pc, thread_id)
        btb_result = self.btb.lookup(pc, thread_id)
        predicted_taken = prediction.taken
        if predicted_taken and not btb_result.hit and self._btb_miss_forces_not_taken:
            # No target available: the front end falls through.
            predicted_taken = False

        direction_mispredicted = predicted_taken != taken
        target_mispredicted = False
        if not direction_mispredicted and taken:
            predicted_target = btb_result.target if btb_result.hit else None
            target_mispredicted = predicted_target != target

        self.direction.stats(thread_id).record(prediction.taken == taken)
        self.direction.update(pc, taken, prediction, thread_id)
        if taken:
            # The BTB is updated only for taken branches (the SBPA lever).
            self.btb.update(pc, target, thread_id, BranchType.CONDITIONAL)

        return BranchOutcome(branch_type=BranchType.CONDITIONAL, taken=taken,
                             predicted_taken=predicted_taken,
                             direction_mispredicted=direction_mispredicted,
                             target_mispredicted=target_mispredicted,
                             btb_accessed=True, btb_hit=btb_result.hit)

    def _execute_unconditional(self, pc: int, target: int,
                               branch_type: BranchType,
                               thread_id: int) -> BranchOutcome:
        btb_result = self.btb.lookup(pc, thread_id)
        predicted_target = btb_result.target if btb_result.hit else None
        target_mispredicted = predicted_target != target
        self.btb.update(pc, target, thread_id, branch_type)
        if branch_type is BranchType.CALL:
            self.ras.push(pc + 4, thread_id)
        return BranchOutcome(branch_type=branch_type, taken=True,
                             predicted_taken=True,
                             target_mispredicted=target_mispredicted,
                             btb_accessed=True, btb_hit=btb_result.hit)

    def _execute_return(self, pc: int, target: int,
                        thread_id: int) -> BranchOutcome:
        predicted_target = self.ras.pop(thread_id)
        target_mispredicted = predicted_target != target
        return BranchOutcome(branch_type=BranchType.RETURN, taken=True,
                             predicted_taken=True,
                             target_mispredicted=target_mispredicted,
                             btb_accessed=False, btb_hit=False)

    # -- maintenance ------------------------------------------------------------
    def force_generic_dispatch(self) -> None:
        """Route every storage access through the generic isolation dispatch.

        Diagnostic hook shared by the parity/fuzz suites and the throughput
        benchmark: sets the storage ``arm`` of every direction table and the
        BTB to ``"generic"`` and drops all cached specialised kernels, so
        they rebuild on the generic arm, which calls the tables' scalar
        ``read``/``write`` (always policy dispatch).  Results must be
        bit-identical either way — only throughput changes — which is
        exactly what the differential tests assert.  Any new kernel cache
        added to a structure must be dropped by :meth:`release_kernels`.
        """
        for table in self.direction.tables():
            table.arm = "generic"
        self.btb.arm = "generic"
        self.release_kernels()

    def release_kernels(self) -> None:
        """Drop every cached specialised kernel of the direction predictor
        and the BTB.

        A kernel's globals bind the structure that caches it, so a cached
        kernel keeps its owner in a reference cycle.  Dropping them when a
        run ends lets the whole unit die by reference counting instead of
        piling up for the cyclic collector; the next fetch simply rebuilds.
        """
        invalidate_btb = getattr(self.btb, "invalidate_kernels", None)
        if invalidate_btb is not None:
            invalidate_btb()
        invalidate = getattr(self.direction, "invalidate_kernel_masks", None)
        if invalidate is not None:
            invalidate()

    def flush(self) -> None:
        """Flush every structure (used by tests and manual experiments)."""
        self.direction.flush()
        self.btb.flush()
        self.ras.flush()

    def reset_stats(self) -> None:
        """Clear accumulated statistics on all structures."""
        self.direction.reset_stats()
        self.btb.reset_stats()
        self.context_switches = 0
        self.privilege_switches = 0
