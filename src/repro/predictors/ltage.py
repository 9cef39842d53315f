"""LTAGE: TAGE augmented with a loop predictor.

LTAGE (Seznec, CBP-2) is one of the four predictors evaluated in the paper's
SMT study (Table 2 lists a 32 KB LTAGE).  The loop predictor overrides TAGE
whenever it has a confident entry for the branch.

Both TAGE composites, LTAGE and TAGE-SC-L, share :class:`TageComposite`:
their batched-engine kernels are the generated TAGE kernel
(:meth:`TagePredictor._kernel_source`) with the side components' lookup
and update inlined after it, on the same four storage arms (passthrough,
fused-XOR, owner, generic).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .kernelgen import make_kernel, storage_arm
from .loop import LoopPredictor
from .table import PredictorTable, TableIsolation, supports_fused_xor
from .tage import TageConfig, TagePredictor

__all__ = ["LTagePredictor", "TageComposite"]

#: Composite kernels record their statistics on the composite, last.
_STATS_AND_RETURN = [
    "    pstats.lookups += 1",
    "    if final != taken:",
    "        pstats.mispredictions += 1",
    "    return final",
]


class TageComposite(DirectionPredictor):
    """TAGE plus side components, with a fused per-thread execute kernel.

    Subclasses pass in their TAGE component and describe their side
    components with :meth:`_kernel_tail` / :meth:`_bind_kernel`.  The tail
    runs after the whole TAGE body (lookup, update, history push): the
    side components and TAGE touch disjoint state, so running TAGE first
    is bit-identical to the scalar lookup-all / update-all interleaving.
    Statistics go on the composite only, as on the scalar path.
    """

    def __init__(self, tage: TagePredictor,
                 isolation: Optional[TableIsolation]) -> None:
        super().__init__(isolation)
        self._tage = tage
        # Per-thread kernels and their code objects by arm.  The kernels
        # bind the thread's masks, so under an XOR policy they register as
        # a mask cache and key re-randomisation drops them.
        self._exec_fns: Dict[int, object] = {}
        self._kernel_code: Dict[tuple, object] = {}
        attached = tage.tagged_tables[0].isolation
        if supports_fused_xor(attached):
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    def _kernel_tail(self, arm: str) -> List[str]:
        """Kernel lines after the TAGE body; leave the prediction in
        ``final``."""
        raise NotImplementedError

    def _bind_kernel(self, namespace: dict, arm: str, thread_id: int) -> None:
        """Bind the globals the tail lines use."""
        raise NotImplementedError

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update (see :meth:`exec_kernel`)."""
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's specialised execute kernel ``fn(pc, taken)``.

        Same protocol as :meth:`TagePredictor.exec_kernel`: the kernel is
        dropped on key re-randomisation, ``flush``/``flush_thread``,
        ``reset_stats`` and ``invalidate_kernel_masks``, and its ``.arm``
        names the storage arm it runs.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def _build_exec_fn(self, thread_id: int):
        tage = self._tage
        arm = storage_arm(self.tables())
        diversified = tage._diversified(arm)
        namespace = tage._kernel_namespace(thread_id, arm,
                                           pstats=self.stats(thread_id))
        self._bind_kernel(namespace, arm, thread_id)
        fn = make_kernel(
            self._kernel_code, (self.name, arm, diversified),
            lambda: tage._kernel_source(arm, diversified, tail=(
                self._kernel_tail(arm) + _STATS_AND_RETURN)),
            namespace, arm)
        self._exec_fns[thread_id] = fn
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual fast-path flag flips)."""
        self._exec_fns.clear()
        self._tage.invalidate_kernel_masks()

    @property
    def tage(self) -> TagePredictor:
        """The TAGE component."""
        return self._tage

    def flush(self) -> None:
        # The kernels bind TAGE's folded-history registers, which a flush
        # replaces.
        self._exec_fns.clear()
        self._tage.flush()

    def flush_thread(self, thread_id: int) -> None:
        self._exec_fns.pop(thread_id, None)
        self._tage.flush_thread(thread_id)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The kernels bind the (now replaced) stats objects.
        self._exec_fns.clear()
        self._tage.reset_stats()


class LTagePredictor(TageComposite):
    """TAGE + loop predictor.

    Args:
        tage_config: sizing of the TAGE component.
        loop_entries: number of loop-table entries.
        isolation: isolation policy applied to every table.
        word_bits: physical word width used for base-PHT packing.
    """

    name = "ltage"

    def __init__(self, tage_config: Optional[TageConfig] = None,
                 loop_entries: int = 256, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(TagePredictor(tage_config, isolation=isolation,
                                       word_bits=word_bits), isolation)
        self._loop = LoopPredictor(loop_entries, isolation=isolation)

    def _kernel_tail(self, arm: str) -> List[str]:
        return self._loop.kernel_lines(arm) + [
            "    final = loop_taken if loop_valid else predicted"]

    def _bind_kernel(self, namespace: dict, arm: str, thread_id: int) -> None:
        self._loop.bind_kernel(namespace, arm, thread_id)

    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        tage_pred = self._tage.lookup(pc, thread_id)
        loop_pred = self._loop.lookup(pc, thread_id)
        if loop_pred.valid:
            taken = loop_pred.taken
        else:
            taken = tage_pred.taken
        return DirectionPrediction(taken=taken, meta={
            "tage": tage_pred,
            "loop_valid": loop_pred.valid,
            "loop_taken": loop_pred.taken,
        })

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        if prediction is None or "tage" not in prediction.meta:
            prediction = self.lookup(pc, thread_id)
        self._loop.update(pc, taken, thread_id)
        self._tage.update(pc, taken, prediction.meta["tage"], thread_id)

    def tables(self) -> List[PredictorTable]:
        return self._tage.tables() + [self._loop.table]

    @property
    def loop(self) -> LoopPredictor:
        """The loop-predictor component."""
        return self._loop

    def flush(self) -> None:
        super().flush()
        self._loop.flush()

    def flush_thread(self, thread_id: int) -> None:
        super().flush_thread(thread_id)
        self._loop.flush_thread(thread_id)
