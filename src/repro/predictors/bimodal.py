"""Bimodal direction predictor (per-PC 2-bit counters).

The bimodal table is both the simplest standalone predictor and the base
component of the TAGE family.  It is indexed purely by branch-address bits,
so it is the structure the BranchScope attack targets: the attacker and the
victim branch that share an index share a counter.

The engines and the attack scenarios drive it through a per-thread
generated kernel (:meth:`BimodalPredictor.exec_kernel`) on the four storage
arms of :mod:`repro.predictors.kernelgen`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .counters import counter_is_taken, saturating_update
from .kernelgen import (bind_table, emit_counter_read, emit_counter_train,
                        make_kernel, storage_arm)
from .table import (PackedCounterTable, PredictorTable, TableIsolation,
                    supports_fused_xor)

__all__ = ["BimodalPredictor"]


class BimodalPredictor(DirectionPredictor):
    """A table of saturating counters indexed by branch PC bits.

    Args:
        n_entries: number of counters (power of two).
        counter_bits: width of each counter (2 in a classic PHT).
        isolation: isolation policy applied to the table.
        word_bits: physical word width used for Enhanced-XOR-PHT style packing.
    """

    name = "bimodal"

    def __init__(self, n_entries: int = 4096, counter_bits: int = 2, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(isolation)
        self._counter_bits = counter_bits
        weak_not_taken = (1 << (counter_bits - 1)) - 1
        self._pht = PackedCounterTable(
            n_entries, counter_bits, word_bits=word_bits,
            reset_value=weak_not_taken, name="bimodal_pht", isolation=isolation)
        self._index_mask = n_entries - 1
        # Per-thread kernels whose masks are current (see ``exec_kernel``),
        # every kernel built (``_kernel_pool``) and their code objects by
        # arm.  Under an XOR policy ``_exec_fns`` is a registered mask cache:
        # key re-randomisation evicts a thread's kernel from it, and the
        # next fetch rebinds the pooled kernel's masks in place.
        self._exec_fns: Dict[int, object] = {}
        self._kernel_pool: Dict[int, object] = {}
        self._kernel_code: Dict[tuple, object] = {}
        attached = self._pht.word_table.isolation
        if supports_fused_xor(attached):
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    def index_of(self, pc: int) -> int:
        """Logical table index for a branch PC (before any index encoding)."""
        return (pc >> 2) & self._index_mask

    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        index = self.index_of(pc)
        counter = self._pht.read(index, thread_id)
        return DirectionPrediction(
            taken=counter_is_taken(counter, self._counter_bits),
            meta={"index": index, "counter": counter})

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        index = self.index_of(pc)
        counter = self._pht.read(index, thread_id)
        self._pht.write(index, saturating_update(counter, taken, self._counter_bits),
                        thread_id)

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update (see :meth:`exec_kernel`)."""
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's specialised execute kernel ``fn(pc, taken)``.

        A generated function with the geometry inlined and the thread's
        statistics and storage masks bound in its globals; it reads and
        writes the packed word once, state-identical to ``lookup``,
        ``stats(...).record`` and ``update``.  Flushes reset storage in
        place and keep it; a key re-randomisation keeps it too, and the
        next fetch writes the new masks into its globals.  It is dropped on
        ``reset_stats`` and ``invalidate_kernel_masks``; ``.arm`` names the
        storage arm it runs.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual fast-path flag flips)."""
        self._exec_fns.clear()
        self._kernel_pool.clear()

    def _build_exec_fn(self, thread_id: int):
        """Return the thread's current kernel, rebinding a pooled one's
        masks after a key re-randomisation or building a new one."""
        table = self._pht.word_table
        fn = self._kernel_pool.get(thread_id)
        if fn is not None:
            bind_table(fn.__globals__, "B", table, fn.arm, thread_id)
        else:
            arm = storage_arm([table])
            namespace = {"pstats": self.stats(thread_id), "TID": thread_id}
            bind_table(namespace, "B", table, arm, thread_id)
            fn = self._kernel_pool[thread_id] = make_kernel(
                self._kernel_code, ("bimodal", arm),
                lambda: self._kernel_source(arm), namespace, arm)
        self._exec_fns[thread_id] = fn
        return fn

    def _kernel_source(self, arm: str) -> str:
        """Generate one kernel arm (statement order of lookup + update)."""
        lines = ["def _kernel(pc, taken, thread_id=0):",
                 f"    index = (pc >> 2) & {self._index_mask}"]
        lines += emit_counter_read(arm, "B", self._pht, "index")
        lines += [
            f"    predicted = B_ctr >= {1 << (self._counter_bits - 1)}",
            "    pstats.lookups += 1",
            "    if predicted != taken:",
            "        pstats.mispredictions += 1",
        ]
        lines += emit_counter_train(arm, "B", self._pht, "taken", "    ")
        lines.append("    return predicted")
        return "\n".join(lines) + "\n"

    def tables(self) -> List[PredictorTable]:
        return [self._pht.word_table]

    @property
    def pht(self) -> PackedCounterTable:
        """The underlying counter table (exposed for attacks and tests)."""
        return self._pht

    def flush(self) -> None:
        self._pht.flush()

    def flush_thread(self, thread_id: int) -> None:
        self._pht.flush_thread(thread_id)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The kernels bind the (now replaced) stats objects.
        self.invalidate_kernel_masks()
