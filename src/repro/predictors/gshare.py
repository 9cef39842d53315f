"""Gshare direction predictor.

Gshare XORs the branch PC with the global history register to index a single
table of 2-bit counters.  It is the smallest predictor evaluated in the
paper's SMT study (Table 2 lists a 2 KB Gshare) and the one used to describe
the Noisy-XOR-PHT microarchitecture in Figure 4(b).

The batched engines drive it through a per-thread generated kernel
(:meth:`GsharePredictor.exec_kernel`) on the four storage arms of
:mod:`repro.predictors.kernelgen`, like the Tournament predictor.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .counters import counter_is_taken, saturating_update
from .history import GlobalHistory
from .kernelgen import (bind_table, emit_counter_read, emit_counter_train,
                        fold_expr, make_kernel, storage_arm)
from .table import (PackedCounterTable, PredictorTable, TableIsolation,
                    supports_fused_xor)

__all__ = ["GsharePredictor"]


class GsharePredictor(DirectionPredictor):
    """Global-history XOR PC indexed pattern history table.

    Args:
        n_entries: number of 2-bit counters (power of two).  The paper's 2 KB
            Gshare corresponds to 8192 entries.
        history_bits: length of the global history register; defaults to the
            index width.
        isolation: isolation policy applied to the PHT.
        word_bits: physical word width for Enhanced-XOR-PHT style packing.
    """

    name = "gshare"

    def __init__(self, n_entries: int = 8192, history_bits: Optional[int] = None, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(isolation)
        self._index_bits = n_entries.bit_length() - 1
        self._index_mask = n_entries - 1
        self._history_bits = history_bits if history_bits is not None else self._index_bits
        self._ghr = GlobalHistory(self._history_bits)
        self._pht = PackedCounterTable(n_entries, 2, word_bits=word_bits,
                                       reset_value=1, name="gshare_pht",
                                       isolation=isolation)
        # Per-thread kernels (see ``exec_kernel``) and their code objects by
        # arm.  The kernels bind the thread's masks, so under an XOR policy
        # key re-randomisation drops them.
        self._exec_fns: Dict[int, object] = {}
        self._kernel_code: Dict[tuple, object] = {}
        attached = self._pht.word_table.isolation
        if supports_fused_xor(attached):
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    def index_of(self, pc: int, thread_id: int = 0) -> int:
        """Logical PHT index: PC bits XOR folded global history."""
        history = self._ghr.folded(self._index_bits, thread_id)
        return ((pc >> 2) ^ history) & self._index_mask

    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        index = self.index_of(pc, thread_id)
        counter = self._pht.read(index, thread_id)
        return DirectionPrediction(taken=counter_is_taken(counter),
                                   meta={"index": index, "counter": counter})

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        if prediction is not None and "index" in prediction.meta:
            index = prediction.meta["index"]
        else:
            index = self.index_of(pc, thread_id)
        counter = self._pht.read(index, thread_id)
        self._pht.write(index, saturating_update(counter, taken), thread_id)
        self._ghr.push(taken, thread_id)

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update (see :meth:`exec_kernel`)."""
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's specialised execute kernel ``fn(pc, taken)``.

        A generated function with the geometry inlined and the thread's
        global history, statistics and storage masks bound in its globals;
        it reads and writes the packed word once, state-identical to
        ``lookup``, ``stats(...).record`` and ``update``.  It is dropped on
        key re-randomisation, ``flush``/``flush_thread``, ``reset_stats``
        and ``invalidate_kernel_masks``; ``.arm`` names the storage arm it
        runs.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual fast-path flag flips)."""
        self._exec_fns.clear()

    def _build_exec_fn(self, thread_id: int):
        arm = storage_arm(self.tables())
        namespace = {"ghr_values": self._ghr._values,
                     "pstats": self.stats(thread_id), "TID": thread_id}
        bind_table(namespace, "G", self._pht.word_table, arm, thread_id)
        fn = make_kernel(self._kernel_code, ("gshare", arm),
                         lambda: self._kernel_source(arm), namespace, arm)
        self._exec_fns[thread_id] = fn
        return fn

    def _kernel_source(self, arm: str) -> str:
        """Generate one kernel arm (statement order of lookup + update)."""
        folded = fold_expr("ghr", self._history_bits, self._index_bits)
        lines = ["def _kernel(pc, taken, thread_id=0):",
                 "    ghr = ghr_values.get(TID, 0)",
                 f"    index = ((pc >> 2) ^ {folded}) & {self._index_mask}"]
        lines += emit_counter_read(arm, "G", self._pht, "index")
        lines += [
            "    predicted = G_ctr >= 2",
            "    pstats.lookups += 1",
            "    if predicted != taken:",
            "        pstats.mispredictions += 1",
        ]
        lines += emit_counter_train(arm, "G", self._pht, "taken", "    ")
        lines += [
            f"    ghr_values[TID] = ((ghr << 1) | taken) & {self._ghr._mask}",
            "    return predicted",
        ]
        return "\n".join(lines) + "\n"

    def tables(self) -> List[PredictorTable]:
        return [self._pht.word_table]

    @property
    def pht(self) -> PackedCounterTable:
        """The underlying counter table (exposed for attacks and tests)."""
        return self._pht

    @property
    def global_history(self) -> GlobalHistory:
        """The per-thread global history register."""
        return self._ghr

    def flush(self) -> None:
        self._pht.flush()
        self._ghr.clear()
        # Storage and history reset in place, but drop the kernels anyway so
        # a subsequent set_isolation / flag flip can never serve stale arms.
        self._exec_fns.clear()

    def flush_thread(self, thread_id: int) -> None:
        self._pht.flush_thread(thread_id)
        self._ghr.clear(thread_id)
        self._exec_fns.pop(thread_id, None)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The specialised kernels bind the (now replaced) stats objects.
        self._exec_fns.clear()
