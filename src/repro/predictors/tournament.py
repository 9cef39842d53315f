"""Alpha-21264-style Tournament direction predictor.

The Tournament predictor combines a two-level *local* predictor (per-branch
pattern history feeding a table of counters) with a *global* predictor indexed
by the recent path/global history, and a *chooser* that learns, per history
pattern, which of the two components to trust.

Sizing follows the paper's Figure 6(a): a 2048-entry, 11-bit local history
table, a 2048-entry local prediction table, an 8192-entry global prediction
table and an 8192-entry choice table, both indexed by the global (path)
history.  All second-level tables are built on
:class:`repro.predictors.table.PackedCounterTable` so that content and index
encoding apply uniformly, as shown in the figure.

The batched engines drive the predictor through a per-thread generated
kernel (:meth:`TournamentPredictor.exec_kernel`) on the same four storage
arms as the TAGE and gshare kernels: passthrough, fused-XOR, owner and
generic.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .counters import counter_is_taken, saturating_update
from .history import GlobalHistory, LocalHistoryTable, PathHistory
from .kernelgen import (bind_table, emit_counter_read, emit_counter_train,
                        fold_expr, make_kernel, storage_arm)
from .table import (PackedCounterTable, PredictorTable, TableIsolation,
                    isolation_arm)

__all__ = ["TournamentPredictor"]


class TournamentPredictor(DirectionPredictor):
    """Local/global/chooser hybrid predictor.

    Args:
        local_history_entries: rows in the first-level local history table.
        local_history_bits: pattern length kept per static branch.
        local_entries: counters in the local prediction table.
        global_entries: counters in the global prediction table.
        choice_entries: counters in the chooser table.
        global_history_bits: length of the global history register.
        isolation: isolation policy applied to all second-level tables.
        word_bits: physical word width for Enhanced-XOR-PHT style packing.
    """

    name = "tournament"

    def __init__(self,
                 local_history_entries: int = 2048,
                 local_history_bits: int = 11,
                 local_entries: int = 2048,
                 global_entries: int = 8192,
                 choice_entries: int = 8192,
                 global_history_bits: int = 13, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(isolation)
        self._local_history = LocalHistoryTable(local_history_entries, local_history_bits)
        self._local_pht = PackedCounterTable(local_entries, 2, word_bits=word_bits,
                                             reset_value=1, name="tournament_local",
                                             isolation=isolation)
        self._global_pht = PackedCounterTable(global_entries, 2, word_bits=word_bits,
                                              reset_value=1, name="tournament_global",
                                              isolation=isolation)
        self._choice_pht = PackedCounterTable(choice_entries, 2, word_bits=word_bits,
                                              reset_value=1, name="tournament_choice",
                                              isolation=isolation)
        self._local_mask = local_entries - 1
        self._global_mask = global_entries - 1
        self._choice_mask = choice_entries - 1
        self._ghr = GlobalHistory(global_history_bits)
        # The paper describes the second level as "indexed by the path (or
        # global) history of the last 12 branches" (Figure 6a); hashing the
        # outcome history with the path history keeps outcome correlation
        # while decorrelating different programs' footprints.
        self._path = PathHistory(24, pc_bits_per_branch=2)
        if isolation is not None:
            isolation.register_flushable(self._local_history)
        # Per-thread kernels (see ``exec_kernel``) and their code objects by
        # arm.  The kernels bind the thread's masks, so under an XOR policy
        # key re-randomisation drops them.
        self._exec_fns: Dict[int, object] = {}
        self._kernel_code: Dict[tuple, object] = {}
        attached = self._local_pht.word_table.isolation
        if isolation_arm(attached) == "fused-xor":
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    # -- index computation ----------------------------------------------------
    def _local_index(self, pc: int) -> int:
        # Second level of the local component: indexed by the branch's pattern
        # history, as in the Alpha 21264 and gem5's TournamentBP.
        return self._local_history.read(pc) & self._local_mask

    def _global_index(self, thread_id: int) -> int:
        history = self._ghr.folded(self._global_mask.bit_length(), thread_id)
        path = self._path.folded(self._global_mask.bit_length(), thread_id)
        return (history ^ path) & self._global_mask

    def _choice_index(self, thread_id: int) -> int:
        history = self._ghr.folded(self._choice_mask.bit_length(), thread_id)
        path = self._path.folded(self._choice_mask.bit_length(), thread_id)
        return (history ^ path) & self._choice_mask

    # -- prediction protocol --------------------------------------------------
    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        local_index = self._local_index(pc)
        global_index = self._global_index(thread_id)
        choice_index = self._choice_index(thread_id)
        local_counter = self._local_pht.read(local_index, thread_id)
        global_counter = self._global_pht.read(global_index, thread_id)
        choice_counter = self._choice_pht.read(choice_index, thread_id)
        local_taken = counter_is_taken(local_counter)
        global_taken = counter_is_taken(global_counter)
        use_global = counter_is_taken(choice_counter)
        taken = global_taken if use_global else local_taken
        return DirectionPrediction(taken=taken, meta={
            "local_index": local_index,
            "global_index": global_index,
            "choice_index": choice_index,
            "local_taken": local_taken,
            "global_taken": global_taken,
            "use_global": use_global,
        })

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        if prediction is None or "local_index" not in prediction.meta:
            prediction = self.lookup(pc, thread_id)
        meta = prediction.meta
        local_index = meta["local_index"]
        global_index = meta["global_index"]
        choice_index = meta["choice_index"]
        local_correct = meta["local_taken"] == taken
        global_correct = meta["global_taken"] == taken

        # Train the chooser only when the components disagree.
        if local_correct != global_correct:
            choice = self._choice_pht.read(choice_index, thread_id)
            self._choice_pht.write(choice_index,
                                   saturating_update(choice, global_correct),
                                   thread_id)

        local_counter = self._local_pht.read(local_index, thread_id)
        self._local_pht.write(local_index, saturating_update(local_counter, taken),
                              thread_id)
        global_counter = self._global_pht.read(global_index, thread_id)
        self._global_pht.write(global_index, saturating_update(global_counter, taken),
                               thread_id)

        self._local_history.push(pc, taken)
        self._ghr.push(taken, thread_id)
        self._path.push(pc, thread_id)

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update (see :meth:`exec_kernel`)."""
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's specialised execute kernel ``fn(pc, taken)``.

        A generated function with the geometry inlined and the thread's
        history registers, statistics and storage masks bound in its
        globals.  It is dropped on key re-randomisation, ``flush`` /
        ``flush_thread``, ``reset_stats`` and ``invalidate_kernel_masks``;
        ``.arm`` names the storage arm it runs.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual storage-arm changes)."""
        self._exec_fns.clear()

    def _build_exec_fn(self, thread_id: int):
        arm = storage_arm(self.tables())
        namespace = {
            "lh_entries": self._local_history._entries,
            "ghr_values": self._ghr._values,
            "path_values": self._path._values,
            "pstats": self.stats(thread_id),
            "TID": thread_id,
        }
        for name, pht, _ in self._kernel_phts():
            bind_table(namespace, name, pht.word_table, arm, thread_id)
        fn = make_kernel(self._kernel_code, ("tournament", arm),
                         lambda: self._kernel_source(arm), namespace, arm)
        self._exec_fns[thread_id] = fn
        return fn

    def _kernel_phts(self):
        """(kernel name, counter table, counter-index local) per table."""
        return (("TL", self._local_pht, "local_index"),
                ("TG", self._global_pht, "global_index"),
                ("TC", self._choice_pht, "choice_index"))

    def _kernel_source(self, arm: str) -> str:
        """Generate one kernel arm (statement order of lookup + update).

        Each counter word is read once: the chooser, local and global
        tables are distinct, so the update's re-reads would return the
        words the lookup saw.
        """
        ghr_bits = self._ghr.bits
        path_bits = self._path.bits
        gbits = self._global_mask.bit_length()
        cbits = self._choice_mask.bit_length()
        lines = [
            "def _kernel(pc, taken, thread_id=0):",
            "    pc2 = pc >> 2",
            f"    lh_index = pc2 & {self._local_history._index_mask}",
            "    lh = lh_entries[lh_index]",
            "    ghr = ghr_values.get(TID, 0)",
            "    path = path_values.get(TID, 0)",
            f"    local_index = lh & {self._local_mask}",
            f"    global_index = ({fold_expr('ghr', ghr_bits, gbits)}"
            f" ^ {fold_expr('path', path_bits, gbits)}) & {self._global_mask}",
            f"    choice_index = ({fold_expr('ghr', ghr_bits, cbits)}"
            f" ^ {fold_expr('path', path_bits, cbits)}) & {self._choice_mask}",
        ]
        for name, pht, index in self._kernel_phts():
            lines += emit_counter_read(arm, name, pht, index)
        lines += [
            f"    local_taken = TL_ctr >= {1 << (self._local_pht.counter_bits - 1)}",
            f"    global_taken = TG_ctr >= {1 << (self._global_pht.counter_bits - 1)}",
            f"    if TC_ctr >= {1 << (self._choice_pht.counter_bits - 1)}:",
            "        predicted = global_taken",
            "    else:",
            "        predicted = local_taken",
            "    pstats.lookups += 1",
            "    if predicted != taken:",
            "        pstats.mispredictions += 1",
            # The chooser trains only when the components disagree.
            "    if local_taken != global_taken:",
        ]
        lines += emit_counter_train(arm, "TC", self._choice_pht,
                                    "global_taken == taken", "        ")
        lines += emit_counter_train(arm, "TL", self._local_pht, "taken", "    ")
        lines += emit_counter_train(arm, "TG", self._global_pht, "taken", "    ")
        lh_mask = (1 << self._local_history.history_bits) - 1
        pc_bits = self._path._pc_bits
        lines += [
            f"    lh_entries[lh_index] = ((lh << 1) | taken) & {lh_mask}",
            f"    ghr_values[TID] = ((ghr << 1) | taken) & {self._ghr._mask}",
            f"    path_values[TID] = ((path << {pc_bits})"
            f" | (pc2 & {(1 << pc_bits) - 1})) & {self._path._mask}",
            "    return predicted",
        ]
        return "\n".join(lines) + "\n"

    # -- structure access -----------------------------------------------------
    def tables(self) -> List[PredictorTable]:
        return [self._local_pht.word_table, self._global_pht.word_table,
                self._choice_pht.word_table]

    @property
    def local_history(self) -> LocalHistoryTable:
        """First-level local history table."""
        return self._local_history

    @property
    def local_pht(self) -> PackedCounterTable:
        """Second-level local prediction table."""
        return self._local_pht

    @property
    def global_pht(self) -> PackedCounterTable:
        """Global prediction table."""
        return self._global_pht

    @property
    def choice_pht(self) -> PackedCounterTable:
        """Chooser table."""
        return self._choice_pht

    def flush(self) -> None:
        self._local_pht.flush()
        self._global_pht.flush()
        self._choice_pht.flush()
        self._local_history.flush()
        self._ghr.clear()
        self._path.clear()
        # Storage and histories reset in place, but drop the kernels anyway
        # so a later set_isolation / flag flip can never serve stale arms.
        self._exec_fns.clear()

    def flush_thread(self, thread_id: int) -> None:
        self._local_pht.flush_thread(thread_id)
        self._global_pht.flush_thread(thread_id)
        self._choice_pht.flush_thread(thread_id)
        self._ghr.clear(thread_id)
        self._path.clear(thread_id)
        self._exec_fns.pop(thread_id, None)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The kernels bind the (now replaced) stats objects.
        self._exec_fns.clear()
