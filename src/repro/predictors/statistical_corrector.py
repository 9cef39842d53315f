"""GEHL-style statistical corrector.

TAGE occasionally produces statistically biased mispredictions (branches that
correlate weakly with history).  The statistical corrector (SC) of TAGE-SC-L
sums a set of signed counters read from tables indexed by different history
flavours (global history, backward-branch history, local history, the IMLI
counter) and, when the magnitude of the sum is large enough and disagrees
with TAGE, overrides the prediction.

This implementation keeps the structure (multiple GEHL components over
different histories, a dynamic use threshold) while remaining small enough
for trace-driven simulation.  All component tables are
:class:`repro.predictors.table.PredictorTable` instances so the isolation
mechanisms apply to them, as shown in Figure 6(b).
"""

from __future__ import annotations

from typing import List, Optional

from .counters import signed_saturating_update
from .history import GlobalHistory, LocalHistoryTable, fold_history
from .kernelgen import bind_table, emit_read, emit_write, fold_expr
from .table import PredictorTable, TableIsolation, _require_power_of_two

__all__ = ["StatisticalCorrector"]


def _to_signed(value: int, bits: int) -> int:
    """Interpret an unsigned stored word as a signed counter."""
    sign_bit = 1 << (bits - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def _to_unsigned(value: int, bits: int) -> int:
    """Store a signed counter as an unsigned word."""
    return value & ((1 << bits) - 1)


class StatisticalCorrector:
    """Multi-component signed-counter corrector.

    Args:
        table_entries: entries per component table (power of two).
        counter_bits: width of each signed counter.
        history_lengths: global-history lengths of the GEHL components.
        local_history_bits: length of the per-branch local history component.
        isolation: isolation policy applied to all component tables.
    """

    def __init__(self, table_entries: int = 1024, counter_bits: int = 6,
                 history_lengths: Optional[List[int]] = None,
                 local_history_bits: int = 8, *,
                 isolation: Optional[TableIsolation] = None) -> None:
        if counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {counter_bits}")
        _require_power_of_two(table_entries, "table_entries")
        self._counter_bits = counter_bits
        self._max = (1 << (counter_bits - 1)) - 1
        self._index_bits = table_entries.bit_length() - 1
        self._index_mask = table_entries - 1
        self._history_lengths = history_lengths or [4, 10, 16, 27]
        self._tables: List[PredictorTable] = []
        for i, _ in enumerate(self._history_lengths):
            self._tables.append(PredictorTable(table_entries, counter_bits,
                                               reset_value=0, name=f"sc_g{i}",
                                               isolation=isolation))
        self._backward_table = PredictorTable(table_entries, counter_bits,
                                              reset_value=0, name="sc_bw",
                                              isolation=isolation)
        self._local_table = PredictorTable(table_entries, counter_bits,
                                           reset_value=0, name="sc_local",
                                           isolation=isolation)
        self._local_history = LocalHistoryTable(256, local_history_bits)
        self._backward_history = GlobalHistory(16)
        self._use_threshold = 2 * len(self._tables)
        if isolation is not None:
            isolation.register_flushable(self._local_history)

    # -- indexing -------------------------------------------------------------
    def _global_index(self, pc: int, length: int, ghr: int) -> int:
        history = fold_history(ghr & ((1 << length) - 1), length, self._index_bits)
        return ((pc >> 2) ^ history) & self._index_mask

    def _backward_index(self, pc: int, thread_id: int) -> int:
        history = self._backward_history.folded(self._index_bits, thread_id)
        return ((pc >> 2) ^ history) & self._index_mask

    def _local_index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._local_history.read(pc)) & self._index_mask

    # -- prediction protocol --------------------------------------------------
    def confidence_sum(self, pc: int, ghr_value: int, tage_taken: bool,
                       thread_id: int = 0) -> int:
        """Signed vote of all components (positive = taken)."""
        total = 8 if tage_taken else -8  # TAGE's own vote, centred bias
        for table, length in zip(self._tables, self._history_lengths):
            index = self._global_index(pc, length, ghr_value)
            total += 2 * _to_signed(table.read(index, thread_id), self._counter_bits) + 1
        bw_index = self._backward_index(pc, thread_id)
        total += 2 * _to_signed(self._backward_table.read(bw_index, thread_id),
                                self._counter_bits) + 1
        local_index = self._local_index(pc)
        total += 2 * _to_signed(self._local_table.read(local_index, thread_id),
                                self._counter_bits) + 1
        return total

    def correct(self, pc: int, ghr_value: int, tage_taken: bool,
                tage_confident: bool, thread_id: int = 0) -> bool:
        """Return the (possibly overridden) prediction.

        The corrector only overrides low-confidence TAGE predictions whose
        statistical vote is strong and disagrees.
        """
        total = self.confidence_sum(pc, ghr_value, tage_taken, thread_id)
        sc_taken = total >= 0
        if sc_taken == tage_taken:
            return tage_taken
        if tage_confident and abs(total) < self._use_threshold:
            return tage_taken
        if abs(total) >= self._use_threshold // 2:
            return sc_taken
        return tage_taken

    def update(self, pc: int, taken: bool, ghr_value: int, tage_taken: bool,
               final_taken: bool, thread_id: int = 0) -> None:
        """Train all components with the resolved outcome."""
        total = self.confidence_sum(pc, ghr_value, tage_taken, thread_id)
        sc_taken = total >= 0
        # Dynamic threshold adaptation (simplified): grow when the corrector
        # overrode incorrectly, shrink when it could have helped.
        if final_taken != taken and sc_taken == taken:
            self._use_threshold = max(2, self._use_threshold - 1)
        elif final_taken != taken and sc_taken != taken:
            self._use_threshold = min(8 * len(self._tables), self._use_threshold + 1)

        if sc_taken != taken or abs(total) < 4 * self._use_threshold:
            for table, length in zip(self._tables, self._history_lengths):
                index = self._global_index(pc, length, ghr_value)
                value = _to_signed(table.read(index, thread_id), self._counter_bits)
                value = signed_saturating_update(value, taken, self._counter_bits)
                table.write(index, _to_unsigned(value, self._counter_bits), thread_id)
            bw_index = self._backward_index(pc, thread_id)
            value = _to_signed(self._backward_table.read(bw_index, thread_id),
                               self._counter_bits)
            value = signed_saturating_update(value, taken, self._counter_bits)
            self._backward_table.write(bw_index, _to_unsigned(value, self._counter_bits),
                                       thread_id)
            local_index = self._local_index(pc)
            value = _to_signed(self._local_table.read(local_index, thread_id),
                               self._counter_bits)
            value = signed_saturating_update(value, taken, self._counter_bits)
            self._local_table.write(local_index, _to_unsigned(value, self._counter_bits),
                                    thread_id)

        # History maintenance.
        self._local_history.push(pc, taken)
        is_backward = bool((pc >> 20) & 1)
        if is_backward:
            self._backward_history.push(taken, thread_id)

    # -- generated-kernel fragment ---------------------------------------------
    def _kernel_components(self):
        """(name, table, index-expression) of every component, in vote order."""
        bits = self._index_bits
        mask = self._index_mask
        longest = max(self._history_lengths)
        parts = []
        for i, (table, length) in enumerate(zip(self._tables,
                                                self._history_lengths)):
            fold = fold_expr("sc_history", length, bits, longest)
            parts.append((f"SG{i}", table, f"(pc2 ^ {fold}) & {mask}"))
        backward = fold_expr("sc_backward", self._backward_history.bits, bits)
        parts.append(("SB", self._backward_table,
                      f"(pc2 ^ {backward}) & {mask}"))
        parts.append(("SL", self._local_table, f"(pc2 ^ sc_local) & {mask}"))
        return parts

    def kernel_lines(self, arm: str) -> List[str]:
        """Kernel lines running :meth:`correct` then :meth:`update` inline.

        Expects ``pc``, ``pc2 = pc >> 2``, ``taken``, the pre-push global
        history ``ghr_value``, the pre-corrector prediction ``sc_pre`` and
        its confidence ``sc_conf`` in scope; leaves the final prediction in
        ``final``.  Each component counter is read once: nothing writes the
        corrector between the vote and the update, so the update's re-read
        would return the same words.
        """
        bits = self._counter_bits
        sign = 1 << (bits - 1)
        low = sign - 1
        local = self._local_history
        lines = [
            # The longest component history, cut down from the (much wider)
            # global history once.
            f"    sc_history = ghr_value & {(1 << max(self._history_lengths)) - 1}",
            "    sc_backward = sc_bw_values.get(TID, 0)",
            f"    sc_local_index = pc2 & {local._index_mask}",
            "    sc_local = sc_local_entries[sc_local_index]",
        ]
        parts = self._kernel_components()
        names = []
        for name, table, index in parts:
            lines.append(f"    {name}_idx = {index}")
            lines += emit_read(arm, name, table, f"{name}_idx", f"{name}_v")
            lines.append(f"    {name}_v = ({name}_v & {low}) - ({name}_v & {sign})")
            names.append(f"{name}_v")
        # Sum of (2 * counter + 1) over the components, plus TAGE's own vote.
        lines += [
            f"    total = (8 if sc_pre else -8) + 2 * ({' + '.join(names)})"
            f" + {len(parts)}",
            "    sc_taken = total >= 0",
            "    threshold = sc._use_threshold",
            "    if sc_taken == sc_pre:",
            "        final = sc_pre",
            "    elif sc_conf and abs(total) < threshold:",
            "        final = sc_pre",
            "    elif abs(total) >= threshold // 2:",
            "        final = sc_taken",
            "    else:",
            "        final = sc_pre",
            "    if final != taken:",
            "        if sc_taken == taken:",
            "            threshold = threshold - 1 if threshold > 2 else 2",
            "        else:",
            f"            threshold = threshold + 1 if threshold < "
            f"{8 * len(self._tables)} else {8 * len(self._tables)}",
            "        sc._use_threshold = threshold",
            "    if sc_taken != taken or abs(total) < 4 * threshold:",
            "        if taken:",
        ]
        for name, _, _ in parts:
            lines.append(f"            {name}_v = {name}_v + 1 if {name}_v < {low}"
                         f" else {low}")
        lines.append("        else:")
        for name, _, _ in parts:
            lines.append(f"            {name}_v = {name}_v - 1 if {name}_v > "
                         f"{-sign} else {-sign}")
        for name, table, _ in parts:
            lines += emit_write(arm, name, table, f"{name}_idx",
                                f"{name}_v & {(1 << bits) - 1}", "        ")
        lines += [
            f"    sc_local_entries[sc_local_index] = ((sc_local << 1) | taken)"
            f" & {(1 << local.history_bits) - 1}",
            "    if (pc >> 20) & 1:",
            "        sc_bw_values[TID] = ((sc_backward << 1) | taken)"
            f" & {self._backward_history._mask}",
        ]
        return lines

    def bind_kernel(self, namespace: dict, arm: str, thread_id: int) -> None:
        """Bind the globals :meth:`kernel_lines` uses for one thread."""
        namespace["sc"] = self
        namespace["sc_bw_values"] = self._backward_history._values
        namespace["sc_local_entries"] = self._local_history._entries
        for name, table, _ in self._kernel_components():
            bind_table(namespace, name, table, arm, thread_id)

    # -- structure access -----------------------------------------------------
    def tables(self) -> List[PredictorTable]:
        """All component tables."""
        return list(self._tables) + [self._backward_table, self._local_table]

    def flush(self) -> None:
        """Clear all component tables and histories."""
        for table in self.tables():
            table.flush()
        self._local_history.flush()
        self._backward_history.clear()

    def flush_thread(self, thread_id: int) -> None:
        """Clear component entries owned by one hardware thread."""
        for table in self.tables():
            table.flush_thread(thread_id)
        self._backward_history.clear(thread_id)
