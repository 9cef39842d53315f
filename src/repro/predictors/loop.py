"""Loop predictor.

The loop predictor captures branches that exit a loop after a regular number
of iterations — a pattern the counter-based components mispredict exactly once
per loop.  LTAGE and TAGE-SC-L both include one (the paper's TAGE-SC-L
configuration uses a 256-entry, 4-way associative loop table).

Entries are packed into a :class:`repro.predictors.table.PredictorTable` so
that the isolation mechanisms cover the loop table as well.
"""

from __future__ import annotations

from typing import List, Optional

from .kernelgen import bind_table, emit_read, emit_write
from .table import PredictorTable, TableIsolation

__all__ = ["LoopPredictor", "LoopPrediction"]


class LoopPrediction:
    """Result of a loop-predictor lookup.

    Attributes:
        valid: True when a confident loop entry matched the branch.
        taken: predicted direction when ``valid``.
    """

    __slots__ = ("valid", "taken", "index")

    def __init__(self, valid: bool, taken: bool, index: int) -> None:
        self.valid = valid
        self.taken = taken
        self.index = index


class LoopPredictor:
    """Direct-mapped loop predictor.

    Each entry stores a partial tag, the learned trip count, the current
    iteration count and a confidence counter.  The entry predicts *taken*
    until the current iteration reaches the learned trip count, then predicts
    *not taken* once.  Only confident entries override the main predictor.

    Args:
        n_entries: number of loop entries (power of two).
        tag_bits: partial tag width.
        iter_bits: width of the trip/iteration counters.
        confidence_threshold: confidence needed before predictions are used.
        isolation: isolation policy applied to the loop table.
    """

    def __init__(self, n_entries: int = 256, *, tag_bits: int = 10,
                 iter_bits: int = 10, confidence_threshold: int = 3,
                 isolation: Optional[TableIsolation] = None) -> None:
        self._tag_bits = tag_bits
        self._iter_bits = iter_bits
        self._conf_bits = 2
        self._tag_mask = (1 << tag_bits) - 1
        self._iter_mask = (1 << iter_bits) - 1
        self._conf_mask = (1 << self._conf_bits) - 1
        self._threshold = min(confidence_threshold, self._conf_mask)
        entry_bits = tag_bits + 2 * iter_bits + self._conf_bits
        self._table = PredictorTable(n_entries, entry_bits, reset_value=0,
                                     name="loop", isolation=isolation)
        self._index_mask = n_entries - 1

    # -- entry packing --------------------------------------------------------
    def _pack(self, tag: int, trip: int, current: int, confidence: int) -> int:
        return (((tag & self._tag_mask) << (2 * self._iter_bits + self._conf_bits))
                | ((trip & self._iter_mask) << (self._iter_bits + self._conf_bits))
                | ((current & self._iter_mask) << self._conf_bits)
                | (confidence & self._conf_mask))

    def _unpack(self, word: int):
        confidence = word & self._conf_mask
        current = (word >> self._conf_bits) & self._iter_mask
        trip = (word >> (self._conf_bits + self._iter_bits)) & self._iter_mask
        tag = (word >> (self._conf_bits + 2 * self._iter_bits)) & self._tag_mask
        return tag, trip, current, confidence

    def _index_of(self, pc: int) -> int:
        return (pc >> 2) & self._index_mask

    def _tag_of(self, pc: int) -> int:
        return (pc >> (2 + self._index_mask.bit_length())) & self._tag_mask

    # -- prediction protocol --------------------------------------------------
    def lookup(self, pc: int, thread_id: int = 0) -> LoopPrediction:
        """Predict the branch at ``pc`` if a confident loop entry matches."""
        index = self._index_of(pc)
        word = self._table.read(index, thread_id)
        tag, trip, current, confidence = self._unpack(word)
        if word == 0 or tag != self._tag_of(pc) or confidence < self._threshold:
            return LoopPrediction(valid=False, taken=False, index=index)
        # ``current`` counts the taken back-edges seen so far in this loop
        # execution; the branch stays taken until that reaches the learned
        # trip count.
        taken = current < trip
        return LoopPrediction(valid=True, taken=taken, index=index)

    def update(self, pc: int, taken: bool, thread_id: int = 0) -> None:
        """Train the loop entry for ``pc`` with the resolved direction."""
        index = self._index_of(pc)
        lookup_tag = self._tag_of(pc)
        word = self._table.read(index, thread_id)
        tag, trip, current, confidence = self._unpack(word)

        if word == 0 or tag != lookup_tag:
            # Allocate only when we see the loop exit (a not-taken outcome),
            # so the first learned trip count is meaningful.
            if not taken:
                self._table.write(index, self._pack(lookup_tag, 0, 0, 0), thread_id)
            return

        if taken:
            current = min(current + 1, self._iter_mask)
            self._table.write(index, self._pack(tag, trip, current, confidence),
                              thread_id)
            return

        # Loop exit: compare the observed trip count with the learned one.
        observed = current
        if observed == trip and trip != 0:
            confidence = min(confidence + 1, self._conf_mask)
        else:
            trip = observed
            confidence = 0
        self._table.write(index, self._pack(tag, trip, 0, confidence), thread_id)

    # -- generated-kernel fragment ---------------------------------------------
    def kernel_lines(self, arm: str) -> List[str]:
        """Kernel lines running :meth:`lookup` then :meth:`update` inline.

        Expects ``pc``, ``pc2 = pc >> 2`` and ``taken`` in scope and leaves
        the lookup result in ``loop_valid`` / ``loop_taken``.  The entry is
        read once: nothing else writes the loop table in between, so the
        update sees the word the lookup saw.
        """
        table = self._table
        conf_bits = self._conf_bits
        iter_bits = self._iter_bits
        imask = self._iter_mask
        cmask = self._conf_mask
        cur_shift = conf_bits
        trip_shift = conf_bits + iter_bits
        tag_shift = conf_bits + 2 * iter_bits
        lines = [
            f"    loop_index = pc2 & {self._index_mask}",
            f"    loop_tag = (pc >> {2 + self._index_mask.bit_length()})"
            f" & {self._tag_mask}",
        ]
        lines += emit_read(arm, "LP", table, "loop_index", "loop_word")
        lines += [
            f"    loop_current = (loop_word >> {cur_shift}) & {imask}",
            f"    loop_trip = (loop_word >> {trip_shift}) & {imask}",
            "    if loop_word == 0 or"
            f" (loop_word >> {tag_shift}) & {self._tag_mask} != loop_tag:",
            "        loop_valid = loop_taken = False",
            "        if not taken:",
        ]
        lines += emit_write(arm, "LP", table, "loop_index",
                            f"loop_tag << {tag_shift}", "            ")
        lines += [
            "    else:",
            f"        loop_conf = loop_word & {cmask}",
            f"        loop_valid = loop_conf >= {self._threshold}",
            "        loop_taken = loop_valid and loop_current < loop_trip",
            "        if taken:",
            f"            if loop_current < {imask}:",
            f"                loop_word += {1 << cur_shift}",
        ]
        lines += emit_write(arm, "LP", table, "loop_index", "loop_word",
                            "            ")
        lines += [
            "        else:",
            "            if loop_current == loop_trip and loop_trip != 0:",
            f"                if loop_conf < {cmask}:",
            "                    loop_conf += 1",
            "            else:",
            "                loop_trip = loop_current",
            "                loop_conf = 0",
        ]
        lines += emit_write(
            arm, "LP", table, "loop_index",
            f"(loop_word & {((1 << self._tag_bits) - 1) << tag_shift})"
            f" | (loop_trip << {trip_shift}) | loop_conf", "            ")
        return lines

    def bind_kernel(self, namespace: dict, arm: str, thread_id: int) -> None:
        """Bind the globals :meth:`kernel_lines` uses for one thread."""
        bind_table(namespace, "LP", self._table, arm, thread_id)

    # -- structure access -----------------------------------------------------
    @property
    def table(self) -> PredictorTable:
        """The underlying loop table."""
        return self._table

    def flush(self) -> None:
        """Clear all loop entries."""
        self._table.flush()

    def flush_thread(self, thread_id: int) -> None:
        """Clear loop entries owned by one hardware thread."""
        self._table.flush_thread(thread_id)
