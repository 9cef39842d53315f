"""Bimodal direction predictor (per-PC 2-bit counters).

The bimodal table is both the simplest standalone predictor and the base
component of the TAGE family.  It is indexed purely by branch-address bits,
so it is the structure the BranchScope attack targets: the attacker and the
victim branch that share an index share a counter.
"""

from __future__ import annotations

from typing import List, Optional

from .base import DirectionPrediction, DirectionPredictor
from .counters import counter_is_taken, saturating_update
from .table import PackedCounterTable, PredictorTable, TableIsolation

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
        # The fused ``execute`` drives the physical word table directly.
        self._words = self._pht.word_table
        self._per_word = self._pht.counters_per_word
        self._counter_mask = (1 << counter_bits) - 1
        self._taken_threshold = 1 << (counter_bits - 1)

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
        """Fused lookup + stats + update with one word read and one write.

        State-identical to ``lookup``, ``stats(...).record`` and ``update``
        on every storage arm: the word goes through the table's own
        ``read``/``write``, so the isolation dispatch (and Precise Flush's
        owner stamp) is unchanged, and nothing touches the table between
        the unfused path's repeated reads of the same word.  A plain method
        rather than a cached kernel, because the attack scenarios rekey
        every few branches.
        """
        index = (pc >> 2) & self._index_mask
        word_index = index // self._per_word
        shift = (index % self._per_word) * self._counter_bits
        mask = self._counter_mask
        words = self._words
        word = words.read(word_index, thread_id)
        counter = (word >> shift) & mask
        predicted = counter >= self._taken_threshold
        self.stats(thread_id).record(predicted == taken)
        if taken:
            if counter < mask:
                counter += 1
        elif counter > 0:
            counter -= 1
        words.write(word_index, (word & ~(mask << shift)) | (counter << shift),
                    thread_id)
        return predicted

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
