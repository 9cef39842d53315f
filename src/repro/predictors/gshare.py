"""Gshare direction predictor.

Gshare XORs the branch PC with the global history register to index a single
table of 2-bit counters.  It is the smallest predictor evaluated in the
paper's SMT study (Table 2 lists a 2 KB Gshare) and the one used to describe
the Noisy-XOR-PHT microarchitecture in Figure 4(b).

Hot-path layout
---------------

The batched simulation entry point (:meth:`GsharePredictor.execute`) is
served by **per-thread closure kernels**, the same treatment the TAGE
predictor received: the PHT geometry (index mask, history fold width, packed
word coordinates) and — under a plain-XOR policy — the thread's fused
encode/decode masks are bound once per (thread, rekey) into a closure, so a
branch pays no bundle unpacking, no fast-path flag tests and no mask-cache
lookups.  The batched engines fetch the kernel via
:meth:`GsharePredictor.exec_kernel` and re-fetch it after every switch
notification; key re-randomisation drops the kernels through the isolation
mask-cache registration protocol.  Precise Flush gets a kernel that checks
and stamps the word's owner inline; non-XOR encoders get one that routes
every storage access through the generic ``PredictorTable`` dispatch, so
semantics are identical on all arms.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .base import DirectionPrediction, DirectionPredictor, PredictorStats
from .counters import counter_is_taken, saturating_update
from .history import GlobalHistory
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
        # Per-thread specialised kernels (closures, see ``_build_exec_fn``).
        # They close over per-thread masks and state, so under an XOR policy
        # they register as a mask cache: key re-randomisation drops them and
        # the next fetch rebuilds against the fresh masks.
        self._exec_fns: Dict[int, object] = {}
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
        """Fused lookup + stats + update without prediction-object allocation.

        Dispatches to the thread's specialised closure kernel (see
        :meth:`exec_kernel`).  State-identical to the ``lookup``/``update``
        pair for every isolation policy: the PHT word is read once (reads are
        side-effect free), the counter trained with the resolved direction,
        and the outcome shifted into the global history.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's specialised execute kernel ``fn(pc, taken)``.

        The kernel is a closure with the PHT geometry, the thread's
        statistics object, the global-history register file and the fused
        isolation masks bound once — a branch pays no per-call attribute
        loads or mask lookups.  It is dropped (and must be re-fetched by
        callers) whenever the bound state changes identity: key
        re-randomisation (via the isolation mask-cache protocol),
        ``flush``/``flush_thread``, ``reset_stats`` and
        ``invalidate_kernel_masks``.  The batched engines re-fetch it after
        every switch notification.  The callable also accepts (and ignores) a
        trailing ``thread_id`` argument so engines can drive specialised and
        generic predictors through one call shape.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual fast-path flag flips)."""
        self._exec_fns.clear()

    def _build_exec_fn(self, thread_id: int):
        """Build, cache and return one thread's specialised kernel.

        Four arms exist, selected by the word table's storage flags exactly
        as in :class:`repro.predictors.table.PredictorTable`: *passthrough*
        (baseline / Complete Flush), *fused-XOR* (plain-XOR encoders, masks
        baked in), *owner* (Precise Flush: another thread's word reads as
        the reset value, every write stamps the owner) and *generic*
        (non-XOR encoders, every access through the table dispatch).
        Statement order mirrors the ``lookup``/``stats().record``/``update``
        sequence bit for bit.
        """
        words = self._pht.word_table
        data = words._data
        offset = words._offset
        windex_mask = words._index_mask
        vmask = words._value_mask
        cpw = self._pht.counters_per_word
        index_bits = self._index_bits
        index_mask = self._index_mask
        ghr_values = self._ghr._values
        ghr_mask = self._ghr._mask
        pstats = self.stats(thread_id)
        tid = thread_id
        # cpw is a power of two for every standard geometry (32/2-bit words,
        # 2-bit counters); exotic widths take the generic arm below, which
        # is bit-identical and merely unspecialised.
        pow2 = cpw & (cpw - 1) == 0
        word_shift = cpw.bit_length() - 1
        slot_mask = cpw - 1

        if words._fast and pow2:
            def fn(pc, taken, _thread_id=0):
                history = ghr_values.get(tid, 0)
                folded = history & index_mask
                remaining = history >> index_bits
                while remaining:
                    folded ^= remaining & index_mask
                    remaining >>= index_bits
                index = ((pc >> 2) ^ folded) & index_mask
                row = offset + (index >> word_shift)
                shift = (index & slot_mask) * 2
                word = data[row]
                counter = (word >> shift) & 3
                predicted = counter >= 2
                pstats.lookups += 1
                if predicted != taken:
                    pstats.mispredictions += 1
                # Inlined saturating_update(counter, taken, 2).
                if taken:
                    new_counter = counter + 1 if counter < 3 else 3
                    ghr_values[tid] = ((history << 1) | 1) & ghr_mask
                else:
                    new_counter = counter - 1 if counter > 0 else 0
                    ghr_values[tid] = (history << 1) & ghr_mask
                data[row] = ((word & ~(3 << shift)) | (new_counter << shift)) \
                    & vmask
                return predicted

            fn.arm = "passthrough"
        elif words._xor_fast and pow2:
            masks = words._xor_masks.get(thread_id)
            if masks is None:
                masks = words._build_xor_masks(thread_id)
            index_key, content_key, row_keys = masks

            def fn(pc, taken, _thread_id=0):
                history = ghr_values.get(tid, 0)
                folded = history & index_mask
                remaining = history >> index_bits
                while remaining:
                    folded ^= remaining & index_mask
                    remaining >>= index_bits
                index = ((pc >> 2) ^ folded) & index_mask
                row = ((index >> word_shift) ^ index_key) & windex_mask
                shift = (index & slot_mask) * 2
                decode_key = content_key ^ row_keys[row]
                word = data[offset + row] ^ decode_key
                counter = (word >> shift) & 3
                predicted = counter >= 2
                pstats.lookups += 1
                if predicted != taken:
                    pstats.mispredictions += 1
                if taken:
                    new_counter = counter + 1 if counter < 3 else 3
                    ghr_values[tid] = ((history << 1) | 1) & ghr_mask
                else:
                    new_counter = counter - 1 if counter > 0 else 0
                    ghr_values[tid] = (history << 1) & ghr_mask
                data[offset + row] = \
                    (((word & ~(3 << shift)) | (new_counter << shift))
                     & vmask) ^ decode_key
                return predicted

            fn.arm = "fused-xor"
        elif words._owner_fast and pow2:
            owners = words._owner
            reset = words._reset_value

            def fn(pc, taken, _thread_id=0):
                history = ghr_values.get(tid, 0)
                folded = history & index_mask
                remaining = history >> index_bits
                while remaining:
                    folded ^= remaining & index_mask
                    remaining >>= index_bits
                index = ((pc >> 2) ^ folded) & index_mask
                row = index >> word_shift
                shift = (index & slot_mask) * 2
                owner = owners[row]
                word = data[offset + row] if owner == tid or owner == -1 \
                    else reset
                counter = (word >> shift) & 3
                predicted = counter >= 2
                pstats.lookups += 1
                if predicted != taken:
                    pstats.mispredictions += 1
                if taken:
                    new_counter = counter + 1 if counter < 3 else 3
                    ghr_values[tid] = ((history << 1) | 1) & ghr_mask
                else:
                    new_counter = counter - 1 if counter > 0 else 0
                    ghr_values[tid] = (history << 1) & ghr_mask
                data[offset + row] = \
                    ((word & ~(3 << shift)) | (new_counter << shift)) & vmask
                owners[row] = tid
                return predicted

            fn.arm = "owner"
        else:
            def fn(pc, taken, _thread_id=0):
                history = ghr_values.get(tid, 0)
                folded = history & index_mask
                remaining = history >> index_bits
                while remaining:
                    folded ^= remaining & index_mask
                    remaining >>= index_bits
                index = ((pc >> 2) ^ folded) & index_mask
                if pow2:
                    word_index = index >> word_shift
                    shift = (index & slot_mask) * 2
                else:
                    word_index = index // cpw
                    shift = (index % cpw) * 2
                word = words.read(word_index, tid)
                counter = (word >> shift) & 3
                predicted = counter >= 2
                pstats.lookups += 1
                if predicted != taken:
                    pstats.mispredictions += 1
                if taken:
                    new_counter = counter + 1 if counter < 3 else 3
                else:
                    new_counter = counter - 1 if counter > 0 else 0
                words.write(word_index,
                            (word & ~(3 << shift)) | (new_counter << shift),
                            tid)
                ghr_values[tid] = \
                    ((history << 1) | (1 if taken else 0)) & ghr_mask
                return predicted

            # The arm tag lets benchmarks and tests assert the intended
            # specialisation is active instead of a silent generic fallback.
            fn.arm = "generic"
        self._exec_fns[thread_id] = fn
        return fn

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
