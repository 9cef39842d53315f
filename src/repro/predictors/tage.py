"""TAGE: TAgged GEometric history length direction predictor.

TAGE is the core of the LTAGE and TAGE-SC-L predictors evaluated in the
paper's SMT study (Table 2).  It combines a bimodal *base* predictor with a
set of *tagged* tables indexed by hashes of the PC and geometrically
increasing global-history lengths.  The longest-history table whose tag
matches provides the prediction; a ``USE_ALT_ON_NA`` counter arbitrates
between the provider and the alternate prediction when the provider entry is
not confident.

Every tagged entry (tag, prediction counter, useful counter) is packed into a
single word of a :class:`repro.predictors.table.PredictorTable`, so content
encoding covers the whole entry and index encoding covers the table index —
exactly the attachment points shown for the TAGE tables in Figure 6(b).

Hot-path layout
---------------

The batched simulation kernel (:meth:`TagePredictor.execute`) works on flat
packed state rather than per-table objects:

* all tagged-table entries live in **one flat storage list** with a
  precomputed per-table stride (the :class:`PredictorTable` views share the
  list, so the scalar protocol, attacks and flush machinery see the same
  bits);
* the per-thread folded global histories (one index-width and two tag-width
  circular shift registers per tagged table) are packed **lane-wise into
  three machine integers** and updated SWAR-style: one shift/XOR sequence per
  register file instead of one per (table, register), with the per-table
  "oldest history bit" gather replaced by a precomputed 2^n_tables-entry map
  (shared by every predictor of the same geometry).  The two tag registers
  share one lane pitch, so the kernel folds every table's tag from a single
  ``tag0 ^ (tag1 << 1)`` per branch;
* XOR-family isolation (XOR-BP / Noisy-XOR-BP) is **fused into the kernel**:
  per-(thread, table) encode/decode masks are precomputed at switch time and
  applied inline, so the encoded presets take the same monomorphic loop as
  the baseline (which pays no mask work at all);
* the kernel itself is **generated and compiled per isolation arm** (see
  :meth:`TagePredictor._kernel_source`): the tagged-table loop is unrolled
  with all geometry constants inlined as literals and the thread's packed
  state and masks bound in the function's globals, so a branch pays no
  attribute loads, constant-tuple unpacking or mask lookups.  The batched
  engines fetch the kernel via :meth:`TagePredictor.exec_kernel` and
  re-fetch it after every switch notification.  Precise Flush gets a
  third, *owner* arm that checks and stamps the tables' owner lists inline;
  non-XOR encoders (and forced generic dispatch) get a fourth, *generic*
  arm whose storage accesses go through the tables' own ``read``/``write``
  dispatch;
* allocation after a misprediction is **generated into the kernel** on
  every arm: the candidate scan, useful-counter ageing, LFSR tie-break and
  install reuse the rows and decoded words the lookup read (tables longer
  than the provider are not written in between).  Only the branch right
  after a graceful useful-counter reset, which rewrites those words, calls
  :meth:`TagePredictor._allocate`, the scalar path's allocator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .base import DirectionPrediction, DirectionPredictor, PredictorStats
from .bimodal import BimodalPredictor
from .counters import counter_is_taken, saturating_update
from .history import GlobalHistory, PathHistory
from .kernelgen import make_kernel, storage_arm
from .table import PredictorTable, TableIsolation, isolation_arm

__all__ = ["TageConfig", "TagePredictor", "geometric_history_lengths"]

#: Largest table count for which the oldest-bit gather map is materialised
#: (2^n entries); beyond it the push loop gathers bits one table at a time.
_MAX_GATHER_TABLES = 12


def geometric_history_lengths(n_tables: int, min_length: int, max_length: int) -> List[int]:
    """Return ``n_tables`` geometrically spaced history lengths.

    The classic TAGE formulation spaces history lengths as
    ``L(i) = min * (max/min)^((i-1)/(n-1))``, rounded to integers.
    """
    if n_tables == 1:
        return [min_length]
    ratio = (max_length / min_length) ** (1.0 / (n_tables - 1))
    lengths = []
    for i in range(n_tables):
        lengths.append(int(round(min_length * (ratio ** i))))
    # Enforce strict monotonicity after rounding.
    for i in range(1, n_tables):
        if lengths[i] <= lengths[i - 1]:
            lengths[i] = lengths[i - 1] + 1
    return lengths


@dataclass
class TageConfig:
    """Sizing of a TAGE predictor.

    The defaults follow the paper's FPGA-prototype TAGE (Table 2): six tagged
    tables of 4096 entries with history lengths 12...130.
    """

    n_tables: int = 6
    table_entries: int = 4096
    tag_bits: int = 11
    counter_bits: int = 3
    useful_bits: int = 2
    min_history: int = 12
    max_history: int = 130
    base_entries: int = 8192
    use_alt_bits: int = 4
    useful_reset_period: int = 1 << 18

    def history_lengths(self) -> List[int]:
        """Geometric history lengths for the tagged tables."""
        return geometric_history_lengths(self.n_tables, self.min_history,
                                          self.max_history)


class _DeterministicLfsr:
    """Tiny deterministic pseudo-random source for TAGE allocation decisions.

    Real TAGE implementations use an LFSR to break allocation ties; using a
    deterministic one keeps simulations reproducible.
    """

    def __init__(self, seed: int = 0xACE1) -> None:
        self._state = seed & 0xFFFF or 0xACE1

    def next_bits(self, bits: int = 2) -> int:
        value = 0
        for _ in range(bits):
            lsb = self._state & 1
            self._state >>= 1
            if lsb:
                self._state ^= 0xB400
            value = (value << 1) | lsb
        return value


def _two_step_terms() -> tuple:
    """XOR terms of two ``next_bits`` steps in closed form.

    The LFSR step is linear, so two steps from ``state`` give
    ``(state >> 2) ^ terms[state & 3]``, and ``next_bits(2)`` is 0 exactly
    when ``state & 3`` is.  The generated TAGE kernels step it this way.
    """
    terms = []
    for low in range(4):
        lfsr = _DeterministicLfsr()
        lfsr._state = low
        lfsr.next_bits(2)
        terms.append(lfsr._state)
    return tuple(terms)


_LFSR_TWO_STEP_TERMS = _two_step_terms()


class _FoldedSwar:
    """SWAR constants of one packed folded-history register file.

    Each of the ``n_tables`` folded circular-shift registers of width
    ``width`` occupies one ``pitch``-bit lane (at least ``width + 1``: the
    bit above the register buffers the shift-out before the fold) of a
    single integer.  One shift, one XOR with the gathered oldest-bit insert
    mask, one guard fold and one mask update all lanes at once.
    """

    __slots__ = ("width", "lane_offsets", "new_mask", "lane_mask",
                 "guard_mask", "insert_masks")

    def __init__(self, width: int, n_tables: int, inserts: Sequence[int],
                 pitch: int = 0) -> None:
        pitch = pitch or width + 1
        self.width = width
        self.lane_offsets = [t * pitch for t in range(n_tables)]
        self.new_mask = sum(1 << off for off in self.lane_offsets)
        self.lane_mask = sum(((1 << width) - 1) << off
                             for off in self.lane_offsets)
        self.guard_mask = sum(1 << (off + width) for off in self.lane_offsets)
        self.insert_masks = [1 << (self.lane_offsets[t] + inserts[t])
                             for t in range(n_tables)]


@lru_cache(maxsize=16)
def _oldest_bit_gather(old_shifts: Tuple[int, ...], masks_i: Tuple[int, ...],
                       masks_t0: Tuple[int, ...],
                       masks_t1: Tuple[int, ...]) -> Dict[int, tuple]:
    """Oldest-bit gather map of one geometry (shared, read-only).

    Maps the n GHR bits about to leave each table's history window straight
    to the three lane-wise insert masks: 2^n entries, so one dict hit
    replaces an n-iteration loop.  The map is a pure function of geometry,
    so predictors of the same geometry share one copy.
    """
    gather: Dict[int, tuple] = {0: (0, 0, 0)}
    for t, shift in enumerate(old_shifts):
        bit = 1 << shift
        for key, (mask_i, mask_t0, mask_t1) in list(gather.items()):
            gather[key | bit] = (mask_i | masks_i[t], mask_t0 | masks_t0[t],
                                 mask_t1 | masks_t1[t])
    return gather


class TagePredictor(DirectionPredictor):
    """TAGE direction predictor with pluggable isolation.

    Args:
        config: table sizing; defaults to :class:`TageConfig`.
        isolation: isolation policy applied to the base and tagged tables.
        word_bits: physical word width used for the base PHT packing.
    """

    name = "tage"

    def __init__(self, config: Optional[TageConfig] = None, *,
                 isolation: Optional[TableIsolation] = None,
                 word_bits: int = 32) -> None:
        super().__init__(isolation)
        self.config = config if config is not None else TageConfig()
        cfg = self.config
        # Every folded-history register needs at least one bit: the index
        # register is log2(table_entries) wide, the second tag register
        # tag_bits - 1.
        for field, bound in (("n_tables", 1), ("table_entries", 2),
                             ("tag_bits", 2)):
            if getattr(cfg, field) < bound:
                raise ValueError(f"TageConfig.{field} must be >= {bound}, "
                                 f"got {getattr(cfg, field)}")
        self._base = BimodalPredictor(cfg.base_entries, 2, isolation=isolation,
                                      word_bits=word_bits)
        self._history_lengths = cfg.history_lengths()
        self._entry_bits = cfg.tag_bits + cfg.counter_bits + cfg.useful_bits
        self._tag_mask = (1 << cfg.tag_bits) - 1
        self._ctr_mask = (1 << cfg.counter_bits) - 1
        self._u_mask = (1 << cfg.useful_bits) - 1
        self._ctr_weak_taken = 1 << (cfg.counter_bits - 1)
        self._index_bits = cfg.table_entries.bit_length() - 1
        # All tagged entries live in one flat packed buffer; each table is a
        # view over its stride so the whole-table API (flush, raw access,
        # isolation dispatch) keeps working while the fused kernel walks the
        # single list.
        self._flat: List[int] = [0] * (cfg.n_tables * cfg.table_entries)
        self._tables: List[PredictorTable] = [
            PredictorTable(cfg.table_entries, self._entry_bits, reset_value=0,
                           name=f"tage_t{i}", isolation=isolation,
                           storage=self._flat,
                           storage_offset=i * cfg.table_entries)
            for i in range(cfg.n_tables)]
        self._ghr = GlobalHistory(max(cfg.max_history, max(self._history_lengths)) + 1)
        self._path = PathHistory(32)

        # -- folded-history SWAR register files -------------------------------
        index_bits = self._index_bits
        tag_bits = cfg.tag_bits
        tag1_bits = tag_bits - 1
        n = cfg.n_tables
        lengths = self._history_lengths
        self._swar_i = _FoldedSwar(index_bits, n,
                                   [length % index_bits for length in lengths])
        self._swar_t0 = _FoldedSwar(tag_bits, n,
                                    [length % tag_bits for length in lengths])
        # The second tag register shares the first one's lanes, so one XOR
        # of the two packed files folds every table's tag at once.
        self._swar_t1 = _FoldedSwar(tag1_bits, n,
                                    [length % tag1_bits for length in lengths],
                                    pitch=tag_bits + 1)
        old_shifts = [length - 1 for length in lengths]
        self._old_shifts = old_shifts
        self._old_mask = sum(1 << shift for shift in old_shifts)
        self._old_gather: Optional[Dict[int, tuple]] = None
        if n <= _MAX_GATHER_TABLES:
            self._old_gather = _oldest_bit_gather(
                tuple(old_shifts), tuple(self._swar_i.insert_masks),
                tuple(self._swar_t0.insert_masks),
                tuple(self._swar_t1.insert_masks))
        self._new_masks = ((0, 0, 0), (self._swar_i.new_mask,
                                       self._swar_t0.new_mask,
                                       self._swar_t1.new_mask))
        # Incrementally folded global histories, per hardware thread: a
        # three-element list [packed_index, packed_tag0, packed_tag1].
        self._folded_state: Dict[int, list] = {}

        # -- fused-kernel constants -------------------------------------------
        # The base component is always a BimodalPredictor; the fused execute
        # path reads/trains its PHT directly to skip prediction-object
        # allocation (flushes reset the storage list in place, so caching
        # both the table and its storage list is safe).
        self._base_pht = self._base.pht
        self._base_index_mask = cfg.base_entries - 1
        self._base_counter_bits = 2
        self._base_threshold = 1 << (self._base_counter_bits - 1)
        self._base_words = self._base_pht.word_table
        self._use_alt = (1 << (cfg.use_alt_bits - 1))  # neutral
        self._use_alt_max = (1 << cfg.use_alt_bits) - 1
        self._lfsr = _DeterministicLfsr()
        self._update_count = 0
        # Per-thread specialised kernels (generated functions, see
        # ``_build_exec_fn``) and their code objects, keyed by arm.  The
        # kernels bind per-thread masks and state, so they register as a
        # mask cache: key re-randomisation drops them and the next fetch
        # rebuilds them.
        self._exec_fns: Dict[int, object] = {}
        self._kernel_code: Dict[tuple, object] = {}
        attached = self._tables[0].isolation
        if isolation_arm(attached) == "fused-xor":
            self._exec_token = object()
            attached.register_fast_mask_cache(self._exec_token,
                                              self._exec_fns,
                                              self._build_exec_fn)

    # -- entry packing --------------------------------------------------------
    def _pack(self, tag: int, ctr: int, useful: int) -> int:
        cfg = self.config
        return ((tag & self._tag_mask) << (cfg.counter_bits + cfg.useful_bits)
                | (ctr & self._ctr_mask) << cfg.useful_bits
                | (useful & self._u_mask))

    def _unpack(self, word: int) -> tuple:
        cfg = self.config
        useful = word & self._u_mask
        ctr = (word >> cfg.useful_bits) & self._ctr_mask
        tag = (word >> (cfg.useful_bits + cfg.counter_bits)) & self._tag_mask
        return tag, ctr, useful

    def invalidate_kernel_masks(self) -> None:
        """Drop every cached kernel (tests / manual storage-arm changes)."""
        self._exec_fns.clear()

    # -- folded-history maintenance --------------------------------------------
    def _folded_regs(self, thread_id: int) -> list:
        regs = self._folded_state.get(thread_id)
        if regs is None:
            regs = self._folded_state[thread_id] = [0, 0, 0]
        return regs

    def _gather_insert_masks(self, ghr_value: int) -> tuple:
        """Lane-wise insert masks of the oldest history bits (slow fallback)."""
        mask_i = mask_t0 = mask_t1 = 0
        for t, shift in enumerate(self._old_shifts):
            if (ghr_value >> shift) & 1:
                mask_i |= self._swar_i.insert_masks[t]
                mask_t0 |= self._swar_t0.insert_masks[t]
                mask_t1 |= self._swar_t1.insert_masks[t]
        return mask_i, mask_t0, mask_t1

    def _push_history(self, taken: bool, thread_id: int) -> None:
        """Shift the outcome into the GHR and all folded registers."""
        regs = self._folded_regs(thread_id)
        ghr_value = self._ghr.value(thread_id)
        gather = self._old_gather
        if gather is not None:
            mask_i, mask_t0, mask_t1 = gather[ghr_value & self._old_mask]
        else:
            mask_i, mask_t0, mask_t1 = self._gather_insert_masks(ghr_value)
        new_i, new_t0, new_t1 = self._new_masks[1 if taken else 0]
        swar = self._swar_i
        packed = ((regs[0] << 1) | new_i) ^ mask_i
        packed ^= (packed & swar.guard_mask) >> swar.width
        regs[0] = packed & swar.lane_mask
        swar = self._swar_t0
        packed = ((regs[1] << 1) | new_t0) ^ mask_t0
        packed ^= (packed & swar.guard_mask) >> swar.width
        regs[1] = packed & swar.lane_mask
        swar = self._swar_t1
        packed = ((regs[2] << 1) | new_t1) ^ mask_t1
        packed ^= (packed & swar.guard_mask) >> swar.width
        regs[2] = packed & swar.lane_mask
        self._ghr.push(taken, thread_id)

    # -- index / tag hashing --------------------------------------------------
    def _table_index(self, pc: int, table: int, thread_id: int) -> int:
        regs = self._folded_regs(thread_id)
        history = (regs[0] >> self._swar_i.lane_offsets[table]) \
            & ((1 << self._index_bits) - 1)
        path = self._path.folded(self._index_bits, thread_id)
        pc_bits = (pc >> 2) ^ (pc >> (2 + self._index_bits))
        return (pc_bits ^ history ^ (path >> (table & 3)) ^ (table * 0x1F)) \
            & ((1 << self._index_bits) - 1)

    def _table_tag(self, pc: int, table: int, thread_id: int) -> int:
        regs = self._folded_regs(thread_id)
        tag0 = (regs[1] >> self._swar_t0.lane_offsets[table]) & self._tag_mask
        tag1 = (regs[2] >> self._swar_t1.lane_offsets[table]) \
            & ((1 << (self.config.tag_bits - 1)) - 1)
        return ((pc >> 2) ^ tag0 ^ (tag1 << 1)) & self._tag_mask

    # -- prediction protocol --------------------------------------------------
    def lookup(self, pc: int, thread_id: int = 0) -> DirectionPrediction:
        cfg = self.config
        base_pred = self._base.lookup(pc, thread_id)
        provider = -1
        alt = -1
        provider_info = None
        alt_info = None
        indices = []
        tags = []
        for table in range(cfg.n_tables):
            index = self._table_index(pc, table, thread_id)
            tag = self._table_tag(pc, table, thread_id)
            indices.append(index)
            tags.append(tag)
            word = self._tables[table].read(index, thread_id)
            stored_tag, ctr, useful = self._unpack(word)
            if stored_tag == tag and word != 0:
                alt, alt_info = provider, provider_info
                provider, provider_info = table, (index, tag, ctr, useful)
        provider_taken = None
        alt_taken = base_pred.taken
        if alt >= 0 and alt_info is not None:
            alt_taken = counter_is_taken(alt_info[2], cfg.counter_bits)
        if provider >= 0 and provider_info is not None:
            provider_taken = counter_is_taken(provider_info[2], cfg.counter_bits)
            weak = provider_info[2] in (self._ctr_weak_taken, self._ctr_weak_taken - 1)
            newly_allocated = weak and provider_info[3] == 0
            use_alt = newly_allocated and self._use_alt >= (1 << (cfg.use_alt_bits - 1))
            taken = alt_taken if use_alt else provider_taken
        else:
            use_alt = False
            taken = base_pred.taken
        return DirectionPrediction(taken=taken, meta={
            "base": base_pred,
            "provider": provider,
            "alt": alt,
            "provider_taken": provider_taken,
            "alt_taken": alt_taken,
            "use_alt": use_alt,
            "indices": indices,
            "tags": tags,
        })

    def update(self, pc: int, taken: bool,
               prediction: Optional[DirectionPrediction] = None,
               thread_id: int = 0) -> None:
        cfg = self.config
        if prediction is None or "indices" not in prediction.meta:
            prediction = self.lookup(pc, thread_id)
        meta = prediction.meta
        provider = meta["provider"]
        indices: Sequence[int] = meta["indices"]
        tags: Sequence[int] = meta["tags"]
        mispredicted = prediction.taken != taken

        self._update_count += 1
        if self._update_count % cfg.useful_reset_period == 0:
            self._graceful_useful_reset(thread_id)

        if provider >= 0:
            index = indices[provider]
            word = self._tables[provider].read(index, thread_id)
            stored_tag, ctr, useful = self._unpack(word)
            provider_taken = counter_is_taken(ctr, cfg.counter_bits)
            alt_taken = meta["alt_taken"]
            # Train USE_ALT_ON_NA when the provider entry was newly allocated.
            if meta["use_alt"] or (useful == 0 and ctr in (self._ctr_weak_taken,
                                                           self._ctr_weak_taken - 1)):
                if provider_taken != alt_taken:
                    if alt_taken == taken:
                        self._use_alt = min(self._use_alt + 1, self._use_alt_max)
                    else:
                        self._use_alt = max(self._use_alt - 1, 0)
            new_ctr = saturating_update(ctr, taken, cfg.counter_bits)
            new_useful = useful
            if provider_taken != alt_taken:
                if provider_taken == taken:
                    new_useful = min(useful + 1, self._u_mask)
                else:
                    new_useful = max(useful - 1, 0)
            self._tables[provider].write(index, self._pack(stored_tag, new_ctr,
                                                           new_useful), thread_id)
        else:
            self._base.update(pc, taken, meta["base"], thread_id)

        # Also train the base predictor when it provided the alternate.
        if provider >= 0 and meta["alt"] < 0:
            self._base.update(pc, taken, meta["base"], thread_id)

        # Allocation on misprediction: try to allocate one entry in a table
        # with a longer history than the provider.
        if mispredicted and provider < cfg.n_tables - 1:
            self._allocate(pc, taken, provider, indices, tags, thread_id)

        self._push_history(taken, thread_id)
        self._path.push(pc, thread_id)

    def execute(self, pc: int, taken: bool, thread_id: int = 0) -> bool:
        """Fused lookup + stats + update for the simulation hot path.

        Dispatches to the thread's specialised kernel (see
        :meth:`exec_kernel`).  State evolution and statistics are identical
        to the ``lookup`` / ``stats().record`` / ``update`` sequence the
        scalar engine performs, for every isolation policy.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn(pc, taken)

    def exec_kernel(self, thread_id: int = 0):
        """Return the thread's specialised execute kernel ``fn(pc, taken)``.

        The kernel is a generated function: the tagged-table loop is
        unrolled with the geometry constants inlined as literals, and the
        thread's packed folded-history registers, statistics object and
        fused isolation masks are bound in its globals.  A branch therefore
        pays no per-call attribute loads, constant-tuple unpacking or mask
        lookups — all of that happens once, here.

        The kernel is dropped (and must be re-fetched by callers) whenever
        the bound state changes identity: key re-randomisation (via the
        isolation mask-cache protocol), ``flush``/``flush_thread``,
        ``reset_stats`` and ``invalidate_kernel_masks``.  The batched
        engines re-fetch it after every switch notification.  The callable
        also accepts (and ignores) a trailing ``thread_id`` argument so
        engines can drive specialised and generic predictors through one
        call shape.
        """
        fn = self._exec_fns.get(thread_id)
        if fn is None:
            fn = self._build_exec_fn(thread_id)
        return fn

    def _diversified(self, arm: str) -> bool:
        """Whether a fused-XOR arm must apply the per-row content keys."""
        return arm == "fused-xor" and bool(
            getattr(self._tables[0].isolation, "_row_diversified", False))

    def _build_exec_fn(self, thread_id: int):
        """Build, cache and return one thread's specialised kernel."""
        # The same arm test the composites use; the kernel records it in
        # ``.arm`` so benchmarks and tests can assert the intended
        # specialisation instead of a silent generic fallback.
        arm = storage_arm(self.tables())
        diversified = self._diversified(arm)
        fn = make_kernel(self._kernel_code, ("tage", arm, diversified),
                         lambda: self._kernel_source(arm, diversified),
                         self._kernel_namespace(thread_id, arm), arm)
        self._exec_fns[thread_id] = fn
        return fn

    def _kernel_namespace(self, thread_id: int, arm: str,
                          pstats: Optional[PredictorStats] = None) -> dict:
        """Globals of one generated kernel: bound state + per-thread masks.

        Every bound object is identity-stable across branches (storage lists
        are reset in place, the history dicts are cleared in place); events
        that do change identities — flushes, key rotation, stats resets —
        invalidate the kernel itself.  Composite predictors pass their own
        ``pstats`` so this component's statistics stay untouched.
        """
        namespace = {
            "flat": self._flat,
            "base_data": self._base_words._data,
            "path_values": self._path._values,
            "ghr_values": self._ghr._values,
            "regs": self._folded_regs(thread_id),
            "pstats": self.stats(thread_id) if pstats is None else pstats,
            "predictor": self,
            "lfsr": self._lfsr,
            "TID": thread_id,
        }
        if self._old_gather is not None:
            namespace["old_gather"] = self._old_gather
        else:
            namespace["gather"] = self._gather_insert_masks
        if arm == "generic":
            for t, table in enumerate(self._tables):
                namespace[f"R{t}"] = table.read
                namespace[f"W{t}"] = table.write
            namespace["BR"] = self._base_words.read
            namespace["BW"] = self._base_words.write
        elif arm == "owner":
            for t, table in enumerate(self._tables):
                namespace[f"O{t}"] = table._owner
            namespace["BO"] = self._base_words._owner
        elif arm == "fused-xor":
            for t, table in enumerate(self._tables):
                index_key, namespace[f"CK{t}"], namespace[f"RK{t}"] = \
                    table.xor_masks(thread_id)
                # The index hash constant t*0x1F and the thread's index key
                # are both XORed into the index, so they fuse into one mask;
                # the key alone maps a physical row back to its logical
                # index on the cold reset-reread path.
                namespace[f"MK{t}"] = (t * 0x1F) ^ index_key
                namespace[f"IK{t}"] = index_key
            (namespace["BIK"], namespace["BCK"],
             namespace["BRK"]) = self._base_words.xor_masks(thread_id)
        return namespace

    def _kernel_source(self, arm: str, diversified: bool,
                       tail: Optional[List[str]] = None) -> str:
        """Generate the source of one specialised kernel arm.

        Four arms exist: the *passthrough* arm (baseline / Complete Flush),
        the *fused-XOR* arm (XOR-BP / Noisy-XOR-BP), which differs only in
        the mask XORs folded into the index/content math, the *owner* arm
        (Precise Flush), which reads another thread's entry as the reset
        value and stamps the owner on every write, and the *generic* arm
        (non-XOR encoders, forced generic dispatch), which routes every
        storage access through the tables' own ``read``/``write``.
        Geometry (strides, lane offsets, masks, hash constants) is inlined
        as literals; per-thread mask values are globals so key rotation
        swaps namespace entries instead of recompiling.  Statement order
        mirrors the scalar ``lookup``/``stats().record``/``update``
        sequence — the parity suite holds every arm and the scalar engine
        bit-identical.

        Composite predictors (LTAGE, TAGE-SC-L) pass ``tail``: the body then
        records no statistics and, after the history push, leaves TAGE's
        prediction in ``predicted``, its confidence in ``confident`` (the
        provider is not overridden by the alternate, or — without a
        provider — the base counter is saturated) and the pre-push global
        history in ``ghr_value``, and continues with the ``tail`` lines.
        """
        encoded = arm == "fused-xor"
        generic = arm == "generic"
        owned = arm == "owner"
        cfg = self.config
        n = cfg.n_tables
        ibits = self._index_bits
        imask = (1 << ibits) - 1
        tmask = self._tag_mask
        t1bits = cfg.tag_bits - 1
        ubits = cfg.useful_bits
        cmask = self._ctr_mask
        umask = self._u_mask
        ctr_shift = ubits + cfg.counter_bits
        weak = self._ctr_weak_taken
        thresh = 1 << (cfg.counter_bits - 1)
        entries = cfg.table_entries
        lanes_i = self._swar_i.lane_offsets
        # Both tag registers share one lane layout (see ``__init__``).
        lanes_t = self._swar_t0.lane_offsets
        boff = self._base_words._offset
        cpw = self._base_pht.counters_per_word
        cbits = self._base_counter_bits
        bcmask = (1 << cbits) - 1
        new_i, new_t0, new_t1 = self._new_masks[1]

        def shifted(name: str, shift: int) -> str:
            return f"({name} >> {shift})" if shift else name

        # Every term is XORed into a value the row or tag mask clips, so
        # the terms themselves need no masks.
        def tag_expr(t: int) -> str:
            return f"(pc2 ^ {shifted('tagx', lanes_t[t])}) & {tmask}"

        def cell(t: int) -> str:
            toff = t * entries
            return f"flat[{toff} + r{t}]" if toff else f"flat[r{t}]"

        def content_key(t: int) -> str:
            return f" ^ CK{t}" + (f" ^ RK{t}[r{t}]" if diversified else "")

        def store(t: int, value: str, pad: str) -> List[str]:
            """Lines writing decoded ``value`` to table ``t``'s row ``r{t}``."""
            if generic:
                return [f"{pad}W{t}(r{t}, {value}, TID)"]
            if encoded:
                return [f"{pad}{cell(t)} = ({value}){content_key(t)}"]
            if owned:
                return [f"{pad}{cell(t)} = {value}", f"{pad}O{t}[r{t}] = TID"]
            return [f"{pad}{cell(t)} = {value}"]

        lines = []
        emit = lines.append
        emit("def _kernel(pc, taken, thread_id=0):")
        # -- lookup ----------------------------------------------------------
        emit("    packed_i = regs[0]")
        emit("    packed_t0 = regs[1]")
        emit("    packed_t1 = regs[2]")
        # Lane t of tagx holds table t's tag0 ^ (tag1 << 1): the padding
        # bit below each tag1 lane is clear, so the shift carries nothing in.
        emit("    tagx = packed_t0 ^ (packed_t1 << 1)")
        emit("    path_value = path_values.get(TID, 0)")
        # The path history folded to the index width, in closed form.
        path_fold = " ^ ".join(
            shifted("path_value", shift)
            for shift in range(0, self._path._mask.bit_length(), ibits))
        emit(f"    path = ({path_fold}) & {imask}")
        emit(f"    pc_bits = (pc >> 2) ^ (pc >> {ibits + 2})")
        emit("    pc2 = pc >> 2")
        emit("    provider = -1")
        emit("    alt = -1")
        emit("    provider_ctr = 0")
        for t in range(n):
            key = f"MK{t}" if encoded else (str(t * 0x1F) if t else "")
            key_xor = f" ^ {key}" if key else ""
            # Each table keeps its row and decoded word in its own locals:
            # the allocation below reuses them.
            emit(f"    r{t} = (pc_bits ^ {shifted('packed_i', lanes_i[t])}"
                 f" ^ {shifted('path', t & 3)}{key_xor}) & {imask}")
            if encoded:
                emit(f"    w{t} = {cell(t)}{content_key(t)}")
            elif generic:
                emit(f"    w{t} = R{t}(r{t}, TID)")
            elif owned:
                # Tagged tables reset to 0: another thread's entry misses.
                emit(f"    owner = O{t}[r{t}]")
                emit(f"    w{t} = {cell(t)} if owner == TID or owner == -1"
                     " else 0")
            else:
                emit(f"    w{t} = {cell(t)}")
            emit(f"    if w{t}:")
            emit(f"        tag = {tag_expr(t)}")
            emit(f"        if ((w{t} >> {ctr_shift}) & {tmask}) == tag:")
            emit("            alt = provider")
            emit("            alt_ctr = provider_ctr")
            emit(f"            provider = {t}")
            emit(f"            provider_row = r{t}")
            emit("            provider_tag = tag")
            emit(f"            provider_ctr = (w{t} >> {ubits}) & {cmask}")
            emit(f"            provider_useful = w{t} & {umask}")
            if generic:
                emit(f"            provider_write = W{t}")
            else:
                emit(f"            provider_base = {t * entries}")
            if owned:
                emit(f"            provider_owner = O{t}")
            if encoded:
                emit(f"            provider_ck = CK{t}")
                if diversified:
                    emit(f"            provider_rk = RK{t}")
                emit(f"            provider_ik = IK{t}")
        # Inlined bimodal base lookup (reads are side-effect free; the
        # decoded word is reused by the base update below).
        emit(f"    base_index = pc2 & {self._base_index_mask}")
        rshift = cpw.bit_length() - 1  # cpw is a power of two
        row_expr = f"(base_index >> {rshift})" if rshift else "base_index"
        emit(f"    base_shift = (base_index & {cpw - 1}) * {cbits}")
        if encoded:
            emit(f"    base_row = ({row_expr} ^ BIK)"
                 f" & {self._base_words._index_mask}")
        else:
            emit(f"    base_row = {row_expr}")
        base_cell = (f"base_data[{boff} + base_row]" if boff
                     else "base_data[base_row]")
        base_decode = ""
        if encoded:
            base_decode = " ^ BCK" + (" ^ BRK[base_row]" if diversified else "")
        if generic:
            emit("    base_word = BR(base_row, TID)")
        elif owned:
            emit("    owner = BO[base_row]")
            emit(f"    base_word = {base_cell} if owner == TID or owner == -1"
                 f" else {self._base_words._reset_value}")
        else:
            emit(f"    base_word = {base_cell}{base_decode}")
        emit(f"    base_counter = (base_word >> base_shift) & {bcmask}")
        emit(f"    base_taken = base_counter >= {self._base_threshold}")
        emit(f"    alt_taken = (alt_ctr >= {thresh}) if alt >= 0 else base_taken")
        emit("    if provider >= 0:")
        emit(f"        provider_taken = provider_ctr >= {thresh}")
        emit("        use_alt = (provider_useful == 0")
        emit(f"                   and {weak - 1} <= provider_ctr <= {weak}")
        emit(f"                   and predictor._use_alt >= "
             f"{1 << (cfg.use_alt_bits - 1)})")
        emit("        predicted = alt_taken if use_alt else provider_taken")
        emit("    else:")
        emit("        use_alt = False")
        emit("        predicted = base_taken")
        # -- stats (recorded between lookup and update, as in the BPU) -------
        if tail is None:
            emit("    pstats.lookups += 1")
            emit("    mispredicted = predicted != taken")
            emit("    if mispredicted:")
            emit("        pstats.mispredictions += 1")
        else:
            emit("    mispredicted = predicted != taken")
            emit("    confident = (not use_alt) if provider >= 0 else not ("
                 f"{self._base_threshold - 1} <= base_counter"
                 f" <= {self._base_threshold})")
        # -- update ----------------------------------------------------------
        emit("    count = predictor._update_count + 1")
        emit("    predictor._update_count = count")
        emit(f"    reset_fired = count % {cfg.useful_reset_period} == 0")
        emit("    if reset_fired:")
        emit("        predictor._graceful_useful_reset(TID)")
        emit("    if provider >= 0:")
        emit("        ctr = provider_ctr")
        emit("        useful = provider_useful")
        emit("        if reset_fired:")
        if encoded:
            emit("            word = predictor._tables[provider].read("
                 f"(provider_row ^ provider_ik) & {imask}, TID)")
        else:
            emit("            word = predictor._tables[provider].read("
                 "provider_row, TID)")
        emit(f"            ctr = (word >> {ubits}) & {cmask}")
        emit(f"            useful = word & {umask}")
        emit(f"        provider_taken = ctr >= {thresh}")
        emit(f"        if use_alt or (useful == 0 and {weak - 1} <= ctr <= {weak}):")
        emit("            if provider_taken != alt_taken:")
        emit("                if alt_taken == taken:")
        emit("                    ua = predictor._use_alt + 1")
        emit(f"                    if ua <= {self._use_alt_max}:")
        emit("                        predictor._use_alt = ua")
        emit("                else:")
        emit("                    ua = predictor._use_alt - 1")
        emit("                    if ua >= 0:")
        emit("                        predictor._use_alt = ua")
        emit("        if taken:")
        emit(f"            new_ctr = ctr + 1 if ctr < {cmask} else {cmask}")
        emit("        else:")
        emit("            new_ctr = ctr - 1 if ctr > 0 else 0")
        emit("        new_useful = useful")
        emit("        if provider_taken != alt_taken:")
        emit("            if provider_taken == taken:")
        emit(f"                new_useful = useful + 1 if useful < {umask}"
             f" else {umask}")
        emit("            else:")
        emit("                new_useful = useful - 1 if useful > 0 else 0")
        packed = (f"(provider_tag << {ctr_shift}) | (new_ctr << {ubits})"
                  " | new_useful")
        if encoded:
            encode = " ^ provider_ck" + (" ^ provider_rk[provider_row]"
                                         if diversified else "")
            emit(f"        flat[provider_base + provider_row] = ({packed}){encode}")
        elif generic:
            emit(f"        provider_write(provider_row, {packed}, TID)")
        else:
            emit(f"        flat[provider_base + provider_row] = {packed}")
            if owned:
                emit("        provider_owner[provider_row] = TID")
        # Inlined bimodal base update: trains the base when it predicted (no
        # provider) or provided the alternate.
        emit("    if provider < 0 or alt < 0:")
        emit("        if taken:")
        emit(f"            new_base = base_counter + 1 if base_counter < {bcmask}"
             f" else {bcmask}")
        emit("        else:")
        emit("            new_base = base_counter - 1 if base_counter > 0 else 0")
        new_word = (f"((base_word & ~({bcmask} << base_shift))"
                    f" | (new_base << base_shift))"
                    f" & {self._base_words._value_mask}")
        if encoded:
            emit(f"        {base_cell} = ({new_word}){base_decode}")
        elif generic:
            emit(f"        BW(base_row, {new_word}, TID)")
        else:
            emit(f"        {base_cell} = {new_word}")
            if owned:
                emit("        BO[base_row] = TID")
        # Allocation on misprediction, from the lookup's rows and words: the
        # tables longer than the provider have not been written since.  A
        # useful-counter reset has rewritten them, so that (cold) branch
        # hands the logical indices and tags to the scalar allocator.
        emit(f"    if mispredicted and provider < {n - 1}:")
        emit("        if reset_fired:")
        logical = (lambda t: f"(r{t} ^ IK{t}) & {imask}") if encoded \
            else (lambda t: f"r{t}")
        emit("            predictor._allocate(pc, taken, provider, ["
             + ", ".join(logical(t) for t in range(n)) + "], [")
        emit("                " + ", ".join(tag_expr(t) for t in range(n))
             + "], TID)")
        emit("        else:")
        # Scan the longer tables for the first two free (useful == 0) ones.
        emit("            choice = -1")
        emit("            second = -1")
        for t in range(n):
            emit(f"            if provider < {t} and not w{t} & {umask}:")
            if t == 0:
                emit("                choice = 0")
                continue
            emit("                if choice < 0:")
            emit(f"                    choice = {t}")
            emit("                elif second < 0:")
            emit(f"                    second = {t}")
        emit("            if choice < 0:")
        # No free entry: every longer table's useful counter is nonzero and
        # occupies the low bits, so the aged word is word - 1.
        for t in range(n):
            emit(f"                if provider < {t}:")
            lines.extend(store(t, f"w{t} - 1", " " * 20))
        emit("            else:")
        # Prefer the shortest-history candidate, with a pseudo-random skip
        # to the second one (two LFSR steps in closed form).
        emit("                if second >= 0:")
        emit("                    lfsr_state = lfsr._state")
        emit("                    lfsr._state = (lfsr_state >> 2)"
             f" ^ {_LFSR_TWO_STEP_TERMS}[lfsr_state & 3]")
        emit("                    if not lfsr_state & 3:")
        emit("                        choice = second")
        emit(f"                entry = {weak << ubits} if taken"
             f" else {(weak - 1) << ubits}")
        for t in range(n):
            emit(f"                {'if' if t == 0 else 'elif'} choice == {t}:")
            lines.extend(store(t, f"(({tag_expr(t)}) << {ctr_shift}) | entry",
                               " " * 20))
        # -- history push (SWAR over the three packed register files) --------
        emit("    ghr_value = ghr_values.get(TID, 0)")
        if self._old_gather is not None:
            emit("    mask_i, mask_t0, mask_t1 = "
                 f"old_gather[ghr_value & {self._old_mask}]")
        else:
            emit("    mask_i, mask_t0, mask_t1 = gather(ghr_value)")
        emit("    if taken:")
        emit(f"        packed_i = ((packed_i << 1) | {new_i}) ^ mask_i")
        emit(f"        packed_t0 = ((packed_t0 << 1) | {new_t0}) ^ mask_t0")
        emit(f"        packed_t1 = ((packed_t1 << 1) | {new_t1}) ^ mask_t1")
        emit(f"        ghr_values[TID] = ((ghr_value << 1) | 1)"
             f" & {self._ghr._mask}")
        emit("    else:")
        emit("        packed_i = (packed_i << 1) ^ mask_i")
        emit("        packed_t0 = (packed_t0 << 1) ^ mask_t0")
        emit("        packed_t1 = (packed_t1 << 1) ^ mask_t1")
        emit(f"        ghr_values[TID] = (ghr_value << 1) & {self._ghr._mask}")
        emit(f"    packed_i ^= (packed_i & {self._swar_i.guard_mask})"
             f" >> {ibits}")
        emit(f"    regs[0] = packed_i & {self._swar_i.lane_mask}")
        emit(f"    packed_t0 ^= (packed_t0 & {self._swar_t0.guard_mask})"
             f" >> {cfg.tag_bits}")
        emit(f"    regs[1] = packed_t0 & {self._swar_t0.lane_mask}")
        emit(f"    packed_t1 ^= (packed_t1 & {self._swar_t1.guard_mask})"
             f" >> {t1bits}")
        emit(f"    regs[2] = packed_t1 & {self._swar_t1.lane_mask}")
        pcb = self._path._pc_bits
        emit(f"    path_values[TID] = ((path_value << {pcb})"
             f" | (pc2 & {(1 << pcb) - 1})) & {self._path._mask}")
        if tail is None:
            emit("    return predicted")
        else:
            lines.extend(tail)
        return "\n".join(lines) + "\n"

    def _allocate(self, pc: int, taken: bool, provider: int,
                  indices: Sequence[int], tags: Sequence[int],
                  thread_id: int) -> None:
        """Allocate an entry in a table with a longer history than the
        provider, through the tables' own ``read``/``write``.

        This is the scalar path's allocator.  The generated kernels allocate
        inline and call it only on the branch right after a useful-counter
        reset (see :meth:`_kernel_source`); the parity suites hold the two
        bit-identical."""
        tables = self._tables
        u_mask = self._u_mask
        words = [(t, tables[t].read(indices[t], thread_id))
                 for t in range(provider + 1, self.config.n_tables)]
        candidates = [t for t, word in words if word & u_mask == 0]
        if not candidates:
            # No free entry: age the useful counters of all longer tables.
            # ``useful`` occupies the low bits, so the aged word is word - 1.
            for t, word in words:
                if word & u_mask:
                    tables[t].write(indices[t], word - 1, thread_id)
            return
        # Prefer the shortest-history candidate, with a pseudo-random skip to
        # avoid ping-ponging (as in the reference TAGE implementation).
        choice = candidates[0]
        if len(candidates) > 1 and self._lfsr.next_bits(2) == 0:
            choice = candidates[1]
        ctr = self._ctr_weak_taken if taken else self._ctr_weak_taken - 1
        tables[choice].write(indices[choice],
                             self._pack(tags[choice], ctr, 0), thread_id)

    def _graceful_useful_reset(self, thread_id: int) -> None:
        """Periodically clear the low bit of every useful counter."""
        for table in self._tables:
            for row in range(table.n_entries):
                word = table.read(row, thread_id)
                tag, ctr, useful = self._unpack(word)
                if useful:
                    table.write(row, self._pack(tag, ctr, useful >> 1), thread_id)

    # -- structure access -----------------------------------------------------
    def tables(self) -> List[PredictorTable]:
        return self._base.tables() + list(self._tables)

    @property
    def tagged_tables(self) -> List[PredictorTable]:
        """The tagged component tables."""
        return list(self._tables)

    @property
    def base_predictor(self) -> BimodalPredictor:
        """The bimodal base component."""
        return self._base

    @property
    def global_history(self) -> GlobalHistory:
        """The per-thread global history register."""
        return self._ghr

    @property
    def history_lengths(self) -> List[int]:
        """Geometric history lengths of the tagged tables."""
        return list(self._history_lengths)

    def flush(self) -> None:
        self._base.flush()
        for table in self._tables:
            table.flush()
        self._ghr.clear()
        self._path.clear()
        self._folded_state.clear()
        # The specialised kernels bind the (now dropped) folded registers.
        self._exec_fns.clear()

    def flush_thread(self, thread_id: int) -> None:
        self._base.flush_thread(thread_id)
        for table in self._tables:
            table.flush_thread(thread_id)
        self._ghr.clear(thread_id)
        self._path.clear(thread_id)
        self._folded_state.pop(thread_id, None)
        self._exec_fns.pop(thread_id, None)

    def reset_stats(self) -> None:
        super().reset_stats()
        # The specialised kernels bind the (now replaced) stats objects.
        self._exec_fns.clear()
