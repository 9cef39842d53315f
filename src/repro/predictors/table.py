"""Predictor storage arrays and the isolation attachment point.

Every history table in this package (PHTs, TAGE tagged tables, choosers,
statistical-corrector tables, BTB ways) stores its state in a
:class:`PredictorTable`.  The table routes *every* index computation and
*every* content read/write through an attached :class:`TableIsolation`
policy.  This is the single mechanism by which the paper's defenses are
applied:

* **XOR-BP** (content encoding) encodes values on write and decodes on read
  with a thread-private content key;
* **Noisy-XOR-BP** (index encoding) additionally remaps the index with a
  thread-private index key;
* **Complete Flush / Precise Flush** leave reads and writes untouched but
  flush registered tables on context/privilege switches.

Keeping the policy at the storage layer means the predictor algorithms
(Gshare, Tournament, TAGE, ...) are written once and are oblivious to which
isolation mechanism is active — mirroring the paper's claim that the scheme
is "versatile to accommodate multiple branch predictors".

Each table records, when a policy is attached, the *storage arm* the
policy allows (:func:`isolation_arm`): ``passthrough`` (baseline and flush
policies: identity transforms, no owner tracking), ``fused-xor``
(plain-XOR content/index encoding, the paper's headline XOR-BP /
Noisy-XOR-BP mechanisms), ``owner`` (identity transforms plus
``tracks_owner``: Precise Flush) or ``generic`` (any other encoder).  Only
the generated predictor kernels (:mod:`repro.predictors.kernelgen`) act on
the arm; they emit it inline.  For the fused-XOR arm the masks are
precomputed per (thread, table) and re-randomised only at
context/privilege-switch time via the mask-cache registration protocol on
:class:`repro.core.isolation.XorContentIsolation`.

The scalar :meth:`PredictorTable.read`/:meth:`PredictorTable.write` share
no arm code with the kernels: they always go through the policy's
``map_index``/``encode``/``decode`` and the owner check, and are the oracle
the kernels are tested against.

Tables can also share one flat storage list (``storage``/``storage_offset``),
which lets multi-table predictors such as TAGE keep every tagged entry in a
single packed buffer with precomputed per-table strides while each table view
retains the full read/write/flush API.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, List, Optional, Tuple

__all__ = ["TableIsolation", "IdentityIsolation", "PredictorTable",
           "PackedCounterTable", "isolation_arm", "ROW_DIVERSIFIER",
           "reset_template", "row_diversifier_vector"]

_NO_OWNER = -1

#: Multiplier of the per-row key diffusion used by row-diversified content
#: encoding (must match ``XorContentIsolation._content_key``).
ROW_DIVERSIFIER = 0x45D9F3B


@lru_cache(maxsize=64, typed=True)
def reset_template(value, n: int) -> Tuple:
    """``n`` copies of ``value``, built once per ``(value, n)`` and shared
    (hence immutable): flushes reset storage by slice assignment from it.
    Typed, so ``False`` and ``0`` templates stay distinct."""
    return (value,) * n


@lru_cache(maxsize=64)
def row_diversifier_vector(n_rows: int, mask: int) -> Tuple[int, ...]:
    """``(row * ROW_DIVERSIFIER) & mask`` for every row, built once per
    ``(n_rows, mask)`` and shared (hence immutable); ``mask=0`` gives the
    zero vector of a non-diversified policy."""
    return tuple((row * ROW_DIVERSIFIER) & mask for row in range(n_rows))


class TableIsolation:
    """Interface for isolation policies attached to predictor storage.

    The default implementation is the identity transform (no isolation).
    Concrete mechanisms live in :mod:`repro.core.isolation`; they override the
    methods below and are notified about context/privilege switches by the
    secure-predictor wrappers in :mod:`repro.core.secure`.
    """

    #: Whether tables should track the owning hardware thread of each entry.
    #: Precise Flush needs this; everything else does not.  When owners are
    #: tracked, entries are also *visible only to their owner* (the paper's
    #: footnote to Table 1: with thread IDs attached, branches in different
    #: hardware threads cannot use each other's history).
    tracks_owner: bool = False

    #: True when the policy is a plain-XOR encoder whose per-(thread, table)
    #: masks can be precomputed and fused into the generated kernels' storage
    #: accesses (the fused-XOR arm).  Set by
    #: :class:`repro.core.isolation.XorContentIsolation`.
    supports_fused_xor: bool = False

    def map_index(self, index: int, index_bits: int, thread_id: int, table: object) -> int:
        """Map a logical table index to a physical one (index encoding)."""
        return index

    def encode(self, value: int, width_bits: int, thread_id: int, table: object,
               row: int) -> int:
        """Encode a value before it is written to storage (content encoding)."""
        return value

    def decode(self, value: int, width_bits: int, thread_id: int, table: object,
               row: int) -> int:
        """Decode a value after it is read from storage."""
        return value

    def register_flushable(self, flushable: object) -> None:
        """Register a structure exposing ``flush()``/``flush_thread()``.

        Flush-based mechanisms keep a list of registered structures and flush
        them on switches; encoding-based mechanisms ignore the registration.
        """

    # -- switch notifications -------------------------------------------------
    def on_context_switch(self, thread_id: int) -> None:
        """Called when the OS switches the software context on ``thread_id``."""

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        """Called when ``thread_id`` changes privilege level."""


class IdentityIsolation(TableIsolation):
    """Explicit no-op isolation (the paper's *Baseline* configuration)."""

    name = "baseline"


_IDENTITY = IdentityIsolation()


def isolation_arm(isolation: TableIsolation) -> str:
    """The storage arm a policy lets the generated kernels use.

    * ``"passthrough"``: identity ``map_index``/``encode``/``decode``
      inherited from :class:`TableIsolation` and no owner tracking
      (baseline and flush-based policies);
    * ``"fused-xor"``: a plain-XOR encoder (``supports_fused_xor``) whose
      content and index keys commute into precomputed per-(thread, table)
      masks, without owner tracking;
    * ``"owner"``: identity transforms plus ``tracks_owner`` (Precise
      Flush);
    * ``"generic"``: anything else (non-XOR encoders such as the S-box and
      shift-XOR ablations), which kernels run through the table's own
      ``read``/``write``.
    """
    cls = type(isolation)
    identity = (cls.map_index is TableIsolation.map_index
                and cls.encode is TableIsolation.encode
                and cls.decode is TableIsolation.decode)
    if isolation.tracks_owner:
        return "owner" if identity else "generic"
    if identity:
        return "passthrough"
    if getattr(isolation, "supports_fused_xor", False):
        return "fused-xor"
    return "generic"


def _require_power_of_two(n: int, what: str) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"{what} must be a positive power of two, got {n}")


class PredictorTable:
    """A direct-mapped array of fixed-width unsigned words.

    Args:
        n_entries: number of rows; must be a power of two.
        entry_bits: width of each stored word in bits.
        reset_value: value every row takes on reset/flush.
        name: human-readable name (used by per-table key derivation).
        isolation: the isolation policy; defaults to the identity policy.
        storage: optional shared flat storage list.  When given, this table
            occupies rows ``[storage_offset, storage_offset + n_entries)`` of
            it; multiple views may share one list (TAGE keeps all tagged
            tables in a single packed buffer this way).
        storage_offset: first row of this table inside ``storage``.
    """

    def __init__(self, n_entries: int, entry_bits: int, *, reset_value: int = 0,
                 name: str = "table", isolation: Optional[TableIsolation] = None,
                 storage: Optional[List[int]] = None,
                 storage_offset: int = 0) -> None:
        _require_power_of_two(n_entries, "n_entries")
        if entry_bits < 1:
            raise ValueError("entry_bits must be positive")
        max_value = (1 << entry_bits) - 1
        if not 0 <= reset_value <= max_value:
            raise ValueError("reset_value does not fit in entry_bits")
        self._n_entries = n_entries
        self._entry_bits = entry_bits
        self._index_bits = n_entries.bit_length() - 1
        self._index_mask = n_entries - 1
        self._value_mask = max_value
        self._reset_value = reset_value
        self.name = name
        if storage is None:
            self._offset = 0
            self._data: List[int] = [reset_value] * n_entries
        else:
            if storage_offset < 0 or storage_offset + n_entries > len(storage):
                raise ValueError("storage slice out of range")
            self._offset = storage_offset
            self._data = storage
            storage[storage_offset:storage_offset + n_entries] = \
                [reset_value] * n_entries
        self._owner: List[int] = [_NO_OWNER] * n_entries
        self._row_keys: Optional[Tuple[int, ...]] = None
        self._attach_isolation(isolation if isolation is not None else _IDENTITY)

    def _attach_isolation(self, isolation: TableIsolation) -> None:
        self._isolation = isolation
        #: The kernels' storage arm (:func:`isolation_arm`); forced generic
        #: dispatch sets it to ``"generic"``.
        self.arm = isolation_arm(isolation)
        # Per-thread (index_key, content_key, row_keys) decode masks of the
        # kernels' fused-XOR arm.  A fresh dict per attachment so that a
        # previously attached policy invalidating its registered caches can
        # never clear the new policy's masks.
        self._xor_masks: dict = {}
        if self.arm == "fused-xor":
            isolation.register_fast_mask_cache(self, self._xor_masks,
                                               self._build_xor_masks)
        isolation.register_flushable(self)

    # -- geometry -------------------------------------------------------------
    @property
    def n_entries(self) -> int:
        """Number of rows."""
        return self._n_entries

    @property
    def entry_bits(self) -> int:
        """Width of each row in bits."""
        return self._entry_bits

    @property
    def index_bits(self) -> int:
        """Number of index bits (log2 of the row count)."""
        return self._index_bits

    @property
    def storage_bits(self) -> int:
        """Total storage in bits (used by the hardware cost model)."""
        return self._n_entries * self._entry_bits

    @property
    def isolation(self) -> TableIsolation:
        """The attached isolation policy."""
        return self._isolation

    def set_isolation(self, isolation: TableIsolation) -> None:
        """Attach a different isolation policy (contents and owners are
        reset)."""
        self._attach_isolation(isolation)
        self.flush()
        self._owner[:] = reset_template(_NO_OWNER, self._n_entries)

    # -- fused-XOR mask maintenance -------------------------------------------
    def row_diversifier_keys(self) -> Tuple[int, ...]:
        """Per-row content-key diffusion values (thread-independent).

        Row-diversified content encoding XORs ``(row * ROW_DIVERSIFIER)``
        (width-masked) into the content key; a non-diversified policy uses a
        zero vector.  The vector only depends on the table geometry and the
        policy's ``row_diversified`` flag, so it comes from the shared
        :func:`row_diversifier_vector` cache.
        """
        if self._row_keys is None:
            diversified = getattr(self._isolation, "_row_diversified", False)
            self._row_keys = row_diversifier_vector(
                self._n_entries, self._value_mask if diversified else 0)
        return self._row_keys

    def _build_xor_masks(self, thread_id: int) -> tuple:
        """(Re)compute this table's fused-XOR masks for one hardware thread."""
        isolation = self._isolation
        masks = (isolation.fused_index_key(thread_id, self._index_bits, self),
                 isolation.fused_content_key(thread_id, self._entry_bits, self),
                 self.row_diversifier_keys())
        self._xor_masks[thread_id] = masks
        return masks

    def xor_masks(self, thread_id: int) -> tuple:
        """One thread's ``(index_key, content_key, row_keys)`` fused-XOR
        masks, built on first use after each key re-randomisation."""
        masks = self._xor_masks.get(thread_id)
        if masks is None:
            masks = self._build_xor_masks(thread_id)
        return masks

    # -- access ---------------------------------------------------------------
    def physical_index(self, index: int, thread_id: int = 0) -> int:
        """Return the physical row selected for a logical index."""
        mapped = self._isolation.map_index(index & self._index_mask, self._index_bits,
                                           thread_id, self)
        return mapped & self._index_mask

    def read(self, index: int, thread_id: int = 0) -> int:
        """Read and decode the word at a logical index.

        Under an owner-tracking policy (Precise Flush), entries written by a
        different hardware thread read as the reset value: the thread-ID tag
        makes them invisible to other threads.
        """
        row = self.physical_index(index, thread_id)
        if self._isolation.tracks_owner:
            owner = self._owner[row]
            if owner != _NO_OWNER and owner != thread_id:
                return self._reset_value
        raw = self._data[self._offset + row]
        value = self._isolation.decode(raw, self._entry_bits, thread_id, self, row)
        return value & self._value_mask

    def write(self, index: int, value: int, thread_id: int = 0) -> None:
        """Encode and write a word at a logical index."""
        row = self.physical_index(index, thread_id)
        encoded = self._isolation.encode(value & self._value_mask, self._entry_bits,
                                         thread_id, self, row)
        self._data[self._offset + row] = encoded & self._value_mask
        if self._isolation.tracks_owner:
            self._owner[row] = thread_id

    def read_raw(self, row: int) -> int:
        """Read the stored (still encoded) word at a *physical* row.

        This bypasses the isolation policy entirely.  It exists for tests and
        for the attack framework, which models an adversary that can observe
        side effects of the physical storage but not the decoded contents.
        """
        return self._data[self._offset + (row & self._index_mask)]

    def write_raw(self, row: int, value: int) -> None:
        """Write a raw (pre-encoded) word at a physical row (tests only)."""
        self._data[self._offset + (row & self._index_mask)] = value & self._value_mask

    def owner_of(self, row: int) -> int:
        """Owning hardware thread of a physical row, or ``-1`` if untracked."""
        return self._owner[row & self._index_mask]

    # -- flush support --------------------------------------------------------
    def flush(self) -> None:
        """Reset every row (Complete Flush).

        Rows are reset in place so that shared flat storage (and any direct
        references the fused kernels hold to it) stays valid.  Owners are
        only ever stamped under an owner-tracking policy, so only such a
        policy pays for resetting them.
        """
        n = self._n_entries
        self._data[self._offset:self._offset + n] = \
            reset_template(self._reset_value, n)
        if self._isolation.tracks_owner:
            self._owner[:] = reset_template(_NO_OWNER, n)

    def flush_thread(self, thread_id: int) -> None:
        """Reset only rows owned by ``thread_id`` (Precise Flush).

        When owners are not tracked this degenerates to a complete flush,
        which is the conservative behaviour.  The owner's rows are found by
        ``list.index`` (one C scan in all), so the Python work is
        proportional to the rows the thread owns, not to the table size.
        """
        if not self._isolation.tracks_owner:
            self.flush()
            return
        owners = self._owner
        data = self._data
        offset = self._offset
        reset = self._reset_value
        row = -1
        try:
            while True:
                row = owners.index(thread_id, row + 1)
                data[offset + row] = reset
                owners[row] = _NO_OWNER
        except ValueError:  # no row past the last one found
            pass

    def rows(self) -> Iterable[int]:
        """Iterate over raw stored words (for tests and entropy analysis)."""
        return iter(self._data[self._offset:self._offset + self._n_entries])

    def __len__(self) -> int:
        return self._n_entries


class PackedCounterTable:
    """A table of small saturating counters packed into wide physical words.

    This models the paper's **Enhanced-XOR-PHT** observation (Section 5.2,
    Figure 5): a 4K-entry, 2-bit PHT can be viewed as a 256-entry array of
    32-bit words, and content encoding can be applied to the whole word with a
    wide key rather than to each 2-bit counter with a 2-bit key.  Logically
    the structure still behaves as ``n_counters`` independent counters; the
    packing only changes the granularity at which the isolation policy's
    encode/decode runs — and therefore the obfuscation strength.

    All storage access is delegated to the underlying
    :class:`PredictorTable`'s isolation dispatch; this class only translates
    counter indices to (word, slot) coordinates.  The generated predictor
    kernels bypass these wrappers and drive the word table directly on its
    storage arm.

    Args:
        n_counters: number of logical counters; power of two.
        counter_bits: width of each logical counter.
        word_bits: width of each physical word; a power-of-two multiple of
            ``counter_bits``.
        reset_value: initial value of every counter.
        name: table name.
        isolation: isolation policy (applied at word granularity).
    """

    def __init__(self, n_counters: int, counter_bits: int = 2, *, word_bits: int = 32,
                 reset_value: int = 1, name: str = "pht",
                 isolation: Optional[TableIsolation] = None) -> None:
        _require_power_of_two(n_counters, "n_counters")
        if counter_bits < 1:
            raise ValueError(f"counter_bits must be >= 1, got {counter_bits}")
        if word_bits % counter_bits:
            raise ValueError("word_bits must be a multiple of counter_bits")
        self._counters_per_word = word_bits // counter_bits
        cpw = self._counters_per_word
        if cpw & (cpw - 1):
            # The word count n_counters / cpw could never be a power of two.
            raise ValueError(
                f"word_bits ({word_bits}) must hold a power-of-two number of "
                f"counter_bits ({counter_bits})-bit counters, got {cpw}")
        if self._counters_per_word > n_counters:
            # Degenerate tiny tables: fall back to one counter per word.
            self._counters_per_word = 1
            word_bits = counter_bits
        self._n_counters = n_counters
        self._counter_bits = counter_bits
        self._counter_mask = (1 << counter_bits) - 1
        self._word_bits = word_bits
        n_words = n_counters // self._counters_per_word
        packed_reset = 0
        for slot in range(self._counters_per_word):
            packed_reset |= (reset_value & self._counter_mask) << (slot * counter_bits)
        self._words = PredictorTable(n_words, word_bits, reset_value=packed_reset,
                                     name=name, isolation=isolation)
        self._reset_counter = reset_value & self._counter_mask

    # -- geometry -------------------------------------------------------------
    @property
    def n_counters(self) -> int:
        """Number of logical counters."""
        return self._n_counters

    @property
    def counter_bits(self) -> int:
        """Width of each logical counter."""
        return self._counter_bits

    @property
    def counters_per_word(self) -> int:
        """Number of counters packed in each physical word."""
        return self._counters_per_word

    @property
    def word_table(self) -> PredictorTable:
        """The underlying physical word array."""
        return self._words

    @property
    def storage_bits(self) -> int:
        """Total storage in bits."""
        return self._words.storage_bits

    def set_isolation(self, isolation: TableIsolation) -> None:
        """Attach a different isolation policy (contents are reset)."""
        self._words.set_isolation(isolation)

    # -- access ---------------------------------------------------------------
    def read(self, index: int, thread_id: int = 0) -> int:
        """Read the logical counter at ``index``."""
        index &= self._n_counters - 1
        word = self._words.read(index // self._counters_per_word, thread_id)
        return (word >> ((index % self._counters_per_word) * self._counter_bits)) \
            & self._counter_mask

    def write(self, index: int, value: int, thread_id: int = 0) -> None:
        """Write the logical counter at ``index`` (read-modify-write the word)."""
        index &= self._n_counters - 1
        word_index = index // self._counters_per_word
        word = self._words.read(word_index, thread_id)
        shift = (index % self._counters_per_word) * self._counter_bits
        word &= ~(self._counter_mask << shift)
        word |= (value & self._counter_mask) << shift
        self._words.write(word_index, word, thread_id)

    def flush(self) -> None:
        """Reset every counter."""
        self._words.flush()

    def flush_thread(self, thread_id: int) -> None:
        """Reset counters in words owned by ``thread_id``."""
        self._words.flush_thread(thread_id)

    def __len__(self) -> int:
        return self._n_counters
