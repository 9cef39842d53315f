"""Isolation mechanisms for branch-predictor tables.

This module implements the paper's proposal and the baselines it is compared
against, all as :class:`repro.predictors.table.TableIsolation` policies that
attach to predictor storage:

* :class:`BaselineIsolation` — no isolation (the *Baseline* configuration);
* :class:`CompleteFlushIsolation` — flush every registered structure on a
  context switch (*Complete Flush*, Section 4.1);
* :class:`PreciseFlushIsolation` — tag entries with the owning hardware
  thread and flush only that thread's entries on its context switch
  (*Precise Flush*);
* :class:`XorContentIsolation` — **XOR-BP**: encode table contents with a
  thread-private content key (Section 5.1, 5.2);
* :class:`NoisyXorIsolation` — **Noisy-XOR-BP**: XOR-BP plus index
  randomisation with a second thread-private key (Section 5.3).

The *Enhanced-XOR-PHT* variant of Section 5.2 is not a separate policy: it is
obtained by applying :class:`XorContentIsolation` to a
:class:`repro.predictors.table.PackedCounterTable` whose physical word packs
many 2-bit counters (``word_bits=32``), whereas the *simple* XOR-PHT applies
the same policy at 2-bit granularity (``word_bits=2``).  The registry in
:mod:`repro.core.registry` exposes both spellings.
"""

from __future__ import annotations

import functools
import weakref
from typing import List, Optional

from ..predictors.table import TableIsolation
from ..types import Privilege
from .encoding import ContentEncoder, XorEncoder
from .keys import KeyManager

__all__ = [
    "IsolationMechanism",
    "BaselineIsolation",
    "CompleteFlushIsolation",
    "PreciseFlushIsolation",
    "XorContentIsolation",
    "NoisyXorIsolation",
]


@functools.lru_cache(maxsize=None)
def _name_salt(name: str) -> int:
    salt = 0
    for ch in name:
        salt = (salt * 131 + ord(ch)) & 0xFFFFFFFF
    return salt


def _table_salt(table: object) -> int:
    """Deterministic per-table salt derived from the table's name.

    Memoized per name: key rebuilds after every switch re-derive it, and a
    simulation only ever names a handful of tables.
    """
    return _name_salt(str(getattr(table, "name", None)
                          or table.__class__.__name__))


class IsolationMechanism(TableIsolation):
    """Base class for all isolation policies.

    Attributes:
        name: machine-readable mechanism name (used by the registry and by
            experiment labels such as ``Gshare-CF`` or ``XOR-BP-8M``).
        protects_content: True when table contents are encoded.
        protects_index: True when table indices are randomised.
        flush_based: True when the mechanism flushes state on switches.
    """

    name = "isolation"
    protects_content = False
    protects_index = False
    flush_based = False

    def __init__(self, key_manager: Optional[KeyManager] = None) -> None:
        self.key_manager = key_manager if key_manager is not None else KeyManager()
        # Weak, in registration order: the structures hold this policy, so
        # strong references back would make every predictor cyclic garbage.
        self._flushables: List[weakref.ref] = []

    # -- registration ----------------------------------------------------------
    def register_flushable(self, flushable: object) -> None:
        self._flushables = [ref for ref in self._flushables
                            if ref() is not None]
        if not any(ref() is flushable for ref in self._flushables):
            self._flushables.append(weakref.ref(flushable))

    @property
    def flushables(self) -> List[object]:
        """Live structures registered for flush notifications, in order."""
        live = [ref() for ref in self._flushables]
        return [entry for entry in live if entry is not None]

    # -- flush helpers ---------------------------------------------------------
    def _flush_all(self) -> None:
        for flushable in self.flushables:
            flushable.flush()

    def _flush_thread(self, thread_id: int) -> None:
        for flushable in self.flushables:
            flush_thread = getattr(flushable, "flush_thread", None)
            if flush_thread is not None:
                flush_thread(thread_id)
            else:
                flushable.flush()

    # -- switch notifications (default: keep keys fresh) -----------------------
    def on_context_switch(self, thread_id: int) -> None:
        self.key_manager.on_context_switch(thread_id)

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        self.key_manager.on_privilege_switch(thread_id, Privilege(privilege))


class BaselineIsolation(IsolationMechanism):
    """No isolation: the unmodified shared predictor (the paper's Baseline)."""

    name = "baseline"

    def on_context_switch(self, thread_id: int) -> None:
        # Baseline hardware does nothing on a switch; we still count it so
        # that workload statistics (Table 4) are mechanism-independent.
        self.key_manager.context_switches += 1

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        state = self.key_manager.state(thread_id)
        if state.privilege != Privilege(privilege):
            state.privilege = Privilege(privilege)
            self.key_manager.privilege_switches += 1


class CompleteFlushIsolation(IsolationMechanism):
    """Flush every predictor structure when any hardware thread switches context.

    Args:
        key_manager: shared key/state bookkeeping (keys are unused here).
        flush_on_privilege_switch: also flush on privilege transitions.  The
            paper's Complete Flush evaluation (Figures 1–3, 10) flushes on
            context switches only, which is the default.
    """

    name = "complete_flush"
    flush_based = True

    def __init__(self, key_manager: Optional[KeyManager] = None, *,
                 flush_on_privilege_switch: bool = False) -> None:
        super().__init__(key_manager)
        self._flush_on_privilege = flush_on_privilege_switch
        self.flush_count = 0

    def on_context_switch(self, thread_id: int) -> None:
        self.key_manager.context_switches += 1
        self.flush_count += 1
        self._flush_all()

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        state = self.key_manager.state(thread_id)
        if state.privilege != Privilege(privilege):
            state.privilege = Privilege(privilege)
            self.key_manager.privilege_switches += 1
            if self._flush_on_privilege:
                self.flush_count += 1
                self._flush_all()


class PreciseFlushIsolation(IsolationMechanism):
    """Flush only the switching thread's entries (thread-ID tagged flush).

    Requires every table to track the owner of each entry (``tracks_owner``),
    which is exactly the extra storage and complexity cost the paper calls out
    in Observation 3.
    """

    name = "precise_flush"
    flush_based = True
    tracks_owner = True

    def __init__(self, key_manager: Optional[KeyManager] = None, *,
                 flush_on_privilege_switch: bool = False) -> None:
        super().__init__(key_manager)
        self._flush_on_privilege = flush_on_privilege_switch
        self.flush_count = 0

    def on_context_switch(self, thread_id: int) -> None:
        self.key_manager.context_switches += 1
        self.flush_count += 1
        self._flush_thread(thread_id)

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        state = self.key_manager.state(thread_id)
        if state.privilege != Privilege(privilege):
            state.privilege = Privilege(privilege)
            self.key_manager.privilege_switches += 1
            if self._flush_on_privilege:
                self.flush_count += 1
                self._flush_thread(thread_id)


class XorContentIsolation(IsolationMechanism):
    """XOR-BP: content encoding with a thread-private key.

    Every value is encoded before being written to a table and decoded after
    being read, using the content key of the accessing hardware thread.  The
    key is regenerated on context and privilege switches (via the shared
    :class:`repro.core.keys.KeyManager`), so residual state written under an
    old key — or state written by a different hardware thread — decodes to
    noise.

    When the encoder is plain XOR, the generated kernels fuse the
    per-(thread, table) masks directly into their storage accesses (the
    fused-XOR arm of :mod:`repro.predictors.kernelgen`): storage structures
    and kernels register a mask cache with
    :meth:`register_fast_mask_cache`, which this mechanism invalidates on
    every key regeneration so mask re-randomisation happens at switch time
    rather than in the per-branch loop.

    Args:
        key_manager: per-thread key registers.
        encoder: reversible encoder; defaults to plain XOR.
        per_table_keys: derive a distinct key per table from the master random
            number (Figure 6 caption) instead of using one shared content key.
        row_diversified: additionally mix the physical row index into the key
            so nearby entries use different key bits (the Section 5.5
            countermeasure to the reference-branch corner case).
    """

    name = "xor_bp"
    protects_content = True

    def __init__(self, key_manager: Optional[KeyManager] = None, *,
                 encoder: Optional[ContentEncoder] = None,
                 per_table_keys: bool = True,
                 row_diversified: bool = True) -> None:
        super().__init__(key_manager)
        self.encoder = encoder if encoder is not None else XorEncoder()
        self._per_table_keys = per_table_keys
        self._row_diversified = row_diversified
        # Plain XOR with an already-width-matched key needs no encoder call;
        # this fast path matters because encode/decode runs on every table
        # access of every predictor.
        self._plain_xor = type(self.encoder) is XorEncoder
        #: Storage may fuse precomputed XOR masks inline only when the
        #: encoder really is plain XOR (non-XOR ablation encoders such as
        #: sbox / shift_xor keep the generic dispatch path).
        self.supports_fused_xor = self._plain_xor
        # Derived keys are deterministic for a (thread, table, width) triple
        # until the thread's key is regenerated, so they are cached — one
        # dict per thread, keyed by (table id, width, purpose) — and a
        # thread's dict is dropped whole on every switch notification.
        self._key_cache: dict = {}
        # Fused-XOR mask caches of registered storage structures, keyed by
        # owner id: owner -> (cache dict, weak per-thread rebuild callable).
        # The rebuilder is bound to the structure, so holding it weakly lets
        # a finished structure die by reference counting; its entry is dead
        # from then on (and its id free for reuse by a new owner).
        self._mask_caches: dict = {}

    # -- fused-XOR mask protocol ----------------------------------------------
    def register_fast_mask_cache(self, owner: object, cache: dict,
                                 rebuild) -> None:
        """Register a storage structure's per-thread fused-mask cache.

        ``cache`` maps hardware-thread ids to precomputed mask bundles and
        ``rebuild(thread_id)`` recomputes (and re-installs) one thread's
        bundle.  Registered caches are invalidated per thread whenever that
        thread's key material is regenerated.

        ``rebuild`` must be a bound method.  It is held weakly, through its
        instance, so registration never keeps a structure alive.  Entries
        whose rebuilder has died are dropped here, before a new owner can
        take over a freed owner's id.
        """
        self._mask_caches = {key: entry
                             for key, entry in self._mask_caches.items()
                             if entry[1]() is not None}
        self._mask_caches[id(owner)] = (cache, weakref.WeakMethod(rebuild))

    def refresh_fast_masks(self, thread_id: int) -> None:
        """Eagerly rebuild every live registered mask cache for one thread.

        Invalidated caches normally rebuild lazily on their first access
        after a switch (one rebuild per switch, nothing in the per-branch
        loop); this helper exists for drivers that want the rebuild cost at
        a controlled point instead.  Entries of dead structures are skipped.
        """
        for _, weak_rebuild in list(self._mask_caches.values()):
            rebuild = weak_rebuild()
            if rebuild is not None:
                rebuild(thread_id)

    def fused_content_key(self, thread_id: int, width_bits: int,
                          table: object) -> int:
        """Content-key mask fused into storage reads/writes of ``table``."""
        return self._base_key(thread_id, width_bits, table)

    def fused_index_key(self, thread_id: int, index_bits: int,
                        table: object) -> int:
        """Index-key mask (zero: plain XOR-BP does not randomise indices)."""
        return 0

    def _invalidate_keys(self, thread_id: int) -> None:
        self._key_cache.pop(thread_id, None)
        for cache, _ in self._mask_caches.values():
            cache.pop(thread_id, None)

    def on_context_switch(self, thread_id: int) -> None:
        super().on_context_switch(thread_id)
        self._invalidate_keys(thread_id)

    def on_privilege_switch(self, thread_id: int, privilege: int) -> None:
        super().on_privilege_switch(thread_id, privilege)
        self._invalidate_keys(thread_id)

    def _base_key(self, thread_id: int, width_bits: int, table: object,
                  purpose: int = 0) -> int:
        """Per-(thread, table, width, purpose) key, cached until a switch."""
        keys = self._key_cache.get(thread_id)
        if keys is None:
            keys = self._key_cache[thread_id] = {}
        cache_key = (id(table), width_bits, purpose)
        key = keys.get(cache_key)
        if key is None:
            salt = (_table_salt(table) if self._per_table_keys else 0) ^ purpose
            if self._per_table_keys:
                key = self.key_manager.derived_key(thread_id, salt, width_bits)
            elif purpose:
                key = self.key_manager.index_key(thread_id, width_bits)
            else:
                key = self.key_manager.content_key(thread_id, width_bits)
            keys[cache_key] = key
        return key

    def _content_key(self, thread_id: int, width_bits: int, table: object,
                     row: int) -> int:
        key = self._base_key(thread_id, width_bits, table)
        if self._row_diversified:
            # Cheap per-row diffusion: nearby rows use different key bits, the
            # Section 5.5 countermeasure to the reference-branch corner case.
            key ^= (row * 0x45D9F3B) & ((1 << width_bits) - 1)
        return key

    def encode(self, value: int, width_bits: int, thread_id: int, table: object,
               row: int) -> int:
        key = self._content_key(thread_id, width_bits, table, row)
        if self._plain_xor:
            return (value ^ key) & ((1 << width_bits) - 1)
        return self.encoder.encode(value, width_bits, key)

    def decode(self, value: int, width_bits: int, thread_id: int, table: object,
               row: int) -> int:
        key = self._content_key(thread_id, width_bits, table, row)
        if self._plain_xor:
            return (value ^ key) & ((1 << width_bits) - 1)
        return self.encoder.decode(value, width_bits, key)


class NoisyXorIsolation(XorContentIsolation):
    """Noisy-XOR-BP: XOR-BP plus thread-private index randomisation.

    In addition to content encoding, the table index is XORed with a second
    thread-private key before the lookup (Figure 4, green path).  This breaks
    the fixed correspondence between a branch address and its table entry, so
    an attacker can neither *locate* a victim's entry nor interpret which
    entry contended with its own.
    """

    name = "noisy_xor_bp"
    protects_index = True

    def map_index(self, index: int, index_bits: int, thread_id: int,
                  table: object) -> int:
        if index_bits <= 0:
            return index
        key = self._base_key(thread_id, index_bits, table, purpose=0x5A5A5A5A)
        return (index ^ key) & ((1 << index_bits) - 1)

    def fused_index_key(self, thread_id: int, index_bits: int,
                        table: object) -> int:
        """Index-key mask fused into the kernels' storage accesses (same
        key as :meth:`map_index`, so the fused-XOR arm is bit-identical to
        it)."""
        if index_bits <= 0:
            return 0
        return self._base_key(thread_id, index_bits, table,
                              purpose=0x5A5A5A5A) & ((1 << index_bits) - 1)
