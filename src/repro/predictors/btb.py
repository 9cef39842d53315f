"""Set-associative Branch Target Buffer (BTB).

The BTB stores, per entry, a valid bit, a branch-type field, a partial tag
taken from the upper PC bits and the predicted target address.  It is the
structure attacked by Spectre-V2-style malicious training, Branch Shadowing
and the contention-based SBPA / Jump-over-ASLR attacks, and the structure
protected by **XOR-BTB** and **Noisy-XOR-BTB** (Section 5.1, Figure 4(a)):

* the *tag* and the *target address* are XORed with the thread-private
  content key before being written and after being read;
* with Noisy-XOR-BTB the *set index* is additionally XORed with the
  thread-private index key.

Both transformations are delegated to the attached
:class:`repro.predictors.table.TableIsolation` policy so that the same BTB
code serves the Baseline, flush-based and XOR-based configurations.

Hot-path layout
---------------

The simulation hot path works on **flat packed parallel arrays** rather than
per-way entry objects: one contiguous list per field (``valid``, ``tag``,
``target``, ``branch type``, ``owner``, ``LRU stamp``), each of length
``n_sets * n_ways`` with a per-set stride of ``n_ways``.  A set probe is a
``range(base, base + n_ways)`` walk over machine ints — no attribute loads,
no entry-object indirection.  The fused per-(thread, table) XOR masks of the
XOR-family presets are applied inline on the packed fields and re-randomised
only at switch time via the mask-cache registration protocol on
:class:`repro.core.isolation.XorContentIsolation`; Precise Flush's owner
check is applied inline on the ``owner`` field the same way.

On top of the arrays, the conditional-branch probe is served by **per-thread
closure kernels** (:meth:`BranchTargetBuffer.exec_conditional_kernel`): the
geometry constants, the field arrays and the thread's decode masks are bound
once per (thread, rekey) into a closure, so a branch pays no mask-cache
lookup and no isolation-arm branching.  Kernels follow the same protocol as
the generated TAGE/gshare kernels — the batched engines fetch them via the
``exec_*_kernel`` entry point and re-fetch after every switch notification;
key re-randomisation drops them through the registered mask cache.

The scalar protocol (:meth:`lookup` / :meth:`update`), the attack framework
and the flush machinery see the exact same bits through the same arrays, and
:class:`BTBEntry` remains as the introspection value object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .kernelgen import make_kernel
from .table import (IdentityIsolation, TableIsolation, is_owner_isolation,
                    is_passthrough_isolation, row_diversifier_vector,
                    supports_fused_xor)
from ..types import BranchType

__all__ = ["BTBEntry", "BTBResult", "BranchTargetBuffer"]

_NO_OWNER = -1
_CONDITIONAL_INT = int(BranchType.CONDITIONAL)
_DIRECT_INT = int(BranchType.DIRECT)


@dataclass(slots=True)
class BTBEntry:
    """One BTB way, as a detached introspection snapshot.

    The ``tag`` and ``target`` fields hold the *stored* (possibly encoded)
    values; decoding happens on lookup with the key of the requesting thread.
    Since the storage itself lives in flat packed parallel arrays, instances
    of this class are value copies — mutating one does not write the BTB.
    """

    valid: bool = False
    tag: int = 0
    target: int = 0
    branch_type: int = _DIRECT_INT
    owner: int = _NO_OWNER
    last_use: int = 0


@dataclass(slots=True)
class BTBResult:
    """Result of a BTB lookup.

    Attributes:
        hit: True when a way's decoded tag matched the lookup PC.
        target: decoded predicted target (``None`` on a miss).
        set_index: physical set index that was probed.
        way: hitting way (``None`` on a miss).
    """

    hit: bool
    target: Optional[int]
    set_index: int
    way: Optional[int]


class BranchTargetBuffer:
    """Set-associative branch target buffer with pluggable isolation.

    Args:
        n_sets: number of sets (power of two).
        n_ways: associativity.
        tag_bits: width of the stored partial tag.
        target_bits: width of the stored target address.
        isolation: isolation policy (index mapping + tag/target encoding).
    """

    def __init__(self, n_sets: int = 512, n_ways: int = 2, *, tag_bits: int = 16,
                 target_bits: int = 32,
                 isolation: Optional[TableIsolation] = None) -> None:
        if n_sets < 1 or n_sets & (n_sets - 1):
            raise ValueError("n_sets must be a positive power of two")
        if n_ways < 1:
            raise ValueError("n_ways must be positive")
        self._n_sets = n_sets
        self._n_ways = n_ways
        self._index_bits = n_sets.bit_length() - 1
        self._index_mask = n_sets - 1
        self._tag_bits = tag_bits
        self._tag_mask = (1 << tag_bits) - 1
        self._target_bits = target_bits
        self._target_mask = (1 << target_bits) - 1
        self._tag_shift = 2 + self._index_bits
        self._isolation = isolation if isolation is not None else IdentityIsolation()
        self._fast = is_passthrough_isolation(self._isolation)
        self._xor_fast = (not self._fast) and supports_fused_xor(self._isolation)
        # Precise Flush: identity transforms, owner checked inline.
        self._owner_fast = is_owner_isolation(self._isolation)
        # Flat packed parallel arrays: one list per field, ``n_ways`` stride
        # per set.  All access paths (kernels, scalar protocol, flushes,
        # introspection) share these lists; they are reset in place so bound
        # references never go stale.
        total = n_sets * n_ways
        self._valid: List[bool] = [False] * total
        self._tags: List[int] = [0] * total
        self._targets: List[int] = [0] * total
        self._types: List[int] = [_DIRECT_INT] * total
        self._owners: List[int] = [_NO_OWNER] * total
        self._last: List[int] = [0] * total
        # Per-thread (index_key, tag_key, target_key) masks of the fused-XOR
        # fast path, re-randomised at switch time via the isolation policy's
        # mask-cache protocol; the per-set row-diversifier vectors are
        # thread-independent and built lazily.
        self._xor_masks: dict = {}
        self._tag_row_keys: Optional[Tuple[int, ...]] = None
        self._target_row_keys: Optional[Tuple[int, ...]] = None
        # Per-thread conditional-probe kernels (generated, way walk
        # unrolled) and the compiled kernel code objects, keyed by isolation
        # arm.  Registered as a second mask cache under XOR policies so key
        # re-randomisation drops the kernels; the batched engines re-fetch
        # after switch notifications.
        self._cond_kernels: Dict[int, object] = {}
        self._kernel_code: Dict[tuple, object] = {}
        self._clock = 0
        self.name = "btb"
        self.lookups = 0
        self.hits = 0
        if self._xor_fast:
            self._isolation.register_fast_mask_cache(self, self._xor_masks,
                                                     self._build_xor_masks)
            self._kernel_token = object()
            self._isolation.register_fast_mask_cache(self._kernel_token,
                                                     self._cond_kernels,
                                                     self._build_cond_kernel)
        self._isolation.register_flushable(self)

    # -- geometry -------------------------------------------------------------
    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self._n_sets

    @property
    def n_ways(self) -> int:
        """Associativity."""
        return self._n_ways

    @property
    def index_bits(self) -> int:
        """Number of set-index bits."""
        return self._index_bits

    @property
    def tag_bits(self) -> int:
        """Width of the partial tag."""
        return self._tag_bits

    @property
    def target_bits(self) -> int:
        """Width of the stored target."""
        return self._target_bits

    @property
    def entry_bits(self) -> int:
        """Bits per entry (valid + type + tag + target), for the cost model."""
        return 1 + 3 + self._tag_bits + self._target_bits

    @property
    def storage_bits(self) -> int:
        """Total storage in bits."""
        return self._n_sets * self._n_ways * self.entry_bits

    @property
    def isolation(self) -> TableIsolation:
        """The attached isolation policy."""
        return self._isolation

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (1.0 when no lookups were made)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups

    # -- fused-XOR mask maintenance -------------------------------------------
    def _row_diversifier_keys(self) -> None:
        """Bind the per-set row-diffusion vectors (thread-independent,
        shared by every BTB of the same geometry)."""
        if self._tag_row_keys is not None:
            return
        diversified = getattr(self._isolation, "_row_diversified", False)
        self._tag_row_keys = row_diversifier_vector(
            self._n_sets, self._tag_mask if diversified else 0)
        self._target_row_keys = row_diversifier_vector(
            self._n_sets, self._target_mask if diversified else 0)

    def _build_xor_masks(self, thread_id: int) -> tuple:
        """(Re)compute the fused-XOR masks for one hardware thread."""
        self._row_diversifier_keys()
        isolation = self._isolation
        masks = (isolation.fused_index_key(thread_id, self._index_bits, self),
                 isolation.fused_content_key(thread_id, self._tag_bits, self),
                 isolation.fused_content_key(thread_id, self._target_bits, self))
        self._xor_masks[thread_id] = masks
        return masks

    # -- address decomposition ------------------------------------------------
    def logical_set_of(self, pc: int) -> int:
        """Set index derived from the PC before any index encoding."""
        return (pc >> 2) & self._index_mask

    def set_of(self, pc: int, thread_id: int = 0) -> int:
        """Physical set index actually probed for a PC by a given thread."""
        logical = self.logical_set_of(pc)
        mapped = self._isolation.map_index(logical, self._index_bits, thread_id, self)
        return mapped & self._index_mask

    def tag_of(self, pc: int) -> int:
        """Partial tag derived from the upper PC bits."""
        return (pc >> self._tag_shift) & self._tag_mask

    # -- conditional-probe closure kernels ------------------------------------
    def exec_conditional_kernel(self, thread_id: int = 0):
        """Return the thread's fused conditional probe ``fn(pc, target, taken)``.

        The kernel is a closure over the packed field arrays, the geometry
        constants and — under a plain-XOR policy — the thread's precomputed
        decode masks; it performs :meth:`execute_conditional_fast` for one
        hardware thread with no per-call mask lookups or isolation-arm
        branching.  Kernels are dropped whenever the bound masks change (key
        re-randomisation, via the isolation mask-cache protocol) or
        :meth:`invalidate_kernels` is called; the batched engines re-fetch
        after every switch notification.  The callable accepts (and ignores)
        a trailing ``thread_id`` argument so engines can drive the kernel and
        the bound method through one call shape.
        """
        fn = self._cond_kernels.get(thread_id)
        if fn is None:
            fn = self._build_cond_kernel(thread_id)
        return fn

    def invalidate_kernels(self) -> None:
        """Drop every cached probe kernel (tests / manual flag flips)."""
        self._cond_kernels.clear()

    def _build_cond_kernel(self, thread_id: int):
        """Build, cache and return one thread's conditional probe kernel.

        The passthrough, fused-XOR and owner arms are *generated*: the way
        walk is unrolled with the geometry constants inlined as literals,
        while the field arrays and the thread's masks are bound in the
        function's globals, so key rotation swaps namespace entries instead
        of recompiling.  Non-XOR encoders (and forced generic dispatch) get
        the exact generic two-call closure.
        """
        if self._fast or self._xor_fast or self._owner_fast:
            encoded = self._xor_fast
            arm = ("fused-xor" if encoded
                   else "owner" if self._owner_fast else "passthrough")
            diversified = False
            if encoded:
                masks = self._xor_masks.get(thread_id)
                if masks is None:
                    masks = self._build_xor_masks(thread_id)
                diversified = bool(getattr(self._isolation,
                                           "_row_diversified", False))
            namespace = {
                "valid": self._valid, "tags": self._tags,
                "targets": self._targets, "types": self._types,
                "owners": self._owners, "last": self._last,
                "btb": self, "OWNER": thread_id,
            }
            if encoded:
                index_key, tag_key, target_key = masks
                namespace["IK"] = index_key
                namespace["TK"] = tag_key
                namespace["GK"] = target_key
                if diversified:
                    namespace["TRK"] = self._tag_row_keys
                    namespace["GRK"] = self._target_row_keys
            kernel = make_kernel(
                self._kernel_code, ("btb", arm, diversified),
                lambda: self._cond_kernel_source(arm, diversified),
                namespace, arm)
        else:
            # Non-XOR encoders (or forced generic dispatch): the exact
            # generic two-call sequence.
            btb = self
            owner = thread_id

            def kernel(pc, target, taken, _thread_id=0):
                result = btb.lookup(pc, owner)
                if taken:
                    btb.update(pc, target, owner, BranchType.CONDITIONAL)
                return result.hit, result.target

            kernel.arm = "generic"
        self._cond_kernels[thread_id] = kernel
        return kernel

    def _cond_kernel_source(self, arm: str, diversified: bool) -> str:
        """Generate the source of one conditional probe kernel arm.

        Statement order mirrors :meth:`lookup_fast` + :meth:`update` (and
        the previous closure kernels) exactly — the differential-parity
        suite holds the generated kernels, the generic dispatch and the
        scalar protocol bit-identical.

        On the owner arm a hit also needs the way to belong to the probing
        thread, while a taken branch's update re-finds the first valid way
        with a matching tag *whatever its owner* (:meth:`update`'s rule):
        the thread's own hit in way 1 does not rule out the same tag,
        installed by another thread, in way 0.
        """
        encoded = arm == "fused-xor"
        owned = arm == "owner"
        ways = self._n_ways
        idx = [f"i{w}" for w in range(ways)]
        lines = []
        emit = lines.append
        emit("def _kernel(pc, target, taken, _thread_id=0):")
        emit("    btb.lookups += 1")
        emit("    clock = btb._clock + 1")
        if encoded:
            emit(f"    set_index = ((pc >> 2) ^ IK) & {self._index_mask}")
            if diversified:
                emit("    dec_tag = TK ^ TRK[set_index]")
                emit("    dec_target = GK ^ GRK[set_index]")
                emit(f"    enc_tag = ((pc >> {self._tag_shift})"
                     f" & {self._tag_mask}) ^ dec_tag")
            else:
                emit(f"    enc_tag = ((pc >> {self._tag_shift})"
                     f" & {self._tag_mask}) ^ TK")
        else:
            emit(f"    set_index = (pc >> 2) & {self._index_mask}")
            emit(f"    enc_tag = (pc >> {self._tag_shift}) & {self._tag_mask}")
        emit(f"    i0 = set_index * {ways}" if ways > 1
             else "    i0 = set_index")
        for w in range(1, ways):
            emit(f"    i{w} = i0 + {w}")
        if encoded and diversified:
            read = "(targets[{i}] ^ dec_target) & " + str(self._target_mask)
            write = f"(target & {self._target_mask}) ^ dec_target"
        elif encoded:
            read = "(targets[{i}] ^ GK) & " + str(self._target_mask)
            write = f"(target & {self._target_mask}) ^ GK"
        else:
            read = "targets[{i}] & " + str(self._target_mask)
            write = f"target & {self._target_mask}"
        emit("    hit = False")
        emit("    btb_target = None")
        emit("    victim = -1")
        mine = " and owners[{i}] == OWNER" if owned else ""
        for w, i in enumerate(idx):
            emit(f"    {'if' if w == 0 else 'elif'} valid[{i}]"
                 f" and tags[{i}] == enc_tag{mine.format(i=i)}:")
            emit(f"        last[{i}] = clock")
            emit("        btb.hits += 1")
            emit("        hit = True")
            emit(f"        btb_target = {read.format(i=i)}")
            emit(f"        victim = {i}")
        emit("    if taken:")
        emit("        clock += 1")
        if owned:
            for w, i in enumerate(idx):
                emit(f"        {'if' if w == 0 else 'elif'} valid[{i}]"
                     f" and tags[{i}] == enc_tag:")
                emit(f"            victim = {i}")
            emit("        else:")
            emit("            victim = -1")
        emit("        if victim < 0:")
        for w, i in enumerate(idx):
            emit(f"            {'if' if w == 0 else 'elif'} not valid[{i}]:")
            emit(f"                victim = {i}")
        if ways > 1:
            emit("            else:")
            emit(f"                victim = {idx[0]}")
            emit(f"                low = last[{idx[0]}]")
            for i in idx[1:]:
                emit(f"                if last[{i}] < low:")
                emit(f"                    low = last[{i}]")
                emit(f"                    victim = {i}")
        else:
            emit("            else:")
            emit(f"                victim = {idx[0]}")
        emit("        valid[victim] = True")
        emit("        tags[victim] = enc_tag")
        emit(f"        targets[victim] = {write}")
        emit(f"        types[victim] = {_CONDITIONAL_INT}")
        emit("        owners[victim] = OWNER")
        emit("        last[victim] = clock")
        emit("    btb._clock = clock")
        emit("    return hit, btb_target")
        return "\n".join(lines) + "\n"

    # -- prediction protocol --------------------------------------------------
    def lookup_fast(self, pc: int, thread_id: int = 0) -> tuple:
        """Allocation-free lookup used by the batched engine hot path.

        Behaviourally identical to :meth:`lookup` (same counters, same LRU
        update) but returns a plain ``(hit, target)`` tuple instead of a
        :class:`BTBResult`, and skips the isolation virtual dispatch entirely
        when the attached policy is a passthrough (baseline / flush) or a
        plain-XOR encoder (fused thread-private masks), and checks the
        owner inline under Precise Flush.
        """
        owner = -1
        if self._fast or self._owner_fast:
            set_index = (pc >> 2) & self._index_mask
            enc_tag = (pc >> self._tag_shift) & self._tag_mask
            dec_target = 0
            if self._owner_fast:
                owner = thread_id
        elif self._xor_fast:
            # Fused-XOR probe: encode the lookup tag once and compare raw
            # stored tags (XOR is a bijection, so this equals decoding every
            # stored tag); decode the target only on a hit.
            masks = self._xor_masks.get(thread_id)
            if masks is None:
                masks = self._build_xor_masks(thread_id)
            index_key, tag_key, target_key = masks
            set_index = ((pc >> 2) ^ index_key) & self._index_mask
            enc_tag = (((pc >> self._tag_shift) & self._tag_mask)
                       ^ tag_key ^ self._tag_row_keys[set_index])
            dec_target = target_key ^ self._target_row_keys[set_index]
        else:
            result = self.lookup(pc, thread_id)
            return result.hit, result.target
        self.lookups += 1
        clock = self._clock + 1
        self._clock = clock
        valid = self._valid
        tags = self._tags
        owners = self._owners
        base = set_index * self._n_ways
        for i in range(base, base + self._n_ways):
            if (valid[i] and tags[i] == enc_tag
                    and (owner < 0 or owners[i] == owner)):
                self._last[i] = clock
                self.hits += 1
                return True, (self._targets[i] ^ dec_target) & self._target_mask
        return False, None

    def execute_conditional_fast(self, pc: int, target: int, taken: bool,
                                 thread_id: int = 0) -> tuple:
        """Fused conditional-branch probe: lookup plus update-if-taken.

        Behaviourally identical to :meth:`lookup_fast` followed by
        :meth:`update` (for taken branches), but runs the thread's packed
        closure kernel (see :meth:`exec_conditional_kernel`), which computes
        the set index and tag once and falls back to the two-call sequence
        when the isolation policy is neither a passthrough nor a fused-XOR
        encoder.
        """
        fn = self._cond_kernels.get(thread_id)
        if fn is None:
            fn = self._build_cond_kernel(thread_id)
        return fn(pc, target, taken)

    def execute_indirect_fast(self, pc: int, target: int,
                              branch_type: BranchType,
                              thread_id: int = 0) -> tuple:
        """Fused unconditional/indirect probe: lookup plus unconditional update.

        Behaviourally identical to :meth:`lookup_fast` followed by
        :meth:`update` (unconditional branches always train the BTB), but
        computes the set index and tag once on the packed arrays.  Falls back
        to the two-call sequence when the isolation policy is neither a
        passthrough, a fused-XOR encoder nor owner tracking.
        """
        owned = self._owner_fast
        if self._fast or owned:
            set_index = (pc >> 2) & self._index_mask
            dec_tag = dec_target = 0
        elif self._xor_fast:
            masks = self._xor_masks.get(thread_id)
            if masks is None:
                masks = self._build_xor_masks(thread_id)
            index_key, tag_key, target_key = masks
            set_index = ((pc >> 2) ^ index_key) & self._index_mask
            dec_tag = tag_key ^ self._tag_row_keys[set_index]
            dec_target = target_key ^ self._target_row_keys[set_index]
        else:
            result = self.lookup(pc, thread_id)
            self.update(pc, target, thread_id, branch_type)
            return result.hit, result.target
        enc_tag = ((pc >> self._tag_shift) & self._tag_mask) ^ dec_tag
        self.lookups += 1
        clock = self._clock + 1
        valid = self._valid
        tags = self._tags
        targets = self._targets
        last = self._last
        base = set_index * self._n_ways
        end = base + self._n_ways
        hit = False
        btb_target = None
        victim = -1
        owners = self._owners
        for i in range(base, end):
            if (valid[i] and tags[i] == enc_tag
                    and (not owned or owners[i] == thread_id)):
                last[i] = clock
                self.hits += 1
                hit = True
                btb_target = (targets[i] ^ dec_target) & self._target_mask
                victim = i
                break
        # Inlined update(): unconditional branches always install/refresh.
        clock += 1
        if owned:
            # update() re-uses the first way with a matching tag, whatever
            # its owner (see ``_cond_kernel_source``).
            victim = -1
            for i in range(base, end):
                if valid[i] and tags[i] == enc_tag:
                    victim = i
                    break
        if victim < 0:
            for i in range(base, end):
                if not valid[i]:
                    victim = i
                    break
        if victim < 0:
            victim = base
            low = last[base]
            for i in range(base + 1, end):
                if last[i] < low:
                    low = last[i]
                    victim = i
        valid[victim] = True
        tags[victim] = enc_tag
        targets[victim] = (target & self._target_mask) ^ dec_target
        self._types[victim] = int(branch_type)
        owners[victim] = thread_id
        last[victim] = clock
        self._clock = clock
        return hit, btb_target

    def lookup(self, pc: int, thread_id: int = 0) -> BTBResult:
        """Predict the target of the branch at ``pc`` for a hardware thread."""
        self.lookups += 1
        self._clock += 1
        set_index = self.set_of(pc, thread_id)
        lookup_tag = self.tag_of(pc)
        base = set_index * self._n_ways
        tracks_owner = self._isolation.tracks_owner
        for way in range(self._n_ways):
            i = base + way
            if not self._valid[i]:
                continue
            if tracks_owner and self._owners[i] != thread_id:
                # Thread-ID-tagged BTB (Precise Flush): entries are only
                # visible to the hardware thread that installed them.
                continue
            stored_tag = self._isolation.decode(self._tags[i], self._tag_bits,
                                                thread_id, self, set_index)
            if stored_tag == lookup_tag:
                target = self._isolation.decode(self._targets[i], self._target_bits,
                                                thread_id, self, set_index)
                self._last[i] = self._clock
                self.hits += 1
                return BTBResult(hit=True, target=target & self._target_mask,
                                 set_index=set_index, way=way)
        return BTBResult(hit=False, target=None, set_index=set_index, way=None)

    def update(self, pc: int, target: int, thread_id: int = 0,
               branch_type: BranchType = BranchType.DIRECT) -> int:
        """Install or refresh the entry for a *taken* branch.

        Following the BTB update rule exploited by SBPA (Section 2.1), the BTB
        is only updated for taken branches; the caller enforces that.

        Returns:
            The way that was written (useful for tests and attack analysis).
        """
        self._clock += 1
        if self._fast:
            set_index = (pc >> 2) & self._index_mask
            encoded_tag = (pc >> self._tag_shift) & self._tag_mask
            encoded_target = target & self._target_mask
        elif self._xor_fast:
            masks = self._xor_masks.get(thread_id)
            if masks is None:
                masks = self._build_xor_masks(thread_id)
            index_key, tag_key, target_key = masks
            set_index = ((pc >> 2) ^ index_key) & self._index_mask
            encoded_tag = (((pc >> self._tag_shift) & self._tag_mask)
                           ^ tag_key ^ self._tag_row_keys[set_index])
            encoded_target = ((target & self._target_mask)
                              ^ target_key ^ self._target_row_keys[set_index])
        else:
            set_index = self.set_of(pc, thread_id)
            lookup_tag = self.tag_of(pc)
            encoded_tag = self._isolation.encode(lookup_tag, self._tag_bits,
                                                 thread_id, self,
                                                 set_index) & self._tag_mask
            encoded_target = self._isolation.encode(target & self._target_mask,
                                                    self._target_bits, thread_id,
                                                    self, set_index) & self._target_mask
        valid = self._valid
        tags = self._tags
        last = self._last
        base = set_index * self._n_ways
        end = base + self._n_ways

        # Re-use a way whose stored tag matches (same branch, same thread),
        # else an invalid way, else the LRU way (first minimum, matching the
        # original ``min()`` tie-break).
        victim = -1
        for i in range(base, end):
            if valid[i] and tags[i] == encoded_tag:
                victim = i
                break
        if victim < 0:
            for i in range(base, end):
                if not valid[i]:
                    victim = i
                    break
        if victim < 0:
            victim = base
            low = last[base]
            for i in range(base + 1, end):
                if last[i] < low:
                    low = last[i]
                    victim = i

        valid[victim] = True
        tags[victim] = encoded_tag
        self._targets[victim] = encoded_target
        self._types[victim] = int(branch_type)
        self._owners[victim] = thread_id
        last[victim] = self._clock
        return victim - base

    # -- flush protocol -------------------------------------------------------
    def flush(self) -> None:
        """Invalidate every entry (Complete Flush).

        Fields are reset in place so references bound by the closure kernels
        stay valid.
        """
        total = self._n_sets * self._n_ways
        self._valid[:] = [False] * total
        self._owners[:] = [_NO_OWNER] * total

    def flush_thread(self, thread_id: int) -> None:
        """Invalidate entries installed by one hardware thread (Precise Flush)."""
        valid = self._valid
        owners = self._owners
        for i, owner in enumerate(owners):
            if owner == thread_id and valid[i]:
                valid[i] = False
                owners[i] = _NO_OWNER

    # -- introspection (tests, attacks, cost model) ---------------------------
    def _entry_at(self, i: int) -> BTBEntry:
        return BTBEntry(self._valid[i], self._tags[i], self._targets[i],
                        self._types[i], self._owners[i], self._last[i])

    def entries_in_set(self, set_index: int) -> List[BTBEntry]:
        """Raw (stored/encoded) entry snapshots of a physical set."""
        base = (set_index & self._index_mask) * self._n_ways
        return [self._entry_at(base + way) for way in range(self._n_ways)]

    def valid_entry_count(self, thread_id: Optional[int] = None) -> int:
        """Number of valid entries, optionally restricted to one owner."""
        if thread_id is None:
            return sum(1 for v in self._valid if v)
        return sum(1 for v, owner in zip(self._valid, self._owners)
                   if v and owner == thread_id)

    def snapshot(self) -> List[List[BTBEntry]]:
        """Deep copy of all entries (attack framework uses it to diff state)."""
        return [self.entries_in_set(s) for s in range(self._n_sets)]

    def raw_sets(self) -> List[List[tuple]]:
        """Raw stored ``(valid, tag, target)`` triples per set (tests)."""
        return [[(self._valid[i], self._tags[i], self._targets[i])
                 for i in range(s * self._n_ways, (s + 1) * self._n_ways)]
                for s in range(self._n_sets)]

    def reset_stats(self) -> None:
        """Clear lookup/hit counters (state is untouched)."""
        self.lookups = 0
        self.hits = 0
